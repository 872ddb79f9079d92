// Instruction mapping + operand conversion (paper Fig. 2, first two
// boxes): translates RV-32I(+M) instructions into ART-9 XIR, expanding
// instructions without a direct ternary counterpart into primitive
// sequences, materialising wide immediates through LUI/LI pairs, and
// renaming registers through the RegisterMap.
//
// Mapping contract (the documented scope line — inputs outside it raise
// TranslationError):
//  * data access is word-granular (lw/sw only); one rv32 data word at byte
//    address A lives in the TDM at balanced address A, so pointers and
//    offsets translate unchanged (and A must not exceed 9841);
//  * values (and initialised data) stay within the 9-trit balanced range
//    [-9841, +9841];
//  * and/or/xor (+ immediates 0/1) follow the boolean-operand contract:
//    min/max coincide with bitwise and/or on {0,1}, and xor expands to
//    |a-b|, exact on {0,1};
//  * bltu/bgeu map to the signed comparison (valid for in-range
//    non-negative operands);
//  * left shifts strength-reduce to repeated doubling; right shifts,
//    byte/halfword access and auipc have no ternary counterpart;
//  * mul expands to a call to the trit-serial __mul runtime routine;
//    div/divu and rem/remu call the trit-serial __divmod routine
//    (RISC-V M semantics: truncation toward zero, remainder follows the
//    dividend, division by zero yields quotient -1 / remainder a;
//    divu/remu coincide with the signed forms under the non-negative
//    operand contract);
//  * link values are opaque ART-9 addresses (only meaningful to JALR).
#pragma once

#include "rv32/rv32_program.hpp"
#include "xlat/regalloc.hpp"
#include "xlat/xir.hpp"

namespace art9::xlat {

struct MappingResult {
  XProgram program;
  bool uses_mul_routine = false;
};

/// Maps a whole rv32 program (code + data) to XIR, appending runtime
/// routines that the code calls.  The emitted program starts with the
/// prologue (zero-register initialisation) and preserves rv32 control
/// flow through "A<byteaddr>" labels.
[[nodiscard]] MappingResult map_program(const rv32::Rv32Program& input, const RegisterMap& map);

}  // namespace art9::xlat

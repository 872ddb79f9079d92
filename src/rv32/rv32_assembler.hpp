// Two-pass assembler for RV32I(+M) assembly text — the front door of the
// software-level compiling framework (paper Fig. 2 consumes RV-32I
// assembly produced by a stock compiler; this repository's benchmark
// corpus is written in the same dialect).
//
// Comments, labels, directives and expressions are the shared dialect of
// asm/source.hpp, with byte addressing: a data word is 4 bytes, its value
// and its address fit in 32 bits.  Registers are x0..x31 or their ABI
// names.  Standard pseudo-instructions are expanded:
//   nop, mv, li (addi, or lui+addi unless pass 1 saw a 12-bit constant),
//   la, j, jr, ret, beqz/bnez/bltz/bgez/bgtz/blez, ble/bgt/bleu/bgtu
//   (operand swap), call (jal ra), halt (ebreak — the run-to-completion
//   convention).
#pragma once

#include <string_view>

#include "asm/source.hpp"
#include "rv32/rv32_program.hpp"

namespace art9::rv32 {

using Rv32AsmError = assembly::AsmError;

[[nodiscard]] Rv32Program assemble_rv32(std::string_view source);

}  // namespace art9::rv32

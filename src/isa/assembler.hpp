// Two-pass assembler for ART-9 assembly text.  Comments, labels,
// directives and expressions are the shared dialect of asm/source.hpp;
// this file adds the ART-9 parts:
//
//   MNEMONIC operands      one of the 24 Table-I instructions
//
// Registers are T0..T8.  Branch/jump targets are labels (the assembler
// computes the PC-relative offset) or explicit offsets; memory operands
// are `imm(Tb)` or `Ta, Tb, imm`.  The B operand of BEQ/BNE is '-', '0'
// or '+' (also accepted: -1, 0, 1 and N, Z, P).  A data word is one TDM
// word: its value and its balanced address lie in [-9841, 9841].
//
// Pseudo-instructions:
//   NOP              -> ADDI T0, 0       (paper §IV-B)
//   HALT             -> JAL  T0, 0       (self-jump; simulators stop)
//   LIMM Ta, <expr>  -> LUI Ta, hi4 ; LI Ta, lo5   (full 9-trit constant)
#pragma once

#include <string_view>

#include "asm/source.hpp"
#include "isa/program.hpp"

namespace art9::isa {

using AsmError = assembly::AsmError;

/// Assembles `source` into a program.  Throws AsmError on the first
/// diagnostic.
[[nodiscard]] Program assemble(std::string_view source);

}  // namespace art9::isa

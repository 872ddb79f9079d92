// 9-trit instruction encoding of the ART-9 ISA.
//
// The paper fixes the instruction *formats* (Table I) but not the trit
// layout; this file defines the layout used throughout this repository.
// Opcode/selector fields and register indices live in the unsigned digit
// domain (levels 0..2 per trit); immediates are balanced (signed).
//
//   trit:        t8 t7 | t6 t5 t4 t3 t2 t1 t0
//   major (t8,t7):
//     (0,0) t6 in {0,1} : R      func=(t6,t5,t4)u  Ta=(t3,t2)  Tb=(t1,t0)
//     (0,0) t6 == 2     : LUI    Ta=(t5,t4)        imm4=t3..t0
//     (0,1)             : Ishort func=(t6,t5)u     Ta=(t4,t3)
//                           ANDI/ADDI: imm3 = t2..t0 (balanced)
//                           SRI/SLI  : t2 = 0, shamt = (t1,t0) unsigned
//     (0,2)             : LI     Ta=(t6,t5)        imm5=t4..t0
//     (1,0)             : JAL    Ta=(t6,t5)        imm5=t4..t0
//     (1,1)             : JALR   Ta=(t6,t5)  Tb=(t4,t3)  imm3=t2..t0
//     (1,2)             : BEQ    Tb=(t6,t5)  B=t4        imm4=t3..t0
//     (2,0)             : BNE    Tb=(t6,t5)  B=t4        imm4=t3..t0
//     (2,1)             : LOAD   Ta=(t6,t5)  Tb=(t4,t3)  imm3=t2..t0
//     (2,2)             : STORE  Ta=(t6,t5)  Tb=(t4,t3)  imm3=t2..t0
//
// R-type func values (unsigned 0..11, t6 restricted to {0,1}):
//   0 MV, 1 PTI, 2 NTI, 3 STI, 4 AND, 5 OR, 6 XOR, 7 ADD, 8 SUB,
//   9 SR, 10 SL, 11 COMP.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "isa/instruction.hpp"
#include "ternary/word.hpp"

namespace art9::isa {

/// Raised by `decode` on patterns outside the defined encoding space.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised by `encode` when operands violate the opcode's field ranges.
class EncodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The first field of an instruction with no encoding, and the
/// instruction as text ("opcode N" for a bad opcode, which to_string
/// cannot look up).
struct FieldViolation {
  std::string_view field;  // "opcode", "register", "branch condition" or "immediate"
  std::string text;
};

/// The encoding's field rules, which encode() and sim::check_t9_program
/// both apply: an opcode of Table I, Ta and Tb in T0..T8 in every format
/// (the simulators read both), a branch condition that is a trit, and an
/// immediate in its format's range (R-types carry none).  nullopt when
/// `inst` encodes.
[[nodiscard]] std::optional<FieldViolation> field_violation(const Instruction& inst);

/// Encodes one instruction into its 9-trit machine word.
/// Throws EncodeError when a field breaks field_violation's rules.
[[nodiscard]] ternary::Word9 encode(const Instruction& inst);

/// Decodes one machine word.  Throws DecodeError on invalid patterns
/// (undefined R func values, undefined I-short selectors, non-zero pad
/// trit of SRI/SLI).
[[nodiscard]] Instruction decode(const ternary::Word9& word);

/// Non-throwing decode.
[[nodiscard]] std::optional<Instruction> try_decode(const ternary::Word9& word) noexcept;

/// True iff `word` is a defined ART-9 encoding.
[[nodiscard]] inline bool is_valid_encoding(const ternary::Word9& word) noexcept {
  return try_decode(word).has_value();
}

}  // namespace art9::isa

// The ternary arithmetic-logic unit (TALU) of the EX stage (paper Fig. 4).
//
// `execute` computes the 9-trit result of every data-processing opcode from
// the two source operands; both simulators (functional golden model and the
// cycle-accurate pipeline) call this single definition so the architectural
// semantics live in exactly one place.
#pragma once

#include "isa/instruction.hpp"
#include "sim/decoded_image.hpp"
#include "ternary/word.hpp"

namespace art9::sim {

/// Unsigned shift amount taken from the two least-significant trits of a
/// word (register-shift forms SR/SL use TRF[Tb][1:0], paper Table I).
[[nodiscard]] int shift_amount(const ternary::Word9& w) noexcept;

/// COMP result word: sign(a - b) in the least-significant trit, upper
/// trits zero (the paper specifies only the LST; zeroing the rest is this
/// implementation's documented choice).
[[nodiscard]] ternary::Word9 comp_result(const ternary::Word9& a, const ternary::Word9& b) noexcept;

/// Executes the data-processing portion of `inst` on operands
/// `a` (= TRF[Ta] or current PC for jumps) and `b` (= TRF[Tb]).
/// For LUI/LI, `a` is the old destination value.
/// Branches/jumps/memory ops are *not* handled here (control flow and
/// memory access belong to the pipeline stages), except that JAL/JALR link
/// values and memory addresses are plain additions performed by the
/// caller.
[[nodiscard]] ternary::Word9 execute(const isa::Instruction& inst, const ternary::Word9& a,
                                     const ternary::Word9& b);

/// Pre-decoded variant for the dispatch fast path: identical semantics to
/// the Instruction overload, but immediate operands come pre-encoded in
/// the image's row (`op.word9`), so no `Word9::from_int` runs per step.
[[nodiscard]] ternary::Word9 execute(const PackedOp& op, const ternary::Word9& a,
                                     const ternary::Word9& b);

}  // namespace art9::sim

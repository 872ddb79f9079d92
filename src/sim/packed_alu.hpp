// The packed ART-9 semantics, written once: every data-processing cell of
// the ISA on binary-coded-ternary plane pairs (the packed mirror of
// sim::execute(const DecodedOp&, ...)), the LOAD/STORE and JALR address
// cells, and the one-instruction step built on them.
//
// Users:
//  * packed_step() — SuperblockSimulator::step() on its packed TRF/TDM
//    and FleetSimulator::step_lane() on one lane of the transposed state;
//  * the packed pipeline's EX stage (PackedPipelineDatapath::alu);
//  * the superblock tier's threaded handlers (one per
//    ART9_PACKED_ALU_KINDS entry) and its fused kLoadOp.
// The fleet's bit-sliced cells (fleet.cpp) expand the same kind list.
// The cells are force-inlined, so a threaded handler compiles to the same
// straight-line plane arithmetic as a hand-written body would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/decoded_image.hpp"
#include "sim/machine.hpp"
#include "ternary/bct.hpp"
#include "ternary/packed.hpp"

#if defined(__GNUC__)
#define ART9_PACKED_INLINE [[gnu::always_inline]] inline
#else
#define ART9_PACKED_INLINE inline
#endif

/// The data-processing DispatchKinds, in enum order: the register-operand
/// kinds (the only ones a fused LOAD+ALU slot holds), then the immediate
/// forms.  Expanded by the runtime-kind switches below and by the
/// backends' per-kind handler tables.
#define ART9_PACKED_REG_ALU_KINDS(X) \
  X(kMv) X(kPti) X(kNti) X(kSti) X(kAnd) X(kOr) X(kXor) X(kAdd) X(kSub) X(kSr) X(kSl) X(kComp)
#define ART9_PACKED_ALU_KINDS(X) \
  ART9_PACKED_REG_ALU_KINDS(X) X(kAndi) X(kAddi) X(kSri) X(kSli) X(kLui) X(kLi)

namespace art9::sim {

/// One data-processing cell: kind K on `a` (= TRF[Ta]; for LUI/LI the old
/// destination value), `b` (= TRF[Tb]) and the row's pre-decoded operands
/// — the `word()` planes (ANDI/LUI/LI immediate) and the numeric `imm`.
/// `Op` is any row type carrying those fields (PackedOp, SuperOp).
template <DispatchKind K, class Op>
[[nodiscard]] ART9_PACKED_INLINE ternary::BctWord9 packed_cell(
    [[maybe_unused]] const ternary::BctWord9& a, [[maybe_unused]] const ternary::BctWord9& b,
    [[maybe_unused]] const Op& op) {
  namespace pk = ternary::packed;
  using ternary::BctWord9;
  if constexpr (K == DispatchKind::kMv) {
    return b;
  } else if constexpr (K == DispatchKind::kPti) {
    return b.pti();
  } else if constexpr (K == DispatchKind::kNti) {
    return b.nti();
  } else if constexpr (K == DispatchKind::kSti) {
    return b.sti();
  } else if constexpr (K == DispatchKind::kAnd) {
    return BctWord9::tand(a, b);
  } else if constexpr (K == DispatchKind::kOr) {
    return BctWord9::tor(a, b);
  } else if constexpr (K == DispatchKind::kXor) {
    return BctWord9::txor(a, b);
  } else if constexpr (K == DispatchKind::kAdd) {
    return pk::add(a, b);
  } else if constexpr (K == DispatchKind::kSub) {
    return pk::sub(a, b);
  } else if constexpr (K == DispatchKind::kSr) {
    return a.shr(pk::shift_amount(b));
  } else if constexpr (K == DispatchKind::kSl) {
    return a.shl(pk::shift_amount(b));
  } else if constexpr (K == DispatchKind::kComp) {
    return pk::comp_word(a, b);
  } else if constexpr (K == DispatchKind::kAndi) {
    return BctWord9::tand(a, op.word());
  } else if constexpr (K == DispatchKind::kAddi) {
    return pk::add_int(a, op.imm);
  } else if constexpr (K == DispatchKind::kSri) {
    // Negative amounts wrap to huge unsigned values and clear the word —
    // same contract as the reference path's size_t cast.
    return a.shr(static_cast<unsigned>(static_cast<int>(op.imm)));
  } else if constexpr (K == DispatchKind::kSli) {
    return a.shl(static_cast<unsigned>(static_cast<int>(op.imm)));
  } else if constexpr (K == DispatchKind::kLui) {
    return op.word();  // complete result, pre-packed at decode
  } else {
    static_assert(K == DispatchKind::kLi, "kind has no data-processing result");
    // {Ta[8:5], imm[4:0]}: keep the high-trit plane bits, OR in the
    // pre-packed low-5 immediate.
    constexpr uint32_t kHigh4 = BctWord9::kMask & ~0x1Fu;
    return BctWord9::from_planes_unchecked((a.neg_plane() & kHigh4) | op.word_neg,
                                           (a.pos_plane() & kHigh4) | op.word_pos);
  }
}

#define ART9_PACKED_ALU_CASE(K) \
  case DispatchKind::K:         \
    return packed_cell<DispatchKind::K>(a, b, op);

/// The runtime-kind form over the same cells.  Branches, jumps and memory
/// ops have no data-processing result here (they belong to the step and
/// the pipeline stages): std::logic_error, mirroring execute().
template <class Op>
[[nodiscard]] ART9_PACKED_INLINE ternary::BctWord9 packed_alu(DispatchKind kind,
                                                              const ternary::BctWord9& a,
                                                              const ternary::BctWord9& b,
                                                              const Op& op) {
  switch (kind) {
    ART9_PACKED_ALU_KINDS(ART9_PACKED_ALU_CASE)
    default:
      throw std::logic_error("packed TALU: kind has no data-processing result: kind " +
                             std::to_string(static_cast<int>(kind)));
  }
}

/// The register-operand cells only — the fused second half of a LOAD+ALU
/// pair (the immediate forms never fuse, so the switch stays small).
template <class Op>
[[nodiscard]] ART9_PACKED_INLINE ternary::BctWord9 packed_reg_alu(DispatchKind kind,
                                                                  const ternary::BctWord9& a,
                                                                  const ternary::BctWord9& b,
                                                                  const Op& op) {
  switch (kind) {
    ART9_PACKED_REG_ALU_KINDS(ART9_PACKED_ALU_CASE)
    default:
      throw std::logic_error("packed TALU: fused ALU slot holds a non-register kind " +
                             std::to_string(static_cast<int>(kind)));
  }
}

#undef ART9_PACKED_ALU_CASE

/// TDM row of a LOAD/STORE: TRF[Tb] + imm, folded mod 3^9.
[[nodiscard]] ART9_PACKED_INLINE std::size_t packed_tdm_row(const ternary::BctWord9& base,
                                                            int32_t imm) noexcept {
  return ternary::packed::row_of(ternary::packed::to_int(base) + imm);
}

/// JALR target PC: TRF[Tb] + imm, wrapped to a balanced address.  A
/// target equal to the JALR's own PC is the halt convention.
[[nodiscard]] ART9_PACKED_INLINE int32_t packed_jalr_target(const ternary::BctWord9& base,
                                                            int32_t imm) noexcept {
  return ternary::packed::wrap(ternary::packed::to_int(base) + imm);
}

/// Executes the instruction at `row` of the packed TIM on `m` and advances
/// `row` to its successor.  Returns false when the HALT convention (a
/// self-jump) executes — `row` then rests on it; throws SimError on an
/// uninitialised row.  `Machine` is the register/TDM accessor of one
/// packed machine:
///
///   ternary::BctWord9 reg(unsigned r) const;        // TRF[r]
///   void set_reg(unsigned r, const ternary::BctWord9& v);
///   void load(unsigned r, std::size_t tdm_row);     // TRF[r] = TDM[row], counted
///   void store(std::size_t tdm_row, unsigned r);    // TDM[row] = TRF[r], counted
template <class Machine>
bool packed_step(Machine&& m, const PackedOp* rows, uint32_t& row) {
  const PackedOp& op = rows[row];
  switch (op.kind) {
    case DispatchKind::kBeq:
    case DispatchKind::kBne: {
      const bool eq = m.reg(op.tb).lst_value() == op.bcond;
      row = eq == (op.kind == DispatchKind::kBeq) ? op.taken_row : op.next_row;
      return true;
    }
    case DispatchKind::kHalt:
      return false;
    case DispatchKind::kJal:
      m.set_reg(op.ta, op.word());  // the pre-packed link
      row = op.taken_row;
      return true;
    case DispatchKind::kJalr: {
      // The target is read before the link write (ta may alias tb).
      const int32_t target = packed_jalr_target(m.reg(op.tb), op.imm);
      if (target == op.pc) return false;  // self-jump = halt (no link write)
      m.set_reg(op.ta, op.word());
      row = static_cast<uint32_t>(ternary::packed::row_of(target));
      return true;
    }
    case DispatchKind::kLoad:
      m.load(op.ta, packed_tdm_row(m.reg(op.tb), op.imm));
      break;
    case DispatchKind::kStore:
      m.store(packed_tdm_row(m.reg(op.tb), op.imm), op.ta);
      break;
    case DispatchKind::kInvalid:
      throw SimError("fetch from uninitialised TIM address " + std::to_string(op.pc));
    default:
      m.set_reg(op.ta, packed_alu(op.kind, m.reg(op.ta), m.reg(op.tb), op));
      break;
  }
  row = op.next_row;
  return true;
}

}  // namespace art9::sim

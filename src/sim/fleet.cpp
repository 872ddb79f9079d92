#include "sim/fleet.hpp"

#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/packed_alu.hpp"
#include "ternary/packed.hpp"

namespace art9::sim {

using ternary::BctWord9;
namespace pk = ternary::packed;
namespace bs = ternary::bitsliced;

namespace {

[[nodiscard]] inline unsigned first_lane(uint32_t mask) noexcept {
  return static_cast<unsigned>(std::countr_zero(mask));
}

/// One bit-sliced data-processing cell: packed_cell<K> (packed_alu.hpp)
/// applied to every lane of the cohort at once.  Immediates broadcast
/// from the op's pre-packed planes.
template <DispatchKind K>
[[nodiscard]] ART9_PACKED_INLINE bs::SlicedWord9 sliced_cell(
    [[maybe_unused]] const bs::SlicedWord9& a, [[maybe_unused]] const bs::SlicedWord9& b,
    [[maybe_unused]] const SuperOp& op) {
  if constexpr (K == DispatchKind::kMv) {
    return b;
  } else if constexpr (K == DispatchKind::kPti) {
    return bs::pti(b);
  } else if constexpr (K == DispatchKind::kNti) {
    return bs::nti(b);
  } else if constexpr (K == DispatchKind::kSti) {
    return bs::sti(b);
  } else if constexpr (K == DispatchKind::kAnd) {
    return bs::tand(a, b);
  } else if constexpr (K == DispatchKind::kOr) {
    return bs::tor(a, b);
  } else if constexpr (K == DispatchKind::kXor) {
    return bs::txor(a, b);
  } else if constexpr (K == DispatchKind::kAdd) {
    return bs::add(a, b);
  } else if constexpr (K == DispatchKind::kSub) {
    return bs::sub(a, b);
  } else if constexpr (K == DispatchKind::kSr) {
    return bs::shr_var(a, b);
  } else if constexpr (K == DispatchKind::kSl) {
    return bs::shl_var(a, b);
  } else if constexpr (K == DispatchKind::kComp) {
    return bs::comp(a, b);
  } else if constexpr (K == DispatchKind::kAndi) {
    return bs::tand(a, bs::broadcast(op.word()));
  } else if constexpr (K == DispatchKind::kAddi) {
    // Exact: adding the pre-encoded (wrapped) immediate word mod 3^9 is
    // add_int.  The plan carries the planes, so no re-encode here.
    return bs::add(a, bs::broadcast(op.word()));
  } else if constexpr (K == DispatchKind::kSri) {
    return bs::shr(a, static_cast<unsigned>(static_cast<int>(op.imm)));
  } else if constexpr (K == DispatchKind::kSli) {
    return bs::shl(a, static_cast<unsigned>(static_cast<int>(op.imm)));
  } else if constexpr (K == DispatchKind::kLui) {
    return bs::broadcast(op.word());
  } else {
    static_assert(K == DispatchKind::kLi, "kind has no data-processing result");
    // Keep the high four trits, insert the pre-packed imm5 planes.
    bs::SlicedWord9 r = a;
    for (unsigned t = 0; t < 5; ++t) {
      r.neg[t] = 0u - ((static_cast<uint32_t>(op.word_neg) >> t) & 1u);
      r.pos[t] = 0u - ((static_cast<uint32_t>(op.word_pos) >> t) & 1u);
    }
    return r;
  }
}

/// The register-operand cells by runtime kind — kLoadOp's fused second
/// half.
[[nodiscard]] bs::SlicedWord9 sliced_reg_alu(DispatchKind kind, const bs::SlicedWord9& a,
                                             const bs::SlicedWord9& b, const SuperOp& op) {
  switch (kind) {
#define ART9_SLICED_ALU_CASE(K) \
  case DispatchKind::K:         \
    return sliced_cell<DispatchKind::K>(a, b, op);
    ART9_PACKED_REG_ALU_KINDS(ART9_SLICED_ALU_CASE)
#undef ART9_SLICED_ALU_CASE
    default:
      throw SimError("fleet: non-register kind in fused ALU slot");
  }
}

}  // namespace

FleetSimulator::FleetSimulator(const isa::Program& program, unsigned lanes)
    : FleetSimulator(decode(program), lanes) {}

FleetSimulator::FleetSimulator(std::shared_ptr<const DecodedImage> image, unsigned lanes)
    : image_(std::move(image)), rows_(nullptr), plan_(nullptr), lanes_(lanes) {
  if (!image_) throw std::invalid_argument("FleetSimulator: null image");
  if (lanes_ < 1 || lanes_ > kMaxLanes) {
    throw std::invalid_argument("FleetSimulator: lanes must be in [1, " +
                                std::to_string(kMaxLanes) + "]");
  }
  rows_ = image_->rows_data();
  plan_ = &image_->superblocks();
  stdm_.resize(static_cast<std::size_t>(TernaryMemory::kRows));
  // Every lane boots with the same image, so data words broadcast.
  for (const isa::DataWord& d : image_->program().data) {
    stdm_[TernaryMemory::row_of(d.address)] = bs::broadcast(BctWord9::encode(d.value));
  }
  row_.fill(static_cast<uint32_t>(DecodedImage::row_of(image_->program().entry)));
}

BctWord9 FleetSimulator::lane_word(int reg, unsigned lane) const {
  return bs::extract_lane(trf_[static_cast<std::size_t>(reg)], lane);
}

// The per-lane slow path (partial-block budget tails, the observed-run
// engine path): the shared packed_step() over one lane of the sliced
// state.  Registers gather/scatter the lane's bits; TDM moves copy its
// bit between sliced words without un-transposing.
bool FleetSimulator::step_lane(unsigned lane) {
  struct Lane {
    FleetSimulator& f;
    unsigned lane;
    [[nodiscard]] BctWord9 reg(unsigned r) const { return f.lane_word(static_cast<int>(r), lane); }
    void set_reg(unsigned r, const BctWord9& v) { bs::insert_lane(f.trf_[r], lane, v); }
    void load(unsigned r, std::size_t row) {
      ++f.mem_reads_[lane];
      bs::copy_lane(f.trf_[r], f.stdm_[row], lane);
    }
    void store(std::size_t row, unsigned r) {
      ++f.mem_writes_[lane];
      bs::copy_lane(f.stdm_[row], f.trf_[r], lane);
    }
  };
  return packed_step(Lane{*this, lane}, rows_, row_[lane]);
}

// One full superblock pass for every lane in `mask` — every body op is
// one set of plane operations over the whole cohort; only TDM traffic
// and JALR targets gather/scatter per lane.  Callers guarantee each
// masked lane has remaining budget >= blk.min_budget, so the pass is
// exact (the same all-or-nothing entry clamp as the scalar fast loop).
void FleetSimulator::execute_block(uint32_t row, uint32_t mask, std::vector<LaneProgress>& out,
                                   std::array<uint64_t, kMaxLanes>& instrs,
                                   std::array<uint64_t, kMaxLanes>& remaining, uint32_t& active) {
  bs::SlicedWord9* const trf = trf_.data();
  const Superblock* blkp = &plan_->blocks[row];

  // Batched block accounting per completing lane; `fewer` backs retires
  // out (the halting JALR's entry-clamp share).  A lane whose budget
  // hits zero leaves the active set.  `min_remaining` (over the lanes
  // just retired) is what block chaining tests against the next block's
  // min_budget — >= 1 there implies no lane was exhausted.  The full
  // 32-lane cohort takes the dense scan-free loop (vectorisable).
  uint64_t min_remaining = 0;
  const auto retire = [&](uint32_t lanes, uint32_t fewer = 0) {
    const uint64_t d = blkp->retires - fewer;
    min_remaining = UINT64_MAX;
    if (lanes == ~0u) {
      for (unsigned i = 0; i < kMaxLanes; ++i) {
        instrs[i] += d;
        remaining[i] -= d;
        mem_reads_[i] += blkp->mem_reads;
        mem_writes_[i] += blkp->mem_writes;
        min_remaining = remaining[i] < min_remaining ? remaining[i] : min_remaining;
      }
      if (min_remaining > 0) return;  // nobody exhausted (the common case)
    }
    for (uint32_t scan = lanes; scan != 0; scan &= scan - 1) {
      const unsigned i = first_lane(scan);
      if (lanes != ~0u) {
        instrs[i] += d;
        remaining[i] -= d;
        mem_reads_[i] += blkp->mem_reads;
        mem_writes_[i] += blkp->mem_writes;
        if (remaining[i] < min_remaining) min_remaining = remaining[i];
      }
      if (remaining[i] == 0) active &= ~(1u << i);
    }
  };
  const auto set_rows = [&](uint32_t lanes, uint32_t target) {
    for (uint32_t scan = lanes; scan != 0; scan &= scan - 1) row_[first_lane(scan)] = target;
  };
  // A uniform address register — the lockstep common case — collapses
  // the whole cohort's TDM traffic to one masked plane copy against the
  // transposed memory; divergent lanes move their own bit.
  const auto uniform_tdm_row = [&](const SuperOp& o) {
    return packed_tdm_row(bs::extract_lane(trf[o.tb], first_lane(mask)), o.imm);
  };
  const auto load = [&](const SuperOp& o) {
    if (bs::uniform(trf[o.tb], mask)) {
      bs::assign_masked(trf[o.ta], stdm_[uniform_tdm_row(o)], mask);
      return;
    }
    for (uint32_t scan = mask; scan != 0; scan &= scan - 1) {
      const unsigned i = first_lane(scan);
      bs::copy_lane(trf[o.ta], stdm_[packed_tdm_row(lane_word(o.tb, i), o.imm)], i);
    }
  };

  // Lockstep block chaining: while every mask lane agrees on one
  // successor and the tightest remaining budget still fits it, dispatch
  // straight into the next block — no cohort re-formation in advance(),
  // no row_ writes (rows are only materialised when the cohort breaks).
  uint32_t next_row = 0;
  for (;;) {
    const SuperOp* op = plan_->ops.data() + blkp->first_op;
    for (;; ++op) {
      switch (op->kind) {
      // --- body ops: one plane operation for the whole cohort ------------
#define ART9_FLEET_CELL(K)                                                                     \
  case SuperOpKind::K:                                                                         \
    bs::assign_masked(trf[op->ta], sliced_cell<DispatchKind::K>(trf[op->ta], trf[op->tb], *op), \
                      mask);                                                                   \
    break;
      ART9_PACKED_ALU_KINDS(ART9_FLEET_CELL)
#undef ART9_FLEET_CELL
      // Counter deltas for the memory ops are batched per block (retire),
      // as on the scalar fast path.
      case SuperOpKind::kLoad:
        load(*op);
        break;
      case SuperOpKind::kStore:
        if (bs::uniform(trf[op->tb], mask)) {
          bs::assign_masked(stdm_[uniform_tdm_row(*op)], trf[op->ta], mask);
        } else {
          for (uint32_t scan = mask; scan != 0; scan &= scan - 1) {
            const unsigned i = first_lane(scan);
            bs::copy_lane(stdm_[packed_tdm_row(lane_word(op->tb, i), op->imm)], trf[op->ta], i);
          }
        }
        break;
      case SuperOpKind::kLoadOp:
        load(*op);
        bs::assign_masked(trf[op->ta2],
                          sliced_reg_alu(static_cast<DispatchKind>(op->kind2), trf[op->ta2],
                                         trf[op->tb2], *op),
                          mask);
        break;

      // --- terminators: reconcile the cohort, one group per successor ----
      case SuperOpKind::kBranch: {
        const uint32_t eq = bs::lst_eq_mask(trf[op->tb], op->bcond);
        const uint32_t taken = ((op->flags & SuperOp::kFlagBne) ? ~eq : eq) & mask;
        retire(mask);
        if (taken == mask || taken == 0) {
          next_row = taken != 0 ? op->taken_row : op->next_row;
          goto chain;
        }
        set_rows(taken, op->taken_row);
        set_rows(mask & ~taken, op->next_row);
        return;
      }
      case SuperOpKind::kCmpBranch: {
        const bs::SlicedWord9 r = sliced_cell<DispatchKind::kComp>(trf[op->ta], trf[op->tb], *op);
        bs::assign_masked(trf[op->ta], r, mask);
        const uint32_t eq = bs::lst_eq_mask(r, op->bcond);
        const uint32_t taken = ((op->flags & SuperOp::kFlagBne) ? ~eq : eq) & mask;
        retire(mask);
        if (taken == mask || taken == 0) {
          next_row = taken != 0 ? op->taken_row : op->next_row;
          goto chain;
        }
        set_rows(taken, op->taken_row);
        set_rows(mask & ~taken, op->next_row);
        return;
      }
      case SuperOpKind::kJal:
        bs::assign_masked(trf[op->ta], bs::broadcast(op->word()), mask);
        retire(mask);
        next_row = op->taken_row;
        goto chain;
      case SuperOpKind::kJalr: {
        // Uniform target register — the lockstep case — decides the whole
        // cohort with one extraction (computed before the link write; ta
        // may alias tb).
        if (bs::uniform(trf[op->tb], mask)) {
          const int32_t target =
              packed_jalr_target(bs::extract_lane(trf[op->tb], first_lane(mask)), op->imm);
          if (target == op->pc) {
            // Self-jump = halt: never retires, back out the entry clamp.
            retire(mask, 1);
            set_rows(mask, op->self_row);
            for (uint32_t scan = mask; scan != 0; scan &= scan - 1) {
              out[first_lane(scan)].halted = true;
            }
            active &= ~mask;
            return;
          }
          bs::assign_masked(trf[op->ta], bs::broadcast(op->word()), mask);
          retire(mask);
          next_row = static_cast<uint32_t>(pk::row_of(target));
          goto chain;
        }
        // Per-lane dynamic targets: gather all of them before the link
        // write (ta may alias tb), then split halting vs jumping lanes.
        std::array<int32_t, kMaxLanes> target{};
        uint32_t halting = 0;
        for (uint32_t scan = mask; scan != 0; scan &= scan - 1) {
          const unsigned i = first_lane(scan);
          target[i] = packed_jalr_target(lane_word(op->tb, i), op->imm);
          if (target[i] == op->pc) halting |= 1u << i;
        }
        const uint32_t jumping = mask & ~halting;
        bs::assign_masked(trf[op->ta], bs::broadcast(op->word()), jumping);
        retire(jumping);
        for (uint32_t scan = jumping; scan != 0; scan &= scan - 1) {
          const unsigned i = first_lane(scan);
          row_[i] = static_cast<uint32_t>(pk::row_of(target[i]));
        }
        // Self-jump = halt: it never retires, so back its entry-clamp
        // share out of the batched count (mirrors the scalar h_jalr).
        retire(halting, 1);
        for (uint32_t scan = halting; scan != 0; scan &= scan - 1) {
          const unsigned i = first_lane(scan);
          row_[i] = op->self_row;
          out[i].halted = true;
        }
        active &= ~halting;
        return;
      }
      case SuperOpKind::kFallthrough:
        retire(mask);
        next_row = op->next_row;
        goto chain;
      case SuperOpKind::kHalt:
        retire(mask);  // body only; the halt pseudo-op never retires
        set_rows(mask, op->self_row);
        for (uint32_t scan = mask; scan != 0; scan &= scan - 1) {
          out[first_lane(scan)].halted = true;
        }
        active &= ~mask;
        return;
      case SuperOpKind::kTrap:
        retire(mask);  // the body did execute — commit before reporting
        set_rows(mask, op->self_row);
        for (uint32_t scan = mask; scan != 0; scan &= scan - 1) {
          const unsigned i = first_lane(scan);
          out[i].trapped = true;
          out[i].trap_message =
              "fetch from uninitialised TIM address " + std::to_string(op->pc);
        }
        active &= ~mask;
        return;
      }
    }
  chain:
    // min_remaining >= min_budget >= 1 also certifies no lane exhausted
    // its budget in the block just retired.
    if (min_remaining < plan_->blocks[next_row].min_budget) {
      set_rows(mask, next_row);
      return;
    }
    blkp = &plan_->blocks[next_row];
  }
}

std::vector<FleetSimulator::LaneProgress> FleetSimulator::advance(
    const std::vector<uint64_t>& budgets) {
  if (budgets.size() != lanes_) {
    throw std::invalid_argument("FleetSimulator::advance: one budget per lane");
  }
  std::vector<LaneProgress> out(lanes_);
  std::array<uint64_t, kMaxLanes> instrs{};
  std::array<uint64_t, kMaxLanes> remaining{};
  uint32_t active = 0;
  for (unsigned i = 0; i < lanes_; ++i) {
    remaining[i] = budgets[i];
    if (budgets[i] > 0) active |= 1u << i;
  }

  while (active != 0) {
    // Cohort = every active lane resting on the leader's superblock; the
    // common case (lockstep fleet) gathers all lanes in one pass.
    const uint32_t row = row_[first_lane(active)];
    const Superblock& blk = plan_->blocks[row];
    uint32_t cohort = 0;
    uint32_t fast = 0;
    for (uint32_t scan = active; scan != 0; scan &= scan - 1) {
      const unsigned i = first_lane(scan);
      if (row_[i] != row) continue;
      cohort |= 1u << i;
      if (remaining[i] >= blk.min_budget) fast |= 1u << i;
    }
    if (fast != 0) execute_block(row, fast, out, instrs, remaining, active);
    // Budget tail: a lane the block no longer fits finishes per
    // instruction — the same exactness contract as the scalar run().
    for (uint32_t scan = cohort & ~fast; scan != 0; scan &= scan - 1) {
      const unsigned i = first_lane(scan);
      while (remaining[i] > 0) {
        bool advanced = false;
        try {
          advanced = step_lane(i);
        } catch (const SimError& e) {
          out[i].trapped = true;
          out[i].trap_message = e.what();
          break;
        }
        if (!advanced) {
          out[i].halted = true;
          break;
        }
        ++instrs[i];
        --remaining[i];
      }
      active &= ~(1u << i);
    }
  }
  for (unsigned i = 0; i < lanes_; ++i) out[i].instructions = instrs[i];
  return out;
}

bool FleetSimulator::step() { return step_lane(0); }

SimStats FleetSimulator::run(uint64_t max_instructions) {
  std::vector<uint64_t> budgets(lanes_, 0);
  budgets[0] = max_instructions;
  const std::vector<LaneProgress> progress = advance(budgets);
  const LaneProgress& p = progress[0];
  if (p.trapped) throw SimError(p.trap_message);  // state already committed
  return functional_stats(p.instructions, p.halted);
}

int64_t FleetSimulator::pc(unsigned lane) const {
  if (lane >= lanes_) throw std::out_of_range("FleetSimulator::pc: lane out of range");
  // row_ and pc stay in bijection (every row carries its canonical
  // balanced address), so the row is the single source of truth.
  return rows_[row_[lane]].pc;
}

ArchState FleetSimulator::unpack_lane(unsigned lane) const {
  if (lane >= lanes_) throw std::out_of_range("FleetSimulator::unpack_lane: lane out of range");
  ArchState out;
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    out.trf.write(i, lane_word(i, lane).decode());
  }
  BctWord9* const rows = out.tdm.data();
  for (std::size_t r = 0; r < stdm_.size(); ++r) rows[r] = bs::extract_lane(stdm_[r], lane);
  out.tdm.set_counters(mem_reads_[lane], mem_writes_[lane]);
  out.pc = pc(lane);
  return out;
}

void FleetSimulator::restore_lane(unsigned lane, const ArchState& state) {
  if (lane >= lanes_) throw std::out_of_range("FleetSimulator::restore_lane: lane out of range");
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    bs::insert_lane(trf_[static_cast<std::size_t>(i)], lane,
                    BctWord9::encode(state.trf.read(i)));
  }
  // Row by row into this lane's bits; other lanes' planes are untouched.
  for (std::size_t r = 0; r < stdm_.size(); ++r) bs::insert_lane(stdm_[r], lane, state.tdm.row(r));
  mem_reads_[lane] = state.tdm.reads();
  mem_writes_[lane] = state.tdm.writes();
  row_[lane] = static_cast<uint32_t>(DecodedImage::row_of(state.pc));
}

}  // namespace art9::sim

#include "sim/superblock.hpp"

#include <string>
#include <utility>

#include "sim/packed_alu.hpp"
#include "ternary/packed.hpp"

namespace art9::sim {

using ternary::BctWord9;
namespace pk = ternary::packed;

namespace {

/// Data-processing kinds with register-only operands (no immediate word),
/// the fusable second halves of kLoadOp.
[[nodiscard]] constexpr bool is_reg_alu(DispatchKind k) noexcept {
  return static_cast<uint8_t>(k) <= static_cast<uint8_t>(DispatchKind::kComp);
}

// The first 18 SuperOpKind values mirror DispatchKind so unfused body
// translation is a cast.
static_assert(static_cast<uint8_t>(SuperOpKind::kMv) == static_cast<uint8_t>(DispatchKind::kMv) &&
                  static_cast<uint8_t>(SuperOpKind::kLi) ==
                      static_cast<uint8_t>(DispatchKind::kLi),
              "SuperOpKind must mirror DispatchKind's data-processing kinds");

/// Copies the operand fields a body/terminator slot shares with its
/// source row.
[[nodiscard]] SuperOp from_packed(const PackedOp& p, uint32_t row) noexcept {
  SuperOp s;
  s.word_neg = p.word_neg;
  s.word_pos = p.word_pos;
  s.imm = p.imm;
  s.ta = p.ta;
  s.tb = p.tb;
  s.bcond = p.bcond;
  s.pc = p.pc;
  s.self_row = static_cast<uint16_t>(row);
  s.next_row = p.next_row;
  s.taken_row = p.taken_row;
  return s;
}

[[nodiscard]] std::shared_ptr<const SuperblockPlan> build_plan(const PackedOp* rows,
                                                               std::size_t n_rows) {
  auto plan = std::make_shared<SuperblockPlan>();
  plan->blocks.resize(n_rows);
  plan->ops.reserve(n_rows + n_rows / 4);

  for (std::size_t r0 = 0; r0 < n_rows; ++r0) {
    Superblock& blk = plan->blocks[r0];
    blk.first_op = static_cast<uint32_t>(plan->ops.size());
    uint32_t consumed = 0;  // source instructions in the body so far
    uint32_t row = static_cast<uint32_t>(r0);
    for (;;) {
      const PackedOp& p = rows[row];

      // Terminators end the scan; their retire contribution is the part
      // of blk.retires the budget clamp and the batched commit see.
      if (p.kind == DispatchKind::kBeq || p.kind == DispatchKind::kBne) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kBranch;
        if (p.kind == DispatchKind::kBne) t.flags |= SuperOp::kFlagBne;
        plan->ops.push_back(t);
        blk.retires += 1;
        break;
      }
      if (p.kind == DispatchKind::kJal) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kJal;
        plan->ops.push_back(t);
        blk.retires += 1;
        break;
      }
      if (p.kind == DispatchKind::kJalr) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kJalr;
        plan->ops.push_back(t);
        blk.retires += 1;  // the halting self-jump subtracts this at run time
        break;
      }
      if (p.kind == DispatchKind::kHalt) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kHalt;
        plan->ops.push_back(t);
        break;
      }
      if (p.kind == DispatchKind::kInvalid) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kTrap;
        plan->ops.push_back(t);
        break;
      }
      if (consumed >= SuperblockPlan::kMaxBlockInstructions) {
        // Length cap: chain to the block starting at this (unconsumed) row.
        SuperOp t;
        t.kind = SuperOpKind::kFallthrough;
        t.pc = p.pc;
        t.self_row = static_cast<uint16_t>(row);
        t.next_row = static_cast<uint16_t>(row);
        plan->ops.push_back(t);
        break;
      }

      const PackedOp& q = rows[p.next_row];

      // COMP + BEQ/BNE on the comparison result: one fused terminator.
      if (p.kind == DispatchKind::kComp &&
          (q.kind == DispatchKind::kBeq || q.kind == DispatchKind::kBne) && q.tb == p.ta) {
        SuperOp t = from_packed(q, p.next_row);
        t.kind = SuperOpKind::kCmpBranch;
        t.ta = p.ta;  // comp writes ta; the branch tests the same register
        t.tb = p.tb;
        if (q.kind == DispatchKind::kBne) t.flags |= SuperOp::kFlagBne;
        plan->ops.push_back(t);
        blk.retires += 2;
        ++plan->fused_cmp_branch;
        break;
      }

      if (consumed + 2 <= SuperblockPlan::kMaxBlockInstructions) {
        // LUI + LI over the same register: the constant is fully static —
        // one kLui whose complete result is the two words' planes OR-ed
        // (LI keeps the high four trits, and the LUI word's low five trits
        // are zero).
        if (p.kind == DispatchKind::kLui && q.kind == DispatchKind::kLi && q.ta == p.ta) {
          SuperOp s = from_packed(p, row);
          s.kind = SuperOpKind::kLui;
          s.word_neg = p.word_neg | q.word_neg;
          s.word_pos = p.word_pos | q.word_pos;
          plan->ops.push_back(s);
          blk.retires += 2;
          consumed += 2;
          row = q.next_row;
          ++plan->fused_const;
          continue;
        }
        // LOAD + register ALU op consuming the loaded value: one dispatch.
        if (p.kind == DispatchKind::kLoad && is_reg_alu(q.kind) && q.tb == p.ta) {
          SuperOp s = from_packed(p, row);
          s.kind = SuperOpKind::kLoadOp;
          s.kind2 = static_cast<uint8_t>(q.kind);
          s.ta2 = q.ta;
          s.tb2 = q.tb;
          plan->ops.push_back(s);
          blk.retires += 2;
          blk.mem_reads += 1;
          consumed += 2;
          row = q.next_row;
          ++plan->fused_load_op;
          continue;
        }
      }

      // Plain body op.
      SuperOp s = from_packed(p, row);
      if (p.kind == DispatchKind::kLoad) {
        s.kind = SuperOpKind::kLoad;
        blk.mem_reads += 1;
      } else if (p.kind == DispatchKind::kStore) {
        s.kind = SuperOpKind::kStore;
        blk.mem_writes += 1;
      } else {
        s.kind = static_cast<SuperOpKind>(p.kind);  // kMv..kLi mirror
      }
      plan->ops.push_back(s);
      blk.retires += 1;
      consumed += 1;
      row = p.next_row;
    }
    // Entry clamp: a halt/trap terminator retires nothing but still needs
    // one budget slot to be *attempted* — the golden model reports
    // kMaxCycles when the budget dies exactly at the body's end.
    const SuperOpKind term = plan->ops.back().kind;
    blk.min_budget =
        blk.retires +
        ((term == SuperOpKind::kHalt || term == SuperOpKind::kTrap) ? 1 : 0);
  }
  plan->ops.shrink_to_fit();
  return plan;
}

}  // namespace

const SuperblockPlan& DecodedImage::superblocks() const {
  std::call_once(superblocks_once_, [this] { superblocks_ = build_plan(rows_data(), rows()); });
  return *superblocks_;
}

// ---------------------------------------------------------------------------
// SuperblockSimulator.
// ---------------------------------------------------------------------------

SuperblockSimulator::SuperblockSimulator(const isa::Program& program)
    : SuperblockSimulator(decode(program)) {}

SuperblockSimulator::SuperblockSimulator(std::shared_ptr<const DecodedImage> image)
    : image_(std::move(image)), rows_(image_->rows_data()), plan_(&image_->superblocks()) {
  for (const isa::DataWord& d : image_->program().data) tdm_.poke(d.address, d.value);
  row_ = static_cast<uint32_t>(DecodedImage::row_of(image_->program().entry));
}

// The per-instruction slow path (observed runs, partial-block tails): the
// shared packed_step() over the packed TRF/TDM.
bool SuperblockSimulator::step() {
  struct Machine {
    BctWord9* trf;
    TernaryMemory& tdm;
    [[nodiscard]] BctWord9 reg(unsigned r) const { return trf[r]; }
    void set_reg(unsigned r, const BctWord9& v) { trf[r] = v; }
    void load(unsigned r, std::size_t row) { trf[r] = tdm.read_row(row); }
    void store(std::size_t row, unsigned r) { tdm.write_row(row, trf[r]); }
  };
  return packed_step(Machine{trf_.data(), tdm_}, rows_, row_);
}

SimStats SuperblockSimulator::run(uint64_t max_instructions) {
  bool halted = false;
  const uint64_t executed = run_blocks(max_instructions, halted);
  const SimStats blocks = functional_stats(executed, halted);
  // Partial-block tail: the fast loop only enters a block when the whole
  // block fits the remaining budget; what is left (at most one block's
  // worth of instructions) is stepped exactly.
  return halted ? blocks : run_steps(*this, max_instructions, blocks);
}

// Threaded dispatch (computed goto) is a GNU extension; other compilers
// fall back to the portable step() loop.
#if defined(__GNUC__) || defined(__clang__)
#define ART9_SB_THREADED_DISPATCH 1
#endif

#if ART9_SB_THREADED_DISPATCH

uint64_t SuperblockSimulator::run_blocks(uint64_t max_instructions, bool& halted) {
  // Block-chained threaded dispatch: the budget is checked once per
  // *block* (entry is clamped so a block never half-fits), body handlers
  // advance a flat op pointer instead of chasing rows, and the
  // terminator commits the block's precomputed retire/TDM deltas in one
  // shot before jumping to the successor block.
#define ART9_SB_CELL_LABEL(K) &&h_##K,
  static const void* const kHandlers[] = {
      ART9_PACKED_ALU_KINDS(ART9_SB_CELL_LABEL)
      &&h_load, &&h_store, &&h_load_op, &&h_branch, &&h_cmp_branch,
      &&h_jal, &&h_jalr, &&h_fallthrough, &&h_halt, &&h_trap,
  };
#undef ART9_SB_CELL_LABEL
  static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) ==
                    static_cast<std::size_t>(SuperOpKind::kTrap) + 1,
                "handler table must cover every SuperOpKind");

  const Superblock* const blocks = plan_->blocks.data();
  const SuperOp* const ops = plan_->ops.data();
  BctWord9* const trf = trf_.data();
  BctWord9* const mem = tdm_.data();
  uint32_t row = row_;
  uint64_t executed = 0;
  uint64_t mem_reads = 0;
  uint64_t mem_writes = 0;
  const Superblock* blk;
  const SuperOp* op;

// Enter the block at `r`: exit on budget exhaustion; bail to the
// per-instruction tail when the block no longer fits the remainder
// (keeping run() exact, fused intermediate states included).
#define ART9_SB_ENTER(r)                                        \
  do {                                                          \
    row = (r);                                                  \
    if (executed >= max_instructions) goto done;                \
    blk = blocks + row;                                            \
    if (max_instructions - executed < blk->min_budget) goto done;  \
    op = ops + blk->first_op;                                   \
    goto* kHandlers[static_cast<uint8_t>(op->kind)];            \
  } while (0)
#define ART9_SB_NEXT() \
  ++op;                \
  goto* kHandlers[static_cast<uint8_t>(op->kind)]
// Batched per-block accounting, committed once by each terminator.
#define ART9_SB_RETIRE()       \
  executed += blk->retires;    \
  mem_reads += blk->mem_reads; \
  mem_writes += blk->mem_writes

  ART9_SB_ENTER(row);

// One handler per data-processing kind, each the shared packed cell.
#define ART9_SB_CELL(K)                                                      \
  h_##K:                                                                     \
  trf[op->ta] = packed_cell<DispatchKind::K>(trf[op->ta], trf[op->tb], *op); \
  ART9_SB_NEXT();
  ART9_PACKED_ALU_KINDS(ART9_SB_CELL)
#undef ART9_SB_CELL

h_load:
  trf[op->ta] = mem[packed_tdm_row(trf[op->tb], op->imm)];  // counter delta batched per block
  ART9_SB_NEXT();
h_store:
  mem[packed_tdm_row(trf[op->tb], op->imm)] = trf[op->ta];
  ART9_SB_NEXT();
h_load_op:
  trf[op->ta] = mem[packed_tdm_row(trf[op->tb], op->imm)];
  trf[op->ta2] =
      packed_reg_alu(static_cast<DispatchKind>(op->kind2), trf[op->ta2], trf[op->tb2], *op);
  ART9_SB_NEXT();
h_branch: {
  const bool eq = trf[op->tb].lst_value() == op->bcond;
  const bool taken = (op->flags & SuperOp::kFlagBne) ? !eq : eq;
  ART9_SB_RETIRE();
  ART9_SB_ENTER(taken ? op->taken_row : op->next_row);
}
h_cmp_branch: {
  const BctWord9 r = packed_cell<DispatchKind::kComp>(trf[op->ta], trf[op->tb], *op);
  trf[op->ta] = r;
  const bool eq = r.lst_value() == op->bcond;
  const bool taken = (op->flags & SuperOp::kFlagBne) ? !eq : eq;
  ART9_SB_RETIRE();
  ART9_SB_ENTER(taken ? op->taken_row : op->next_row);
}
h_jal:
  trf[op->ta] = op->word();  // the pre-packed link
  ART9_SB_RETIRE();
  ART9_SB_ENTER(op->taken_row);
h_jalr: {
  const int32_t target = packed_jalr_target(trf[op->tb], op->imm);
  if (target == op->pc) {
    // Self-jump = halt: it never retires, so back its entry-clamp share
    // out of the batched count.
    executed += blk->retires - 1;
    mem_reads += blk->mem_reads;
    mem_writes += blk->mem_writes;
    row = op->self_row;
    halted = true;
    goto done;
  }
  trf[op->ta] = op->word();
  ART9_SB_RETIRE();
  ART9_SB_ENTER(static_cast<uint32_t>(pk::row_of(target)));
}
h_fallthrough:
  ART9_SB_RETIRE();
  ART9_SB_ENTER(op->next_row);
h_halt:
  ART9_SB_RETIRE();  // body only; the halt pseudo-op never retires
  row = op->self_row;
  halted = true;
  goto done;
h_trap:
  ART9_SB_RETIRE();  // the body did execute — commit before throwing
  row_ = op->self_row;
  tdm_.add_counters(mem_reads, mem_writes);
  throw SimError("fetch from uninitialised TIM address " + std::to_string(op->pc));

done:

#undef ART9_SB_ENTER
#undef ART9_SB_NEXT
#undef ART9_SB_RETIRE

  row_ = row;
  tdm_.add_counters(mem_reads, mem_writes);
  return executed;
}

#else  // !ART9_SB_THREADED_DISPATCH — portable fallback: defer everything
       // to run()'s exact per-instruction tail loop.

uint64_t SuperblockSimulator::run_blocks(uint64_t, bool&) { return 0; }

#endif  // ART9_SB_THREADED_DISPATCH

ArchState SuperblockSimulator::state() const {
  ArchState out{{}, tdm_, pc()};
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    out.trf.write(i, trf_[static_cast<std::size_t>(i)].decode());
  }
  return out;
}

void SuperblockSimulator::restore(const ArchState& state) {
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    trf_[static_cast<std::size_t>(i)] = BctWord9::encode(state.trf.read(i));
  }
  tdm_ = state.tdm;
  row_ = static_cast<uint32_t>(DecodedImage::row_of(state.pc));
}

ternary::Word9 SuperblockSimulator::reg(int index) const {
  return trf_.at(static_cast<std::size_t>(index)).decode();
}

int64_t SuperblockSimulator::reg_int(int index) const { return reg(index).to_int(); }

}  // namespace art9::sim

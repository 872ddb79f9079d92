#include "rv32/rv32_superblock.hpp"

#include <memory>

#include "rv32/rv32_exec.hpp"

namespace art9::rv32 {

namespace {

[[nodiscard]] constexpr bool in_kind_range(Rv32Dispatch k, Rv32Dispatch lo,
                                           Rv32Dispatch hi) noexcept {
  return static_cast<uint8_t>(k) >= static_cast<uint8_t>(lo) &&
         static_cast<uint8_t>(k) <= static_cast<uint8_t>(hi);
}

/// Kinds that end a straight-line scan: control flow, the halt
/// convention, and the trap row.
[[nodiscard]] constexpr bool is_control(Rv32Dispatch k) noexcept {
  return k == Rv32Dispatch::kJal || k == Rv32Dispatch::kJalr ||
         in_kind_range(k, Rv32Dispatch::kBeq, Rv32Dispatch::kBgeu) ||
         k == Rv32Dispatch::kEcall || k == Rv32Dispatch::kEbreak || k == Rv32Dispatch::kTrap;
}

[[nodiscard]] constexpr bool is_load(Rv32Dispatch k) noexcept {
  return in_kind_range(k, Rv32Dispatch::kLb, Rv32Dispatch::kLhu);
}

/// A load's fusable consumer: a non-memory, non-control, non-trapping op
/// reading the loaded register — only the pair's head can fault, so a
/// mid-pair trap still reports the load's own PC.
[[nodiscard]] constexpr bool is_fusable_consumer(const Rv32DecodedOp& q, uint8_t rd) noexcept {
  if (in_kind_range(q.kind, Rv32Dispatch::kAddi, Rv32Dispatch::kSrai)) return q.rs1 == rd;
  if (in_kind_range(q.kind, Rv32Dispatch::kAdd, Rv32Dispatch::kAnd) ||
      in_kind_range(q.kind, Rv32Dispatch::kMul, Rv32Dispatch::kRemu)) {
    return q.rs1 == rd || q.rs2 == rd;
  }
  return false;
}

[[nodiscard]] std::shared_ptr<const Rv32SuperblockPlan> build_plan(const Rv32DecodedImage& image) {
  const Rv32DecodedOp* const rows = image.rows_data();
  const auto n_code = static_cast<uint32_t>(image.rows());
  const uint32_t entry = image.entry();
  auto pc_of = [entry](uint32_t row) { return entry + row * 4; };

  auto plan = std::make_shared<Rv32SuperblockPlan>();
  plan->blocks.resize(n_code + 1);
  plan->ops.reserve(n_code);

  for (uint32_t r0 = 0; r0 < n_code; ++r0) {
    Rv32Superblock& blk = plan->blocks[r0];
    blk.first_op = static_cast<uint32_t>(plan->ops.size());
    uint32_t consumed = 0;  // source instructions in the body so far
    uint32_t row = r0;
    for (;;) {
      const Rv32DecodedOp& p = rows[row];
      if (is_control(p.kind)) {
        blk.term = Rv32SbTerm::kOp;
        blk.term_row = row;
        blk.term_pc_offset = consumed * 4;
        const bool retires_term = p.kind == Rv32Dispatch::kJal || p.kind == Rv32Dispatch::kJalr ||
                                  in_kind_range(p.kind, Rv32Dispatch::kBeq, Rv32Dispatch::kBgeu);
        blk.retires = consumed + (retires_term ? 1 : 0);
        // Whether the terminator retires or not, *attempting* it needs one
        // budget slot beyond the body (a zero-retire ECALL/EBREAK/trap at
        // an exactly-exhausted budget must report max-cycles, not halt).
        blk.min_budget = consumed + 1;
        break;
      }
      if (consumed >= Rv32SuperblockPlan::kMaxBlockInstructions) {
        blk.term = Rv32SbTerm::kFallthrough;
        blk.term_pc_offset = consumed * 4;
        blk.next_row = row;
        blk.retires = consumed;
        blk.min_budget = consumed;
        break;
      }

      // Load + its dependent ALU consumer: one fused pair dispatch.
      const Rv32DecodedOp& q = rows[p.next_row];
      if (consumed + 2 <= Rv32SuperblockPlan::kMaxBlockInstructions && is_load(p.kind) &&
          p.rd != 0 && is_fusable_consumer(q, p.rd)) {
        plan->ops.push_back(Rv32SuperOp{p, pc_of(row), 1});
        plan->ops.push_back(Rv32SuperOp{q, pc_of(p.next_row), 0});
        consumed += 2;
        row = q.next_row;
        ++plan->fused_load_op;
        continue;
      }

      // Plain body op.
      plan->ops.push_back(Rv32SuperOp{p, pc_of(row), 0});
      consumed += 1;
      row = p.next_row;
    }
    blk.op_count = static_cast<uint32_t>(plan->ops.size()) - blk.first_op;
  }

  // The trap row's block: empty body, the trap row itself as terminator.
  // Its PC is dynamic (whatever out-of-program target got here), hence
  // term_pc_offset 0 over the carried PC.
  Rv32Superblock& trap_blk = plan->blocks[n_code];
  trap_blk.first_op = static_cast<uint32_t>(plan->ops.size());
  trap_blk.term = Rv32SbTerm::kOp;
  trap_blk.term_row = image.trap_row();
  trap_blk.min_budget = 1;

  plan->ops.shrink_to_fit();
  return plan;
}

}  // namespace

const Rv32SuperblockPlan& Rv32DecodedImage::superblocks() const {
  std::call_once(superblocks_once_, [this] { superblocks_ = build_plan(*this); });
  return *superblocks_;
}

std::size_t Rv32DecodedImage::resident_bytes() const {
  const Rv32SuperblockPlan& plan = superblocks();
  // Per allocation: the allocator's header and rounding, and a
  // make_shared control block.
  const auto block = [](std::size_t bytes) { return bytes + 48; };
  const auto vector = [&](const auto& v) { return block(v.capacity() * sizeof(v[0])); };
  std::size_t bytes = block(sizeof(*this)) + vector(rows_) + vector(program_.code) +
                      vector(program_.image) + vector(program_.data) + block(sizeof(plan)) +
                      vector(plan.blocks) + vector(plan.ops);
  for (const auto& [name, value] : program_.symbols) {
    // A tree node (three links and a colour) around the pair, and the
    // name's own buffer when it outgrows the inline one.
    bytes += block(4 * sizeof(void*) + sizeof(name) + sizeof(value)) + block(name.capacity());
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Rv32SuperblockSimulator.
// ---------------------------------------------------------------------------

Rv32RunStats Rv32SuperblockSimulator::run(uint64_t max_instructions) {
  Rv32RunStats stats = run_blocks(max_instructions);
  // Partial-block tail, stepped exactly (fused intermediate states
  // included) — what keeps tiny budgets bit-identical to the reference.
  step_until(stats, max_instructions);
  return stats;
}

Rv32RunStats Rv32SuperblockSimulator::run_blocks(uint64_t max_instructions) {
  // Block-chained hot loop: position and stats live in registers, the
  // budget is checked per block, retires are committed per block.
  // pc_/row_ are committed only at exit — including the trap path, where
  // cur_pc names the faulting instruction exactly like the reference model.
  Rv32RunStats stats;
  const Rv32Superblock* const blocks = plan_->blocks.data();
  const Rv32SuperOp* const ops = plan_->ops.data();
  const Rv32DecodedOp* const rows = rows_;
  uint32_t pc = pc_;
  uint32_t row = row_;
  uint32_t cur_pc = pc;
  detail::HostDatapath dp{regs_, ram_};
  try {
    while (stats.instructions < max_instructions) {
      const Rv32Superblock& blk = blocks[row];
      // Entry clamp: bail to the exact per-instruction tail when the
      // whole block (terminator attempt included) no longer fits.
      if (max_instructions - stats.instructions < blk.min_budget) break;

      const Rv32SuperOp* op = ops + blk.first_op;
      const Rv32SuperOp* const end = op + blk.op_count;
      uint32_t dnp = 0;  // body ops never redirect control flow
      uint32_t dnr = 0;
      bool dt = false;
      for (; op != end; ++op) {
        cur_pc = op->pc;
        detail::execute_rv32(dp, *image_, op->op, op->pc, dnp, dnr, dt);
        if (op->pair) {
          ++op;  // fused load+op tail: same dispatch iteration
          cur_pc = op->pc;
          detail::execute_rv32(dp, *image_, op->op, op->pc, dnp, dnr, dt);
        }
      }

      switch (blk.term) {
        case Rv32SbTerm::kFallthrough:
          stats.instructions += blk.retires;
          pc += blk.term_pc_offset;
          row = blk.next_row;
          break;
        case Rv32SbTerm::kOp: {
          const Rv32DecodedOp& top = rows[blk.term_row];
          const uint32_t tpc = pc + blk.term_pc_offset;
          cur_pc = tpc;
          uint32_t npc = top.next_pc;
          uint32_t nrow = top.next_row;
          bool tk = false;
          if (!detail::execute_rv32(dp, *image_, top, tpc, npc, nrow, tk)) {
            // Halting ECALL/EBREAK: never counted, pc rests on it.
            stats.instructions += blk.retires;
            stats.halted = true;
            pc = tpc;
            row = blk.term_row;
            break;
          }
          stats.instructions += blk.retires;
          pc = npc;
          row = nrow;
          break;
        }
      }
      if (stats.halted) break;
    }
  } catch (...) {
    pc_ = cur_pc;
    row_ = image_->row_of(cur_pc);
    throw;
  }
  pc_ = pc;
  row_ = row;
  return stats;
}

}  // namespace art9::rv32

// Superblock translation tier for the RV32 side — the binary mirror of
// sim/superblock.hpp.
//
// Rv32Simulator already dispatches pre-decoded rows, but still pays per
// *instruction*: one budget check, one retire increment and one
// next_pc/next_row commit per step.  The superblock tier translates the
// decoded image once more, lazily at first use, into straight-line
// superblocks (libriscv's bytecode-translation move):
//
//  * every row — the trap row included — gets a block describing the
//    straight-line run that starts there, so dynamic JALR targets and
//    snapshot restores can enter anywhere, body length capped at
//    kMaxBlockInstructions;
//  * one macro-op fusion inside blocks: a load plus its dependent ALU
//    consumer executes as one fused pair dispatch.  Every instruction,
//    fused or not, terminators included, runs through
//    detail::execute_rv32 — the tier has no semantics of its own;
//  * retire accounting is batched: SimStats-visible instruction counts
//    are committed once per block from a precomputed per-block delta;
//  * block-chained dispatch: each terminator carries its successor block
//    row, so the hot loop is block-to-block and only checks the budget
//    at block boundaries.
//
// Budget exactness: the loop only enters a block when the whole block
// (terminator attempt included) fits the remaining budget; a partial
// block is stepped per instruction instead, so run() honours
// max_instructions exactly — fused intermediate states included — which
// keeps SimulationService slice accounting and the conformance suite's
// tiny-budget contract bit-identical to Rv32Simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "rv32/rv32_decoded_image.hpp"
#include "rv32/rv32_sim.hpp"

namespace art9::rv32 {

/// One body slot of the flat superop stream: the pre-decoded instruction
/// plus its static PC.
struct Rv32SuperOp {
  Rv32DecodedOp op;
  uint32_t pc = 0;
  uint8_t pair = 0;  // head of a fused load+op pair: the following slot
                     // executes in the same dispatch iteration
};

/// How a block ends.
enum class Rv32SbTerm : uint8_t {
  kOp,           // execute rows[term_row] through execute_rv32 (branches,
                 // JAL/JALR, the halting ECALL/EBREAK, the trap row)
  kFallthrough,  // block split at the length cap — chain to next_row
};

/// One straight-line block: a slice of the plan's op stream plus the
/// terminator description and the precomputed retire delta.
struct Rv32Superblock {
  uint32_t first_op = 0;
  uint32_t op_count = 0;
  uint32_t retires = 0;         // body instructions + 1 for a branch/jump
                                // terminator (ECALL/EBREAK/trap retire 0)
  uint32_t min_budget = 0;      // remaining budget required to enter:
                                // retires, +1 for zero-retire terminators
                                // whose *attempt* still needs headroom
  Rv32SbTerm term = Rv32SbTerm::kOp;
  uint32_t term_row = 0;        // kOp: the terminator's row
  uint32_t term_pc_offset = 0;  // terminator PC relative to block entry
                                // (0 for the dynamically-entered trap row)
  uint32_t next_row = 0;        // kFallthrough: successor block
};

/// The whole translation: one block per row (trap row last) over a
/// shared op stream.
struct Rv32SuperblockPlan {
  /// Straight-line body cap, in source instructions (bounds the slow-path
  /// work of a partial block).
  static constexpr uint32_t kMaxBlockInstructions = 32;

  std::vector<Rv32Superblock> blocks;  // indexed by row, rows()+1 entries
  std::vector<Rv32SuperOp> ops;
  // Translation statistics (tests, introspection):
  uint32_t fused_load_op = 0;
};

/// The rv32 superblock execution backend: Rv32Simulator's state,
/// constructors, accessors, restore and per-instruction step() (observed
/// runs and partial-block tails), with the block-chained loop as its
/// run().  Bit-identical to Rv32Simulator — locked by the conformance
/// suite and tests/sim/superblock_test.cpp.
class Rv32SuperblockSimulator : public Rv32Simulator {
 public:
  using Rv32Simulator::Rv32Simulator;

  /// Runs until halt or `max_instructions` — exactly: block entry is
  /// clamped against the remaining budget, the tail is stepped per
  /// instruction.
  Rv32RunStats run(uint64_t max_instructions = 100'000'000);

  /// The shared block translation (tests, introspection).
  [[nodiscard]] const Rv32SuperblockPlan& plan() const noexcept { return *plan_; }

 private:
  /// The block-chained loop: whole blocks until halt or a block that no
  /// longer fits the remaining budget.  Commits pc_/row_ at every exit
  /// (the trap path included).
  Rv32RunStats run_blocks(uint64_t max_instructions);

  const Rv32SuperblockPlan* plan_ = &image_->superblocks();  // the image's translation
};

}  // namespace art9::rv32

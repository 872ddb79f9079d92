// Bit-sliced fleet backend — up to 32 independent machines per plane
// word, executing one shared DecodedImage in lockstep.
//
// The superblock tier (superblock.hpp) made one machine fast; the fleet
// tier makes *many* machines cheap.  The 9-trit TRF is stored transposed
// (ternary/bitsliced.hpp): per trit position, two uint32_t planes whose
// bit i belongs to lane i, so one tritwise gate, one balanced-ternary
// adder pass or one branch-condition evaluation steps every lane at
// once — SIMD-across-scenarios rather than SIMD-within-a-word.
//
// Divergence is handled the GPU way, scoped to what dominates our
// batches (the same program over many budgets/inputs):
//
//  * all lanes run the same image; a lane mask tracks who participates
//    in each plane operation;
//  * control flow is reconciled with PC-grouped cohorts at superblock
//    boundaries — the PR 9 block index is the cohort unit, so lanes
//    inside one block need no regrouping until the terminator;
//  * halted / trapped / budget-exhausted lanes drop out of the mask;
//  * the TDM is transposed too (one SlicedWord9 per row spanning all
//    lanes), so a load/store whose address register is uniform across
//    the cohort — the lockstep common case — is a single masked plane
//    copy; divergent lanes fall back to per-lane single-bit row moves.
//
// Exactness: a lane whose remaining budget no longer fits the current
// block's min_budget leaves the cohort and finishes on the same
// per-instruction tail the superblock tier uses, so every lane's
// trajectory — ArchState, SimStats, trap message, at every budget — is
// bit-identical to a solo run (locked by the conformance suite through
// the kFleet engine facade and by tests/sim/fleet_test.cpp for
// multi-lane cohorts).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "sim/decoded_image.hpp"
#include "sim/machine.hpp"
#include "sim/superblock.hpp"
#include "ternary/bitsliced.hpp"

namespace art9::sim {

class FleetSimulator {
 public:
  /// Lane capacity of the uint32_t planes (a uint64 build would double it).
  static constexpr unsigned kMaxLanes = ternary::bitsliced::kLanes;

  /// Decodes `program` into a private image, `lanes` identical machines.
  explicit FleetSimulator(const isa::Program& program, unsigned lanes = 1);

  /// Runs off a shared pre-decoded image.  `image` must be non-null and
  /// `lanes` in [1, kMaxLanes].
  explicit FleetSimulator(std::shared_ptr<const DecodedImage> image, unsigned lanes = 1);

  [[nodiscard]] unsigned lanes() const noexcept { return lanes_; }
  [[nodiscard]] const DecodedImage& image() const noexcept { return *image_; }

  /// What one advance() did to one lane.  A lane neither halted nor
  /// trapped executed exactly its budget.
  struct LaneProgress {
    uint64_t instructions = 0;
    bool halted = false;
    bool trapped = false;
    std::string trap_message;  // the exact SimError text of a solo run
  };

  /// Advances every lane i by at most budgets[i] instructions (0 = lane
  /// idles), cohort-scheduled: lanes on the same superblock execute it
  /// bit-sliced under a shared mask.  Trapping lanes commit their state
  /// and report the trap here instead of throwing, so one lane's
  /// uninitialised fetch never tears down its cohort.
  /// budgets.size() must equal lanes().
  std::vector<LaneProgress> advance(const std::vector<uint64_t>& budgets);

  // --- single-lane Engine surface (lane 0) --------------------------------

  /// Executes one instruction on lane 0 (the per-instruction path).
  /// Returns false on the HALT convention; throws SimError on a trap.
  bool step();

  /// Runs lane 0 until HALT or `max_instructions` — exactly, like
  /// SuperblockSimulator::run.  Throws SimError if lane 0 traps.
  SimStats run(uint64_t max_instructions = 100'000'000);

  /// Lane 0's state, and its snapshot restore.
  [[nodiscard]] ArchState state() const { return unpack_lane(0); }
  void restore(const ArchState& state) { restore_lane(0, state); }

  // --- per-lane inspection boundary ---------------------------------------

  [[nodiscard]] int64_t pc(unsigned lane = 0) const;
  [[nodiscard]] ArchState unpack_lane(unsigned lane) const;
  void restore_lane(unsigned lane, const ArchState& state);
  [[nodiscard]] ternary::Word9 reg(unsigned lane, int index) const;
  [[nodiscard]] int64_t reg_int(unsigned lane, int index) const;

 private:
  /// One instruction on `lane` via gather/scatter — packed_step(), the
  /// step SuperblockSimulator::step() runs too (partial-block tails, the
  /// observed-run path).  Throws SimError on a trap.
  bool step_lane(unsigned lane);

  /// One full superblock pass at `row` for every lane in `mask`
  /// (callers guarantee each has budget >= the block's min_budget),
  /// chaining through further blocks while the cohort stays unanimous.
  /// Retired-instruction counts accumulate in the dense `instrs` array
  /// (hot-loop friendly); halted/trapped flags land in `out`.
  void execute_block(uint32_t row, uint32_t mask, std::vector<LaneProgress>& out,
                     std::array<uint64_t, kMaxLanes>& instrs,
                     std::array<uint64_t, kMaxLanes>& remaining, uint32_t& active);

  [[nodiscard]] ternary::BctWord9 lane_word(int reg, unsigned lane) const;

  std::shared_ptr<const DecodedImage> image_;
  const PackedOp* rows_;  // the image's row table (per-lane slow path, pc)
  const SuperblockPlan* plan_;
  unsigned lanes_;
  // Transposed register file: per architectural register, 9 trit-plane
  // pairs spanning all lanes.
  std::array<ternary::bitsliced::SlicedWord9, isa::kNumRegisters> trf_{};
  // Transposed data memory: one sliced word per row, bit i = lane i's
  // private TDM.  Access counters stay per lane (ArchState contract).
  std::vector<ternary::bitsliced::SlicedWord9> stdm_;
  std::array<uint64_t, kMaxLanes> mem_reads_{};
  std::array<uint64_t, kMaxLanes> mem_writes_{};
  std::array<uint32_t, kMaxLanes> row_{};  // per-lane fetch row (pc derives)
};

}  // namespace art9::sim

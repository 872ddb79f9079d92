// Bit-sliced fleet backend: 32 machines per plane word must be
// architecturally invisible.  Locks
//  * multi-lane cohorts bit-identical to solo golden runs at varied
//    per-lane budgets — including budget 0, budgets that die mid-block
//    (the slow-path tail), and lanes halting mid-cohort while siblings
//    keep running;
//  * incremental advance() slicing: any split of a lane's budget across
//    advance() calls lands on the same trajectory;
//  * a trapping lane commits its state, reports the solo run's exact
//    SimError text, and never tears down its cohort;
//  * per-lane unpack/restore round trips;
//  * SimulationService cohorts: submit_cohort resolves every job
//    bit-identically to a standalone engine, at multiple worker-pool
//    widths, across >32-job same-image batches.
#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "sim/engine.hpp"
#include "sim/service.hpp"

namespace art9::sim {
namespace {

/// A budget-sensitive loop with memory traffic, fused pairs and a JALR
/// return — enough instructions that 32 distinct budgets land in 32
/// distinct architectural states.
const char* fleet_loop_source() {
  return R"(
    LIMM  T1, 20
    LIMM  T2, 0
    LIMM  T4, 100
  loop:
    ADD   T2, T1
    STORE T2, 0(T4)
    LOAD  T5, 0(T4)
    ADDI  T1, -1
    MV    T3, T1
    COMP  T3, T6
    BNE   T3, 0, loop
    JAL   T8, sub
    HALT
  sub:
    ADDI  T7, 3
    ADDI  T7, 4
    JALR  T0, T8, 0
  )";
}

/// Runs off the end of the program: traps at the fourth fetch.
const char* fleet_trap_source() { return "ADDI T1, 1\nADDI T2, 1\nADDI T3, 1\n"; }

/// The golden model's trajectory for one budget.
RunResult golden_run(const std::shared_ptr<const DecodedImage>& image, uint64_t budget) {
  return make_engine(EngineKind::kFunctional, image)->run({.max_steps = budget});
}

std::string golden_trap_message(const std::shared_ptr<const DecodedImage>& image) {
  std::unique_ptr<Engine> engine = make_engine(EngineKind::kFunctional, image);
  try {
    static_cast<void>(engine->run_stats({.max_steps = 1'000'000}));
  } catch (const std::exception& error) {
    return error.what();
  }
  ADD_FAILURE() << "golden run did not trap";
  return {};
}

TEST(FleetSimulator, LaneCountValidated) {
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));
  EXPECT_THROW(FleetSimulator(image, 0), std::invalid_argument);
  EXPECT_THROW(FleetSimulator(image, FleetSimulator::kMaxLanes + 1), std::invalid_argument);
  EXPECT_THROW(FleetSimulator(std::shared_ptr<const DecodedImage>{}, 1), std::invalid_argument);
  EXPECT_EQ(FleetSimulator(image, FleetSimulator::kMaxLanes).lanes(), FleetSimulator::kMaxLanes);
}

TEST(FleetSimulator, FullCohortMatchesSoloRunsAtVariedBudgets) {
  // 32 lanes, 32 distinct budgets (0, 1, 2, ... 31): every lane's state
  // and instruction count must equal a solo golden run of its budget —
  // tiny budgets exercise the per-instruction tail, mid budgets leave
  // lanes mid-loop while siblings diverge, none reach the halt.
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));
  const unsigned lanes = FleetSimulator::kMaxLanes;

  FleetSimulator fleet(image, lanes);
  std::vector<uint64_t> budgets(lanes);
  for (unsigned i = 0; i < lanes; ++i) budgets[i] = i;
  const std::vector<FleetSimulator::LaneProgress> progress = fleet.advance(budgets);

  for (unsigned i = 0; i < lanes; ++i) {
    const RunResult want = golden_run(image, budgets[i]);
    EXPECT_EQ(progress[i].instructions, want.stats.instructions) << "lane " << i;
    EXPECT_FALSE(progress[i].halted) << "lane " << i;
    EXPECT_FALSE(progress[i].trapped) << "lane " << i;
    EXPECT_EQ(fleet.unpack_lane(i), want.state.art9()) << "lane " << i;
  }
}

TEST(FleetSimulator, LanesHaltMidCohortWhileSiblingsRun) {
  // Budgets straddling the program's full length: short lanes exhaust,
  // long lanes retire the halt convention and drop out of the mask —
  // each must match its solo run exactly.
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));
  const SimStats full = make_engine(EngineKind::kFunctional, image)->run_stats();
  ASSERT_EQ(full.halt, HaltReason::kHalted);

  const unsigned lanes = 8;
  FleetSimulator fleet(image, lanes);
  std::vector<uint64_t> budgets(lanes);
  for (unsigned i = 0; i < lanes; ++i) {
    budgets[i] = full.instructions - 3 + i;  // 5 exhaust, 3 halt (>= full)
  }
  const std::vector<FleetSimulator::LaneProgress> progress = fleet.advance(budgets);

  for (unsigned i = 0; i < lanes; ++i) {
    const RunResult want = golden_run(image, budgets[i]);
    EXPECT_EQ(progress[i].instructions, want.stats.instructions) << "lane " << i;
    EXPECT_EQ(progress[i].halted, want.halt == HaltReason::kHalted) << "lane " << i;
    EXPECT_EQ(fleet.unpack_lane(i), want.state.art9()) << "lane " << i;
    EXPECT_EQ(fleet.pc(i), want.state.art9().pc) << "lane " << i;
  }
}

TEST(FleetSimulator, IncrementalAdvanceLandsOnTheSameTrajectory) {
  // Any slicing of a lane's budget across advance() calls must be
  // invisible: 40 single-step advances == one 40-step solo run, with a
  // sibling lane taking the same total in uneven chunks.
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));
  FleetSimulator fleet(image, 2);

  uint64_t done0 = 0;
  uint64_t done1 = 0;
  const std::vector<uint64_t> chunks1 = {7, 0, 13, 1, 19};  // sums to 40
  for (unsigned step = 0; step < 40; ++step) {
    std::vector<uint64_t> budgets = {1, step < chunks1.size() ? chunks1[step] : 0};
    const std::vector<FleetSimulator::LaneProgress> progress = fleet.advance(budgets);
    done0 += progress[0].instructions;
    done1 += progress[1].instructions;
  }
  EXPECT_EQ(done0, 40u);
  EXPECT_EQ(done1, 40u);

  const RunResult want = golden_run(image, 40);
  EXPECT_EQ(fleet.unpack_lane(0), want.state.art9());
  EXPECT_EQ(fleet.unpack_lane(1), want.state.art9());
}

TEST(FleetSimulator, TrappingLaneDoesNotTearDownItsCohort) {
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_trap_source()));
  const std::string want_message = golden_trap_message(image);

  // Lanes 0..3 have budget i (exhaust before the faulting fetch); lanes
  // 4..7 have the headroom to trap.
  const unsigned lanes = 8;
  FleetSimulator fleet(image, lanes);
  std::vector<uint64_t> budgets(lanes);
  for (unsigned i = 0; i < lanes; ++i) budgets[i] = i;
  const std::vector<FleetSimulator::LaneProgress> progress = fleet.advance(budgets);

  std::unique_ptr<Engine> golden = make_engine(EngineKind::kFunctional, image);
  static_cast<void>(golden_trap_message(image));
  for (unsigned i = 0; i < lanes; ++i) {
    const bool should_trap = budgets[i] >= 4;
    EXPECT_EQ(progress[i].trapped, should_trap) << "lane " << i;
    if (should_trap) {
      EXPECT_EQ(progress[i].trap_message, want_message) << "lane " << i;
      EXPECT_EQ(progress[i].instructions, 3u) << "lane " << i;
    } else {
      EXPECT_EQ(progress[i].instructions, budgets[i]) << "lane " << i;
    }
    // Committed state bit-identical to the solo run of the same budget
    // (the golden engine's trap commits before throwing).
    std::unique_ptr<Engine> solo = make_engine(EngineKind::kFunctional, image);
    try {
      static_cast<void>(solo->run_stats({.max_steps = budgets[i]}));
    } catch (const std::exception&) {
    }
    EXPECT_EQ(fleet.unpack_lane(i), solo->state().art9()) << "lane " << i;
  }
}

TEST(FleetSimulator, UnpackRestoreRoundTripsPerLane) {
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));

  // Run lane 2 of a fleet 25 instructions in, capture, restore into lane
  // 5 of a fresh fleet, finish both against the solo trajectory.
  FleetSimulator first(image, 4);
  static_cast<void>(first.advance({0, 0, 25, 0}));
  const ArchState mid = first.unpack_lane(2);
  EXPECT_EQ(mid, golden_run(image, 25).state.art9());

  FleetSimulator second(image, 8);
  second.restore_lane(5, mid);
  EXPECT_EQ(second.unpack_lane(5), mid);
  EXPECT_EQ(second.pc(5), mid.pc);

  std::vector<uint64_t> budgets(8, 0);
  budgets[5] = 15;
  static_cast<void>(second.advance(budgets));
  EXPECT_EQ(second.unpack_lane(5), golden_run(image, 40).state.art9());

  EXPECT_THROW(static_cast<void>(second.unpack_lane(8)), std::out_of_range);
  EXPECT_THROW(second.restore_lane(8, mid), std::out_of_range);
}

TEST(FleetEngine, SingleLaneFacadeMatchesGoldenAtEveryBudget) {
  // The conformance suite sweeps kFleet across its full contract; this
  // is the direct spot check that the facade wires lane 0 correctly.
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));
  const SimStats full = make_engine(EngineKind::kFunctional, image)->run_stats();
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{17}, full.instructions + 2}) {
    const RunResult want = golden_run(image, budget);
    const RunResult got = make_engine(EngineKind::kFleet, image)->run({.max_steps = budget});
    EXPECT_EQ(want.stats, got.stats) << "budget=" << budget;
    EXPECT_EQ(want.halt, got.halt) << "budget=" << budget;
    EXPECT_TRUE(want.state == got.state) << "state diverged at budget=" << budget;
  }
}

// ---------------------------------------------------------------------------
// Service cohorts

TEST(ServiceCohort, SubmitCohortValidatesItsContract) {
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));
  const std::shared_ptr<const DecodedImage> other = decode(isa::assemble(fleet_trap_source()));
  SimulationService service(1);

  using Job = SimulationService::Job;
  EXPECT_THROW(static_cast<void>(service.submit_cohort({})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(service.submit_cohort(
                   {Job{EngineImage(image), EngineKind::kSuperblock, {}, {}, {}}})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(
                   service.submit_cohort({Job{EngineImage(image), EngineKind::kFleet, {}, {}, {}},
                                          Job{EngineImage(other), EngineKind::kFleet, {}, {}, {}}})),
               std::invalid_argument);
  JobControls checkpointed;
  checkpointed.checkpoint_every = 100;
  EXPECT_THROW(static_cast<void>(service.submit_cohort(
                   {Job{EngineImage(image), EngineKind::kFleet, {}, {}, checkpointed}})),
               std::invalid_argument);
  JobControls retrying;
  retrying.retries = 1;
  EXPECT_THROW(static_cast<void>(service.submit_cohort(
                   {Job{EngineImage(image), EngineKind::kFleet, {}, {}, retrying}})),
               std::invalid_argument);
}

TEST(ServiceCohort, CohortResolvesEveryJobBitIdenticalToStandalone) {
  // 40 same-image jobs (> kMaxLanes, so submit_cohort chunks into two
  // cohorts) with budgets covering 0, the per-instruction tail, the
  // mid-loop range and completion — each must resolve exactly like a
  // standalone kFleet engine run, at several pool widths.
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_loop_source()));
  const SimStats full = make_engine(EngineKind::kFunctional, image)->run_stats();
  ASSERT_EQ(full.halt, HaltReason::kHalted);

  const std::size_t jobs = 40;
  std::vector<uint64_t> budgets(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    budgets[i] = i < 36 ? i * 4 : full.instructions + i;  // last four complete
  }

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SimulationService service(threads);
    std::vector<SimulationService::Job> batch;
    batch.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      batch.push_back({EngineImage(image), EngineKind::kFleet,
                       RunOptions{budgets[i]}, {}, {}});
    }
    const std::vector<JobHandle> handles = service.submit_cohort(std::move(batch));
    ASSERT_EQ(handles.size(), jobs);

    for (std::size_t i = 0; i < jobs; ++i) {
      const JobResult& got = handles[i].result();
      const RunResult want = make_engine(EngineKind::kFleet, image)->run({budgets[i]});
      EXPECT_EQ(got.outcome, want.halt == HaltReason::kHalted ? JobOutcome::kCompleted
                                                              : JobOutcome::kBudgetExhausted)
          << threads << " threads, job " << i;
      EXPECT_EQ(got.run.stats, want.stats) << threads << " threads, job " << i;
      EXPECT_EQ(got.run.state, want.state) << threads << " threads, job " << i;
    }
    EXPECT_EQ(service.submitted(), jobs);
    EXPECT_EQ(service.resolved(), jobs);
    EXPECT_EQ(service.queued(), 0u);
  }
}

TEST(ServiceCohort, TrappingLaneResolvesAloneWithTheSoloTrapText) {
  // One cohort mixing budgets over the trapping image: short-budget
  // lanes resolve kBudgetExhausted, trapping lanes kTrapped with the
  // exact standalone message and the committed pre-trap state — and the
  // stats a standalone execute_job would report (its engine throws
  // mid-slice, so the partial slice never accumulates).
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(fleet_trap_source()));
  SimulationService service(2);

  const std::vector<uint64_t> budgets = {2, 1000, 3, 1000};
  std::vector<SimulationService::Job> batch;
  for (uint64_t budget : budgets) {
    batch.push_back({EngineImage(image), EngineKind::kFleet, RunOptions{budget}, {}, {}});
  }
  const std::vector<JobHandle> handles = service.submit_cohort(std::move(batch));

  for (std::size_t i = 0; i < handles.size(); ++i) {
    const JobResult& got = handles[i].result();
    // The standalone path: one fleet job through submit() (its own
    // engine, execute_job's classification).
    SimulationService solo_service(1);
    const JobResult solo =
        solo_service.submit({image, EngineKind::kFleet, RunOptions{budgets[i]}}).result();
    EXPECT_EQ(got.outcome, solo.outcome) << "job " << i;
    EXPECT_EQ(got.error, solo.error) << "job " << i;
    EXPECT_EQ(got.run.stats, solo.run.stats) << "job " << i;
    EXPECT_EQ(got.run.state, solo.run.state) << "job " << i;
  }
}

}  // namespace
}  // namespace art9::sim

// The async face of SimulationService: JobHandle semantics, the
// JobOutcome taxonomy, deadlines, cooperative cancellation, completion
// callbacks — and the acceptance gate of the checkpoint-retry path: a
// job faulted mid-run resumes from its last checkpoint and finishes with
// MachineState/SimStats bit-identical to an uninterrupted run, at any
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/fault_injection.hpp"
#include "sim/service.hpp"

namespace art9::sim {
namespace {

using namespace std::chrono_literals;

/// ~600 retired instructions, then halts: long enough to slice and
/// checkpoint, short enough to run thousands of times in a test.
std::shared_ptr<const DecodedImage> loop_image() {
  static const std::shared_ptr<const DecodedImage> kImage = decode(isa::assemble(R"(
        LIMM T1, 100
        LIMM T2, 0
      loop:
        ADD  T2, T1
        ADDI T1, -1
        MV   T3, T1
        COMP T3, T4
        BNE  T3, 0, loop
        HALT
      )"));
  return kImage;
}

/// Never halts — the cancellation / deadline workload.
std::shared_ptr<const DecodedImage> spin_image() {
  static const std::shared_ptr<const DecodedImage> kImage =
      decode(isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n"));
  return kImage;
}

std::shared_ptr<const rv32::Rv32DecodedImage> rv32_loop_image() {
  static const std::shared_ptr<const rv32::Rv32DecodedImage> kImage =
      rv32::decode(rv32::assemble_rv32(R"(
        li   a0, 0
        li   a1, 1
      loop:
        add  a0, a0, a1
        addi a1, a1, 1
        li   t0, 200
        blt  a1, t0, loop
        ebreak
      )"));
  return kImage;
}

TEST(JobHandle, DefaultConstructedIsEmpty) {
  JobHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(handle.ready());
  EXPECT_FALSE(handle.started());
  handle.cancel();  // no-op, must not crash
  EXPECT_THROW(handle.wait(), std::logic_error);
  EXPECT_THROW(static_cast<void>(handle.result()), std::logic_error);
}

TEST(JobHandle, SubmitResolvesCompleted) {
  SimulationService service(2);
  JobHandle handle = service.submit({loop_image(), EngineKind::kFunctional});
  ASSERT_TRUE(handle.valid());
  const JobResult& result = handle.result();
  EXPECT_TRUE(handle.ready());
  EXPECT_TRUE(handle.started());
  EXPECT_EQ(result.outcome, JobOutcome::kCompleted);
  EXPECT_EQ(result.run.halt, HaltReason::kHalted);
  EXPECT_GT(result.run.stats.instructions, 0u);
  EXPECT_TRUE(handle.wait_for(0ms));
}

TEST(JobHandle, ResultsOutliveTheService) {
  JobHandle handle;
  {
    SimulationService service(1);
    handle = service.submit({loop_image(), EngineKind::kPacked});
  }  // drain destructor: the job resolved before the pool joined
  ASSERT_TRUE(handle.ready());
  EXPECT_EQ(handle.result().outcome, JobOutcome::kCompleted);
}

TEST(JobHandle, CompletionCallbacksFireExactlyOnce) {
  SimulationService service(2);
  std::atomic<int> fired{0};
  JobHandle handle = service.submit({loop_image(), EngineKind::kFunctional});
  handle.on_complete([&](const JobResult& r) {
    EXPECT_EQ(r.outcome, JobOutcome::kCompleted);
    ++fired;
  });
  handle.wait();
  // A callback registered after resolution runs inline, immediately.
  handle.on_complete([&](const JobResult&) { ++fired; });
  EXPECT_EQ(fired.load(), 2);
}

TEST(ServiceOutcomes, BudgetExhaustedAttachesPartialRun) {
  SimulationService service(1);
  JobHandle handle = service.submit({spin_image(), EngineKind::kFunctional, RunOptions{1'000}});
  const JobResult& result = handle.result();
  EXPECT_EQ(result.outcome, JobOutcome::kBudgetExhausted);
  EXPECT_EQ(result.run.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(result.run.stats.cycles, 1'000u);
  EXPECT_TRUE(result.run.state.is_art9());
}

TEST(ServiceOutcomes, TrappedJobCarriesTheTrapText) {
  isa::Program trap;  // falls off the end of the TIM
  trap.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 1});
  trap.entry = 0;
  SimulationService service(1);
  JobHandle handle = service.submit({decode(trap), EngineKind::kFunctional});
  const JobResult& result = handle.result();
  EXPECT_EQ(result.outcome, JobOutcome::kTrapped);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.retries, 0u);  // deterministic traps are never retried
}

TEST(ServiceOutcomes, DeadlineExpiresAQueuedJob) {
  // One worker, pinned by a slow job; the second job's 1 ms deadline
  // expires while it is still queued — it must resolve without running.
  SimulationService service(1);
  JobControls slow;
  slow.slice_steps = 1u << 14;  // tight slices: the blocker stays cancellable
  JobHandle blocker =
      service.submit({spin_image(), EngineKind::kFunctional, {100'000'000}, {}, slow});
  JobControls controls;
  controls.deadline = 1ms;
  JobHandle expired = service.submit({spin_image(), EngineKind::kFunctional, {}, {}, controls});
  std::this_thread::sleep_for(5ms);
  blocker.cancel();
  EXPECT_EQ(blocker.result().outcome, JobOutcome::kCancelled);
  EXPECT_EQ(expired.result().outcome, JobOutcome::kDeadlineExceeded);
  EXPECT_EQ(expired.result().run.stats.cycles, 0u);  // never dispatched
}

TEST(ServiceOutcomes, DeadlineCutsARunningJob) {
  SimulationService service(1);
  JobControls controls;
  controls.deadline = 20ms;
  controls.slice_steps = 1u << 14;
  JobHandle handle =
      service.submit({spin_image(), EngineKind::kFunctional, {100'000'000'000}, {}, controls});
  const JobResult& result = handle.result();
  EXPECT_EQ(result.outcome, JobOutcome::kDeadlineExceeded);
  EXPECT_GT(result.run.stats.cycles, 0u);  // it did run until the cut
  EXPECT_EQ(result.run.halt, HaltReason::kMaxCycles);
}

TEST(ServiceOutcomes, DeadlinePastTheClockRangeIsNoDeadline) {
  // Regression: now() + deadline overflowed the steady clock past about
  // 2^63 ns and landed in the past, so the job resolved deadline_exceeded
  // before its first instruction — solo and in a cohort alike.
  SimulationService service(1);
  for (const std::chrono::milliseconds deadline :
       {std::chrono::milliseconds{10'000'000'000'000}, std::chrono::milliseconds::max()}) {
    JobControls controls;
    controls.deadline = deadline;
    JobHandle solo = service.submit({loop_image(), EngineKind::kFunctional, {}, {}, controls});
    EXPECT_EQ(solo.result().outcome, JobOutcome::kCompleted) << deadline.count();
    std::vector<SimulationService::Job> cohort(
        2, SimulationService::Job{loop_image(), EngineKind::kFleet, {}, {}, controls});
    for (JobHandle& lane : service.submit_cohort(std::move(cohort))) {
      EXPECT_EQ(lane.result().outcome, JobOutcome::kCompleted) << deadline.count();
    }
  }
}

TEST(ServiceOutcomes, StalledJobTripsItsDeadline) {
  // The injected deadline stall: the worker wedges for 50 ms at step
  // 10'000, far past the job's 15 ms deadline.
  auto plan = std::make_shared<FaultPlan>();
  plan->stall_at_step = 10'000;
  plan->stall_for = 50ms;
  SimulationService service(1);
  JobControls controls;
  controls.deadline = 15ms;
  controls.slice_steps = 1u << 12;
  controls.fault = plan;
  JobHandle handle =
      service.submit({spin_image(), EngineKind::kFunctional, {100'000'000'000}, {}, controls});
  EXPECT_EQ(handle.result().outcome, JobOutcome::kDeadlineExceeded);
}

TEST(ServiceOutcomes, CancelledMidRun) {
  SimulationService service(1);
  JobControls controls;
  controls.slice_steps = 1u << 12;
  JobHandle handle =
      service.submit({spin_image(), EngineKind::kFunctional, {100'000'000'000}, {}, controls});
  while (!handle.started()) std::this_thread::yield();
  handle.cancel();
  const JobResult& result = handle.result();
  EXPECT_EQ(result.outcome, JobOutcome::kCancelled);
  EXPECT_EQ(result.run.halt, HaltReason::kMaxCycles);
}

TEST(ServiceOutcomes, FaultedWhenRetriesExhausted) {
  auto plan = std::make_shared<FaultPlan>();
  plan->throw_at_step = 50;
  plan->throw_count = 100;  // re-arms faster than any retry budget
  SimulationService service(1);
  JobControls controls;
  controls.retries = 2;
  controls.fault = plan;
  JobHandle handle = service.submit({spin_image(), EngineKind::kFunctional, {}, {}, controls});
  const JobResult& result = handle.result();
  EXPECT_EQ(result.outcome, JobOutcome::kFaulted);
  EXPECT_EQ(result.retries, 2u);
  EXPECT_NE(result.error.find("transient fault"), std::string::npos);
}

TEST(ServiceOutcomes, NameCoversEveryOutcome) {
  EXPECT_EQ(job_outcome_name(JobOutcome::kCompleted), "completed");
  EXPECT_EQ(job_outcome_name(JobOutcome::kTrapped), "trapped");
  EXPECT_EQ(job_outcome_name(JobOutcome::kBudgetExhausted), "budget_exhausted");
  EXPECT_EQ(job_outcome_name(JobOutcome::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_EQ(job_outcome_name(JobOutcome::kCancelled), "cancelled");
  EXPECT_EQ(job_outcome_name(JobOutcome::kFaulted), "faulted");
}

/// The acceptance gate: with a single transient fault injected mid-run
/// and checkpoints every 128 steps, the job must retry from its last
/// checkpoint and finish bit-identical to an uninterrupted run — for
/// both ISAs, on functional kinds, at several pool widths.
TEST(CheckpointRetry, RecoveredRunIsBitIdenticalAtAnyThreadCount) {
  const RunOptions budget{100'000};

  std::unique_ptr<Engine> clean_art9 = make_engine(EngineKind::kFunctional, loop_image());
  const RunResult expected_art9 = clean_art9->run(budget);
  ASSERT_EQ(expected_art9.halt, HaltReason::kHalted);

  std::unique_ptr<Engine> clean_rv32 = make_engine(EngineKind::kRv32, rv32_loop_image());
  const RunResult expected_rv32 = clean_rv32->run(budget);
  ASSERT_EQ(expected_rv32.halt, HaltReason::kHalted);

  auto plan = std::make_shared<FaultPlan>(FaultPlan::seeded(20260808, 500));
  ASSERT_GT(plan->throw_at_step, 0u);

  for (unsigned threads : {1u, 2u, 8u}) {
    SimulationService service(threads);
    JobControls controls;
    controls.checkpoint_every = 128;
    controls.retries = 3;
    controls.fault = plan;

    JobHandle art9_job =
        service.submit({loop_image(), EngineKind::kFunctional, budget, {}, controls});
    JobHandle rv32_job =
        service.submit({rv32_loop_image(), EngineKind::kRv32, budget, {}, controls});

    const JobResult& recovered = art9_job.result();
    EXPECT_EQ(recovered.outcome, JobOutcome::kCompleted) << threads << " threads";
    EXPECT_GE(recovered.retries, 1u) << threads << " threads";
    EXPECT_TRUE(recovered.resumed) << threads << " threads";
    EXPECT_GT(recovered.checkpoints, 0u) << threads << " threads";
    EXPECT_EQ(recovered.run.state, expected_art9.state) << threads << " threads";
    EXPECT_EQ(recovered.run.stats, expected_art9.stats) << threads << " threads";

    const JobResult& recovered_rv32 = rv32_job.result();
    EXPECT_EQ(recovered_rv32.outcome, JobOutcome::kCompleted) << threads << " threads";
    EXPECT_GE(recovered_rv32.retries, 1u) << threads << " threads";
    EXPECT_EQ(recovered_rv32.run.state, expected_rv32.state) << threads << " threads";
    EXPECT_EQ(recovered_rv32.run.stats, expected_rv32.stats) << threads << " threads";
  }
}

TEST(CheckpointRetry, FaultBeforeFirstCheckpointRestartsFromScratch) {
  std::unique_ptr<Engine> clean = make_engine(EngineKind::kPacked, loop_image());
  const RunResult expected = clean->run();

  auto plan = std::make_shared<FaultPlan>();
  plan->throw_at_step = 10;  // before the first checkpoint at 256
  SimulationService service(1);
  JobControls controls;
  controls.checkpoint_every = 256;
  controls.retries = 1;
  controls.fault = plan;
  JobHandle handle = service.submit({loop_image(), EngineKind::kPacked, {}, {}, controls});
  const JobResult& result = handle.result();
  EXPECT_EQ(result.outcome, JobOutcome::kCompleted);
  EXPECT_EQ(result.retries, 1u);
  EXPECT_FALSE(result.resumed);  // nothing to resume from: a clean restart
  EXPECT_EQ(result.run.state, expected.state);
  EXPECT_EQ(result.run.stats, expected.stats);
}

TEST(CheckpointRetry, CorruptCheckpointIsDetectedAndDiscarded) {
  // The corrupt-then-detect oracle: the second serialized checkpoint
  // blob gets one bit flipped; deserialize-before-adopt must reject it
  // via the codec checksum, keep the first recovery point, and the
  // (fault-free otherwise) run still completes bit-identically.
  std::unique_ptr<Engine> clean = make_engine(EngineKind::kFunctional, loop_image());
  const RunResult expected = clean->run();

  auto plan = std::make_shared<FaultPlan>();
  plan->corrupt_checkpoint = 2;
  plan->seed = 7;
  SimulationService service(1);
  JobControls controls;
  controls.checkpoint_every = 100;
  controls.fault = plan;
  JobHandle handle = service.submit({loop_image(), EngineKind::kFunctional, {}, {}, controls});
  const JobResult& result = handle.result();
  EXPECT_EQ(result.outcome, JobOutcome::kCompleted);
  EXPECT_EQ(result.corrupt_checkpoints, 1u);
  EXPECT_GT(result.checkpoints, 0u);
  EXPECT_EQ(result.run.state, expected.state);
  EXPECT_EQ(result.run.stats, expected.stats);
}

TEST(CheckpointRetry, CheckpointedRunWithoutFaultsMatchesPlainRun) {
  // Slicing + checkpointing alone must not perturb results (the
  // accumulate_stats contract), including across the rv32 kinds.
  const RunOptions budget{50'000};
  for (EngineKind kind : {EngineKind::kFunctional, EngineKind::kPacked, EngineKind::kLazy}) {
    std::unique_ptr<Engine> clean = make_engine(kind, loop_image());
    const RunResult expected = clean->run(budget);
    SimulationService service(1);
    JobControls controls;
    controls.checkpoint_every = 64;
    controls.slice_steps = 100;
    JobHandle handle = service.submit({loop_image(), kind, budget, {}, controls});
    const JobResult& result = handle.result();
    EXPECT_EQ(result.outcome, JobOutcome::kCompleted) << engine_kind_name(kind);
    EXPECT_EQ(result.run.state, expected.state) << engine_kind_name(kind);
    EXPECT_EQ(result.run.stats, expected.stats) << engine_kind_name(kind);
    EXPECT_GT(result.checkpoints, 0u) << engine_kind_name(kind);
  }
}

}  // namespace
}  // namespace art9::sim

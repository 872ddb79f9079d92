// SimulationService: the thread-parallel batch scheduler must be
// observationally identical to standalone Engine runs — bit-identical
// results in job order, regardless of worker-pool width — and must
// isolate job failures as per-job outcomes instead of swallowing (or
// rethrowing away) sibling results.
#include "sim/service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/benchmarks.hpp"
#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "xlat/framework.hpp"

namespace art9::sim {
namespace {

/// Eight small programs covering every instruction class: straight-line
/// arithmetic, loops, memory traffic, JALR returns, and one that never
/// halts (so kMaxCycles must round-trip too).
const std::array<std::string, 8>& batch_programs() {
  static const std::array<std::string, 8> kPrograms = {
      "LIMM T1, 1234\nLIMM T2, -77\nADD T1, T2\nHALT\n",
      R"(
        LIMM T1, 50
        LIMM T2, 0
      loop:
        ADD  T2, T1
        ADDI T1, -1
        MV   T3, T1
        COMP T3, T4
        BNE  T3, 0, loop
        HALT
      )",
      R"(
        LIMM T1, 60
        LIMM T2, 42
        STORE T2, 3(T1)
        LOAD  T3, 3(T1)
        HALT
      )",
      R"(
        LIMM T5, 0
        JAL  T8, sub
        ADDI T5, 2
        HALT
      sub:
        ADDI T5, 5
        JALR T0, T8, 0
      )",
      R"(
        LIMM T1, 1000
        SRI  T1, 2
        SLI  T1, 1
        LIMM T2, -481
        AND  T1, T2
        OR   T1, T2
        XOR  T1, T2
        HALT
      )",
      R"(
        LIMM T1, 88
        MV   T2, T1
        STI  T2, T2
        PTI  T3, T1
        NTI  T4, T1
        COMP T2, T1
        HALT
      )",
      R"(
        LIMM T1, 1
        COMP T1, T0
        BEQ  T1, +, skip
        LIMM T7, 9841
      skip:
        ADDI T6, 4
        HALT
      )",
      "loop:\n  ADDI T1, 1\n  JAL T0, loop\n",
  };
  return kPrograms;
}

constexpr RunOptions kBudget{2'000};

/// Four small rv32 programs riding the same batch (cross-ISA mixing):
/// arithmetic, a loop, memory traffic, and one that never halts.
const std::array<std::string, 4>& rv32_batch_programs() {
  static const std::array<std::string, 4> kPrograms = {
      "li a0, 100\naddi a1, a0, -30\nadd a2, a0, a1\nebreak\n",
      R"(
        li   a0, 0
        li   a1, 1
      loop:
        add  a0, a0, a1
        addi a1, a1, 1
        li   t0, 11
        blt  a1, t0, loop
        ebreak
      )",
      R"(
        li   a0, 64
        li   a1, -456
        sw   a1, 0(a0)
        lw   a2, 0(a0)
        lb   a3, 1(a0)
        ebreak
      )",
      "loop:\n  addi t0, t0, 1\n  j loop\n",
  };
  return kPrograms;
}

using Job = SimulationService::Job;

// Callers build jobs field by field or as `{image, kind, {budget}}`.
static_assert(std::is_aggregate_v<Job>);

/// Submits `jobs` in order and collects one result per job, in job order.
std::vector<JobResult> resolve_all(SimulationService& service, const std::vector<Job>& jobs) {
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(service.submit(job));
  std::vector<JobResult> results;
  for (const JobHandle& handle : handles) results.push_back(handle.result());
  return results;
}

/// The mixed cross-ISA batch: every ART-9 program on every ART-9 engine
/// kind, plus every rv32 program on both rv32 kinds, one job each.
std::vector<Job> mixed_batch() {
  std::vector<Job> jobs;
  for (const std::string& source : batch_programs()) {
    const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(source));
    for (EngineKind kind : {EngineKind::kLazy, EngineKind::kFunctional, EngineKind::kPacked,
                            EngineKind::kPipeline, EngineKind::kPackedPipeline}) {
      jobs.push_back({image, kind, kBudget});
    }
  }
  for (const std::string& source : rv32_batch_programs()) {
    const std::shared_ptr<const rv32::Rv32DecodedImage> image =
        rv32::decode(rv32::assemble_rv32(source));
    jobs.push_back({image, EngineKind::kRv32, kBudget});
    jobs.push_back({image, EngineKind::kRv32Packed, kBudget});
  }
  return jobs;
}

std::vector<JobResult> run_mixed_batch(unsigned threads) {
  SimulationService service(threads);
  return resolve_all(service, mixed_batch());
}

TEST(SimulationService, MatchesStandaloneEngineRuns) {
  SimulationService service(1);
  std::vector<Job> jobs;
  for (const std::string& source : batch_programs()) {
    jobs.push_back({decode(isa::assemble(source)), EngineKind::kFunctional, kBudget});
  }
  const std::vector<JobResult> results = resolve_all(service, jobs);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::unique_ptr<Engine> standalone =
        make_engine(EngineKind::kFunctional, decode(isa::assemble(batch_programs()[i])));
    const RunResult expected = standalone->run(kBudget);
    EXPECT_EQ(results[i].run.state, expected.state) << "program " << i;
    EXPECT_EQ(results[i].run.stats, expected.stats) << "program " << i;
    EXPECT_EQ(results[i].run.halt, i == 7 ? HaltReason::kMaxCycles : HaltReason::kHalted)
        << "program " << i;
    EXPECT_EQ(results[i].outcome,
              i == 7 ? JobOutcome::kBudgetExhausted : JobOutcome::kCompleted)
        << "program " << i;
  }
}

TEST(SimulationService, Rv32JobsMatchStandaloneEngineRuns) {
  SimulationService service(4);
  std::vector<Job> jobs;
  for (const std::string& source : rv32_batch_programs()) {
    jobs.push_back({rv32::decode(rv32::assemble_rv32(source)), EngineKind::kRv32Packed, kBudget});
  }
  const std::vector<JobResult> results = resolve_all(service, jobs);
  ASSERT_EQ(results.size(), rv32_batch_programs().size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::unique_ptr<Engine> standalone = make_engine(EngineKind::kRv32Packed, jobs[i].image);
    const RunResult expected = standalone->run(kBudget);
    EXPECT_EQ(results[i].run.state, expected.state) << "program " << i;
    EXPECT_EQ(results[i].run.stats, expected.stats) << "program " << i;
  }
}

TEST(SimulationService, ThreadedResultsBitIdenticalToSequential) {
  // The acceptance gate: threads=N returns results bit-identical to
  // threads=1, across a 48-job mixed-ISA batch (every ART-9 program on
  // all five ART-9 kinds, every rv32 program on both rv32 kinds).
  const std::vector<JobResult> sequential = run_mixed_batch(1);
  for (unsigned threads : {2u, 4u, 8u}) {
    const std::vector<JobResult> parallel = run_mixed_batch(threads);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].run.state, sequential[i].run.state)
          << threads << " threads, job " << i;
      EXPECT_EQ(parallel[i].run.stats, sequential[i].run.stats)
          << threads << " threads, job " << i;
      EXPECT_EQ(parallel[i].outcome, sequential[i].outcome) << threads << " threads, job " << i;
    }
  }
}

TEST(SimulationService, SharedImageMatchesPerJobDecode) {
  const isa::Program program = isa::assemble(batch_programs()[1]);

  SimulationService service(4);
  const std::vector<Job> jobs(8, Job{decode(program), EngineKind::kPacked, kBudget});
  const std::vector<JobResult> results = resolve_all(service, jobs);
  std::unique_ptr<Engine> standalone = make_engine(EngineKind::kPacked, decode(program));
  const RunResult expected = standalone->run(kBudget);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].run.state, expected.state) << "job " << i;
    EXPECT_EQ(results[i].run.stats, expected.stats) << "job " << i;
  }
}

TEST(SimulationService, TrappingJobDoesNotDiscardSiblingResults) {
  // A failing job never takes its siblings down: the trapping job
  // resolves kTrapped (with the trap text) while its siblings return
  // results bit-identical to standalone runs.
  isa::Program trap;
  trap.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 1});
  trap.entry = 0;

  const std::shared_ptr<const DecodedImage> first = decode(isa::assemble(batch_programs()[0]));
  const std::shared_ptr<const DecodedImage> third = decode(isa::assemble(batch_programs()[2]));
  const RunResult expected_first = make_engine(EngineKind::kFunctional, first)->run(kBudget);
  const RunResult expected_third = make_engine(EngineKind::kPipeline, third)->run(kBudget);

  for (unsigned threads : {1u, 4u}) {
    SimulationService service(threads);
    const std::vector<JobResult> results =
        resolve_all(service, {{first, EngineKind::kFunctional, kBudget},
                              {decode(trap), EngineKind::kPacked, kBudget},
                              {third, EngineKind::kPipeline, kBudget}});
    ASSERT_EQ(results.size(), 3u) << threads << " threads";

    EXPECT_EQ(results[0].outcome, JobOutcome::kCompleted) << threads << " threads";
    EXPECT_EQ(results[0].run.state, expected_first.state) << threads << " threads";
    EXPECT_EQ(results[0].run.stats, expected_first.stats) << threads << " threads";

    EXPECT_EQ(results[1].outcome, JobOutcome::kTrapped) << threads << " threads";
    EXPECT_FALSE(results[1].error.empty()) << threads << " threads";

    EXPECT_EQ(results[2].outcome, JobOutcome::kCompleted) << threads << " threads";
    EXPECT_EQ(results[2].run.state, expected_third.state) << threads << " threads";
    EXPECT_EQ(results[2].run.stats, expected_third.stats) << threads << " threads";
  }
}

TEST(SimulationService, NullImageRejectedAtSubmit) {
  SimulationService service(1);
  EXPECT_THROW(service.submit({std::shared_ptr<const DecodedImage>{}, EngineKind::kPacked}),
               std::invalid_argument);
}

TEST(SimulationService, MismatchedKindRejectedAtSubmit) {
  SimulationService service(1);
  EXPECT_THROW(service.submit({decode(isa::assemble(batch_programs()[0])), EngineKind::kRv32}),
               std::invalid_argument);
}

TEST(SimulationService, TranslatedBenchmarkBatchAcrossKinds) {
  // The paper's evaluation loop as one batch: all four translated
  // benchmarks, each on the packed and pipeline engines, scheduled wide.
  xlat::SoftwareFramework framework;
  SimulationService service(0);  // hardware_concurrency default
  EXPECT_GE(service.threads(), 1u);
  std::vector<Job> jobs;
  for (const core::BenchmarkSources* bench : core::all_benchmarks()) {
    const std::shared_ptr<const DecodedImage> image =
        decode(framework.translate(rv32::assemble_rv32(bench->rv32)).program);
    jobs.push_back({image, EngineKind::kPacked});
    jobs.push_back({image, EngineKind::kPipeline});
  }
  const std::vector<JobResult> results = resolve_all(service, jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t b = 0; b < jobs.size() / 2; ++b) {
    const RunResult& packed = results[2 * b].run;
    const RunResult& pipeline = results[2 * b + 1].run;
    EXPECT_EQ(packed.halt, HaltReason::kHalted);
    EXPECT_EQ(pipeline.halt, HaltReason::kHalted);
    // Functional and cycle-accurate models agree architecturally.
    EXPECT_EQ(packed.state.art9().trf, pipeline.state.art9().trf);
    EXPECT_EQ(packed.stats.instructions, pipeline.stats.instructions);
    EXPECT_GE(pipeline.stats.cycles, pipeline.stats.instructions);
  }
}

TEST(SimulationService, IntrospectionStartsAtZero) {
  SimulationService service(2);
  EXPECT_EQ(service.queued(), 0u);
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(service.worker_count(), 0u);  // the pool spawns lazily
  EXPECT_EQ(service.threads(), 2u);
  EXPECT_EQ(service.submitted(), 0u);
  EXPECT_EQ(service.resolved(), 0u);
  for (const JobOutcome outcome :
       {JobOutcome::kCompleted, JobOutcome::kTrapped, JobOutcome::kBudgetExhausted,
        JobOutcome::kDeadlineExceeded, JobOutcome::kCancelled, JobOutcome::kFaulted}) {
    EXPECT_EQ(service.outcome_count(outcome), 0u);
  }
}

TEST(SimulationService, IntrospectionCountsEveryOutcomeExactlyOnce) {
  // One job per deterministic outcome class: completed, trapped,
  // budget_exhausted, cancelled (cancelled while queued behind the rest
  // on a single worker).  After a full drain the monotone counters must
  // reconcile: submitted == resolved == sum over outcome_count, and the
  // instantaneous gauges are back to zero.
  isa::Program trap;
  trap.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 1});
  trap.entry = 0;

  SimulationService service(1);
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(batch_programs()[0]));
  const std::shared_ptr<const DecodedImage> spin =
      decode(isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n"));

  const JobHandle completed = service.submit({image, EngineKind::kFunctional, kBudget});
  const JobHandle trapped = service.submit({decode(trap), EngineKind::kPacked, kBudget});
  const JobHandle exhausted = service.submit({spin, EngineKind::kFunctional, RunOptions{1000}});
  // The cancelled job spins forever on a huge budget, so whether
  // cancel() lands while it is still queued or already running (it is
  // cut at the next slice boundary), kCancelled is the only outcome.
  const JobHandle cancelled =
      service.submit({spin, EngineKind::kFunctional, RunOptions{100'000'000}});
  cancelled.cancel();

  for (const JobHandle* handle : {&completed, &trapped, &exhausted, &cancelled}) {
    handle->wait();
  }

  EXPECT_EQ(service.submitted(), 4u);
  EXPECT_EQ(service.resolved(), 4u);
  EXPECT_EQ(service.queued(), 0u);
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(service.worker_count(), 1u);

  EXPECT_EQ(service.outcome_count(JobOutcome::kCompleted), 1u);
  EXPECT_EQ(service.outcome_count(JobOutcome::kTrapped), 1u);
  EXPECT_EQ(service.outcome_count(JobOutcome::kBudgetExhausted), 1u);
  EXPECT_EQ(service.outcome_count(JobOutcome::kCancelled), 1u);
  uint64_t total = 0;
  for (const JobOutcome outcome :
       {JobOutcome::kCompleted, JobOutcome::kTrapped, JobOutcome::kBudgetExhausted,
        JobOutcome::kDeadlineExceeded, JobOutcome::kCancelled, JobOutcome::kFaulted}) {
    total += service.outcome_count(outcome);
  }
  EXPECT_EQ(total, service.resolved());
}

TEST(SimulationService, IntrospectionCountersSurviveWideBatches) {
  // The counters are lock-free and shared with every JobState; a wide
  // threaded batch must still reconcile exactly once drained.
  SimulationService service(4);
  const std::vector<JobResult> results = resolve_all(service, mixed_batch());
  EXPECT_EQ(service.submitted(), results.size());
  EXPECT_EQ(service.resolved(), results.size());
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_LE(service.worker_count(), 4u);
  EXPECT_GE(service.worker_count(), 1u);
  uint64_t total = 0;
  for (const JobOutcome outcome :
       {JobOutcome::kCompleted, JobOutcome::kTrapped, JobOutcome::kBudgetExhausted,
        JobOutcome::kDeadlineExceeded, JobOutcome::kCancelled, JobOutcome::kFaulted}) {
    total += service.outcome_count(outcome);
  }
  EXPECT_EQ(total, results.size());
}

}  // namespace
}  // namespace art9::sim

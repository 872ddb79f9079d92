// Scheduler concurrency stress: many client threads submitting,
// cancelling, polling and registering callbacks against one service
// while a batch drains.  The assertions are deliberately loose — every
// job resolves exactly once, to a sane outcome — because the point of
// this test is the ThreadSanitizer CI leg (ART9_TSAN): it must be
// race-clean, not merely pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/fault_injection.hpp"
#include "sim/service.hpp"

namespace art9::sim {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const DecodedImage> work_image() {
  static const std::shared_ptr<const DecodedImage> kImage = decode(isa::assemble(R"(
        LIMM T1, 200
      loop:
        ADDI T1, -1
        COMP T2, T1
        BNE  T2, 0, loop
        HALT
      )"));
  return kImage;
}

std::shared_ptr<const rv32::Rv32DecodedImage> rv32_work_image() {
  static const std::shared_ptr<const rv32::Rv32DecodedImage> kImage =
      rv32::decode(rv32::assemble_rv32(R"(
        li   t0, 150
      loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
      )"));
  return kImage;
}

TEST(ServiceStress, ConcurrentSubmitCancelResubmitWhileBatchDrains) {
  constexpr unsigned kClients = 4;
  constexpr unsigned kJobsPerClient = 40;

  std::vector<JobHandle> batch;
  std::atomic<unsigned> callbacks_fired{0};
  std::atomic<unsigned> resolved{0};

  {
    SimulationService service(4);

    // A background batch draining while the clients hammer the service.
    for (int i = 0; i < 24; ++i) {
      batch.push_back(service.submit({work_image(), EngineKind::kPacked}));
      batch.push_back(service.submit({rv32_work_image(), EngineKind::kRv32}));
    }

    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto plan = std::make_shared<FaultPlan>(FaultPlan::seeded(c + 1, 100));
        for (unsigned j = 0; j < kJobsPerClient; ++j) {
          JobControls controls;
          controls.slice_steps = 64;
          if (j % 5 == 0) {
            controls.fault = plan;  // a shared plan: each job gets its own state
            controls.retries = 1;
          }
          JobHandle handle = (c % 2 == 0)
                                 ? service.submit({work_image(), EngineKind::kFunctional,
                                                   RunOptions{5'000}, {}, controls})
                                 : service.submit({rv32_work_image(), EngineKind::kRv32,
                                                   RunOptions{5'000}, {}, controls});
          handle.on_complete([&](const JobResult&) { ++callbacks_fired; });
          if (j % 3 == 0) handle.cancel();  // races the worker: either order is fine
          if (j % 7 == 0) {
            (void)handle.ready();
            (void)handle.started();
          }
          const JobResult& result = handle.result();
          // Every outcome in the taxonomy is legal here; the job must
          // simply have resolved to exactly one of them.
          EXPECT_LE(static_cast<unsigned>(result.outcome),
                    static_cast<unsigned>(JobOutcome::kFaulted));
          if (result.outcome == JobOutcome::kCompleted) {
            EXPECT_EQ(result.run.halt, HaltReason::kHalted);
          }
          ++resolved;
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }  // drain destructor: joins the workers, so every callback has run

  for (JobHandle& handle : batch) {
    EXPECT_EQ(handle.result().outcome, JobOutcome::kCompleted);
  }
  EXPECT_EQ(resolved.load(), kClients * kJobsPerClient);
  EXPECT_EQ(callbacks_fired.load(), kClients * kJobsPerClient);
}

TEST(ServiceStress, CancelFromManyThreadsIsIdempotent) {
  SimulationService service(2);
  JobControls controls;
  controls.slice_steps = 1u << 10;
  JobHandle handle = service.submit(
      {decode(isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n")), EngineKind::kFunctional,
       RunOptions{100'000'000'000}, {}, controls});

  std::vector<std::thread> cancellers;
  for (int i = 0; i < 8; ++i) cancellers.emplace_back([&] { handle.cancel(); });
  for (std::thread& t : cancellers) t.join();

  EXPECT_EQ(handle.result().outcome, JobOutcome::kCancelled);
}

TEST(ServiceStress, DestructorDrainsOutstandingJobs) {
  std::vector<JobHandle> handles;
  {
    SimulationService service(3);
    for (int i = 0; i < 30; ++i) {
      handles.push_back(service.submit({work_image(), EngineKind::kFunctional}));
    }
  }  // drain: every job resolved before the pool joined
  for (JobHandle& handle : handles) {
    ASSERT_TRUE(handle.ready());
    EXPECT_EQ(handle.result().outcome, JobOutcome::kCompleted);
  }
}

}  // namespace
}  // namespace art9::sim

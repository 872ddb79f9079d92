// SimulationService: an asynchronous, fault-isolating job scheduler over
// the cross-ISA Engine facade.  submit(Job) returns a future-style
// JobHandle immediately; a persistent worker pool executes jobs one
// engine each (mixing ISAs freely) and every job resolves to a
// structured JobOutcome — one bad job never poisons the batch.
//
// Outcome taxonomy (JobResult::outcome):
//
//   kCompleted        ran to the halt convention; state/stats attached
//   kTrapped          the program itself trapped (SimError) — deterministic,
//                     never retried; trap text + state at the trap attached
//   kBudgetExhausted  RunOptions::max_steps spent; state/stats attached
//   kDeadlineExceeded per-job wall-clock deadline cut the run short;
//                     state/stats at the cut attached
//   kCancelled        JobHandle::cancel() honoured (cooperatively, between
//                     slices); state/stats at the cut attached if started
//   kFaulted          a TransientFault outran the retry budget; stats as of
//                     the last recovery point attached
//
// Long runs are sliced into run_stats chunks so cancellation and the
// deadline are checked cooperatively mid-job, and — when
// JobControls::checkpoint_every is set — an instruction-boundary
// checkpoint (Engine::checkpoint, serialized through sim/snapshot.hpp
// and validated by its checksum before adoption) is taken every N steps.
// On a TransientFault (see sim/fault_injection.hpp) the job retries by
// make_engine(kind, image, snapshot) resume from the last valid
// checkpoint, up to JobControls::retries times with exponential backoff;
// a plain SimError is a deterministic program trap and resolves kTrapped
// immediately.
//
// Determinism: a job's *architectural* result depends only on its
// (image, kind, budget, fault plan), never on scheduling — threads = N
// is bit-identical to threads = 1, checkpoint/resume included (locked by
// tests/sim/service_test.cpp and service_async_test.cpp).  Deadline and
// cancellation outcomes are wall-clock-dependent by nature; their
// *classification* is what tests lock.
//
// A job's failure never throws out of the service: a trapping job
// resolves kTrapped while its siblings' results stay intact.
//
// Cohorts: submit_cohort() schedules up to FleetSimulator::kMaxLanes
// fleet-kind jobs sharing one DecodedImage as a single unit of worker
// work — one bit-sliced FleetSimulator executes every lane at once, and
// each job still resolves to its own independent JobResult (outcome,
// state and stats bit-identical to running it alone).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/engine.hpp"

namespace art9::sim {

struct FaultPlan;  // sim/fault_injection.hpp

/// How a job resolved.  Every submitted job resolves to exactly one.
enum class JobOutcome : uint8_t {
  kCompleted,
  kTrapped,
  kBudgetExhausted,
  kDeadlineExceeded,
  kCancelled,
  kFaulted,
};

/// Stable lower-case name ("completed", "trapped", "budget_exhausted",
/// "deadline_exceeded", "cancelled", "faulted") — art9-run's report
/// vocabulary.
[[nodiscard]] std::string_view job_outcome_name(JobOutcome outcome) noexcept;

/// The process exit code for `outcome` — what art9-run exits with and
/// art9-serve reports as `exit_code`.
[[nodiscard]] constexpr int outcome_exit_code(JobOutcome outcome) noexcept {
  switch (outcome) {
    case JobOutcome::kCompleted: return 0;
    case JobOutcome::kTrapped: return 3;
    case JobOutcome::kBudgetExhausted: return 4;
    case JobOutcome::kDeadlineExceeded: return 5;
    case JobOutcome::kCancelled: return 6;
    case JobOutcome::kFaulted: return 7;
  }
  return 1;
}

/// Per-job scheduling controls, all optional.
struct JobControls {
  /// Wall-clock budget measured from submit() (0 = none).  Checked
  /// between slices and before dispatch, so a job can expire while
  /// still queued.
  std::chrono::milliseconds deadline{0};

  /// Take a recovery checkpoint every N executed steps (0 = off).  The
  /// serialized blob is validated (checksum) before adoption; a corrupt
  /// blob is discarded and the previous recovery point kept.
  uint64_t checkpoint_every = 0;

  /// Retries granted on TransientFault.  Each retry resumes from the
  /// last valid checkpoint (or restarts when none exists yet).
  unsigned retries = 0;

  /// Backoff slept before retry r (0-based): retry_backoff << r.
  std::chrono::milliseconds retry_backoff{0};

  /// Cooperative slice length in engine steps (0 = the service default,
  /// 1M).  Bounds cancellation/deadline latency; tightened automatically
  /// to hit checkpoint boundaries exactly.
  uint64_t slice_steps = 0;

  /// Deterministic fault injection (tests, CLI drills); nullptr = none.
  std::shared_ptr<const FaultPlan> fault;
};

/// What a job resolves to.  `run` carries the engine's final
/// MachineState/SimStats where meaningful (see the taxonomy above);
/// stats are accumulated across slices and — after a checkpoint resume —
/// across engine incarnations, so a recovered run reports the same
/// totals as an uninterrupted one.
struct JobResult {
  JobOutcome outcome = JobOutcome::kCompleted;
  RunResult run;
  std::string error;        // kTrapped / kFaulted: the throwing message
  unsigned retries = 0;     // retries consumed
  uint64_t checkpoints = 0;  // recovery points adopted
  uint64_t corrupt_checkpoints = 0;  // blobs rejected by the codec checksum
  bool resumed = false;     // at least one retry resumed from a checkpoint
};

namespace detail {
struct JobState;

/// Scheduler introspection counters, shared by the service and every
/// JobState (a shared_ptr, so a handle resolving during service teardown
/// never touches a freed service).  `in_flight` is instantaneous; the
/// rest are monotone.
struct ServiceCounters {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> resolved{0};
  std::atomic<std::size_t> in_flight{0};
  std::array<std::atomic<uint64_t>, 6> outcomes{};  // indexed by JobOutcome
};
}  // namespace detail

/// Future-style view of one submitted job.  Copyable (all copies share
/// the job); a default-constructed handle is empty.  Handles outlive the
/// service: results stay readable after the service is destroyed.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// True once a worker has picked the job up (it may also already be
  /// done).  False for a job still queued.
  [[nodiscard]] bool started() const noexcept;

  /// True once the result is available; never blocks.
  [[nodiscard]] bool ready() const noexcept;

  /// Blocks until the job resolves.  On return, every callback that was
  /// registered before resolution has already finished running.
  void wait() const;

  /// Blocks up to `timeout`; true when the job resolved in time.
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const;

  /// Blocks until resolved, then returns the result (valid as long as
  /// any handle to this job lives).
  [[nodiscard]] const JobResult& result() const;

  /// Requests cooperative cancellation: a queued job resolves kCancelled
  /// without running; a running job stops at the next slice boundary.  A
  /// resolved job is unaffected.  Idempotent.
  void cancel() const noexcept;

  /// Registers `callback` to run exactly once with the result — on the
  /// resolving worker thread, or inline right now when already resolved.
  /// Callbacks must not block on other jobs of a saturated pool, and must
  /// not block on their own handle (wait() returns only after they ran).
  void on_complete(std::function<void(const JobResult&)> callback) const;

 private:
  friend class SimulationService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state) : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

class SimulationService {
 public:
  /// One scheduled simulation: an engine kind over a shared image of
  /// either ISA, with a private budget, (for the pipeline kinds)
  /// microarchitecture options, and scheduling controls.  The kind must
  /// match the image's ISA.  An aggregate, so `submit({image, kind})` and
  /// `submit({image, kind, {budget}})` spell the common cases.
  struct Job {
    EngineImage image;
    EngineKind kind = EngineKind::kFunctional;
    RunOptions run{};
    EngineOptions engine{};
    JobControls control{};
  };

  /// `threads = 0` uses std::thread::hardware_concurrency() (min 1).
  /// Workers start lazily at the first submit.
  explicit SimulationService(unsigned threads = 0);

  /// Drains: blocks until every submitted job has resolved, then joins
  /// the pool.  Cancel outstanding handles first for a fast exit.
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// The resolved worker-pool width.
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  // --- async API -----------------------------------------------------------

  /// Schedules `job` and returns immediately.  With one worker, jobs
  /// execute in submission order.  Throws std::invalid_argument on a
  /// null image or a kind of the other ISA.
  JobHandle submit(Job job);

  /// Schedules `jobs` as fleet cohorts: chunks of up to
  /// FleetSimulator::kMaxLanes jobs become one unit of worker work each,
  /// executed by a single bit-sliced FleetSimulator (one lane per job).
  /// Every job still resolves independently — per-lane budget, deadline,
  /// cancellation and outcome classification all match running the job
  /// alone bit-for-bit.  Requirements (std::invalid_argument otherwise):
  /// at least one job; every job uses EngineKind::kFleet and the same
  /// DecodedImage as the first; no checkpointing, retries or fault
  /// injection (deadline and slice_steps are honoured per lane).
  /// Returns one handle per job, in job order.
  std::vector<JobHandle> submit_cohort(std::vector<Job> jobs);

  // --- introspection (the /v1/metrics feed of the serve front end) ----------

  /// Jobs submitted but not yet picked up by a worker.
  [[nodiscard]] std::size_t queued() const;

  /// Jobs a worker has picked up but not yet resolved.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return counters_->in_flight.load(std::memory_order_acquire);
  }

  /// Workers actually spawned (0 until the first submit — the pool starts
  /// lazily; `threads()` is the configured width).
  [[nodiscard]] unsigned worker_count() const;

  /// Jobs accepted by submit() over the service lifetime.
  [[nodiscard]] uint64_t submitted() const noexcept {
    return counters_->submitted.load(std::memory_order_acquire);
  }

  /// Jobs resolved to any outcome.  Equals the sum of outcome_count over
  /// all six outcomes, and — once drained — submitted().
  [[nodiscard]] uint64_t resolved() const noexcept {
    return counters_->resolved.load(std::memory_order_acquire);
  }

  /// Jobs resolved to `outcome`.  Counted before the resolving job's
  /// wait()/result() returns, so a drained batch always sums exactly.
  [[nodiscard]] uint64_t outcome_count(JobOutcome outcome) const noexcept {
    return counters_->outcomes[static_cast<std::size_t>(outcome)].load(std::memory_order_acquire);
  }

 private:
  /// One unit of worker work: a solo job (size 1) or a fleet cohort.
  using WorkItem = std::vector<std::shared_ptr<detail::JobState>>;

  void worker_loop();
  void ensure_workers();
  std::shared_ptr<detail::JobState> make_state(Job job);
  void enqueue(WorkItem item);

  unsigned threads_;
  std::shared_ptr<detail::ServiceCounters> counters_ =
      std::make_shared<detail::ServiceCounters>();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace art9::sim

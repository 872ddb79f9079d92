#include "sim/service.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>
#include <variant>

#include "sim/fault_injection.hpp"
#include "sim/fleet.hpp"
#include "sim/snapshot.hpp"

namespace art9::sim {

namespace detail {

/// The shared job record behind JobHandle: immutable inputs, the
/// cooperative cancellation token, and the resolve-once result slot.
struct JobState {
  SimulationService::Job job;
  std::shared_ptr<ServiceCounters> counters;  // set at submit, never null
  std::chrono::steady_clock::time_point deadline_at{};
  bool has_deadline = false;

  std::atomic<bool> cancel{false};
  std::atomic<bool> started{false};

  std::mutex m;
  std::condition_variable cv;
  bool resolving = false;  // result published, callbacks may still be running
  bool done = false;       // result published AND pre-registered callbacks ran
  JobResult result;
  std::vector<std::function<void(const JobResult&)>> callbacks;
};

}  // namespace detail

namespace {

/// Cooperative slice length when JobControls::slice_steps is 0 — long
/// enough to amortize the run_stats call, short enough that cancellation
/// and deadline latency stay in the milliseconds on every backend.
constexpr uint64_t kDefaultSlice = 1u << 20;

void validate_job(const SimulationService::Job& job) {
  const bool null_image = std::visit([](const auto& p) { return p == nullptr; }, job.image);
  if (null_image) throw std::invalid_argument("SimulationService: null image");
  const bool rv32_image = job.image.index() == 1;
  if (is_rv32(job.kind) != rv32_image) {
    throw std::invalid_argument("SimulationService: engine kind does not match the image's ISA");
  }
}

/// Publishes the result exactly once, runs the registered callbacks
/// outside the lock (they may touch other handles), and only then marks
/// the job done — so wait()/result() returning guarantees every
/// previously registered callback has finished.  Callbacks registered
/// after this point run inline in on_complete (`resolving` is set).
/// Corollary: a callback must not block on its own handle.
void resolve(detail::JobState& st, JobResult result) {
  std::vector<std::function<void(const JobResult&)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(st.m);
    if (st.resolving) return;
    st.result = std::move(result);
    st.resolving = true;
    callbacks.swap(st.callbacks);
  }
  // Count the outcome before anyone can observe the result (callbacks,
  // wait, ready): a drained batch's per-outcome counts always sum to the
  // submitted total, with no window where a job is done but uncounted.
  st.counters->outcomes[static_cast<std::size_t>(st.result.outcome)].fetch_add(
      1, std::memory_order_acq_rel);
  st.counters->resolved.fetch_add(1, std::memory_order_acq_rel);
  st.counters->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  for (auto& cb : callbacks) cb(st.result);
  {
    std::lock_guard<std::mutex> lock(st.m);
    st.done = true;
  }
  st.cv.notify_all();
}

/// The last checkpoint a retry may resume from.  Held serialized: the
/// blob is what travels through FaultState::mutate_checkpoint, and
/// deserialize-before-adopt is what turns a corrupt blob into a detected
/// (counted, discarded) one instead of an adopted one.
struct RecoveryPoint {
  bool valid = false;
  std::vector<uint8_t> blob;
  SimStats stats;      // accumulated stats as of the checkpoint
  uint64_t steps = 0;  // budget steps consumed as of the checkpoint
};

/// Attaches the engine's current architectural state if it can still
/// produce one (a trapped packed backend may not decode cleanly).
void attach_state(JobResult& result, Engine* engine) {
  if (engine == nullptr) return;
  try {
    result.run.state = engine->state();
  } catch (const std::exception&) {
    // keep the default state; the outcome + error text still stand
  }
}

void finish(JobResult& res, SimStats stats, HaltReason halt) {
  stats.halt = halt;
  res.run.stats = stats;
  res.run.halt = halt;
}

/// Runs one job to resolution.  Never throws: every failure mode maps to
/// a JobOutcome.
void execute_job(detail::JobState& st) {
  st.counters->in_flight.fetch_add(1, std::memory_order_acq_rel);
  st.started.store(true, std::memory_order_release);
  const SimulationService::Job& job = st.job;

  JobResult res;

  // Pre-dispatch checks: a job can be cancelled or expire while queued.
  if (st.cancel.load(std::memory_order_acquire)) {
    res.outcome = JobOutcome::kCancelled;
    finish(res, {}, HaltReason::kMaxCycles);
    resolve(st, std::move(res));
    return;
  }
  if (st.has_deadline && std::chrono::steady_clock::now() >= st.deadline_at) {
    res.outcome = JobOutcome::kDeadlineExceeded;
    finish(res, {}, HaltReason::kMaxCycles);
    resolve(st, std::move(res));
    return;
  }

  const uint64_t budget = job.run.max_steps;
  const uint64_t slice_len = job.control.slice_steps != 0 ? job.control.slice_steps : kDefaultSlice;
  const uint64_t every = job.control.checkpoint_every;

  // One FaultState per job, shared across retries: a fired fault stays
  // fired on the resumed engine — that is what makes it transient.
  std::shared_ptr<FaultState> fault;
  if (job.control.fault) fault = std::make_shared<FaultState>(*job.control.fault);

  RecoveryPoint rp;
  unsigned attempt = 0;

  for (;;) {
    // Declared outside the try so the catch arms can attach the partial
    // stats/state the attempt accumulated before throwing.
    std::unique_ptr<Engine> engine;
    SimStats acc;
    uint64_t steps = 0;

    try {
      if (rp.valid) {
        // Resume from the last adopted checkpoint: the image supplies
        // code, the snapshot registers/memory/PC.  Re-executed steps are
        // not double-billed — the budget clock rewinds with the state.
        engine = make_engine(job.kind, job.image, deserialize_snapshot(rp.blob), job.engine);
        acc = rp.stats;
        steps = rp.steps;
        res.resumed = true;
      } else {
        engine = make_engine(job.kind, job.image, job.engine);
      }
      if (fault) engine = with_fault_injection(std::move(engine), fault);

      while (steps < budget) {
        if (st.cancel.load(std::memory_order_acquire)) {
          res.outcome = JobOutcome::kCancelled;
          finish(res, acc, HaltReason::kMaxCycles);
          attach_state(res, engine.get());
          resolve(st, std::move(res));
          return;
        }
        if (st.has_deadline && std::chrono::steady_clock::now() >= st.deadline_at) {
          res.outcome = JobOutcome::kDeadlineExceeded;
          finish(res, acc, HaltReason::kMaxCycles);
          attach_state(res, engine.get());
          resolve(st, std::move(res));
          return;
        }

        // Slice end: the cooperative check point, tightened to land
        // exactly on the next checkpoint boundary when checkpointing is
        // on.
        uint64_t stop = std::min(budget, steps + slice_len);
        if (every != 0) stop = std::min(stop, ((steps / every) + 1) * every);

        const SimStats s = engine->run_stats({stop - steps});
        accumulate_stats(acc, s);
        steps += s.cycles;

        if (s.halt == HaltReason::kHalted) {
          res.outcome = JobOutcome::kCompleted;
          finish(res, acc, HaltReason::kHalted);
          attach_state(res, engine.get());
          resolve(st, std::move(res));
          return;
        }
        if (s.cycles == 0) break;  // no forward progress possible; report the budget cut

        if (every != 0 && steps < budget && steps % every == 0) {
          std::vector<uint8_t> blob = serialize_snapshot(engine->checkpoint());
          if (fault) fault->mutate_checkpoint(blob);
          try {
            (void)deserialize_snapshot(blob);  // validate before adopting
            rp.valid = true;
            rp.blob = std::move(blob);
            rp.stats = acc;
            rp.steps = steps;
            ++res.checkpoints;
          } catch (const SimError&) {
            // Corrupt blob detected by the codec checksum: discard it
            // and keep the previous recovery point.
            ++res.corrupt_checkpoints;
          }
        }
      }

      res.outcome = JobOutcome::kBudgetExhausted;
      finish(res, acc, HaltReason::kMaxCycles);
      attach_state(res, engine.get());
      resolve(st, std::move(res));
      return;
    } catch (const TransientFault& e) {
      if (attempt >= job.control.retries) {
        res.outcome = JobOutcome::kFaulted;
        res.error = e.what();
        finish(res, acc, HaltReason::kMaxCycles);
        attach_state(res, engine.get());
        resolve(st, std::move(res));
        return;
      }
      ++attempt;
      res.retries = attempt;
      if (job.control.retry_backoff.count() > 0) {
        std::this_thread::sleep_for(job.control.retry_backoff * (1u << (attempt - 1)));
      }
      // loop: rebuild the engine, resuming from rp when one exists
    } catch (const std::exception& e) {
      // A deterministic program trap (SimError) or anything else the
      // backend raised: replaying would re-trap, so never retried.
      res.outcome = JobOutcome::kTrapped;
      res.error = e.what();
      finish(res, acc, HaltReason::kMaxCycles);
      attach_state(res, engine.get());
      resolve(st, std::move(res));
      return;
    }
  }
}

/// Runs one fleet cohort to resolution: every job becomes one lane of a
/// single FleetSimulator, advanced in per-lane budget slices so
/// cancellation and deadlines stay cooperative lane by lane.  Outcome
/// classification and the attached state/stats are bit-identical to
/// execute_job running each job alone (locked by tests/sim/fleet_test.cpp):
/// a trapping lane resolves with the stats of its last completed slice —
/// exactly where a solo engine's mid-slice throw leaves them — and never
/// tears down its cohort.  Never throws.
void execute_cohort(const std::vector<std::shared_ptr<detail::JobState>>& group) {
  const unsigned n = static_cast<unsigned>(group.size());
  for (const auto& st : group) {
    st->counters->in_flight.fetch_add(1, std::memory_order_acq_rel);
    st->started.store(true, std::memory_order_release);
  }

  std::vector<JobResult> res(n);
  std::vector<SimStats> acc(n);
  std::vector<uint64_t> remaining(n);
  std::vector<uint64_t> slice_len(n);
  std::vector<char> open(n, 1);

  // Pre-dispatch checks per lane — execute_job's, state-free.
  const auto now0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < n; ++i) {
    detail::JobState& st = *group[i];
    remaining[i] = st.job.run.max_steps;
    slice_len[i] = st.job.control.slice_steps != 0 ? st.job.control.slice_steps : kDefaultSlice;
    if (st.cancel.load(std::memory_order_acquire)) {
      res[i].outcome = JobOutcome::kCancelled;
      finish(res[i], {}, HaltReason::kMaxCycles);
      resolve(st, std::move(res[i]));
      open[i] = 0;
    } else if (st.has_deadline && now0 >= st.deadline_at) {
      res[i].outcome = JobOutcome::kDeadlineExceeded;
      finish(res[i], {}, HaltReason::kMaxCycles);
      resolve(st, std::move(res[i]));
      open[i] = 0;
    }
  }

  try {
    // submit_cohort validated the shared ART-9 image, so get<> holds.
    FleetSimulator sim(std::get<std::shared_ptr<const DecodedImage>>(group.front()->job.image), n);

    auto settle = [&](unsigned i, JobOutcome outcome, HaltReason halt) {
      res[i].outcome = outcome;
      finish(res[i], acc[i], halt);
      try {
        res[i].run.state = MachineState{sim.unpack_lane(i)};
      } catch (const std::exception&) {
        // keep the default state; the outcome + error text still stand
      }
      resolve(*group[i], std::move(res[i]));
      open[i] = 0;
    };

    std::vector<uint64_t> slice(n, 0);
    for (;;) {
      bool any = false;
      const auto now = std::chrono::steady_clock::now();
      for (unsigned i = 0; i < n; ++i) {
        slice[i] = 0;
        if (!open[i]) continue;
        // Budget first: a job whose budget is spent reports the cut even
        // when a late cancel raced in — execute_job's while-loop order.
        if (remaining[i] == 0) {
          settle(i, JobOutcome::kBudgetExhausted, HaltReason::kMaxCycles);
          continue;
        }
        detail::JobState& st = *group[i];
        if (st.cancel.load(std::memory_order_acquire)) {
          settle(i, JobOutcome::kCancelled, HaltReason::kMaxCycles);
          continue;
        }
        if (st.has_deadline && now >= st.deadline_at) {
          settle(i, JobOutcome::kDeadlineExceeded, HaltReason::kMaxCycles);
          continue;
        }
        slice[i] = std::min(remaining[i], slice_len[i]);
        any = true;
      }
      if (!any) return;

      const std::vector<FleetSimulator::LaneProgress> progress = sim.advance(slice);
      for (unsigned i = 0; i < n; ++i) {
        if (slice[i] == 0 || !open[i]) continue;
        const FleetSimulator::LaneProgress& p = progress[i];
        if (p.trapped) {
          // Stats stop at the previous slice: a solo engine throws
          // mid-slice, so the partial slice never accumulates there.
          res[i].error = p.trap_message;
          settle(i, JobOutcome::kTrapped, HaltReason::kMaxCycles);
          continue;
        }
        acc[i].instructions += p.instructions;
        acc[i].cycles += p.instructions;  // functional kind: cycles == instructions
        remaining[i] -= p.instructions;
        if (p.halted) {
          settle(i, JobOutcome::kCompleted, HaltReason::kHalted);
        } else if (p.instructions == 0) {
          settle(i, JobOutcome::kBudgetExhausted, HaltReason::kMaxCycles);
        }
      }
    }
  } catch (const std::exception& e) {
    // Scheduler-level failure (cohorts carry no retry controls by
    // contract): every still-open lane resolves kTrapped.
    for (unsigned i = 0; i < n; ++i) {
      if (!open[i]) continue;
      res[i].outcome = JobOutcome::kTrapped;
      res[i].error = e.what();
      finish(res[i], acc[i], HaltReason::kMaxCycles);
      resolve(*group[i], std::move(res[i]));
      open[i] = 0;
    }
  }
}

}  // namespace

std::string_view job_outcome_name(JobOutcome outcome) noexcept {
  switch (outcome) {
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kTrapped: return "trapped";
    case JobOutcome::kBudgetExhausted: return "budget_exhausted";
    case JobOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case JobOutcome::kCancelled: return "cancelled";
    case JobOutcome::kFaulted: return "faulted";
  }
  return "unknown";
}

// --- JobHandle ---------------------------------------------------------------

namespace {
[[noreturn]] void throw_empty_handle() { throw std::logic_error("JobHandle: empty handle"); }
}  // namespace

bool JobHandle::started() const noexcept {
  return state_ && state_->started.load(std::memory_order_acquire);
}

bool JobHandle::ready() const noexcept {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->m);
  return state_->done;
}

void JobHandle::wait() const {
  if (!state_) throw_empty_handle();
  std::unique_lock<std::mutex> lock(state_->m);
  state_->cv.wait(lock, [this] { return state_->done; });
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  if (!state_) throw_empty_handle();
  std::unique_lock<std::mutex> lock(state_->m);
  return state_->cv.wait_for(lock, timeout, [this] { return state_->done; });
}

const JobResult& JobHandle::result() const {
  wait();
  // done is monotone: once set the result never changes, so the
  // reference stays valid for the life of the JobState.
  return state_->result;
}

void JobHandle::cancel() const noexcept {
  if (state_) state_->cancel.store(true, std::memory_order_release);
}

void JobHandle::on_complete(std::function<void(const JobResult&)> callback) const {
  if (!state_) throw_empty_handle();
  {
    std::lock_guard<std::mutex> lock(state_->m);
    if (!state_->resolving) {
      state_->callbacks.push_back(std::move(callback));
      return;
    }
  }
  // Result already published (resolve() may still be draining the
  // earlier registrations on the worker): run inline.
  callback(state_->result);
}

// --- SimulationService -------------------------------------------------------

SimulationService::SimulationService(unsigned threads)
    : threads_(threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency())) {}

SimulationService::~SimulationService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void SimulationService::ensure_workers() {
  // Caller holds mutex_.
  if (!workers_.empty() || stopping_) return;
  workers_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void SimulationService::worker_loop() {
  for (;;) {
    WorkItem work;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    if (work.size() == 1) {
      execute_job(*work.front());
    } else {
      execute_cohort(work);
    }
  }
}

std::size_t SimulationService::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t jobs = 0;
  for (const WorkItem& item : queue_) jobs += item.size();
  return jobs;
}

unsigned SimulationService::worker_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(workers_.size());
}

std::shared_ptr<detail::JobState> SimulationService::make_state(Job job) {
  auto state = std::make_shared<detail::JobState>();
  state->job = std::move(job);
  state->counters = counters_;
  if (state->job.control.deadline.count() > 0) {
    state->has_deadline = true;
    state->deadline_at = std::chrono::steady_clock::now() + state->job.control.deadline;
  }
  return state;
}

void SimulationService::enqueue(WorkItem item) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::logic_error("SimulationService: submit after shutdown began");
    // Counted before the push so submitted() >= resolved() always holds
    // (a worker may resolve the job before submit() even returns).
    counters_->submitted.fetch_add(item.size(), std::memory_order_acq_rel);
    queue_.push_back(std::move(item));
    ensure_workers();
  }
  work_cv_.notify_one();
}

JobHandle SimulationService::submit(Job job) {
  validate_job(job);
  std::shared_ptr<detail::JobState> state = make_state(std::move(job));
  JobHandle handle(state);
  enqueue(WorkItem{std::move(state)});
  return handle;
}

std::vector<JobHandle> SimulationService::submit_cohort(std::vector<Job> jobs) {
  if (jobs.empty()) throw std::invalid_argument("SimulationService: empty cohort");
  for (const Job& job : jobs) {
    validate_job(job);
    if (job.kind != EngineKind::kFleet) {
      throw std::invalid_argument("SimulationService: cohort jobs must use the fleet kind");
    }
    if (job.control.checkpoint_every != 0 || job.control.retries != 0 || job.control.fault) {
      throw std::invalid_argument(
          "SimulationService: cohort jobs cannot use checkpointing, retries or fault injection");
    }
  }
  // kFleet is an ART-9 kind, so validate_job guarantees this get<> holds.
  const auto& image = std::get<std::shared_ptr<const DecodedImage>>(jobs.front().image);
  for (const Job& job : jobs) {
    if (std::get<std::shared_ptr<const DecodedImage>>(job.image) != image) {
      throw std::invalid_argument("SimulationService: cohort jobs must share one image");
    }
  }

  std::vector<JobHandle> handles;
  handles.reserve(jobs.size());
  WorkItem item;
  for (Job& job : jobs) {
    item.push_back(make_state(std::move(job)));
    handles.push_back(JobHandle(item.back()));
    if (item.size() == FleetSimulator::kMaxLanes) {
      enqueue(std::move(item));
      item = WorkItem{};
    }
  }
  if (!item.empty()) enqueue(std::move(item));
  return handles;
}

}  // namespace art9::sim

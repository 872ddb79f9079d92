// sim_long: engine execution dominates.  A closed loop keeps one job in
// flight per SimulationService worker; jobs are Dhrystone with ITERS
// raised toward the 9-trit loop-counter limit, cycled over five solo
// engine kinds plus 32-lane fleet cohorts.
#include <algorithm>
#include <barrier>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "sim/fleet.hpp"
#include "sim/service.hpp"

namespace perfbench {

namespace sim = art9::sim;

namespace {

constexpr int kVariants = 8;
constexpr unsigned kCohortLanes = sim::FleetSimulator::kMaxLanes;
constexpr uint64_t kServiceSlice = 1u << 20;  // JobControls::slice_steps default

// Every kind should take a similar share of a slot's cycle, so a change
// to any one engine moves the rates.  The cycle-accurate kind runs ~15x
// slower per instruction than the functional ones and a cohort runs 32
// lanes, so their jobs run a fraction of the iterations.
constexpr int kPipeDivisor = 16;
constexpr int kCohortDivisor = 14;

/// Rounds of whole cycles per measurement window.
constexpr std::size_t kRoundsPerWindow = 4;

/// The per-slot job cycle; kFleet stands for a 32-lane cohort.
constexpr std::array<sim::EngineKind, 6> kCycle = {
    sim::EngineKind::kSuperblock,     sim::EngineKind::kPacked, sim::EngineKind::kPackedPipeline,
    sim::EngineKind::kRv32Superblock, sim::EngineKind::kRv32,   sim::EngineKind::kFleet};

struct Expected {
  sim::MachineState state;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
};

struct Setup {
  std::vector<BuiltProgram> variants;  // the solo functional jobs' Dhrystones
  BuiltProgram pipe_program;           // the cycle-accurate jobs' Dhrystone
  BuiltProgram cohort_program;         // every cohort lane's Dhrystone
  std::vector<Expected> art9, rv32;    // per variant
  Expected pipe, cohort;
  std::unique_ptr<sim::SimulationService> service;
};

const BuiltProgram& program_for(const Setup& s, sim::EngineKind kind, int variant) {
  if (kind == sim::EngineKind::kFleet) return s.cohort_program;
  if (sim::is_cycle_accurate(kind)) return s.pipe_program;
  return s.variants[static_cast<std::size_t>(variant)];
}

const Expected& expected_for(const Setup& s, sim::EngineKind kind, int variant) {
  if (kind == sim::EngineKind::kFleet) return s.cohort;
  if (sim::is_cycle_accurate(kind)) return s.pipe;
  return (sim::is_rv32(kind) ? s.rv32 : s.art9)[static_cast<std::size_t>(variant)];
}

sim::SimulationService::Job make_job(const BuiltProgram& p, sim::EngineKind kind) {
  sim::SimulationService::Job job;
  if (sim::is_rv32(kind)) {
    job.image = p.rv32;
  } else {
    job.image = p.art9;
  }
  job.kind = kind;
  job.run.max_steps = kBudget;
  job.engine.pipeline.max_cycles = kBudget;
  return job;
}

/// Source to runnable images of both ISAs, superblock plans included.
BuiltProgram build_variant(int iters) {
  BuiltProgram p = build_program("dhrystone_long", dhrystone_source(iters));
  (void)p.art9->superblocks();
  (void)p.rv32->superblocks();
  return p;
}

/// `build_ms`, when given, receives each variant's build time: this
/// workload's builds.  Each variant is built kBuildsPerVariant times (the
/// jobs use the last image) and its median build time is recorded, so one
/// page-fault or co-tenant stall does not set the p95.
void setup(const Options& o, unsigned workers, Setup& s, Samples* build_ms) {
  constexpr int kBuildsPerVariant = 3;
  std::mt19937_64 rng(o.seed);
  const int base = 9841 - static_cast<int>(rng() % 41);
  s = Setup{};
  s.variants.resize(kVariants);
  for (int v = 0; v < kVariants; ++v) {
    Samples times;
    for (int b = 0; b < kBuildsPerVariant; ++b) {
      const double t0 = now_s();
      BuiltProgram fresh = build_variant(base - 10 * v);
      times.add(since(t0) * 1e3);
      s.variants[static_cast<std::size_t>(v)] = std::move(fresh);  // frees the previous build
    }
    if (build_ms != nullptr) build_ms->add(times.median());
  }
  s.pipe_program = build_variant(base / kPipeDivisor);
  s.cohort_program = build_variant(base / kCohortDivisor);
  s.service = std::make_unique<sim::SimulationService>(workers);
  // Golden reference runs through the pool.  A fleet lane ends in the
  // same state as a superblock run of its program.
  s.art9.resize(kVariants);
  s.rv32.resize(kVariants);
  std::vector<std::pair<sim::JobHandle, Expected*>> runs;
  auto golden = [&](const BuiltProgram& p, sim::EngineKind kind, Expected& dst) {
    runs.emplace_back(s.service->submit(make_job(p, kind)), &dst);
  };
  golden(s.pipe_program, sim::EngineKind::kPackedPipeline, s.pipe);
  golden(s.cohort_program, sim::EngineKind::kSuperblock, s.cohort);
  for (std::size_t v = 0; v < s.variants.size(); ++v) {
    golden(s.variants[v], sim::EngineKind::kSuperblock, s.art9[v]);
    golden(s.variants[v], sim::EngineKind::kRv32Superblock, s.rv32[v]);
  }
  for (auto& [handle, dst] : runs) {
    const sim::JobResult& r = handle.result();
    if (r.outcome != sim::JobOutcome::kCompleted) throw std::runtime_error("golden run: " + r.error);
    const std::string bad = check_host_reference("dhrystone_long", r.run.state);
    if (!bad.empty()) throw std::runtime_error("golden run: " + bad);
    Expected e{r.run.state, r.run.stats.instructions, r.run.stats.cycles};
    if (o.corrupt_golden) {
      // A deliberately wrong expectation: every job must now fail.
      if (e.state.is_rv32()) {
        sim::MachineState bent = e.state;
        auto rv = std::move(bent).rv32();
        rv.pc += 4;
        e.state = sim::MachineState(std::move(rv));
      } else {
        auto a9 = std::move(e.state).art9();
        a9.pc += 1;
        e.state = sim::MachineState(std::move(a9));
      }
    }
    *dst = std::move(e);
  }
}

/// Work a slot finished and verified.
struct Counts {
  uint64_t jobs = 0;
  uint64_t instructions = 0;
  uint64_t pipe_cycles = 0;
  uint64_t pipe_instructions = 0;

  void add(const Counts& o) {
    jobs += o.jobs;
    instructions += o.instructions;
    pipe_cycles += o.pipe_cycles;
    pipe_instructions += o.pipe_instructions;
  }
};

/// One finished pass of a slot through kCycle.
struct CycleRecord {
  Counts counts;
  double start = 0.0;
  double end = 0.0;
  Samples latency_ms;
};

/// One worker slot of the closed loop: what it has in flight, and its
/// finished cycles.  Windows are groups of rounds of whole cycles (the k-th cycle
/// of every slot), so where in a cycle the run ends does not move rates.
struct Slot {
  std::size_t cycle_pos = 0;
  int variant = 0;
  sim::EngineKind kind{};
  std::vector<sim::JobHandle> handles;
  std::size_t resolved = 0;  // guarded by Loop::mutex
  double submit_start = 0.0;
  double submit_end = 0.0;
  bool busy = false;
  std::size_t since_commit = 0;
  CycleRecord current;
  std::vector<CycleRecord> cycles;
};

struct Loop {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Slot> slots;
};

/// Per-job outcome of verification; `ok` false counts as failed.
bool verify(const Setup& s, const Slot& slot, const sim::JobResult& r, std::string& why) {
  const bool pipe = sim::is_cycle_accurate(slot.kind);
  const Expected& e = expected_for(s, slot.kind, slot.variant);
  if (r.outcome != sim::JobOutcome::kCompleted) {
    why = "outcome " + std::string(sim::job_outcome_name(r.outcome)) + " " + r.error;
    return false;
  }
  if (r.run.stats.instructions != e.instructions) {
    why = "instruction count differs from golden";
    return false;
  }
  if (pipe && r.run.stats.cycles != e.cycles) {
    why = "pipeline cycle count differs from golden";
    return false;
  }
  if (!(r.run.state == e.state)) {
    why = std::string(sim::engine_kind_name(slot.kind)) + " final state differs from golden";
    return false;
  }
  why = check_host_reference("dhrystone_long", r.run.state);
  return why.empty();
}

struct JobTrace {
  sim::EngineKind kind{};
  double e2e = 0.0;
  double submit = 0.0;
  double verify = 0.0;
};

Windows run_phase(const Options& o, Setup& s, const Samples& build_ms, double seconds,
                  Tracer* tracer, std::vector<JobTrace>* traces) {
  Tracer::Log log(tracer);
  Loop loop;
  const unsigned workers = s.service->threads();
  loop.slots.resize(workers);
  // Every slot starts at the same (seeded) point of the cycle, so the
  // slots run the same kinds side by side and the mix of kinds sharing
  // the host at any moment does not depend on the seed.
  std::mt19937_64 rng(o.seed * 7919 + 17);
  const std::size_t start = rng() % kCycle.size();
  for (unsigned w = 0; w < workers; ++w) {
    loop.slots[w].cycle_pos = start;
    loop.slots[w].variant = static_cast<int>(w % kVariants);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<sim::EngineKind, double> kind_seconds;  // busy time per kind, all slots
  const double t_start = now_s();
  double t_last = t_start;
  for (Slot& slot : loop.slots) slot.current.start = t_start;

  auto submit = [&](std::size_t idx) {
    Slot& slot = loop.slots[idx];
    slot.kind = kCycle[slot.cycle_pos];
    slot.cycle_pos = (slot.cycle_pos + 1) % kCycle.size();
    slot.variant = (slot.variant + 1) % kVariants;
    const BuiltProgram& p = program_for(s, slot.kind, slot.variant);
    {
      std::lock_guard<std::mutex> lock(loop.mutex);
      slot.resolved = 0;
      slot.busy = true;
    }
    slot.submit_start = now_s();
    if (slot.kind == sim::EngineKind::kFleet) {
      std::vector<sim::SimulationService::Job> jobs(kCohortLanes, make_job(p, slot.kind));
      slot.handles = s.service->submit_cohort(std::move(jobs));
    } else {
      slot.handles = {s.service->submit(make_job(p, slot.kind))};
    }
    slot.submit_end = now_s();
    for (const sim::JobHandle& h : slot.handles) {
      h.on_complete([&loop, idx](const sim::JobResult&) {
        std::lock_guard<std::mutex> lock(loop.mutex);
        ++loop.slots[idx].resolved;
        loop.cv.notify_one();
      });
    }
  };

  for (std::size_t i = 0; i < loop.slots.size(); ++i) submit(i);
  std::size_t in_flight = loop.slots.size();
  while (in_flight > 0) {
    std::size_t idx = 0;
    {
      std::unique_lock<std::mutex> lock(loop.mutex);
      auto done = [&] {
        for (std::size_t i = 0; i < loop.slots.size(); ++i) {
          const Slot& sl = loop.slots[i];
          if (sl.busy && sl.resolved == sl.handles.size()) {
            idx = i;
            return true;
          }
        }
        return false;
      };
      loop.cv.wait(lock, done);
      loop.slots[idx].busy = false;
    }
    Slot& slot = loop.slots[idx];
    const double v0 = now_s();
    bool all_ok = true;
    for (const sim::JobHandle& h : slot.handles) {
      const sim::JobResult& r = h.result();
      std::string why;
      ++attempted;
      if (!verify(s, slot, r, why)) {
        ++failed;
        all_ok = false;
        if (failed == 1) std::fprintf(stderr, "sim_long: job failed: %s\n", why.c_str());
        continue;
      }
      Counts& c = slot.current.counts;
      ++c.jobs;
      c.instructions += r.run.stats.instructions;
      if (sim::is_cycle_accurate(slot.kind)) {
        c.pipe_cycles += r.run.stats.cycles;
        c.pipe_instructions += r.run.stats.instructions;
      }
    }
    const double v1 = now_s();
    t_last = v1;
    const double e2e = v1 - slot.submit_start;
    kind_seconds[slot.kind] += e2e;
    // A cohort is one latency sample, like a solo job.
    if (all_ok) slot.current.latency_ms.add(e2e * 1e3);
    if (++slot.since_commit == kCycle.size()) {
      slot.current.end = v1;
      slot.cycles.push_back(std::move(slot.current));
      slot.current = CycleRecord{};
      slot.current.start = v1;
      slot.since_commit = 0;
    }
    if (log.on() && all_ok) {
      const uint64_t job = log.reserve();
      log.add_with_id(job, "job", slot.submit_start, v1, 0, job);
      log.add("service.submit", slot.submit_start, slot.submit_end, job, job);
      log.add("oracle.verify", v0, v1, job, job);
      traces->push_back(JobTrace{slot.kind, e2e, slot.submit_end - slot.submit_start, v1 - v0});
    }
    slot.handles.clear();
    --in_flight;
    if (since(t_start) < seconds) {
      submit(idx);
      ++in_flight;
    }
  }
  // Round k is the k-th whole cycle of every slot; a window is
  // kRoundsPerWindow rounds.  A run too short for one window (smoke) is
  // one window of everything.
  std::size_t rounds = SIZE_MAX;
  for (const Slot& slot : loop.slots) rounds = std::min(rounds, slot.cycles.size());
  Windows windows;
  auto add_window = [&](const Counts& c, double seconds, const Samples& latency) {
    PhaseStats w;
    w.job_time_s = seconds;
    w.jobs = c.jobs;
    w.instructions = c.instructions;
    w.pipe_cycles = c.pipe_cycles;
    w.pipe_instructions = c.pipe_instructions;
    w.job_latency_ms = latency;
    // The builds happen in set-up, so every window reports all of them.
    w.images = build_ms.size() * 2;
    w.build_time_s = build_ms.sum() / 1e3;
    w.build_latency_ms = build_ms;
    windows.push_back(std::move(w));
  };
  if (rounds < kRoundsPerWindow) {
    Counts all;
    Samples latency;
    for (const Slot& slot : loop.slots) {
      for (const CycleRecord& c : slot.cycles) {
        all.add(c.counts);
        latency.append(c.latency_ms);
      }
      all.add(slot.current.counts);
      latency.append(slot.current.latency_ms);
    }
    add_window(all, t_last - t_start, latency);
  }
  for (std::size_t first = 0; first + kRoundsPerWindow <= rounds; first += kRoundsPerWindow) {
    Counts all;
    Samples latency;
    double seconds = 0.0;
    for (const Slot& slot : loop.slots) {
      for (std::size_t k = first; k < first + kRoundsPerWindow; ++k) {
        all.add(slot.cycles[k].counts);
        latency.append(slot.cycles[k].latency_ms);
      }
      seconds += slot.cycles[first + kRoundsPerWindow - 1].end - slot.cycles[first].start;
    }
    add_window(all, seconds / static_cast<double>(loop.slots.size()), latency);
  }
  if (!o.smoke) {
    double busy = 0.0;
    for (const auto& [kind, t] : kind_seconds) busy += t;
    std::fprintf(stderr, "sim_long: time share");
    for (const auto& [kind, t] : kind_seconds) {
      std::fprintf(stderr, " %s %.3f", std::string(sim::engine_kind_name(kind)).c_str(), t / busy);
    }
    std::fprintf(stderr, "\n");
  }
  windows.front().attempted = attempted;
  windows.front().failed = failed;
  if (tracer != nullptr) tracer->merge(log);
  return windows;
}

struct Replay {
  Samples make, run, state;
};

/// Replays one job of every kind directly (make_engine + run_stats +
/// state()), driven the way the service drives a job: kServiceSlice
/// steps per call until the halt.  As in the phase, every worker's
/// thread runs the same kind at the same time, so the replay sees the
/// same contention for the host's caches and memory.
std::map<sim::EngineKind, Replay> replay_kinds(const Setup& s, Tracer& tracer, int reps) {
  const unsigned threads = s.service->threads();
  std::vector<std::map<sim::EngineKind, Replay>> mine(threads);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads));
  auto body = [&](unsigned t) {
    Tracer::Log log(&tracer);
    for (int rep = 0; rep < reps; ++rep) {
      for (const sim::EngineKind kind : kCycle) {
        const BuiltProgram& p = program_for(s, kind, static_cast<int>(t % s.variants.size()));
        sync.arrive_and_wait();
        const uint64_t root = log.reserve();
        const double t0 = now_s();
        double t1 = 0.0;
        double t2 = 0.0;
        if (kind == sim::EngineKind::kFleet) {
          sim::FleetSimulator fleet(p.art9, kCohortLanes);
          t1 = now_s();
          for (bool running = true; running;) {
            running = false;
            for (const auto& lane :
                 fleet.advance(std::vector<uint64_t>(kCohortLanes, kServiceSlice))) {
              running = running || !lane.halted;
            }
          }
          t2 = now_s();
          for (unsigned lane = 0; lane < kCohortLanes; ++lane) (void)fleet.unpack_lane(lane);
        } else {
          const sim::SimulationService::Job job = make_job(p, kind);
          std::unique_ptr<sim::Engine> engine = sim::make_engine(kind, job.image, job.engine);
          t1 = now_s();
          for (bool running = true; running;) {
            running = engine->run_stats({.max_steps = kServiceSlice}).halt !=
                      sim::HaltReason::kHalted;
          }
          t2 = now_s();
          (void)engine->state();
        }
        const double t3 = now_s();
        log.add_with_id(root, "replay", t0, t3, 0, root);
        log.add("sim.make_engine", t0, t1, root, root);
        log.add("sim.run_stats", t1, t2, root, root);
        log.add("sim.state", t2, t3, root, root);
        Replay& r = mine[t][kind];
        r.make.add(t1 - t0);
        r.run.add(t2 - t1);
        r.state.add(t3 - t2);
      }
    }
    tracer.merge(log);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (std::thread& t : pool) t.join();

  std::map<sim::EngineKind, Replay> out;
  for (const auto& per_thread : mine) {
    for (const auto& [kind, r] : per_thread) {
      Replay& dst = out[kind];
      dst.make.append(r.make);
      dst.run.append(r.run);
      dst.state.append(r.state);
    }
  }
  return out;
}

}  // namespace

void run_sim_long(const Options& o, Tracer& tracer, Report& report) {
  const unsigned workers = std::max(1u, o.nproc - 1);  // + the client thread = nproc
  Setup s;
  // The job images' builds, from every set-up but a cold first one.
  Samples build_ms;
  int rep = 0;
  const double setup_s = timed_setups(
      o, [&] { setup(o, workers, s, rep++ > 0 || o.smoke ? &build_ms : nullptr); });
  const double seconds = o.smoke ? 0.0 : (o.trace ? o.seconds / 2 : o.seconds);

  const Windows plain = run_phase(o, s, build_ms, seconds, nullptr, nullptr);
  count_operations(plain, report);
  if (!o.trace) {
    add_end_to_end(plain, report.metrics);
    report.metrics["setup_s"] = {setup_s, "s"};
    report.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    return;
  }

  // Replays bracket the traced phase, so a drift of host speed across it
  // cancels out of the comparison with the phase's jobs.
  std::map<sim::EngineKind, Replay> replay = replay_kinds(s, tracer, o.smoke ? 1 : 2);
  std::vector<JobTrace> traces;
  const Windows traced = run_phase(o, s, build_ms, seconds, &tracer, &traces);
  count_operations(traced, report);
  for (const auto& [kind, r] : replay_kinds(s, tracer, o.smoke ? 1 : 2)) {
    replay[kind].make.append(r.make);
    replay[kind].run.append(r.run);
    replay[kind].state.append(r.state);
  }

  // Layer sum per job: the submit call, the verification, and the
  // replayed engine work of its kind; whatever is left is the service.
  double e2e_sum = 0.0;
  double layer_sum = 0.0;
  for (const JobTrace& j : traces) {
    const Replay& r = replay.at(j.kind);
    e2e_sum += j.e2e;
    layer_sum += j.submit + j.verify + r.make.median() + r.run.median() + r.state.median();
  }
  const auto mips = [](const PhaseStats& p) {
    return p.job_time_s > 0.0 ? static_cast<double>(p.instructions) / p.job_time_s : 0.0;
  };
  add_trace_metrics(median_over(plain, mips), median_over(traced, mips),
                    e2e_sum > 0.0 ? 1.0 - layer_sum / e2e_sum : 0.0, report.metrics);
}

}  // namespace perfbench

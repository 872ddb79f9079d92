// Micro-benchmarks (google-benchmark): simulator and framework throughput —
// how many simulated cycles/instructions per host second, and how fast the
// translation pipeline runs on the Dhrystone corpus.
//
// Engine benchmarks are registered generically over sim::EngineKind
// (BM_Engine/<kind>), so a new backend shows up here by existing; the
// SimulationService benchmarks sweep worker-pool widths over a shared-image
// Dhrystone batch and over the cross-ISA mixed batch (all four translated
// benchmarks plus their rv32 sources).
//
// `--json[=path]` skips google-benchmark and instead runs every engine
// kind plus the thread-parallel batches under the warmup + median-of-N
// harness of bench/report.hpp, writing steps/s, batch scaling, and the
// service fault-path overheads (checkpoint interval cost, cancellation
// latency) and the serve front end's HTTP round-trip throughput and
// image-cache amortization to BENCH_micro_sim.json so the perf
// trajectory stays machine-readable across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/benchmarks.hpp"
#include "isa/assembler.hpp"
#include "report.hpp"
#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_decoded_image.hpp"
#include "rv32/rv32_sim.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/fleet.hpp"
#include "sim/service.hpp"
#include "xlat/framework.hpp"

namespace {

using namespace art9;

const isa::Program& dhrystone_art9() {
  static const isa::Program kProgram = [] {
    xlat::SoftwareFramework framework;
    return framework.translate(rv32::assemble_rv32(core::dhrystone().rv32)).program;
  }();
  return kProgram;
}

const std::shared_ptr<const sim::DecodedImage>& dhrystone_image() {
  static const std::shared_ptr<const sim::DecodedImage> kImage = sim::decode(dhrystone_art9());
  return kImage;
}

const std::shared_ptr<const rv32::Rv32DecodedImage>& dhrystone_rv32_image() {
  static const std::shared_ptr<const rv32::Rv32DecodedImage> kImage =
      rv32::decode(rv32::assemble_rv32(core::dhrystone().rv32));
  return kImage;
}

/// The Dhrystone image matching a kind's ISA: the rv32 kinds run the
/// source program, the ART-9 kinds its translation.
sim::EngineImage engine_image_for(sim::EngineKind kind) {
  if (sim::is_rv32(kind)) return dhrystone_rv32_image();
  return dhrystone_image();
}

/// The whole benchmark corpus, both ISAs: each of the four benchmarks as
/// its rv32 source image and its ART-9 translation — the PR 5 carry-over
/// cross-ISA batch workload (8 jobs).
struct MixedCorpus {
  std::vector<std::shared_ptr<const sim::DecodedImage>> art9;
  std::vector<std::shared_ptr<const rv32::Rv32DecodedImage>> rv32;
};

const MixedCorpus& mixed_corpus() {
  static const MixedCorpus kCorpus = [] {
    MixedCorpus corpus;
    xlat::SoftwareFramework framework;
    for (const core::BenchmarkSources* bench : core::all_benchmarks()) {
      const rv32::Rv32Program source = rv32::assemble_rv32(bench->rv32);
      corpus.rv32.push_back(rv32::decode(source));
      corpus.art9.push_back(sim::decode(framework.translate(source).program));
    }
    return corpus;
  }();
  return kCorpus;
}

using Job = sim::SimulationService::Job;

/// Submits `jobs` to a fresh `threads`-wide service and waits for all of
/// them.  Returns the retired instructions summed over their results.
uint64_t run_jobs(unsigned threads, const std::vector<Job>& jobs) {
  sim::SimulationService service(threads);
  std::vector<sim::JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(service.submit(job));
  uint64_t instructions = 0;
  for (const sim::JobHandle& h : handles) instructions += h.result().run.stats.instructions;
  return instructions;
}

/// A job batch over the mixed corpus: every benchmark on the packed ART-9
/// engine and on the rv32 reference engine.  Returns retired instructions.
uint64_t run_mixed_batch(unsigned threads) {
  const MixedCorpus& corpus = mixed_corpus();
  std::vector<Job> jobs;
  for (const auto& image : corpus.art9) jobs.push_back({image, sim::EngineKind::kPacked});
  for (const auto& image : corpus.rv32) jobs.push_back({image, sim::EngineKind::kRv32});
  return run_jobs(threads, jobs);
}

/// `n` packed-engine Dhrystone jobs sharing one decoded image.
std::vector<Job> dhrystone_jobs(int n) {
  return std::vector<Job>(static_cast<std::size_t>(n),
                          {dhrystone_image(), sim::EngineKind::kPacked});
}

// --- one benchmark per engine kind, registered generically -------------------
// Throughput counter is steps/s in the engine's own step unit: retired
// instructions for the functional kinds, clock cycles for the pipeline.

void BM_Engine(benchmark::State& state, sim::EngineKind kind) {
  uint64_t steps = 0;
  for (auto _ : state) {
    std::unique_ptr<sim::Engine> engine = sim::make_engine(kind, engine_image_for(kind));
    steps += engine->run_stats({}).cycles;
  }
  state.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}

void BM_SimulationServiceDhrystone8(benchmark::State& state, unsigned threads) {
  // 8 Dhrystone scenarios sharing one decoded image, packed engines,
  // scheduled across `threads` workers.
  uint64_t instructions = 0;
  for (auto _ : state) instructions += run_jobs(threads, dhrystone_jobs(8));
  state.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void BM_SimulationServiceMixedISA(benchmark::State& state, unsigned threads) {
  // The cross-ISA batch: all four benchmarks, each as a packed ART-9
  // translation job and an rv32 reference job, across `threads` workers.
  uint64_t instructions = 0;
  for (auto _ : state) instructions += run_mixed_batch(threads);
  state.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void register_engine_benches() {
  for (sim::EngineKind kind : sim::all_engine_kinds()) {
    const std::string name = "BM_Engine/" + std::string(sim::engine_kind_name(kind));
    benchmark::RegisterBenchmark(name.c_str(), BM_Engine, kind)->Unit(benchmark::kMillisecond);
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> widths{1u, 2u};
  if (hw > 2) widths.push_back(hw);
  for (unsigned threads : widths) {
    const std::string name = "BM_SimulationServiceDhrystone8/threads:" + std::to_string(threads);
    benchmark::RegisterBenchmark(name.c_str(), BM_SimulationServiceDhrystone8, threads)
        ->Unit(benchmark::kMillisecond);
  }
  for (unsigned threads : widths) {
    const std::string name = "BM_SimulationServiceMixedISA/threads:" + std::to_string(threads);
    benchmark::RegisterBenchmark(name.c_str(), BM_SimulationServiceMixedISA, threads)
        ->Unit(benchmark::kMillisecond);
  }
}

void BM_LazyRv32Simulator(benchmark::State& state) {
  // The seed decode-on-fetch rv32 loop — the differential baseline the
  // pre-decoded BM_Engine/rv32 path is measured against.
  const rv32::Rv32Program program = rv32::assemble_rv32(core::dhrystone().rv32);
  uint64_t instructions = 0;
  for (auto _ : state) {
    rv32::LazyRv32Simulator sim(program);
    instructions += sim.run().instructions;
  }
  state.counters["sim_instr/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LazyRv32Simulator)->Unit(benchmark::kMillisecond);

void BM_TranslationPipeline(benchmark::State& state) {
  const rv32::Rv32Program program = rv32::assemble_rv32(core::dhrystone().rv32);
  for (auto _ : state) {
    xlat::SoftwareFramework framework;
    benchmark::DoNotOptimize(framework.translate(program));
  }
}
BENCHMARK(BM_TranslationPipeline)->Unit(benchmark::kMicrosecond);

void BM_Art9Assembler(benchmark::State& state) {
  const std::string source = R"(
main:
    LIMM T1, 100
    LIMM T2, 0
loop:
    ADD  T2, T1
    ADDI T1, -1
    MV   T3, T1
    COMP T3, T4
    BNE  T3, 0, loop
    HALT
)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::assemble(source));
  }
}
BENCHMARK(BM_Art9Assembler)->Unit(benchmark::kMicrosecond);

// --- machine-readable perf trajectory (--json) -------------------------------

double engine_rate(sim::EngineKind kind) {
  return bench::median_rate([&] {
    std::unique_ptr<sim::Engine> engine = sim::make_engine(kind, engine_image_for(kind));
    return engine->run_stats({}).cycles;  // == instructions on functional kinds
  });
}

/// Aggregate fleet throughput: `lanes` Dhrystone machines advanced to
/// completion by one bit-sliced simulator, instructions summed over all
/// lanes — the SIMD-across-scenarios number the fleet tier exists for.
double fleet_rate(unsigned lanes) {
  return bench::median_rate([&] {
    sim::FleetSimulator fleet(dhrystone_image(), lanes);
    const std::vector<uint64_t> budgets(lanes, 100'000'000);
    uint64_t instructions = 0;
    for (const sim::FleetSimulator::LaneProgress& p : fleet.advance(budgets)) {
      instructions += p.instructions;
    }
    return instructions;
  });
}

/// Cohort scheduling end to end: `jobs` same-image fleet jobs through
/// submit_cohort — measured in jobs resolved per second.
double cohort_jobs_rate(unsigned threads, int jobs) {
  return bench::median_rate([&] {
    sim::SimulationService service(threads);
    uint64_t completed = 0;
    for (const sim::JobHandle& h : service.submit_cohort(std::vector<Job>(
             static_cast<std::size_t>(jobs), {dhrystone_image(), sim::EngineKind::kFleet}))) {
      completed += h.result().outcome == sim::JobOutcome::kCompleted ? 1 : 0;
    }
    return completed;
  });
}

double batch_rate(unsigned threads, int jobs) {
  return bench::median_rate([&] { return run_jobs(threads, dhrystone_jobs(jobs)); });
}

double mixed_batch_rate(unsigned threads) {
  return bench::median_rate([&] { return run_mixed_batch(threads); });
}

/// Dhrystone through the service with a checkpoint every `every` steps
/// (0 = checkpointing off) — the fault-path overhead numerator/denominator.
double checkpointed_rate(uint64_t every) {
  return bench::median_rate([&] {
    sim::SimulationService service(1);
    sim::JobControls controls;
    controls.checkpoint_every = every;
    const sim::JobHandle handle =
        service.submit({dhrystone_image(), sim::EngineKind::kPacked, {}, {}, controls});
    return handle.result().run.stats.instructions;
  });
}

/// Median seconds from cancel() to resolution of a spinning job — the
/// service's cooperative cancellation latency (bounded by the slice
/// length; measured at the default slice).
double cancel_latency_seconds() {
  using clock = std::chrono::steady_clock;
  const std::shared_ptr<const sim::DecodedImage> spin =
      sim::decode(isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n"));
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    sim::SimulationService service(1);
    sim::JobHandle handle =
        service.submit({spin, sim::EngineKind::kPacked, sim::RunOptions{1'000'000'000'000}});
    while (!handle.started()) std::this_thread::yield();
    const clock::time_point t0 = clock::now();
    handle.cancel();
    handle.wait();
    samples.push_back(std::chrono::duration<double>(clock::now() - t0).count());
  }
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  return samples[mid];
}

/// One pass over the HTTP front end on an in-process loopback server:
/// image-upload latency cold (pipeline run) vs cached (content-hash hit),
/// and the end-to-end job round-trip rate (POST /v1/jobs + poll to done).
struct ServeStats {
  double first_post_ms = 0.0;    // upload that runs the assemble pipeline
  double cached_post_ms = 0.0;   // identical re-upload (cache hit)
  double jobs_per_sec = 0.0;     // submit+poll round trips, all workers busy
  uint64_t cache_hits = 0;
};

ServeStats serve_round_trips(unsigned threads, int jobs, uint64_t steps) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };

  serve::SimulationServer::Options options;
  options.service_threads = threads;
  serve::SimulationServer server(options);
  server.start();
  serve::HttpClient client("127.0.0.1", server.port());
  const std::string source(core::dhrystone().rv32);

  ServeStats stats;
  auto start = Clock::now();
  const serve::HttpResponse first = client.post("/v1/images?format=rv32", source);
  stats.first_post_ms = ms_since(start);
  start = Clock::now();
  (void)client.post("/v1/images?format=rv32", source);
  stats.cached_post_ms = ms_since(start);
  const std::string image = first.body.substr(8, 16);  // {"id": "<16 hex>"

  const std::string request = "{\"image\": \"" + image +
                              "\", \"engine\": \"rv32\", \"max_steps\": " +
                              std::to_string(steps) + "}";
  std::vector<std::string> pending;
  start = Clock::now();
  for (int j = 0; j < jobs; ++j) {
    const serve::HttpResponse submitted = client.post("/v1/jobs", request);
    pending.push_back("/v1/jobs/" + std::to_string(std::atoll(submitted.body.c_str() + 8)));
  }
  while (!pending.empty()) {
    for (std::size_t i = 0; i < pending.size();) {
      if (client.get(pending[i]).body.find("\"state\": \"done\"") != std::string::npos) {
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }
  const double wall = ms_since(start) / 1e3;
  stats.jobs_per_sec = wall > 0.0 ? jobs / wall : 0.0;
  stats.cache_hits = server.cache().stats().hits;
  server.stop();
  return stats;
}

int run_json_report(const std::string& path) {
  bench::heading("engine steps/s — translated Dhrystone (single stream)");
  const double lazy = engine_rate(sim::EngineKind::kLazy);
  const double predecoded = engine_rate(sim::EngineKind::kFunctional);
  const double packed = engine_rate(sim::EngineKind::kPacked);
  const double superblock = engine_rate(sim::EngineKind::kSuperblock);
  const double pipeline = engine_rate(sim::EngineKind::kPipeline);
  const double pipeline_packed = engine_rate(sim::EngineKind::kPackedPipeline);
  bench::note("lazy decode-on-fetch:   " + std::to_string(lazy / 1e6) + " M steps/s");
  bench::note("pre-decoded dispatch:   " + std::to_string(predecoded / 1e6) + " M steps/s");
  bench::note("packed (superblock):    " + std::to_string(packed / 1e6) + " M steps/s");
  bench::note("superblock tier:        " + std::to_string(superblock / 1e6) + " M steps/s");
  bench::note("pipeline (cycles/s):    " + std::to_string(pipeline / 1e6) + " M steps/s");
  bench::note("packed pipeline:        " + std::to_string(pipeline_packed / 1e6) + " M steps/s");
  bench::note("packed / pre-decoded:   x" + std::to_string(packed / predecoded));
  bench::note("packed pipe / pipe:     x" + std::to_string(pipeline_packed / pipeline));

  bench::heading("rv32 engine steps/s — source Dhrystone (single stream)");
  const double rv32_predecoded = engine_rate(sim::EngineKind::kRv32);
  const double rv32_superblock = engine_rate(sim::EngineKind::kRv32Superblock);
  bench::note("rv32 pre-decoded:       " + std::to_string(rv32_predecoded / 1e6) + " M steps/s");
  bench::note("rv32 superblock:        " + std::to_string(rv32_superblock / 1e6) + " M steps/s");
  bench::note("rv32 superblk / predec: x" + std::to_string(rv32_superblock / rv32_predecoded));

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  bench::heading("fleet — bit-sliced cohort, 32 Dhrystone machines per plane word");
  constexpr unsigned kFleetLanes = sim::FleetSimulator::kMaxLanes;
  const double fleet_single = engine_rate(sim::EngineKind::kFleet);
  const double fleet = fleet_rate(kFleetLanes);
  constexpr int kCohortJobs = 64;
  const double cohort_jobs = cohort_jobs_rate(hw, kCohortJobs);
  bench::note("fleet (1 lane):         " + std::to_string(fleet_single / 1e6) + " M steps/s");
  bench::note("fleet (" + std::to_string(kFleetLanes) +
              " lanes, aggregate): " + std::to_string(fleet / 1e6) + " M steps/s");
  bench::note("fleet / superblock:     x" +
              std::to_string(superblock > 0.0 ? fleet / superblock : 0.0));
  bench::note("cohort round trips:     " + std::to_string(cohort_jobs) + " jobs/s (" +
              std::to_string(kCohortJobs) + " Dhrystones via submit_cohort)");

  bench::heading("batch_parallel — SimulationService, 8 packed Dhrystone jobs");
  constexpr int kJobs = 8;
  const double batch1 = batch_rate(1, kJobs);
  const double batch2 = batch_rate(2, kJobs);
  const double batchN = hw > 2 ? batch_rate(hw, kJobs) : (hw == 2 ? batch2 : batch1);
  bench::note("threads=1:              " + std::to_string(batch1 / 1e6) + " M steps/s");
  bench::note("threads=2:              " + std::to_string(batch2 / 1e6) + " M steps/s");
  bench::note("threads=" + std::to_string(hw) + ":              " + std::to_string(batchN / 1e6) +
              " M steps/s");
  bench::note("scaling (max vs 1):     x" + std::to_string(batch1 > 0.0 ? batchN / batch1 : 0.0));

  bench::heading("mixed_isa_batch — 4 benchmarks x (packed ART-9 + rv32), 8 jobs");
  const double mixed1 = mixed_batch_rate(1);
  const double mixedN = hw > 1 ? mixed_batch_rate(hw) : mixed1;
  bench::note("threads=1:              " + std::to_string(mixed1 / 1e6) + " M steps/s");
  bench::note("threads=" + std::to_string(hw) + ":              " + std::to_string(mixedN / 1e6) +
              " M steps/s");
  bench::note("scaling (max vs 1):     x" + std::to_string(mixed1 > 0.0 ? mixedN / mixed1 : 0.0));

  bench::heading("service fault-path overheads");
  constexpr uint64_t kCheckpointEvery = 50'000;
  const double no_checkpoint = checkpointed_rate(0);
  const double with_checkpoint = checkpointed_rate(kCheckpointEvery);
  const double checkpoint_cost =
      no_checkpoint > 0.0 ? 1.0 - with_checkpoint / no_checkpoint : 0.0;
  const double cancel_latency = cancel_latency_seconds();
  bench::note("no checkpoints:         " + std::to_string(no_checkpoint / 1e6) + " M steps/s");
  bench::note("checkpoint every " + std::to_string(kCheckpointEvery) + ": " +
              std::to_string(with_checkpoint / 1e6) + " M steps/s");
  bench::note("checkpoint cost:        " + std::to_string(checkpoint_cost * 100.0) + " %");
  bench::note("cancel latency:         " + std::to_string(cancel_latency * 1e3) + " ms");

  bench::heading("serve — HTTP front end round trips (in-process loopback)");
  constexpr int kServeJobs = 32;
  constexpr uint64_t kServeSteps = 20'000;
  const ServeStats serve = serve_round_trips(hw, kServeJobs, kServeSteps);
  bench::note("image upload (cold):    " + std::to_string(serve.first_post_ms) + " ms");
  bench::note("image upload (cached):  " + std::to_string(serve.cached_post_ms) + " ms");
  bench::note("cache amortization:     x" +
              std::to_string(serve.cached_post_ms > 0.0
                                 ? serve.first_post_ms / serve.cached_post_ms
                                 : 0.0));
  bench::note("job round trips:        " + std::to_string(serve.jobs_per_sec) + " jobs/s (" +
              std::to_string(kServeJobs) + " x " + std::to_string(kServeSteps) + " steps)");

  bench::JsonObject json;
  json.add("bench", "micro_sim");
  json.add("workload", "dhrystone_translated");
  json.add("metric", "steps_per_sec_median_of_5");
  json.add("lazy_steps_per_sec", lazy);
  json.add("predecoded_steps_per_sec", predecoded);
  json.add("packed_steps_per_sec", packed);
  json.add("superblock_steps_per_sec", superblock);
  json.add("pipeline_cycles_per_sec", pipeline);
  json.add("pipeline_packed_cycles_per_sec", pipeline_packed);
  json.add("packed_vs_predecoded", predecoded > 0.0 ? packed / predecoded : 0.0);
  json.add("predecoded_vs_lazy", lazy > 0.0 ? predecoded / lazy : 0.0);
  json.add("pipeline_packed_vs_pipeline", pipeline > 0.0 ? pipeline_packed / pipeline : 0.0);
  json.add("rv32_predecoded_steps_per_sec", rv32_predecoded);
  json.add("rv32_superblock_steps_per_sec", rv32_superblock);
  json.add("rv32_superblock_vs_predecoded",
           rv32_predecoded > 0.0 ? rv32_superblock / rv32_predecoded : 0.0);
  json.add("host_hw_concurrency", static_cast<double>(hw));
  json.add("fleet_lanes", static_cast<double>(kFleetLanes));
  json.add("fleet_steps_per_sec", fleet);
  json.add("fleet_single_lane_steps_per_sec", fleet_single);
  json.add("fleet_vs_superblock", superblock > 0.0 ? fleet / superblock : 0.0);
  json.add("cohort_jobs", static_cast<double>(kCohortJobs));
  json.add("cohort_jobs_per_sec", cohort_jobs);
  json.add("batch_parallel_jobs", static_cast<double>(kJobs));
  json.add("batch_parallel_engine", "packed");
  json.add("batch_threads_1_steps_per_sec", batch1);
  json.add("batch_threads_2_steps_per_sec", batch2);
  json.add("batch_threads_max", static_cast<double>(hw));
  json.add("batch_threads_max_steps_per_sec", batchN);
  json.add("batch_scaling_max_vs_1", batch1 > 0.0 ? batchN / batch1 : 0.0);
  json.add("mixed_isa_batch_jobs", static_cast<double>(mixed_corpus().art9.size() * 2));
  json.add("mixed_isa_batch_threads_1_steps_per_sec", mixed1);
  json.add("mixed_isa_batch_threads_max_steps_per_sec", mixedN);
  json.add("mixed_isa_batch_scaling_max_vs_1", mixed1 > 0.0 ? mixedN / mixed1 : 0.0);
  json.add("service_checkpoint_interval_steps", static_cast<double>(kCheckpointEvery));
  json.add("service_no_checkpoint_steps_per_sec", no_checkpoint);
  json.add("service_checkpoint_steps_per_sec", with_checkpoint);
  json.add("service_checkpoint_cost_fraction", checkpoint_cost);
  json.add("service_cancel_latency_ms", cancel_latency * 1e3);
  json.add("serve_jobs", static_cast<double>(kServeJobs));
  json.add("serve_job_steps", static_cast<double>(kServeSteps));
  json.add("serve_jobs_per_sec", serve.jobs_per_sec);
  json.add("serve_image_post_cold_ms", serve.first_post_ms);
  json.add("serve_image_post_cached_ms", serve.cached_post_ms);
  json.add("serve_cache_hits", static_cast<double>(serve.cache_hits));
  if (!json.write(path)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  bench::note("wrote " + path);
  return 0;
}

}  // namespace

// BENCHMARK_MAIN(), plus the --json[=path] trajectory mode.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json") return run_json_report("BENCH_micro_sim.json");
    if (arg.rfind("--json=", 0) == 0) return run_json_report(std::string(arg.substr(7)));
  }
  register_engine_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Micro-benchmarks (google-benchmark): simulator and framework throughput —
// how many simulated cycles/instructions per host second, and how fast the
// translation pipeline runs on the Dhrystone corpus.
//
// Engine benchmarks are registered generically over sim::EngineKind
// (BM_Engine/<kind>), so a new backend shows up here by existing; the
// SimulationService benchmarks sweep worker-pool widths over a shared-image
// Dhrystone batch and over the cross-ISA mixed batch (all four translated
// benchmarks plus their rv32 sources).  Speed claims are made with the
// layered benchmark in perfbench/; these are for quick local looks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmarks.hpp"
#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_decoded_image.hpp"
#include "rv32/rv32_sim.hpp"
#include "sim/engine.hpp"
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

}  // namespace

// BENCHMARK_MAIN(), after registering the per-kind engine benches.
int main(int argc, char** argv) {
  register_engine_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Table III reproduction: processing cycles of the four test programs on
// the pipelined ART-9 core vs the PicoRV32 cycle model.
#include <cstdio>

#include "core/benchmarks.hpp"
#include "report.hpp"
#include "rv32/cycle_models.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"
#include "xlat/framework.hpp"

namespace {

struct PaperRow {
  const char* name;
  double art9;
  double pico;
};

constexpr PaperRow kPaper[] = {
    {"bubble-sort", 2432, 9227},
    {"gemm", 10748, 11290},
    {"sobel", 7822, 18250},
    {"dhrystone", 134200, 186607},
};

}  // namespace

int main() {
  using namespace art9;
  bench::heading("Table III — processing cycles for different test programs");
  std::printf("  %-12s | %11s %11s | %11s %11s | %8s\n", "benchmark", "ART-9 meas",
              "ART-9 paper", "Pico meas", "Pico paper", "speedup");
  bench::rule();

  int index = 0;
  for (const core::BenchmarkSources* b : core::all_benchmarks()) {
    const rv32::Rv32Program rp = rv32::assemble_rv32(b->rv32);
    const std::unique_ptr<sim::Engine> rv =
        sim::make_engine(sim::EngineKind::kRv32, rv32::decode(rp));
    rv32::PicoRv32CycleModel pico;
    rv->set_observer([&](const sim::Retired& r) { pico.observe(r.to_rv32()); });
    if (rv->run_stats({500'000'000}).halt != sim::HaltReason::kHalted) {
      std::fprintf(stderr, "%s: rv32 run did not halt\n", b->name.c_str());
      return 1;
    }

    xlat::SoftwareFramework framework;
    const xlat::TranslationResult xl = framework.translate(rp);
    const std::unique_ptr<sim::Engine> pipe =
        sim::make_engine(sim::EngineKind::kPipeline, sim::decode(xl.program));
    const sim::SimStats stats = pipe->run_stats({});
    if (stats.halt != sim::HaltReason::kHalted) {
      std::fprintf(stderr, "%s: ART-9 run did not halt\n", b->name.c_str());
      return 1;
    }

    const PaperRow& paper = kPaper[index++];
    std::printf("  %-12s | %11llu %11.0f | %11llu %11.0f | %7.2fx\n", b->name.c_str(),
                static_cast<unsigned long long>(stats.cycles), paper.art9,
                static_cast<unsigned long long>(pico.cycles()), paper.pico,
                static_cast<double>(pico.cycles()) / static_cast<double>(stats.cycles));
  }
  bench::rule();
  bench::note("Expected shape (asserted in tests): ART-9 < PicoRV32 on every");
  bench::note("benchmark; GEMM nearly even (software ternary multiply vs the");
  bench::note("serial PicoRV32 multiplier), branch-heavy kernels strongly ahead.");
  return 0;
}

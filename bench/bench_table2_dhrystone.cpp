// Table II reproduction: Dhrystone on the three cores — ART-9 (this
// work), VexRiscv (RV-32I, 5-stage) and PicoRV32 (RV32IM, non-pipelined).
#include <cstdio>

#include "core/benchmarks.hpp"
#include "core/hardware_framework.hpp"
#include "report.hpp"
#include "rv32/cycle_models.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"
#include "xlat/framework.hpp"

int main() {
  using namespace art9;
  bench::heading("Table II — simulation results of the Dhrystone benchmark");

  const core::BenchmarkSources& dhry = core::dhrystone();
  const rv32::Rv32Program rp = rv32::assemble_rv32(dhry.rv32);

  // Baselines: one functional execution through the cross-ISA engine
  // facade feeds both cycle models via the retired-instruction observer.
  const std::unique_ptr<sim::Engine> rv =
      sim::make_engine(sim::EngineKind::kRv32, rv32::decode(rp));
  rv32::PicoRv32CycleModel pico;
  rv32::VexRiscvCycleModel vex;
  rv->set_observer([&](const sim::Retired& r) {
    const rv32::Rv32Retired retired = r.to_rv32();
    pico.observe(retired);
    vex.observe(retired);
  });
  if (rv->run_stats({500'000'000}).halt != sim::HaltReason::kHalted) {
    std::fprintf(stderr, "rv32 dhrystone did not halt\n");
    return 1;
  }

  // ART-9: translate and run on the cycle-accurate pipeline.
  xlat::SoftwareFramework framework;
  const xlat::TranslationResult xl = framework.translate(rp);
  core::HardwareFramework hw({}, tech::Technology::cntfet32());
  const core::EvaluationResult art9 = hw.evaluate(xl.program, dhry.iterations);

  const double art9_dpm = art9.estimate.dmips_per_mhz;
  const double vex_dpm = rv32::dmips_per_mhz(vex.cycles() / dhry.iterations);
  const double pico_dpm = rv32::dmips_per_mhz(pico.cycles() / dhry.iterations);

  std::printf("  %-22s %12s %12s %12s\n", "", "ART-9 (ours)", "VexRiscv", "PicoRV32");
  bench::rule();
  std::printf("  %-22s %12s %12s %12s\n", "ISA", "ART-9", "RV-32I", "RV-32IM");
  std::printf("  %-22s %12d %12d %12d\n", "# of instructions", isa::kNumOpcodes,
              rv32::kNumRv32IOps, rv32::kNumRv32Ops);
  std::printf("  %-22s %12d %12d %12d\n", "Pipelined stages", 5, 5, 1);
  std::printf("  %-22s %12s %12s %12s\n", "Multiplier", "X (software)", "O", "O");
  std::printf("  %-22s %12.2f %12.2f %12.2f\n", "DMIPS/MHz (measured)", art9_dpm, vex_dpm,
              pico_dpm);
  std::printf("  %-22s %12.2f %12.2f %12.2f\n", "DMIPS/MHz (paper)", 0.42, 0.65, 0.31);
  std::printf("  %-22s %9.1fK t %9.1fK b %9.1fK b\n", "memory cells (measured)",
              static_cast<double>(xl.program.memory_cells()) / 1000.0,
              static_cast<double>(rp.memory_cells()) / 1000.0,
              static_cast<double>(rp.memory_cells()) / 1000.0);
  std::printf("  %-22s %9.1fK t %9.1fK b %9.1fK b\n", "memory cells (paper)", 11.6, 25.4, 23.7);
  bench::rule();
  std::printf("  ART-9 cycles: %llu over %llu iterations -> %.0f cycles/iteration\n",
              static_cast<unsigned long long>(art9.sim.cycles),
              static_cast<unsigned long long>(dhry.iterations),
              static_cast<double>(art9.sim.cycles) / static_cast<double>(dhry.iterations));
  bench::note("Expected shape (asserted in tests): VexRiscv > ART-9 > PicoRV32 on");
  bench::note("DMIPS/MHz; ART-9 needs roughly half the memory cells of RV-32I.");
  return 0;
}

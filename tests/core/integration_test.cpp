// Full-stack integration: the two frameworks end to end, reproducing the
// shape of the paper's headline numbers (Tables II-V).
#include <gtest/gtest.h>

#include "core/benchmarks.hpp"
#include "core/hardware_framework.hpp"
#include "rv32/cycle_models.hpp"
#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_sim.hpp"
#include "xlat/framework.hpp"

namespace art9::core {
namespace {

/// Translated ART-9 Dhrystone, evaluated once per test binary.
const xlat::TranslationResult& dhrystone_art9() {
  static const xlat::TranslationResult kResult = [] {
    xlat::SoftwareFramework framework;
    return framework.translate(rv32::assemble_rv32(dhrystone().rv32));
  }();
  return kResult;
}

TEST(Integration, HardwareFrameworkCntfet) {
  HardwareFramework hw({}, tech::Technology::cntfet32());
  const EvaluationResult result =
      hw.evaluate(dhrystone_art9().program, dhrystone().iterations);
  EXPECT_EQ(result.sim.halt, sim::HaltReason::kHalted);
  // Table II shape: DMIPS/MHz in the 0.3..0.6 band around the paper's 0.42.
  EXPECT_GT(result.estimate.dmips_per_mhz, 0.30);
  EXPECT_LT(result.estimate.dmips_per_mhz, 0.60);
  // Table IV shape: millions of DMIPS/W on CNTFET gates.
  EXPECT_GT(result.estimate.dmips_per_watt, 1.0e6);
  EXPECT_LT(result.estimate.dmips_per_watt, 1.0e7);
  EXPECT_DOUBLE_EQ(result.analysis.total_gates, 652.0);
}

TEST(Integration, HardwareFrameworkFpga) {
  HardwareFramework hw({}, tech::Technology::fpga_binary_emulation());
  const EvaluationResult result =
      hw.evaluate(dhrystone_art9().program, dhrystone().iterations);
  // Table V shape: tens of DMIPS/W on the FPGA emulation at 150 MHz.
  EXPECT_DOUBLE_EQ(result.estimate.clock_mhz, 150.0);
  EXPECT_GT(result.estimate.dmips_per_watt, 30.0);
  EXPECT_LT(result.estimate.dmips_per_watt, 100.0);
  EXPECT_EQ(result.analysis.ram_bits, 9216);
}

TEST(Integration, TableIIOrdering) {
  // DMIPS/MHz: VexRiscv > ART-9 > PicoRV32.
  const rv32::Rv32Program rp = rv32::assemble_rv32(dhrystone().rv32);

  rv32::LazyRv32Simulator rv(rp);
  rv32::PicoRv32CycleModel pico;
  rv32::VexRiscvCycleModel vex;
  ASSERT_TRUE(rv.run(200'000'000, [&](const rv32::Rv32Retired& r) {
    pico.observe(r);
    vex.observe(r);
  }).halted);

  HardwareFramework hw({}, tech::Technology::cntfet32());
  const EvaluationResult art9 = hw.evaluate(dhrystone_art9().program, dhrystone().iterations);

  const double art9_dpm = art9.estimate.dmips_per_mhz;
  const double pico_dpm = rv32::dmips_per_mhz(pico.cycles() / dhrystone().iterations);
  const double vex_dpm = rv32::dmips_per_mhz(vex.cycles() / dhrystone().iterations);

  EXPECT_GT(vex_dpm, art9_dpm) << "vex=" << vex_dpm << " art9=" << art9_dpm;
  EXPECT_GT(art9_dpm, pico_dpm) << "art9=" << art9_dpm << " pico=" << pico_dpm;
}

TEST(Integration, TableIIIArt9BeatsPicoOnEveryBenchmark) {
  for (const BenchmarkSources* b : all_benchmarks()) {
    const rv32::Rv32Program rp = rv32::assemble_rv32(b->rv32);
    rv32::LazyRv32Simulator rv(rp);
    rv32::PicoRv32CycleModel pico;
    ASSERT_TRUE(rv.run(200'000'000, [&](const rv32::Rv32Retired& r) { pico.observe(r); }).halted)
        << b->name;

    xlat::SoftwareFramework framework;
    const xlat::TranslationResult xlat = framework.translate(rp);
    sim::PipelineSimulator pipe(xlat.program);
    const sim::SimStats stats = pipe.run();
    ASSERT_EQ(stats.halt, sim::HaltReason::kHalted) << b->name;

    EXPECT_LT(stats.cycles, pico.cycles()) << b->name;
  }
}

TEST(Integration, DhrystoneCyclesNearPaperMagnitude) {
  // Paper Table III: 134,200 ART-9 cycles for 100 iterations.  Our kernel
  // is a reconstruction, so assert the order of magnitude band.
  sim::PipelineSimulator pipe(dhrystone_art9().program);
  const sim::SimStats stats = pipe.run();
  EXPECT_GT(stats.cycles, 60'000u);
  EXPECT_LT(stats.cycles, 260'000u);
}

TEST(Integration, StallBreakdownIsReported) {
  sim::PipelineSimulator pipe(dhrystone_art9().program);
  const sim::SimStats stats = pipe.run();
  // A call/branch/load heavy kernel must exercise both stall sources.
  EXPECT_GT(stats.flush_taken_branch, 0u);
  EXPECT_GT(stats.stall_load_use + stats.stall_branch_hazard, 0u);
  EXPECT_GT(stats.cpi(), 1.0);
  EXPECT_LT(stats.cpi(), 2.0);
}

TEST(Integration, AblationsCostPerformance) {
  const isa::Program& program = dhrystone_art9().program;

  sim::PipelineConfig base;
  sim::PipelineSimulator base_sim(program, base);
  const uint64_t base_cycles = base_sim.run().cycles;

  sim::PipelineConfig no_fwd = base;
  no_fwd.ex_forwarding = false;
  sim::PipelineSimulator no_fwd_sim(program, no_fwd);
  EXPECT_GT(no_fwd_sim.run().cycles, base_cycles);

  sim::PipelineConfig branch_ex = base;
  branch_ex.branch_in_id = false;
  sim::PipelineSimulator branch_ex_sim(program, branch_ex);
  EXPECT_GT(branch_ex_sim.run().cycles, base_cycles);
}

}  // namespace
}  // namespace art9::core

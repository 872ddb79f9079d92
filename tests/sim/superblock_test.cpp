// Superblock-tier regression suite, both ISAs: the block translation's
// macro-op fusion must be architecturally invisible.  Locks
//  * that the fused-heavy corpus and the benchmark corpus actually take
//    every fusion pattern the planners keep (plan counters — a silent
//    fusion regression, or a translator change that stops emitting a
//    fused idiom, would otherwise leave the parity tests green while
//    benching the unfused path);
//  * bit-identity of the fused path against the golden per-instruction
//    model at *every* budget 0..N — including budgets that die between
//    the two halves of a fused pair and exactly at a block body's end
//    before a halt/trap terminator (the min_budget entry-clamp edge);
//  * that a trap in the middle of a block reports the precise faulting
//    PC, with the committed post-trap state bit-identical to golden;
//  * the packed backend's decode-time immediate validation, per-step trap
//    parity with the reference, and its inspection-boundary accessors.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/benchmarks.hpp"
#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_superblock.hpp"
#include "sim/engine.hpp"
#include "sim/functional_sim.hpp"
#include "sim/superblock.hpp"
#include "xlat/framework.hpp"

namespace art9::sim {
namespace {

// ---------------------------------------------------------------------------
// Corpora

/// One straight line through every ART-9 fusion pattern: LUI+LI
/// constant formation, LOAD feeding a register ALU op, and a COMP whose
/// result is only consumed by the following branch — plus a LUI+ADDI
/// pair, which runs unfused.
const char* art9_fused_source() {
  return R"(
    LIMM  T4, 100
    LIMM  T2, 7
    STORE T2, 0(T4)
    LUI   T1, 3
    LI    T1, 5
    LUI   T2, 2
    ADDI  T2, 7
    LOAD  T3, 0(T4)
    ADD   T5, T3
    COMP  T6, T1
    BEQ   T6, 0, skip
    ADDI  T7, 1
  skip:
    HALT
  )";
}

/// Every ART-9 opcode in one program: arithmetic/logic/inverters,
/// immediate forms, both shift families, all three branch trits taken
/// and not, JAL/JALR linkage, memory traffic — so block building,
/// fusion candidacy and the per-instruction tail are all exercised.
const char* art9_every_opcode_source() {
  return R"(
    LIMM  T1, 1234
    LIMM  T2, -77
    ADD   T1, T2
    SUB   T2, T1
    AND   T1, T2
    OR    T2, T1
    XOR   T1, T2
    STI   T3, T1
    NTI   T4, T1
    PTI   T5, T2
    MV    T6, T5
    ANDI  T1, 13
    ADDI  T1, -13
    LUI   T2, -40
    LI    T2, 121
    SR    T1, T5
    SL    T1, T5
    SRI   T1, 8
    SLI   T1, 3
    LIMM  T7, -9000
    STORE T2, -3(T7)
    LOAD  T3, -3(T7)
    COMP  T6, T0
    BEQ   T6, 0, fwd
    ADDI  T5, 1
  fwd:
    BNE   T6, -, fwd2
    ADDI  T5, 2
  fwd2:
    JAL   T8, sub
    ADDI  T5, 4
    HALT
  sub:
    ADDI  T5, 5
    JALR  T0, T8, 0
  )";
}

/// One straight line through the rv32 load+ALU fusion (LW feeding an
/// ADD), plus a LUI+ADDI constant and an SLTI consumed only by a BNE
/// against x0, which run unfused.
const char* rv32_fused_source() {
  return R"(
    li   t3, 64
    li   t4, 7
    sw   t4, 0(t3)
    lui  t0, 1
    addi t0, t0, 37
    lw   t1, 0(t3)
    add  t2, t1, t4
    slti t5, t2, 100
    bne  t5, x0, skip
    addi t6, t6, 1
  skip:
    ebreak
  )";
}

// ---------------------------------------------------------------------------
// Helpers

/// Runs `kind` on the program with the given budget and returns the
/// uniform result (state + stats + halt).
RunResult run_art9(EngineKind kind, const isa::Program& program, uint64_t budget) {
  return make_engine(kind, decode(program))->run({.max_steps = budget});
}

/// Asserts two kinds agree bit-identically (state, stats, halt reason)
/// on every budget 0..limit — tiny budgets land inside fused pairs and
/// exactly on block-body boundaries, full budgets cover the halt path.
template <class Program>
void expect_budget_sweep_identical(EngineKind golden_kind, EngineKind tested_kind,
                                   const Program& program, uint64_t limit) {
  for (uint64_t budget = 0; budget <= limit; ++budget) {
    std::unique_ptr<Engine> golden = make_engine(golden_kind, decode(program));
    std::unique_ptr<Engine> tested = make_engine(tested_kind, decode(program));
    const RunResult want = golden->run({.max_steps = budget});
    const RunResult got = tested->run({.max_steps = budget});
    EXPECT_EQ(want.stats, got.stats) << "budget=" << budget;
    EXPECT_EQ(want.halt, got.halt) << "budget=" << budget;
    EXPECT_TRUE(want.state == got.state) << "state diverged at budget=" << budget;
  }
}

/// Runs to the trap and returns the exception message (fails the test
/// if the run does not trap).
std::string trap_message(Engine& engine) {
  try {
    static_cast<void>(engine.run_stats({.max_steps = 1'000'000}));
  } catch (const std::exception& error) {
    return error.what();
  }
  ADD_FAILURE() << "run did not trap";
  return {};
}

// ---------------------------------------------------------------------------
// ART-9

TEST(SuperblockPlan, FusedCorpusTakesEveryPattern) {
  const SuperblockSimulator sim(isa::assemble(art9_fused_source()));
  const SuperblockPlan& plan = sim.plan();
  EXPECT_GT(plan.fused_const, 0u);
  EXPECT_GT(plan.fused_cmp_branch, 0u);
  EXPECT_GT(plan.fused_load_op, 0u);
  EXPECT_FALSE(plan.blocks.empty());

  // The translated benchmark corpus forms every kept fusion: each one
  // carries the traffic of an idiom the software framework emits (LUI+LI
  // wide constants, COMP+BEQ/BNE branches, spill reloads into ALU ops).
  uint32_t fused_const = 0;
  uint32_t fused_cmp_branch = 0;
  uint32_t fused_load_op = 0;
  for (const core::BenchmarkSources* bench : core::all_benchmarks()) {
    xlat::SoftwareFramework framework;
    const std::shared_ptr<const DecodedImage> image =
        decode(framework.translate(rv32::assemble_rv32(bench->rv32)).program);
    const SuperblockPlan& corpus_plan = image->superblocks();
    fused_const += corpus_plan.fused_const;
    fused_cmp_branch += corpus_plan.fused_cmp_branch;
    fused_load_op += corpus_plan.fused_load_op;
  }
  EXPECT_GT(fused_const, 0u);
  EXPECT_GT(fused_cmp_branch, 0u);
  EXPECT_GT(fused_load_op, 0u);
}

TEST(SuperblockParity, FusedCorpusBitIdenticalAtEveryBudget) {
  const isa::Program program = isa::assemble(art9_fused_source());
  const SimStats full = make_engine(EngineKind::kFunctional, decode(program))->run_stats();
  ASSERT_EQ(full.halt, HaltReason::kHalted);
  expect_budget_sweep_identical(EngineKind::kFunctional, EngineKind::kSuperblock, program,
                                full.instructions + 2);
}

TEST(SuperblockParity, EveryOpcodeCorpusBitIdenticalAtEveryBudget) {
  const isa::Program program = isa::assemble(art9_every_opcode_source());
  const SimStats full = make_engine(EngineKind::kFunctional, decode(program))->run_stats();
  ASSERT_EQ(full.halt, HaltReason::kHalted);
  expect_budget_sweep_identical(EngineKind::kFunctional, EngineKind::kSuperblock, program,
                                full.instructions + 2);
}

TEST(SuperblockParity, AddiChainBitIdenticalAtEveryBudget) {
  // Runs of ADDI on one register, wrapping past +-9841, at every budget —
  // block bodies and the per-instruction tail must agree on every
  // intermediate architectural state.
  const isa::Program program = isa::assemble(R"(
    LIMM  T1, 9835
    ADDI  T1, 13
    ADDI  T1, 13
    ADDI  T1, 13
    ADDI  T2, -3
    ADDI  T2, -4
    ADDI  T2, -5
    ADD   T2, T1
    HALT
  )");
  const SimStats full = make_engine(EngineKind::kFunctional, decode(program))->run_stats();
  ASSERT_EQ(full.halt, HaltReason::kHalted);
  expect_budget_sweep_identical(EngineKind::kFunctional, EngineKind::kSuperblock, program,
                                full.instructions + 2);
  // The fleet backend shares the plan.
  expect_budget_sweep_identical(EngineKind::kFunctional, EngineKind::kFleet, program,
                                full.instructions + 2);
}

TEST(SuperblockParity, TinyBudgetAgainstHaltTerminatedBlock) {
  // Budget dying exactly at the block body's end must report kMaxCycles
  // without attempting the halt terminator (the min_budget clamp); one
  // more step retires the halt convention.
  const isa::Program program = isa::assemble("ADDI T1, 1\nADDI T2, 1\nHALT\n");
  expect_budget_sweep_identical(EngineKind::kFunctional, EngineKind::kSuperblock, program, 4);
}

TEST(SuperblockTrap, MidBlockTrapReportsPreciseFaultingPc) {
  // Straight-line block that runs off the end of the program: the block
  // retires its body, then the fetch of the next row faults.  The
  // message must name the exact faulting PC and the committed state
  // must match the golden model's bit-identically.
  const isa::Program program = isa::assemble("ADDI T1, 1\nADDI T2, 1\nADDI T3, 1\n");

  std::unique_ptr<Engine> golden = make_engine(EngineKind::kFunctional, decode(program));
  std::unique_ptr<Engine> tested = make_engine(EngineKind::kSuperblock, decode(program));
  const std::string want = trap_message(*golden);
  const std::string got = trap_message(*tested);
  EXPECT_EQ(want, got);

  const ArchState after = tested->state().art9();
  EXPECT_EQ(after, golden->state().art9());
  EXPECT_NE(got.find("fetch from uninitialised TIM address " + std::to_string(after.pc)),
            std::string::npos)
      << got;

  // Budgets that exhaust before the faulting fetch must not trap.
  for (uint64_t budget = 0; budget <= 3; ++budget) {
    EXPECT_EQ(run_art9(EngineKind::kSuperblock, program, budget).halt, HaltReason::kMaxCycles)
        << "budget=" << budget;
  }
}

TEST(SuperblockTrap, UninitialisedFetchStepTrapsLikeReference) {
  // Fall off the end of a program with no halt on the per-instruction
  // path: both simulators must throw.
  isa::Program program;
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 1});
  program.entry = 0;
  FunctionalSimulator reference(program);
  SuperblockSimulator sim(program);
  EXPECT_TRUE(reference.step());
  EXPECT_TRUE(sim.step());
  EXPECT_THROW(static_cast<void>(reference.step()), SimError);
  EXPECT_THROW(static_cast<void>(sim.step()), SimError);
}

TEST(SuperblockDecode, MalformedImmediateThrowsAtDecodeTime) {
  // ADDI's imm3 range is [-13, 13]; 500 is unencodable.  The decoder must
  // reject it at image-construction time, not when the instruction first
  // executes.
  isa::Program program;
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 500});
  program.code.push_back(isa::Instruction::halt());
  program.entry = 0;
  EXPECT_THROW(static_cast<void>(decode(program)), SimError);
  // Same for the other pre-encoded immediate forms.
  for (isa::Opcode op : {isa::Opcode::kAndi, isa::Opcode::kLui, isa::Opcode::kLi}) {
    isa::Program p;
    p.code.push_back(isa::Instruction{op, 1, 0, ternary::kTritZ, 10'000});
    p.entry = 0;
    EXPECT_THROW(static_cast<void>(decode(p)), SimError) << isa::mnemonic(op);
  }
}

TEST(SuperblockInspection, AccessorsDecodeOnDemand) {
  SuperblockSimulator sim(isa::assemble("LIMM T1, -4567\nHALT\n"));
  static_cast<void>(sim.run());
  EXPECT_EQ(sim.reg_int(1), -4567);
  EXPECT_EQ(sim.reg(1), ternary::Word9::from_int(-4567));
  EXPECT_EQ(sim.reg_packed(1), ternary::BctWord9::encode(sim.reg(1)));
}

// ---------------------------------------------------------------------------
// RV32

TEST(Rv32SuperblockPlan, FusedCorpusTakesEveryPattern) {
  const rv32::Rv32SuperblockSimulator sim(rv32::assemble_rv32(rv32_fused_source()));
  const rv32::Rv32SuperblockPlan& plan = sim.plan();
  EXPECT_GT(plan.fused_load_op, 0u);
  EXPECT_FALSE(plan.blocks.empty());

  // The benchmark corpus forms the kept load+ALU fusion too.
  uint32_t fused_load_op = 0;
  for (const core::BenchmarkSources* bench : core::all_benchmarks()) {
    const std::shared_ptr<const rv32::Rv32DecodedImage> image =
        rv32::decode(rv32::assemble_rv32(bench->rv32));
    fused_load_op += image->superblocks().fused_load_op;
  }
  EXPECT_GT(fused_load_op, 0u);
}

TEST(Rv32SuperblockParity, FusedCorpusBitIdenticalAtEveryBudget) {
  const rv32::Rv32Program program = rv32::assemble_rv32(rv32_fused_source());
  const SimStats full = make_engine(EngineKind::kRv32, rv32::decode(program))->run_stats();
  ASSERT_EQ(full.halt, HaltReason::kHalted);
  expect_budget_sweep_identical(EngineKind::kRv32, EngineKind::kRv32Superblock, program,
                                full.instructions + 2);
}

TEST(Rv32SuperblockParity, TinyBudgetAgainstEbreakTerminatedBlock) {
  // Same min_budget edge as ART-9: the budget must be able to die
  // exactly before the halting EBREAK.
  const rv32::Rv32Program program =
      rv32::assemble_rv32("addi t0, t0, 1\naddi t0, t0, 2\nebreak\n");
  expect_budget_sweep_identical(EngineKind::kRv32, EngineKind::kRv32Superblock, program, 4);
}

TEST(Rv32SuperblockTrap, MidBlockStoreTrapReportsPreciseFaultingPc) {
  // The faulting store sits mid-block after two ALU ops; the committed
  // PC must be the store's own, identical to the reference model.
  const rv32::Rv32Program program = rv32::assemble_rv32(R"(
    addi t0, t0, 1
    addi t1, t1, 2
    li   a0, -2
    sw   a1, 0(a0)
    ebreak
  )");

  std::unique_ptr<Engine> golden = make_engine(EngineKind::kRv32, rv32::decode(program));
  std::unique_ptr<Engine> tested = make_engine(EngineKind::kRv32Superblock, rv32::decode(program));
  const std::string want = trap_message(*golden);
  const std::string got = trap_message(*tested);
  EXPECT_EQ(want, got);
  EXPECT_TRUE(golden->state().rv32() == tested->state().rv32());
}

TEST(Rv32SuperblockTrap, FetchOffEndReportsPreciseFaultingPc) {
  // No ebreak: the block falls off the program and the fetch faults at
  // entry + 3 instructions; the message names that exact byte PC.
  const rv32::Rv32Program program =
      rv32::assemble_rv32("addi t0, t0, 1\naddi t1, t1, 2\naddi t2, t2, 3\n");

  std::unique_ptr<Engine> golden = make_engine(EngineKind::kRv32, rv32::decode(program));
  std::unique_ptr<Engine> tested = make_engine(EngineKind::kRv32Superblock, rv32::decode(program));
  const std::string want = trap_message(*golden);
  const std::string got = trap_message(*tested);
  EXPECT_EQ(want, got);

  const rv32::Rv32ArchState after = tested->state().rv32();
  EXPECT_TRUE(after == golden->state().rv32());
  EXPECT_NE(got.find("pc=" + std::to_string(after.pc)), std::string::npos) << got;
}

}  // namespace
}  // namespace art9::sim

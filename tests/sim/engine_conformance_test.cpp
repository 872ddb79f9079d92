// Engine conformance suite: parameterized fixtures run over every
// EngineKind of both ISAs, asserting the unified contract of sim::Engine
// on the four paper benchmarks plus every-opcode assembly corpora.
//
// Contract (see engine.hpp):
//  * every ART-9 functional kind (lazy, functional, packed) is
//    bit-identical to the golden FunctionalSimulator in ArchState
//    (registers, TDM contents *and* access counters, PC) and SimStats;
//  * the pipeline kinds match ArchState, retired-instruction count and
//    halt reason (their cycle accounting legitimately differs);
//  * every rv32 kind (pre-decoded reference, superblock tier) is
//    bit-identical to the seed LazyRv32Simulator in Rv32ArchState
//    (x-registers, every RAM byte, PC) and run statistics;
//  * budget exhaustion reports HaltReason::kMaxCycles on every kind;
//  * the retired-instruction observer sees the same (inst, pc, index)
//    stream on every kind of one ISA, and step() matches run().
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/benchmarks.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/functional_sim.hpp"
#include "xlat/framework.hpp"

namespace art9::sim {
namespace {

isa::Program translated(const core::BenchmarkSources& bench) {
  xlat::SoftwareFramework framework;
  return framework.translate(rv32::assemble_rv32(bench.rv32)).program;
}

/// Small programs that collectively execute all 24 opcodes, both branch
/// polarities, register and immediate shifts, LUI/LI field insertion,
/// memory traffic, JAL/JALR linkage and the never-halts budget path.
const std::array<std::string, 7>& opcode_corpus() {
  static const std::array<std::string, 7> kPrograms = {
      // Arithmetic + logic + inverters.
      R"(
        LIMM T1, 1234
        LIMM T2, -77
        ADD  T1, T2
        SUB  T2, T1
        AND  T1, T2
        OR   T2, T1
        XOR  T1, T2
        STI  T3, T1
        NTI  T4, T1
        PTI  T5, T2
        MV   T6, T5
        COMP T6, T4
        HALT
      )",
      // Immediate forms incl. LUI/LI partial writes and ANDI.
      R"(
        LIMM T1, -9841
        ANDI T1, 13
        ADDI T1, -13
        LUI  T2, -40
        LI   T2, 121
        LUI  T3, 40
        LI   T3, -121
        HALT
      )",
      // Register and immediate shifts, incl. amounts from a register.
      R"(
        LIMM T1, 9841
        LIMM T2, 5
        SR   T1, T2
        SL   T1, T2
        SRI  T1, 8
        SLI  T1, 3
        HALT
      )",
      // Branch polarities: all three condition trits, taken and fallthrough.
      R"(
        LIMM T1, 1
        COMP T1, T0
        BEQ  T1, +, fwd
        LIMM T7, 111
      fwd:
        BNE  T1, -, fwd2
        LIMM T7, 222
      fwd2:
        BEQ  T1, 0, never
        ADDI T6, 4
      never:
        HALT
      )",
      // JAL / JALR call-and-return with link registers.
      R"(
        LIMM T5, 0
        JAL  T8, sub
        ADDI T5, 2
        HALT
      sub:
        ADDI T5, 5
        JALR T0, T8, 0
      )",
      // Memory traffic: negative addresses, overlapping rows.
      R"(
        LIMM T1, -9000
        LIMM T2, 42
        STORE T2, -3(T1)
        LOAD  T3, -3(T1)
        STORE T3, 13(T1)
        LOAD  T4, 13(T1)
        HALT
      )",
      // Never halts: the budget path must report kMaxCycles identically.
      "loop:\n  ADDI T1, 1\n  JAL T0, loop\n",
  };
  return kPrograms;
}

/// RV32 mirror of opcode_corpus(): collectively executes all 48 RV32I+M
/// instructions — both branch polarities per condition, sub-word memory
/// traffic with sign extension, JAL/JALR linkage, LUI/AUIPC, FENCE, the
/// M-extension corner cases, both halt conventions, the never-halts
/// budget path, and unaligned accesses that straddle a word boundary.
const std::array<std::string, 7>& rv32_opcode_corpus() {
  static const std::array<std::string, 7> kPrograms = {
      // ALU reg-reg + reg-imm, LUI/AUIPC.
      R"(
        li    a0, 100
        li    a1, -30
        add   a2, a0, a1
        sub   a3, a0, a1
        and   a4, a0, a1
        or    a5, a0, a1
        xor   a6, a0, a1
        sll   t0, a0, a1
        srl   t1, a0, a1
        sra   t2, a1, a0
        slt   t3, a1, a0
        sltu  t4, a1, a0
        addi  s0, a0, 11
        slti  s1, a1, 0
        sltiu s2, a0, 200
        xori  s3, a0, 15
        ori   s4, a0, 257
        andi  s5, a0, 60
        slli  s6, a0, 3
        srli  s7, a1, 2
        srai  s8, a1, 2
        lui   s9, 74565
        auipc s10, 1
        ebreak
      )",
      // M extension incl. the division edge cases.
      R"(
        li     a0, -7
        li     a1, 3
        mul    a2, a0, a1
        mulh   a3, a0, a1
        mulhsu a4, a0, a1
        mulhu  a5, a0, a1
        div    a6, a0, a1
        divu   t0, a0, a1
        rem    t1, a0, a1
        remu   t2, a0, a1
        li     t3, 0
        div    t4, a0, t3
        rem    t5, a0, t3
        li     s0, -2147483648
        li     s1, -1
        div    s2, s0, s1
        rem    s3, s0, s1
        ebreak
      )",
      // Branch polarities: every condition, taken and fallthrough.
      R"(
        li   a0, 1
        li   a1, 2
        beq  a0, a0, b1
        addi s0, zero, 111
      b1:
        bne  a0, a1, b2
        addi s0, zero, 222
      b2:
        blt  a0, a1, b3
        addi s1, zero, 1
      b3:
        bge  a1, a0, b4
        addi s1, zero, 2
      b4:
        bltu a0, a1, b5
        addi s2, zero, 3
      b5:
        bgeu a1, a0, b6
        addi s2, zero, 4
      b6:
        beq  a0, a1, never
        addi s3, zero, 5
      never:
        ebreak
      )",
      // Memory traffic: sub-word loads/stores, sign extension, ecall halt.
      R"(
      .data
      .org 64
      vals: .word 0x80FF7F01, -123456
      .text
        li   a0, 64
        lw   a1, 0(a0)
        lb   a2, 3(a0)
        lbu  a3, 3(a0)
        lh   a4, 2(a0)
        lhu  a5, 2(a0)
        sb   a1, 80(a0)
        sh   a1, 84(a0)
        sw   a1, 88(a0)
        lw   t0, 4(a0)
        sb   t0, 81(a0)
        lw   s0, 80(a0)
        lw   s1, 84(a0)
        lw   s2, 88(a0)
        ecall
      )",
      // JAL/JALR call-and-return + FENCE.
      R"(
        li   a0, 5
        call double_it
        mv   a1, a0
        fence
        ebreak
      double_it:
        add  a0, a0, a0
        ret
      )",
      // Never halts: the budget path must report kMaxCycles identically.
      "loop:\n  addi t0, t0, 1\n  j loop\n",
      // Unaligned, word-straddling data traffic: sub-word stores that
      // overlap, a halfword across a word boundary, an unaligned word.
      R"(
      .data
      .org 128
      words: .word -1, 0x7FFFFFFF, 0x80000000
      .text
        li   a0, 128
        lw   a1, 0(a0)
        lw   a2, 4(a0)
        lw   a3, 8(a0)
        lb   t0, 0(a0)
        lbu  t1, 0(a0)
        lh   t2, 2(a0)
        lhu  t3, 2(a0)
        lb   t4, 11(a0)
        sb   a1, 64(a0)
        sb   a2, 65(a0)
        sh   a1, 66(a0)
        sh   a3, 68(a0)
        sw   a1, 72(a0)
        lw   s0, 64(a0)
        lw   s1, 68(a0)
        lw   s2, 72(a0)
        sh   a1, 79(a0)    ; crosses a word boundary
        lh   s3, 79(a0)
        sw   a2, 81(a0)    ; unaligned word spanning two words
        lw   s4, 81(a0)
        lw   s5, 76(a0)
        lw   s6, 80(a0)
        ebreak
      )",
  };
  return kPrograms;
}

constexpr uint64_t kBudget = 100'000'000;

[[nodiscard]] bool is_functional(EngineKind kind) { return !is_cycle_accurate(kind); }

// ===========================================================================
// ART-9 kinds.
// ===========================================================================

class EngineConformance : public ::testing::TestWithParam<EngineKind> {
 protected:
  /// Golden reference: a standalone FunctionalSimulator run.
  static RunResult reference(const std::shared_ptr<const DecodedImage>& image, uint64_t budget) {
    FunctionalSimulator sim(image);
    SimStats stats = sim.run(budget);
    return RunResult{sim.state(), stats, stats.halt};
  }

  void expect_conforms(const isa::Program& program, uint64_t budget = kBudget) {
    const std::shared_ptr<const DecodedImage> image = decode(program);
    const RunResult golden = reference(image, budget);
    std::unique_ptr<Engine> engine = make_engine(GetParam(), image);
    ASSERT_EQ(engine->kind(), GetParam());
    const RunResult got = engine->run({budget});
    EXPECT_EQ(got.halt, got.stats.halt);
    if (is_functional(GetParam())) {
      EXPECT_EQ(got.stats, golden.stats);
      EXPECT_EQ(got.state, golden.state);
      EXPECT_EQ(got.halt, golden.halt);
    } else if (golden.halt == HaltReason::kHalted) {
      // The pipeline retires the same instruction stream on its own clock;
      // final architectural state and retired count must still match.
      EXPECT_EQ(got.halt, HaltReason::kHalted);
      EXPECT_EQ(got.stats.instructions, golden.stats.instructions);
      EXPECT_EQ(got.state.art9().trf, golden.state.art9().trf);
      // No PC assertion: the pipeline's architectural PC rests on the next
      // fetch address when HALT retires, one past the functional models'
      // convention of resting *on* the halt instruction.  TDM contents
      // must match; access counters differ (the pipeline's wrong-path and
      // per-stage accesses are part of its model).
      for (int64_t a = -ternary::Word9::kMaxValue; a <= ternary::Word9::kMaxValue; ++a) {
        if (got.state.art9().tdm.peek(a) != golden.state.art9().tdm.peek(a)) {
          FAIL() << "TDM mismatch at address " << a;
        }
      }
    } else {
      // Budget-exhausted on the pipeline (its budget is cycles, the
      // golden model's is instructions): the cycle allowance must be
      // consumed exactly, and the register file must equal the golden
      // model replayed to the same retire count — TRF writes land at
      // retire, so the instruction-accurate model at N retired
      // instructions is the oracle.  (TDM may differ by in-flight
      // stores, which execute in MEM before their instruction retires.)
      EXPECT_EQ(got.halt, HaltReason::kMaxCycles);
      EXPECT_EQ(got.stats.cycles, budget);
      EXPECT_LE(got.stats.instructions, budget);
      std::unique_ptr<Engine> replay = make_engine(EngineKind::kFunctional, image);
      const RunResult r = replay->run({got.stats.instructions});
      EXPECT_EQ(got.state.art9().trf, r.state.art9().trf);
    }
  }
};

// --- the acceptance corpus: all four paper benchmarks ------------------------

TEST_P(EngineConformance, BitIdenticalOnBenchmarkCorpus) {
  for (const core::BenchmarkSources* bench : core::all_benchmarks()) {
    SCOPED_TRACE(bench->name);
    expect_conforms(translated(*bench));
  }
}

// --- every-opcode assembly corpus --------------------------------------------

TEST_P(EngineConformance, BitIdenticalOnOpcodeCorpus) {
  for (const std::string& source : opcode_corpus()) {
    expect_conforms(isa::assemble(source), 2'000);
  }
}

// --- budget exhaustion: HaltReason::kMaxCycles on every kind -----------------

TEST_P(EngineConformance, TinyBudgetOnInfiniteLoopReportsMaxCycles) {
  const isa::Program loop = isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n");
  std::unique_ptr<Engine> engine = make_engine(GetParam(), decode(loop));
  const RunResult r = engine->run({50});
  EXPECT_EQ(r.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(r.stats.halt, HaltReason::kMaxCycles);
  if (is_functional(GetParam())) {
    EXPECT_EQ(r.stats.instructions, 50u);  // budget is an instruction count
  } else {
    EXPECT_EQ(r.stats.cycles, 50u);  // budget is a cycle count
  }
}

TEST_P(EngineConformance, RepeatedRunsReportPerCallStats) {
  // Every kind reports per-call stats: a second run with the same budget
  // accounts only its own steps, never the lifetime total.
  const isa::Program loop = isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n");
  std::unique_ptr<Engine> engine = make_engine(GetParam(), decode(loop));
  const RunResult first = engine->run({50});
  const RunResult second = engine->run({50});
  EXPECT_EQ(first.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(second.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(first.stats.cycles, 50u);
  EXPECT_EQ(second.stats.cycles, 50u);
  // The architectural state, by contrast, does advance across runs.
  EXPECT_NE(first.state.art9().trf.read(1), second.state.art9().trf.read(1));
}

TEST_P(EngineConformance, PipelineConfigBudgetCapsEachRun) {
  // EngineOptions.pipeline.max_cycles is honoured behind the facade as a
  // per-run cap (the tighter of it and RunOptions.max_steps wins); the
  // functional kinds ignore it.
  const isa::Program loop = isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n");
  EngineOptions options;
  options.pipeline.max_cycles = 40;
  std::unique_ptr<Engine> engine = make_engine(GetParam(), decode(loop), options);
  const RunResult r = engine->run({100});
  EXPECT_EQ(r.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(r.stats.cycles, is_cycle_accurate(GetParam()) ? 40u : 100u);
}

TEST_P(EngineConformance, HaltingProgramReportsHalted) {
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(), decode(isa::assemble("LIMM T1, 7\nHALT\n")));
  const RunResult r = engine->run({});
  EXPECT_EQ(r.halt, HaltReason::kHalted);
  EXPECT_EQ(r.state.art9().trf.read(1).to_int(), 7);
}

// --- run_stats() is run() without the snapshot -------------------------------

TEST_P(EngineConformance, RunStatsMatchesRun) {
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(opcode_corpus()[0]));
  std::unique_ptr<Engine> stats_only = make_engine(GetParam(), image);
  std::unique_ptr<Engine> full = make_engine(GetParam(), image);
  const SimStats stats = stats_only->run_stats({});
  const RunResult r = full->run({});
  EXPECT_EQ(stats, r.stats);
  EXPECT_EQ(stats_only->state(), r.state);
}

// --- step() matches run() ----------------------------------------------------

TEST_P(EngineConformance, StepLoopMatchesRun) {
  const isa::Program program = isa::assemble(opcode_corpus()[0]);
  const std::shared_ptr<const DecodedImage> image = decode(program);
  std::unique_ptr<Engine> stepped = make_engine(GetParam(), image);
  std::unique_ptr<Engine> ran = make_engine(GetParam(), image);
  uint64_t guard = 0;
  while (stepped->step() && ++guard < 1'000'000) {
  }
  const RunResult r = ran->run({});
  EXPECT_EQ(stepped->state(), r.state);
}

// --- the retired-instruction observer ----------------------------------------

TEST_P(EngineConformance, ObserverSeesEveryRetiredInstruction) {
  const isa::Program program = isa::assemble(opcode_corpus()[4]);  // JAL/JALR linkage
  const std::shared_ptr<const DecodedImage> image = decode(program);
  std::unique_ptr<Engine> engine = make_engine(GetParam(), image);
  std::vector<Retired> stream;
  engine->set_observer([&](const Retired& r) { stream.push_back(r); });
  const RunResult r = engine->run({});
  ASSERT_EQ(stream.size(), r.stats.instructions);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].index, i);
    // The stream is the executed path: each pc must hold the instruction
    // the observer reported.
    EXPECT_EQ(isa::to_string(image->instruction(DecodedImage::row_of(stream[i].pc))),
              isa::to_string(stream[i].art9()));
  }
  // First retired instruction is the entry instruction.
  EXPECT_EQ(stream.front().pc, program.entry);

  // The stream is identical to the golden model's (same corpus, every
  // kind): lock against the functional engine's stream.
  std::unique_ptr<Engine> golden = make_engine(EngineKind::kFunctional, image);
  std::vector<Retired> golden_stream;
  golden->set_observer([&](const Retired& g) { golden_stream.push_back(g); });
  static_cast<void>(golden->run({}));
  ASSERT_EQ(stream.size(), golden_stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].pc, golden_stream[i].pc) << "index " << i;
    EXPECT_EQ(isa::to_string(stream[i].art9()), isa::to_string(golden_stream[i].art9()));
  }
}

TEST_P(EngineConformance, ObserverInstalledMidRunNumbersFromZero) {
  // The stream is numbered from each installation, on every kind — even
  // when the engine has already retired instructions.
  const isa::Program loop = isa::assemble("loop:\n  ADDI T1, 1\n  JAL T0, loop\n");
  std::unique_ptr<Engine> engine = make_engine(GetParam(), decode(loop));
  static_cast<void>(engine->run({10}));  // retire a few first
  std::vector<Retired> stream;
  engine->set_observer([&](const Retired& r) { stream.push_back(r); });
  static_cast<void>(engine->run({10}));
  ASSERT_FALSE(stream.empty());
  for (std::size_t i = 0; i < stream.size(); ++i) EXPECT_EQ(stream[i].index, i);
}

TEST_P(EngineConformance, ObserverRemovalRestoresFastPath) {
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(), decode(isa::assemble("LIMM T1, 3\nHALT\n")));
  uint64_t fires = 0;
  engine->set_observer([&](const Retired&) { ++fires; });
  engine->set_observer({});
  const RunResult r = engine->run({});
  EXPECT_EQ(fires, 0u);
  EXPECT_EQ(r.halt, HaltReason::kHalted);
}

// --- uninitialised-fetch trap parity ----------------------------------------

TEST_P(EngineConformance, UninitialisedFetchTraps) {
  // Fall off the end of a program with no halt: every kind must throw.
  isa::Program program;
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 1});
  program.entry = 0;
  std::unique_ptr<Engine> engine = make_engine(GetParam(), decode(program));
  EXPECT_THROW(static_cast<void>(engine->run({})), SimError);
}

INSTANTIATE_TEST_SUITE_P(Art9Kinds, EngineConformance,
                         ::testing::ValuesIn(art9_engine_kinds()),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(engine_kind_name(info.param));
                         });

// ===========================================================================
// RV32 kinds — the same contract, mirrored onto the binary baseline.
// ===========================================================================

class Rv32EngineConformance : public ::testing::TestWithParam<EngineKind> {
 protected:
  /// Golden reference: the seed LazyRv32Simulator (differential baseline).
  struct Golden {
    rv32::Rv32ArchState state;
    rv32::Rv32RunStats stats;
  };

  static Golden reference(const rv32::Rv32Program& program, uint64_t budget) {
    rv32::LazyRv32Simulator sim(program);
    const rv32::Rv32RunStats stats = sim.run(budget);
    return Golden{sim.state(), stats};
  }

  void expect_conforms(const std::string& source, uint64_t budget = kBudget) {
    const rv32::Rv32Program program = rv32::assemble_rv32(source);
    const Golden golden = reference(program, budget);
    std::unique_ptr<Engine> engine = make_engine(GetParam(), rv32::decode(program));
    ASSERT_EQ(engine->kind(), GetParam());
    const RunResult got = engine->run({budget});
    EXPECT_EQ(got.halt, got.stats.halt);
    EXPECT_EQ(got.halt,
              golden.stats.halted ? HaltReason::kHalted : HaltReason::kMaxCycles);
    EXPECT_EQ(got.stats.instructions, golden.stats.instructions);
    EXPECT_EQ(got.stats.cycles, golden.stats.instructions);  // functional kinds
    ASSERT_TRUE(got.state.is_rv32());
    EXPECT_EQ(got.state.rv32().regs, golden.state.regs);
    EXPECT_EQ(got.state.rv32().pc, golden.state.pc);
    EXPECT_EQ(got.state.rv32().ram, golden.state.ram);  // every byte
  }
};

// --- the acceptance corpus: all four paper benchmarks (rv32 sources) ---------

TEST_P(Rv32EngineConformance, BitIdenticalOnBenchmarkCorpus) {
  for (const core::BenchmarkSources* bench : core::all_benchmarks()) {
    SCOPED_TRACE(bench->name);
    expect_conforms(bench->rv32);
  }
}

// --- every-opcode RV32I(+M) corpus -------------------------------------------

TEST_P(Rv32EngineConformance, BitIdenticalOnOpcodeCorpus) {
  for (const std::string& source : rv32_opcode_corpus()) {
    expect_conforms(source, 2'000);
  }
}

// --- budget exhaustion -------------------------------------------------------

TEST_P(Rv32EngineConformance, TinyBudgetOnInfiniteLoopReportsMaxCycles) {
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(),
                  rv32::decode(rv32::assemble_rv32("loop:\n  addi t0, t0, 1\n  j loop\n")));
  const RunResult r = engine->run({50});
  EXPECT_EQ(r.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(r.stats.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(r.stats.instructions, 50u);  // budget is an instruction count
}

TEST_P(Rv32EngineConformance, RepeatedRunsReportPerCallStats) {
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(),
                  rv32::decode(rv32::assemble_rv32("loop:\n  addi t0, t0, 1\n  j loop\n")));
  const RunResult first = engine->run({50});
  const RunResult second = engine->run({50});
  EXPECT_EQ(first.stats.instructions, 50u);
  EXPECT_EQ(second.stats.instructions, 50u);
  EXPECT_NE(first.state.rv32().regs[5], second.state.rv32().regs[5]);  // t0 advances
}

TEST_P(Rv32EngineConformance, HaltingProgramReportsHalted) {
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(), rv32::decode(rv32::assemble_rv32("li a0, 7\nebreak\n")));
  const RunResult r = engine->run({});
  EXPECT_EQ(r.halt, HaltReason::kHalted);
  EXPECT_EQ(r.state.rv32().regs[10], 7u);
}

// --- run_stats() is run() without the snapshot -------------------------------

TEST_P(Rv32EngineConformance, RunStatsMatchesRun) {
  const std::shared_ptr<const rv32::Rv32DecodedImage> image =
      rv32::decode(rv32::assemble_rv32(rv32_opcode_corpus()[0]));
  std::unique_ptr<Engine> stats_only = make_engine(GetParam(), image);
  std::unique_ptr<Engine> full = make_engine(GetParam(), image);
  const SimStats stats = stats_only->run_stats({});
  const RunResult r = full->run({});
  EXPECT_EQ(stats, r.stats);
  EXPECT_EQ(stats_only->state(), r.state);
}

// --- step() matches run() ----------------------------------------------------

TEST_P(Rv32EngineConformance, StepLoopMatchesRun) {
  const std::shared_ptr<const rv32::Rv32DecodedImage> image =
      rv32::decode(rv32::assemble_rv32(rv32_opcode_corpus()[0]));
  std::unique_ptr<Engine> stepped = make_engine(GetParam(), image);
  std::unique_ptr<Engine> ran = make_engine(GetParam(), image);
  uint64_t guard = 0;
  while (stepped->step() && ++guard < 1'000'000) {
  }
  const RunResult r = ran->run({});
  EXPECT_EQ(stepped->state(), r.state);
}

// --- the retired-instruction observer ----------------------------------------

TEST_P(Rv32EngineConformance, ObserverSeesEveryRetiredInstruction) {
  // The facade's rv32 stream follows the seed loop's observer: the
  // halting ECALL/EBREAK is streamed (the baseline cycle models need it),
  // so a halted run streams instructions + 1 events.
  const std::shared_ptr<const rv32::Rv32DecodedImage> image =
      rv32::decode(rv32::assemble_rv32(rv32_opcode_corpus()[4]));  // JAL/JALR linkage
  std::unique_ptr<Engine> engine = make_engine(GetParam(), image);
  std::vector<Retired> stream;
  engine->set_observer([&](const Retired& r) { stream.push_back(r); });
  const RunResult r = engine->run({});
  ASSERT_EQ(r.halt, HaltReason::kHalted);
  ASSERT_EQ(stream.size(), r.stats.instructions + 1);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].index, i);
    EXPECT_TRUE(stream[i].is_rv32());
  }
  EXPECT_EQ(stream.back().rv32().op, rv32::Rv32Op::kEbreak);

  // Identical to the reference rv32 engine's stream (inst, pc, taken).
  std::unique_ptr<Engine> golden = make_engine(EngineKind::kRv32, image);
  std::vector<Retired> golden_stream;
  golden->set_observer([&](const Retired& g) { golden_stream.push_back(g); });
  static_cast<void>(golden->run({}));
  ASSERT_EQ(stream.size(), golden_stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].pc, golden_stream[i].pc) << "index " << i;
    EXPECT_EQ(stream[i].taken, golden_stream[i].taken) << "index " << i;
    EXPECT_EQ(rv32::to_string(stream[i].rv32()), rv32::to_string(golden_stream[i].rv32()));
  }
}

TEST_P(Rv32EngineConformance, TakenFlagsMatchTheOracleOnFallThroughTargets) {
  // A taken branch or jump whose target is its own fall-through leaves
  // the same next pc as a not-taken branch, and the Pico/Vex models
  // charge the two differently: `taken` must come from the executed
  // instruction, identically to the seed loop's stream.
  const rv32::Rv32Program program = rv32::assemble_rv32(R"(
    li   a0, 1
    li   a1, 3
loop:
    beq  zero, zero, f1
f1: bne  a0, zero, f2
f2: beq  a0, zero, f3
f3: jal  zero, f4
f4: jal  ra, f5
f5: la   t0, f6
    jalr zero, 0(t0)
f6: addi a1, a1, -1
    slt  t1, zero, a1
    bnez t1, loop
    ebreak
)");
  std::vector<rv32::Rv32Retired> want;
  rv32::LazyRv32Simulator oracle(program);
  ASSERT_TRUE(oracle.run(1000, [&](const rv32::Rv32Retired& r) { want.push_back(r); }).halted);

  std::unique_ptr<Engine> engine = make_engine(GetParam(), rv32::decode(program));
  std::vector<Retired> got;
  engine->set_observer([&](const Retired& r) { got.push_back(r); });
  ASSERT_EQ(engine->run({}).halt, HaltReason::kHalted);
  ASSERT_EQ(got.size(), want.size());
  uint64_t taken = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pc, want[i].pc) << "index " << i;
    EXPECT_EQ(got[i].taken, want[i].taken) << "index " << i;
    EXPECT_EQ(rv32::to_string(got[i].rv32()), rv32::to_string(want[i].inst)) << "index " << i;
    taken += got[i].taken ? 1 : 0;
  }
  // Per pass: beq, bne, jal, jal, jalr; the loop's bnez twice of three.
  EXPECT_EQ(taken, 3u * 5 + 2);
}

TEST_P(Rv32EngineConformance, ObserverInstalledMidRunNumbersFromZero) {
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(),
                  rv32::decode(rv32::assemble_rv32("loop:\n  addi t0, t0, 1\n  j loop\n")));
  static_cast<void>(engine->run({10}));  // retire a few first
  std::vector<Retired> stream;
  engine->set_observer([&](const Retired& r) { stream.push_back(r); });
  static_cast<void>(engine->run({10}));
  ASSERT_FALSE(stream.empty());
  for (std::size_t i = 0; i < stream.size(); ++i) EXPECT_EQ(stream[i].index, i);
}

TEST_P(Rv32EngineConformance, ObserverRemovalRestoresFastPath) {
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(), rv32::decode(rv32::assemble_rv32("li a0, 3\nebreak\n")));
  uint64_t fires = 0;
  engine->set_observer([&](const Retired&) { ++fires; });
  engine->set_observer({});
  const RunResult r = engine->run({});
  EXPECT_EQ(fires, 0u);
  EXPECT_EQ(r.halt, HaltReason::kHalted);
}

// --- trap parity -------------------------------------------------------------

TEST_P(Rv32EngineConformance, FetchOutsideProgramTraps) {
  // Fall off the end of a program with no halt: every rv32 kind throws
  // the rv32 error type, exactly like the seed loop.
  std::unique_ptr<Engine> engine =
      make_engine(GetParam(), rv32::decode(rv32::assemble_rv32("nop\n")));
  EXPECT_THROW(static_cast<void>(engine->run({})), rv32::Rv32SimError);
}

TEST_P(Rv32EngineConformance, OutOfRangeStoreTraps) {
  // Bounds violations surface as Rv32SimError with the faulting address,
  // identically on both datapaths (regression for the seed's unchecked
  // uint32 wraparound in SH/SW near the top of the address space).
  std::unique_ptr<Engine> engine = make_engine(
      GetParam(), rv32::decode(rv32::assemble_rv32("li a0, -2\nsw a1, 0(a0)\nebreak\n")));
  try {
    static_cast<void>(engine->run({}));
    FAIL() << "expected Rv32SimError";
  } catch (const rv32::Rv32SimError& e) {
    EXPECT_NE(std::string(e.what()).find("4294967294"), std::string::npos) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Rv32Kinds, Rv32EngineConformance,
                         ::testing::ValuesIn(rv32_engine_kinds()),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(engine_kind_name(info.param));
                         });

// --- facade plumbing ---------------------------------------------------------

TEST(Engine, KindNamesRoundTrip) {
  for (EngineKind kind : all_engine_kinds()) {
    EXPECT_EQ(parse_engine_kind(engine_kind_name(kind)), kind);
  }
  EXPECT_EQ(parse_engine_kind("no-such-engine"), std::nullopt);
}

TEST(Engine, NullImageThrows) {
  EXPECT_THROW(
      static_cast<void>(make_engine(EngineKind::kPacked, std::shared_ptr<const DecodedImage>{})),
      std::invalid_argument);
  EXPECT_THROW(static_cast<void>(make_engine(EngineKind::kRv32,
                                             std::shared_ptr<const rv32::Rv32DecodedImage>{})),
               std::invalid_argument);
}

TEST(Engine, KindMustMatchImageIsa) {
  const std::shared_ptr<const DecodedImage> art9_image = decode(isa::assemble("HALT\n"));
  const std::shared_ptr<const rv32::Rv32DecodedImage> rv32_image =
      rv32::decode(rv32::assemble_rv32("ebreak\n"));
  EXPECT_THROW(static_cast<void>(make_engine(EngineKind::kRv32, art9_image)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(make_engine(EngineKind::kPacked, rv32_image)),
               std::invalid_argument);
  // The EngineImage variant dispatches on the alternative.
  EXPECT_EQ(make_engine(EngineKind::kRv32, EngineImage{rv32_image})->kind(), EngineKind::kRv32);
  EXPECT_EQ(make_engine(EngineKind::kPacked, EngineImage{art9_image})->kind(),
            EngineKind::kPacked);
}

}  // namespace
}  // namespace art9::sim

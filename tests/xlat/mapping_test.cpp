// Instruction mapping: every supported rv32 construct translates to an
// ART-9 program with identical observable behaviour; unsupported ones
// raise TranslationError with the documented contract message.
#include "xlat/mapping.hpp"

#include <gtest/gtest.h>

#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_sim.hpp"
#include "sim/functional_sim.hpp"
#include "xlat/framework.hpp"

namespace art9::xlat {
namespace {

/// Runs `source` on both ISAs and returns (rv32 sim, art9 sim, result).
struct RunPair {
  rv32::Rv32Simulator rv;
  sim::FunctionalSimulator t9;
  TranslationResult xlat;
};

RunPair run_both(const std::string& source) {
  const rv32::Rv32Program rp = rv32::assemble_rv32(source);
  SoftwareFramework framework;
  TranslationResult result = framework.translate(rp);
  RunPair pair{rv32::Rv32Simulator(rp), sim::FunctionalSimulator(result.program),
               std::move(result)};
  EXPECT_TRUE(pair.rv.run().halted);
  EXPECT_EQ(pair.t9.run().halt, sim::HaltReason::kHalted);
  return pair;
}

/// The translated value of rv32 register `reg`.
int64_t art9_value(const RunPair& pair, int reg) {
  const Location& loc = pair.xlat.location(reg);
  switch (loc.kind) {
    case Location::Kind::kZero:
      return 0;
    case Location::Kind::kReg:
    case Location::Kind::kLink:
      return pair.t9.reg_int(loc.reg);
    case Location::Kind::kSpill:
      return pair.t9.state().tdm.peek(loc.slot).to_int();
  }
  return 0;
}

void expect_reg(const RunPair& pair, int reg) {
  EXPECT_EQ(art9_value(pair, reg), static_cast<int32_t>(pair.rv.reg(reg)))
      << "rv32 register x" << reg;
}

TEST(Mapping, AddSubChains) {
  auto pair = run_both(R"(
    li   a0, 1200
    li   a1, -345
    add  a2, a0, a1
    sub  a3, a0, a1
    add  a0, a0, a0
    sub  a1, a1, a0     ; rd == rs1
    ebreak
)");
  for (int r : {10, 11, 12, 13}) expect_reg(pair, r);
}

TEST(Mapping, RdAliasesRs2NonCommutative) {
  auto pair = run_both(R"(
    li   a0, 100
    li   a1, 33
    sub  a1, a0, a1     ; rd == rs2: needs the scratch path
    ebreak
)");
  expect_reg(pair, 11);
  EXPECT_EQ(art9_value(pair, 11), 67);
}

TEST(Mapping, NegViaSti) {
  auto pair = run_both("li a0, 4321\nsub a1, zero, a0\nebreak\n");
  EXPECT_EQ(art9_value(pair, 11), -4321);
}

TEST(Mapping, BooleanLogic) {
  auto pair = run_both(R"(
    li   a0, 1
    li   a1, 0
    and  a2, a0, a1
    or   a3, a0, a1
    xor  a4, a0, a1
    xor  a5, a0, a0
    andi t0, a0, 1
    ori  t1, a1, 0
    ebreak
)");
  for (int r : {12, 13, 14, 15, 5, 6}) expect_reg(pair, r);
}

TEST(Mapping, NonBooleanMaskRejected) {
  const auto program = rv32::assemble_rv32("andi a0, a0, 255\nebreak\n");
  SoftwareFramework framework;
  EXPECT_THROW((void)framework.translate(program), TranslationError);
}

TEST(Mapping, SetLessThan) {
  auto pair = run_both(R"(
    li   a0, -5
    li   a1, 3
    slt  a2, a0, a1
    slt  a3, a1, a0
    slt  a4, a0, a0
    slti a5, a1, 100
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 12), 1);
  EXPECT_EQ(art9_value(pair, 13), 0);
  EXPECT_EQ(art9_value(pair, 14), 0);
  EXPECT_EQ(art9_value(pair, 15), 1);
}

TEST(Mapping, ShiftLeftStrengthReduction) {
  auto pair = run_both(R"(
    li   a0, 17
    slli a1, a0, 1
    slli a2, a0, 3
    slli a3, a0, 0
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 11), 34);
  EXPECT_EQ(art9_value(pair, 12), 136);
  EXPECT_EQ(art9_value(pair, 13), 17);
}

TEST(Mapping, RightShiftRejected) {
  SoftwareFramework framework;
  EXPECT_THROW((void)framework.translate(rv32::assemble_rv32("srli a0, a0, 1\nebreak\n")),
               TranslationError);
  EXPECT_THROW((void)framework.translate(rv32::assemble_rv32("srai a0, a0, 1\nebreak\n")),
               TranslationError);
  EXPECT_THROW((void)framework.translate(rv32::assemble_rv32("sll a0, a0, a1\nebreak\n")),
               TranslationError);
}

TEST(Mapping, ByteAccessRejected) {
  SoftwareFramework framework;
  EXPECT_THROW((void)framework.translate(rv32::assemble_rv32("lb a0, 0(a1)\nebreak\n")),
               TranslationError);
  EXPECT_THROW((void)framework.translate(rv32::assemble_rv32("sb a0, 0(a1)\nebreak\n")),
               TranslationError);
}

TEST(Mapping, DivAndRemViaRuntimeRoutine) {
  auto pair = run_both(R"(
    li   a0, 252
    li   a1, 10
    div  a2, a0, a1
    rem  a3, a0, a1
    li   a4, -252
    div  a5, a4, a1
    rem  t0, a4, a1
    li   t1, -10
    div  t2, a0, t1
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 12), 25);
  EXPECT_EQ(art9_value(pair, 13), 2);
  EXPECT_EQ(art9_value(pair, 15), -25);   // truncation toward zero
  EXPECT_EQ(art9_value(pair, 5), -2);     // remainder follows the dividend
  EXPECT_EQ(art9_value(pair, 7), -25);
  EXPECT_EQ(pair.xlat.program.symbols.count("__divmod"), 1u);
  for (int r : {12, 13, 15, 5, 7}) expect_reg(pair, r);
}

TEST(Mapping, DivisionByZeroMatchesRiscv) {
  auto pair = run_both(R"(
    li   a0, 77
    li   a1, 0
    div  a2, a0, a1     ; -> -1
    rem  a3, a0, a1     ; -> dividend
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 12), -1);
  EXPECT_EQ(art9_value(pair, 13), 77);
  for (int r : {12, 13}) expect_reg(pair, r);
}

TEST(Mapping, DivisionEdgeCases) {
  auto pair = run_both(R"(
    li   a0, 9841       ; full-range dividend
    li   a1, 1
    div  a2, a0, a1
    li   a1, 9841       ; huge divisor path
    div  a3, a0, a1
    rem  a4, a0, a1
    li   a0, 5000
    li   a1, 4000       ; huge-divisor path with quotient 1
    div  a5, a0, a1
    rem  t0, a0, a1
    li   a0, 3
    li   a1, 100        ; |b| > |a|
    div  t1, a0, a1
    rem  t2, a0, a1
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 12), 9841);
  EXPECT_EQ(art9_value(pair, 13), 1);
  EXPECT_EQ(art9_value(pair, 14), 0);
  EXPECT_EQ(art9_value(pair, 15), 1);
  EXPECT_EQ(art9_value(pair, 5), 1000);
  EXPECT_EQ(art9_value(pair, 6), 0);
  EXPECT_EQ(art9_value(pair, 7), 3);
}

TEST(Mapping, Branches) {
  auto pair = run_both(R"(
    li   a0, 5
    li   a1, 9
    li   a2, 0
    blt  a0, a1, less
    li   a2, 111
less:
    bge  a1, a0, done
    li   a2, 222
done:
    beq  a0, a0, eq
    li   a2, 333
eq:
    bne  a0, a1, neq
    li   a2, 444
neq:
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 12), 0);
}

TEST(Mapping, LoopSum) {
  auto pair = run_both(R"(
    li   a0, 0
    li   a1, 1
loop:
    add  a0, a0, a1
    addi a1, a1, 1
    li   t0, 50
    ble  a1, t0, loop
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 10), 1275);
}

TEST(Mapping, LoadStoreWordGranular) {
  auto pair = run_both(R"(
.data
.org 40
vals: .word 77, -88, 99
.text
    li   a0, 40
    lw   a1, 0(a0)
    lw   a2, 4(a0)
    add  a3, a1, a2
    sw   a3, 8(a0)
    lw   a4, 8(a0)
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 13), -11);
  EXPECT_EQ(art9_value(pair, 14), -11);
  // The data layout maps rv32 byte address A to TDM word address A.
  EXPECT_EQ(pair.t9.state().tdm.peek(48).to_int(), -11);
  EXPECT_EQ(pair.rv.load_word(48), static_cast<uint32_t>(-11));
}

TEST(Mapping, WideMemoryOffsets) {
  auto pair = run_both(R"(
    li   a0, 0
    li   a1, 4242
    sw   a1, 800(a0)    ; offset exceeds the 3-trit immediate
    lw   a2, 800(a0)
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 12), 4242);
}

TEST(Mapping, MulViaRuntimeRoutine) {
  auto pair = run_both(R"(
    li   a0, 123
    li   a1, -45
    mul  a2, a0, a1
    li   a3, 7
    mul  a3, a3, a3
    ebreak
)");
  EXPECT_EQ(art9_value(pair, 12), -5535);
  EXPECT_EQ(art9_value(pair, 13), 49);
  EXPECT_EQ(pair.xlat.program.symbols.count("__mul"), 1u);
}

TEST(Mapping, CallAndReturn) {
  auto pair = run_both(R"(
    li   a0, 5
    call double_it
    call double_it
    ebreak
double_it:
    add  a0, a0, a0
    ret
)");
  EXPECT_EQ(art9_value(pair, 10), 20);
}

TEST(Mapping, MulInsideCallPreservesRa) {
  auto pair = run_both(R"(
    li   a0, 6
    call square
    addi a0, a0, 1
    ebreak
square:
    mul  a0, a0, a0
    ret
)");
  EXPECT_EQ(art9_value(pair, 10), 37);
}

TEST(Mapping, SpilledRegistersWork) {
  // Nine live registers force several into TDM spill slots.
  auto pair = run_both(R"(
    li a0, 1
    li a1, 2
    li a2, 3
    li a3, 4
    li a4, 5
    li a5, 6
    li t0, 7
    li t1, 8
    li t2, 9
    add a0, a0, t2
    add a1, a1, t1
    add a2, a2, t0
    add a3, a3, a5
    add a4, a4, a4
    ebreak
)");
  EXPECT_GT(pair.xlat.stats.spilled_registers, 0u);
  EXPECT_EQ(art9_value(pair, 10), 10);
  EXPECT_EQ(art9_value(pair, 11), 10);
  EXPECT_EQ(art9_value(pair, 12), 10);
  EXPECT_EQ(art9_value(pair, 13), 10);
  EXPECT_EQ(art9_value(pair, 14), 10);
  for (int r : {15, 5, 6, 7}) expect_reg(pair, r);
}

TEST(Mapping, LuiSmallValues) {
  auto pair = run_both("lui a0, 2\nlui a1, -1\nebreak\n");
  EXPECT_EQ(art9_value(pair, 10), 8192);
  EXPECT_EQ(art9_value(pair, 11), -4096);
}

TEST(Mapping, LuiOutOfRangeRejected) {
  SoftwareFramework framework;
  EXPECT_THROW((void)framework.translate(rv32::assemble_rv32("lui a0, 3\nebreak\n")),
               TranslationError);
}

TEST(Mapping, DataOutOfRangeRejected) {
  SoftwareFramework framework;
  EXPECT_THROW(
      (void)framework.translate(rv32::assemble_rv32(".data\n.word 10000\n.text\nebreak\n")),
      TranslationError);
  // Word A lands at balanced address A: 9840 is the last word that fits.
  EXPECT_NO_THROW((void)framework.translate(
      rv32::assemble_rv32(".data\n.org 9840\nv: .word 5\n.text\nebreak\n")));
  try {
    (void)framework.translate(
        rv32::assemble_rv32(".data\n.org 40000\nv: .word 5\n.text\nebreak\n"));
    FAIL() << "out-of-range data address must not translate";
  } catch (const TranslationError& e) {
    EXPECT_NE(std::string(e.what()).find("data word address 40000"), std::string::npos)
        << e.what();
  }
}

TEST(Mapping, StatsAreFilled) {
  auto pair = run_both("li a0, 5\nadd a0, a0, a0\nebreak\n");
  EXPECT_EQ(pair.xlat.stats.rv32_instructions, 3u);
  EXPECT_GT(pair.xlat.stats.final_instructions, 3u);
  EXPECT_GT(pair.xlat.stats.expansion_ratio(), 1.0);
}

}  // namespace
}  // namespace art9::xlat

// RV32 assembler + functional simulator semantics.
#include "rv32/rv32_sim.hpp"

#include <gtest/gtest.h>

#include "rv32/rv32_assembler.hpp"

namespace art9::rv32 {
namespace {

Rv32Simulator run(const std::string& source) {
  Rv32Simulator sim(assemble_rv32(source));
  const Rv32RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  return sim;
}

TEST(Rv32Sim, ArithmeticBasics) {
  auto sim = run(R"(
    li   a0, 100
    addi a1, a0, -30
    add  a2, a0, a1
    sub  a3, a0, a1
    slli a4, a1, 2
    ebreak
)");
  EXPECT_EQ(sim.reg(10), 100u);
  EXPECT_EQ(sim.reg(11), 70u);
  EXPECT_EQ(sim.reg(12), 170u);
  EXPECT_EQ(sim.reg(13), 30u);
  EXPECT_EQ(sim.reg(14), 280u);
}

TEST(Rv32Sim, X0IsHardwiredZero) {
  auto sim = run("addi zero, zero, 5\nadd a0, zero, zero\nebreak\n");
  EXPECT_EQ(sim.reg(0), 0u);
  EXPECT_EQ(sim.reg(10), 0u);
}

TEST(Rv32Sim, LogicAndShifts) {
  auto sim = run(R"(
    li   a0, 0x0F0
    li   a1, 0x0FF
    and  a2, a0, a1
    or   a3, a0, a1
    xor  a4, a0, a1
    srli a5, a1, 4
    li   t0, -16
    srai t1, t0, 2
    sra  t2, t0, a2  ; shift by (0xF0 & 31) = 16
    ebreak
)");
  EXPECT_EQ(sim.reg(12), 0x0F0u);
  EXPECT_EQ(sim.reg(13), 0x0FFu);
  EXPECT_EQ(sim.reg(14), 0x00Fu);
  EXPECT_EQ(sim.reg(15), 0x00Fu);
  EXPECT_EQ(sim.reg(6), static_cast<uint32_t>(-4));
  EXPECT_EQ(sim.reg(7), static_cast<uint32_t>(-1));
}

TEST(Rv32Sim, SetLessThan) {
  auto sim = run(R"(
    li   a0, -5
    li   a1, 3
    slt  a2, a0, a1
    sltu a3, a0, a1   ; -5 unsigned is huge
    slti a4, a1, 10
    sltiu a5, a1, 2
    ebreak
)");
  EXPECT_EQ(sim.reg(12), 1u);
  EXPECT_EQ(sim.reg(13), 0u);
  EXPECT_EQ(sim.reg(14), 1u);
  EXPECT_EQ(sim.reg(15), 0u);
}

TEST(Rv32Sim, BranchesAndLoop) {
  auto sim = run(R"(
    li   a0, 0       ; sum
    li   a1, 1       ; i
loop:
    add  a0, a0, a1
    addi a1, a1, 1
    li   t0, 11
    blt  a1, t0, loop
    ebreak
)");
  EXPECT_EQ(sim.reg(10), 55u);
}

TEST(Rv32Sim, MemoryAccess) {
  auto sim = run(R"(
.data
.org 64
vals: .word 123, -456
.text
    li   a0, 64
    lw   a1, 0(a0)
    lw   a2, 4(a0)
    add  a3, a1, a2
    sw   a3, 8(a0)
    lb   a4, 0(a0)   ; low byte of 123
    lbu  a5, 4(a0)   ; low byte of -456 = 0x38
    ebreak
)");
  EXPECT_EQ(sim.reg(11), 123u);
  EXPECT_EQ(static_cast<int32_t>(sim.reg(12)), -456);
  EXPECT_EQ(sim.load_word(72), static_cast<uint32_t>(-333));
  EXPECT_EQ(sim.reg(14), 123u);
  EXPECT_EQ(sim.reg(15), 0x38u);
}

TEST(Rv32Sim, CallAndReturn) {
  auto sim = run(R"(
    li   a0, 5
    call double_it
    mv   a1, a0
    ebreak
double_it:
    add  a0, a0, a0
    ret
)");
  EXPECT_EQ(sim.reg(11), 10u);
}

TEST(Rv32Sim, MulDivSemantics) {
  auto sim = run(R"(
    li   a0, -7
    li   a1, 3
    mul  a2, a0, a1
    div  a3, a0, a1
    rem  a4, a0, a1
    li   t0, 0
    div  a5, a0, t0    ; div by zero -> -1
    rem  a6, a0, t0    ; rem by zero -> dividend
    ebreak
)");
  EXPECT_EQ(static_cast<int32_t>(sim.reg(12)), -21);
  EXPECT_EQ(static_cast<int32_t>(sim.reg(13)), -2);
  EXPECT_EQ(static_cast<int32_t>(sim.reg(14)), -1);
  EXPECT_EQ(sim.reg(15), 0xFFFFFFFFu);
  EXPECT_EQ(static_cast<int32_t>(sim.reg(16)), -7);
}

TEST(Rv32Sim, MulhVariants) {
  auto sim = run(R"(
    li   a0, 0x10000
    li   a1, 0x10000
    mulhu a2, a0, a1
    mulh  a3, a0, a1
    ebreak
)");
  EXPECT_EQ(sim.reg(12), 1u);
  EXPECT_EQ(sim.reg(13), 1u);
}

TEST(Rv32Sim, PseudoInstructions) {
  auto sim = run(R"(
    li   a0, 100000     ; needs lui+addi
    li   a1, -1
    beqz zero, over
    li   a2, 1
over:
    bnez a1, over2
    li   a3, 1
over2:
    ebreak
)");
  EXPECT_EQ(sim.reg(10), 100000u);
  EXPECT_EQ(sim.reg(12), 0u);
  EXPECT_EQ(sim.reg(13), 0u);
}

TEST(Rv32Sim, ObserverStream) {
  LazyRv32Simulator sim(assemble_rv32("li a0, 3\nbeqz a0, skip\nli a1, 1\nskip: ebreak\n"));
  std::vector<Rv32Retired> trace;
  const Rv32RunStats stats = sim.run(1000, [&](const Rv32Retired& r) { trace.push_back(r); });
  EXPECT_TRUE(stats.halted);
  ASSERT_EQ(trace.size(), 4u);  // includes the ebreak
  EXPECT_EQ(trace[0].inst.op, Rv32Op::kAddi);
  EXPECT_EQ(trace[1].inst.op, Rv32Op::kBeq);
  EXPECT_FALSE(trace[1].taken);
  EXPECT_EQ(trace[3].inst.op, Rv32Op::kEbreak);
}

TEST(Rv32Sim, FetchOutsideProgramThrows) {
  Rv32Simulator sim(assemble_rv32("nop\n"));
  sim.step();
  EXPECT_THROW(sim.step(), Rv32SimError);
}

TEST(Rv32Sim, LazyBaselineMatchesPreDecoded) {
  const Rv32Program program = assemble_rv32(R"(
    li   a0, 0
    li   a1, 1
loop:
    add  a0, a0, a1
    addi a1, a1, 1
    li   t0, 11
    blt  a1, t0, loop
    ebreak
)");
  Rv32Simulator predecoded(program);
  LazyRv32Simulator lazy(program);
  EXPECT_EQ(predecoded.run(), lazy.run());
  EXPECT_EQ(predecoded.state(), lazy.state());
  EXPECT_EQ(predecoded.reg(10), 55u);
}

// Regression: out-of-range data traffic must raise Rv32SimError naming
// the faulting address — including addresses whose `address + size`
// wraps uint32_t, which the seed's SH/SW checks missed (a store at
// 0xFFFFFFFE wrapped past the bounds test straight into ram_[huge]).
TEST(Rv32Sim, OutOfRangeAccessRaisesWithFaultingAddress) {
  const auto expect_oob = [](const std::string& source) {
    SCOPED_TRACE(source);
    // Both loops share the bounds logic; check them independently.
    Rv32Simulator predecoded(assemble_rv32(source));
    EXPECT_THROW(static_cast<void>(predecoded.run()), Rv32SimError);
    LazyRv32Simulator lazy(assemble_rv32(source));
    EXPECT_THROW(static_cast<void>(lazy.run()), Rv32SimError);
  };
  expect_oob("li a0, -2\nsw a1, 0(a0)\nebreak\n");   // wraps address + 4
  expect_oob("li a0, -1\nsh a1, 0(a0)\nebreak\n");   // wraps address + 2
  expect_oob("li a0, -1\nsb a1, 0(a0)\nebreak\n");
  expect_oob("li a0, -2\nlw a1, 0(a0)\nebreak\n");
  expect_oob("li a0, -1\nlbu a1, 0(a0)\nebreak\n");
  expect_oob("lui a0, 1024\nlw a1, 0(a0)\nebreak\n");  // just past 1 MiB

  try {
    Rv32Simulator sim(assemble_rv32("li a0, -2\nsw a1, 0(a0)\nebreak\n"));
    static_cast<void>(sim.run());
    FAIL() << "expected Rv32SimError";
  } catch (const Rv32SimError& e) {
    EXPECT_NE(std::string(e.what()).find("4294967294"), std::string::npos) << e.what();
  }
}

TEST(Rv32Sim, DirectAccessorsBoundsChecked) {
  Rv32Simulator sim(assemble_rv32("nop\n"));
  EXPECT_THROW(static_cast<void>(sim.load_word(0xFFFFFFFCu)), Rv32SimError);
  EXPECT_THROW(static_cast<void>(sim.load_byte(0xFFFFFFFFu)), Rv32SimError);
  EXPECT_THROW(sim.store_word(0xFFFFFFFEu, 1), Rv32SimError);
  EXPECT_THROW(sim.store_word((1u << 20) - 2, 1), Rv32SimError);  // straddles the end
  sim.store_word((1u << 20) - 4, 0xAABBCCDDu);                    // last full word is fine
  EXPECT_EQ(sim.load_word((1u << 20) - 4), 0xAABBCCDDu);
}

TEST(Rv32AsmErrors, Diagnostics) {
  EXPECT_THROW(assemble_rv32("bogus a0, a1\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("addi a0, a1, 5000\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("beq a0, a1, nowhere\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("lw a0, 0(q9)\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32(".data\nadd a0, a0, a0\n"), Rv32AsmError);
  // Immediates and offsets wider than 32 bits.
  EXPECT_THROW(assemble_rv32("addi a0, a0, 4294967301\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("beq a0, a1, 4294967304\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("lw a0, 4294967300(a1)\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("li a0, 4294967296\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("li a0, 99999999999999999999\n"), Rv32AsmError);
  // Missing operands.
  EXPECT_THROW(assemble_rv32("li a0\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32(".org\n"), Rv32AsmError);
  // Data words and their addresses fit in 32 bits.
  EXPECT_THROW(assemble_rv32(".data\n.word 0x1ffffffff\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32(".data\n.org 0x100000004\n.word 1\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32(".data\n.org 0xfffffffc\n.zero 2\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32(".data\n.org -8\n.word 1\n"), Rv32AsmError);
  // Register names: x and one or two digits, x0..x31.
  EXPECT_THROW(assemble_rv32("addi x1a, x0, 1\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("addi a0, x2z, 1\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("addi x32, x0, 1\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("addi a0, x99999999999, 1\n"), Rv32AsmError);
  EXPECT_THROW(assemble_rv32("lw a0, 0(x40)\n"), Rv32AsmError);

  // A `li` of a constant defined below it keeps the lui+addi pair pass 1
  // reserved, so the label after it names the ebreak.
  const Rv32Program p = assemble_rv32("li a0, K\nj end\nnop\n.equ K, 5\nend: ebreak\n");
  ASSERT_EQ(p.code.size(), 5u);
  EXPECT_EQ(p.symbol("end"), 16);
  EXPECT_EQ(p.code[4].op, Rv32Op::kEbreak);
  EXPECT_EQ(p.code[2].imm, 8);  // j end, from byte 8
}

}  // namespace
}  // namespace art9::rv32

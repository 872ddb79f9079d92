// ART-9 assembler: syntax, labels, directives, pseudo-instructions and
// diagnostics.
#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include "isa/encoding.hpp"

namespace art9::isa {
namespace {

using ternary::kTritN;
using ternary::kTritZ;
using ternary::Word9;

TEST(Assembler, BasicProgram) {
  const Program p = assemble(R"(
; comment
    LI   T1, 5
    ADDI T1, 3       # another comment
    ADD  T1, T1
    HALT
)");
  ASSERT_EQ(p.code.size(), 4u);
  EXPECT_EQ(p.code[0], (Instruction{Opcode::kLi, 1, 0, kTritZ, 5}));
  EXPECT_EQ(p.code[1], (Instruction{Opcode::kAddi, 1, 0, kTritZ, 3}));
  EXPECT_EQ(p.code[2], (Instruction{Opcode::kAdd, 1, 1, kTritZ, 0}));
  EXPECT_EQ(p.code[3], Instruction::halt());
  EXPECT_EQ(p.entry, 0);
  EXPECT_EQ(p.image.size(), 4u);
  EXPECT_EQ(decode(p.image[0]), p.code[0]);
}

TEST(Assembler, AllFormats) {
  const Program p = assemble(R"(
    MV   T0, T1
    STI  T2, T3
    COMP T4, T5
    ANDI T6, -13
    SRI  T7, 8
    SLI  T8, 0
    LUI  T0, -40
    LI   T1, 121
    BEQ  T2, +, 3
    BNE  T3, -, -5
    JAL  T4, 10
    JALR T5, T6, -2
    LOAD T7, 13(T8)
    STORE T0, T1, -13
)");
  EXPECT_EQ(p.code.size(), 14u);
  EXPECT_EQ(p.code[8].bcond, ternary::kTritP);
  EXPECT_EQ(p.code[9].bcond, kTritN);
  EXPECT_EQ(p.code[12].imm, 13);
  EXPECT_EQ(p.code[12].tb, 8);
  EXPECT_EQ(p.code[13].imm, -13);
}

TEST(Assembler, LabelsAndBranchOffsets) {
  const Program p = assemble(R"(
start:
    ADDI T1, 1
loop:
    ADDI T1, -1
    COMP T2, T1
    BNE  T2, 0, loop
    JAL  T0, start
    HALT
end:
)");
  EXPECT_EQ(p.symbol("start"), 0);
  EXPECT_EQ(p.symbol("loop"), 1);
  EXPECT_EQ(p.symbol("end"), 6);
  // BNE at address 3 targeting 1 -> offset -2.
  EXPECT_EQ(p.code[3].imm, -2);
  // JAL at address 4 targeting 0 -> offset -4.
  EXPECT_EQ(p.code[4].imm, -4);
}

TEST(Assembler, EquAndExpressions) {
  const Program p = assemble(R"(
.equ N, 10
.equ TWO_N, N*2
    ADDI T1, N
    ADDI T2, TWO_N - N - 10 + 3
    ADDI T3, (N - 4) * 2
)");
  EXPECT_EQ(p.code[0].imm, 10);
  EXPECT_EQ(p.code[1].imm, 3);
  EXPECT_EQ(p.code[2].imm, 12);
}

TEST(Assembler, DataSection) {
  const Program p = assemble(R"(
.data
.org 100
table: .word 1, -2, 3
       .zero 2
value: .word 9841
.text
    LIMM T1, table
    LOAD T2, 0(T1)
    HALT
)");
  ASSERT_EQ(p.data.size(), 6u);
  EXPECT_EQ(p.data[0].address, 100);
  EXPECT_EQ(p.data[0].value.to_int(), 1);
  EXPECT_EQ(p.data[1].value.to_int(), -2);
  EXPECT_EQ(p.data[3].address, 103);
  EXPECT_TRUE(p.data[3].value.is_zero());
  EXPECT_EQ(p.symbol("value"), 105);
  EXPECT_EQ(p.data[5].value.to_int(), 9841);
}

TEST(Assembler, LimmExpansion) {
  const Program p = assemble(R"(
    LIMM T3, 1234
    LIMM T4, -9841
    LIMM T5, 0
)");
  ASSERT_EQ(p.code.size(), 6u);
  // Each LIMM is LUI hi ; LI lo with value = hi*243 + lo.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(p.code[static_cast<std::size_t>(2 * i)].op, Opcode::kLui);
    EXPECT_EQ(p.code[static_cast<std::size_t>(2 * i + 1)].op, Opcode::kLi);
  }
  EXPECT_EQ(p.code[0].imm * 243 + p.code[1].imm, 1234);
  EXPECT_EQ(p.code[2].imm * 243 + p.code[3].imm, -9841);
  EXPECT_EQ(p.code[4].imm * 243 + p.code[5].imm, 0);
}

TEST(Assembler, PseudoInstructions) {
  const Program p = assemble("NOP\nHALT\n");
  EXPECT_EQ(p.code[0], Instruction::nop());
  EXPECT_EQ(p.code[1], Instruction::halt());
}

TEST(Assembler, OrgSetsEntry) {
  const Program p = assemble(R"(
.org 50
main:
    NOP
    HALT
)");
  EXPECT_EQ(p.entry, 50);
  EXPECT_EQ(p.symbol("main"), 50);
}

TEST(Assembler, BranchTargetAcrossLimm) {
  // Pass-1 sizing must account for LIMM's two words.
  const Program p = assemble(R"(
    BEQ T1, 0, after
    LIMM T2, 500
after:
    HALT
)");
  EXPECT_EQ(p.symbol("after"), 3);
  EXPECT_EQ(p.code[0].imm, 3);
}

TEST(Assembler, MemOperandForms) {
  const Program a = assemble("LOAD T1, 5(T2)\n");
  const Program b = assemble("LOAD T1, T2, 5\n");
  EXPECT_EQ(a.code[0], b.code[0]);
  const Program c = assemble("STORE T3, (T4)\n");
  EXPECT_EQ(c.code[0].imm, 0);
}

TEST(AssemblerErrors, Diagnostics) {
  EXPECT_THROW(assemble("BOGUS T1, T2\n"), AsmError);
  EXPECT_THROW(assemble("ADD T9, T1\n"), AsmError);
  EXPECT_THROW(assemble("ADDI T1, 99\n"), AsmError);          // imm3 range
  EXPECT_THROW(assemble("LUI T1, 41\n"), AsmError);           // imm4 range
  EXPECT_THROW(assemble("BEQ T1, 0, nowhere\n"), AsmError);   // undefined label
  EXPECT_THROW(assemble("x: NOP\nx: NOP\n"), AsmError);       // duplicate label
  EXPECT_THROW(assemble("ADD T1\n"), AsmError);               // operand count
  EXPECT_THROW(assemble(".data\nADD T1, T2\n"), AsmError);    // code in .data
  EXPECT_THROW(assemble(".word 5\n"), AsmError);              // .word in .text
  EXPECT_THROW(assemble(".bogus 1\n"), AsmError);             // unknown directive
  EXPECT_THROW(assemble("NOP\n.org 10\nNOP\n"), AsmError);    // .org after code
  EXPECT_THROW(assemble("LIMM T1, 10000\n"), AsmError);       // out of word range
  EXPECT_THROW(assemble("ADDI T1, UNDEF\n"), AsmError);       // undefined symbol
  EXPECT_THROW(assemble("ADDI T1, 4294967301\n"), AsmError);  // wider than 32 bits
  EXPECT_THROW(assemble("BEQ T1, 0, 4294967297\n"), AsmError);
  EXPECT_THROW(assemble("LOAD T1, 4294967297(T2)\n"), AsmError);
  EXPECT_THROW(assemble("LOAD\n"), AsmError);                  // no operands
  EXPECT_THROW(assemble("STORE\n"), AsmError);
  EXPECT_THROW(assemble(".data\n.zero 20000\n"), AsmError);   // past the TDM
  EXPECT_THROW(assemble(".data\n.org 9841\n.word 1, 2\n"), AsmError);
}

TEST(AssemblerErrors, LineNumbers) {
  try {
    (void)assemble("NOP\nNOP\nBOGUS\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Assembler, MemoryCellAccounting) {
  const Program p = assemble(R"(
    NOP
    NOP
    HALT
.data
.word 1, 2
)");
  // 3 instructions + 2 data words, 9 trits each (Fig. 5 accounting).
  EXPECT_EQ(p.memory_cells(), 45);
  EXPECT_EQ(p.code_trits(), 27);
}

}  // namespace
}  // namespace art9::isa

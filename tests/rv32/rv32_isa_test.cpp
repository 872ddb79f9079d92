// RV32 ISA model: encode/decode round-trips against the standard formats.
#include "rv32/rv32_isa.hpp"

#include <gtest/gtest.h>

#include <random>

namespace art9::rv32 {
namespace {

TEST(Rv32Isa, InstructionCountsMatchTableII) {
  EXPECT_EQ(kNumRv32IOps, 40);  // VexRiscv row
  EXPECT_EQ(kNumRv32Ops, 48);   // PicoRV32 row (RV32IM)
}

TEST(Rv32Isa, KnownEncodings) {
  // Cross-checked against the RISC-V spec examples.
  EXPECT_EQ(encode({Rv32Op::kAddi, 1, 0, 0, 0}), 0x00000093u);   // addi ra, zero, 0
  EXPECT_EQ(encode({Rv32Op::kAdd, 3, 1, 2, 0}), 0x002081B3u);    // add gp, ra, sp
  EXPECT_EQ(encode({Rv32Op::kLui, 5, 0, 0, 1}), 0x000012B7u);    // lui t0, 1
  EXPECT_EQ(encode({Rv32Op::kEbreak, 0, 0, 0, 0}), 0x00100073u);
  EXPECT_EQ(encode({Rv32Op::kEcall, 0, 0, 0, 0}), 0x00000073u);
  EXPECT_EQ(encode({Rv32Op::kLw, 6, 7, 0, 8}), 0x0083A303u);     // lw t1, 8(t2)
  EXPECT_EQ(encode({Rv32Op::kSw, 0, 2, 8, 12}), 0x00812623u);    // sw s0, 12(sp)
  EXPECT_EQ(encode({Rv32Op::kMul, 10, 11, 12, 0}), 0x02C58533u); // mul a0, a1, a2
}

class Rv32RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Rv32RoundTrip, EncodeDecodeIsIdentity) {
  const auto op = static_cast<Rv32Op>(GetParam());
  const Rv32Spec& s = spec(op);
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) + 1);
  std::uniform_int_distribution<int> reg(0, 31);
  for (int i = 0; i < 300; ++i) {
    Rv32Instruction inst;
    inst.op = op;
    switch (s.format) {
      case Rv32Format::kR:
        inst.rd = reg(rng);
        inst.rs1 = reg(rng);
        inst.rs2 = reg(rng);
        break;
      case Rv32Format::kI:
        inst.rd = reg(rng);
        inst.rs1 = reg(rng);
        inst.imm = std::uniform_int_distribution<int>(-2048, 2047)(rng);
        break;
      case Rv32Format::kIShift:
        inst.rd = reg(rng);
        inst.rs1 = reg(rng);
        inst.imm = std::uniform_int_distribution<int>(0, 31)(rng);
        break;
      case Rv32Format::kS:
        inst.rs1 = reg(rng);
        inst.rs2 = reg(rng);
        inst.imm = std::uniform_int_distribution<int>(-2048, 2047)(rng);
        break;
      case Rv32Format::kB:
        inst.rs1 = reg(rng);
        inst.rs2 = reg(rng);
        inst.imm = std::uniform_int_distribution<int>(-2048, 2047)(rng) * 2;
        break;
      case Rv32Format::kU:
        inst.rd = reg(rng);
        inst.imm = std::uniform_int_distribution<int>(-524288, 524287)(rng);
        break;
      case Rv32Format::kJ:
        inst.rd = reg(rng);
        inst.imm = std::uniform_int_distribution<int>(-524288, 524287)(rng) * 2;
        break;
      case Rv32Format::kSystem:
        break;
    }
    EXPECT_EQ(decode(encode(inst)), inst) << to_string(inst);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, Rv32RoundTrip, ::testing::Range(0, kNumRv32Ops),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::string(mnemonic(static_cast<Rv32Op>(param_info.param)));
                         });

TEST(Rv32Isa, EncodingRangeChecks) {
  EXPECT_THROW((void)encode({Rv32Op::kAddi, 0, 0, 0, 2048}), std::out_of_range);
  EXPECT_THROW((void)encode({Rv32Op::kSlli, 0, 0, 0, 32}), std::out_of_range);
  EXPECT_THROW((void)encode({Rv32Op::kBeq, 0, 0, 0, 3}), std::out_of_range);  // odd offset
  EXPECT_THROW((void)encode({Rv32Op::kAdd, 32, 0, 0, 0}), std::out_of_range);
}

TEST(Rv32Isa, DecodeRejectsUndefined) {
  EXPECT_THROW((void)decode(0xFFFFFFFFu), std::invalid_argument);
  EXPECT_THROW((void)decode(0x00000000u), std::invalid_argument);
}

TEST(Rv32Isa, RegisterNames) {
  EXPECT_EQ(abi_name(0), "zero");
  EXPECT_EQ(abi_name(2), "sp");
  EXPECT_EQ(abi_name(10), "a0");
  EXPECT_EQ(parse_rv32_register("x31"), 31);
  EXPECT_EQ(parse_rv32_register("t6"), 31);
  EXPECT_EQ(parse_rv32_register("fp"), 8);
  EXPECT_EQ(parse_rv32_register("s0"), 8);
  EXPECT_THROW((void)parse_rv32_register("q1"), std::invalid_argument);
  EXPECT_THROW((void)parse_rv32_register("x32"), std::out_of_range);
  EXPECT_THROW((void)parse_rv32_register("x1a"), std::invalid_argument);
  EXPECT_THROW((void)parse_rv32_register("x2z"), std::invalid_argument);
  EXPECT_THROW((void)parse_rv32_register("x99999999999"), std::invalid_argument);
}

TEST(Rv32Isa, MnemonicLookup) {
  EXPECT_EQ(rv32_op_from_mnemonic("ADD"), Rv32Op::kAdd);
  EXPECT_EQ(rv32_op_from_mnemonic("bltu"), Rv32Op::kBltu);
  EXPECT_THROW((void)rv32_op_from_mnemonic("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace art9::rv32

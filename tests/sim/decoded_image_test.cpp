// DecodedImage: the eager pre-decode contract — one dispatch row per TIM
// address, precomputed PC chains that wrap like the PC register, the halt
// fold, the operand word in both encodings, the source instructions on the
// cold side, and load-time rejection of malformed immediates.  The ART-9
// twin of tests/rv32/rv32_decoded_image_test.cpp.
#include "sim/decoded_image.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "sim/machine.hpp"

namespace art9::sim {
namespace {

using isa::Instruction;
using isa::Opcode;
using ternary::kTritN;
using ternary::kTritP;
using ternary::kTritZ;
using ternary::Word9;

constexpr int64_t kMax = Word9::kMaxValue;  // 9841

static_assert(sizeof(PackedOp) <= 32, "one dispatch row must stay within 32 bytes");

/// Code from pc 9840 on, so it wraps from the last row to the first:
///   9840  ADDI T1, 3
///   9841  ANDI T2, -4
///  -9841  LUI  T3, 7
///  -9840  LI   T3, -20
///  -9839  BEQ  T1, +, 2     -> -9837
///  -9838  BNE  T1, -, -1    -> -9839
///  -9837  JAL  T4, 2        -> -9835, link -9836
///  -9836  JALR T5, T4, 1    link -9835
///  -9835  JAL  T0, 0        (HALT)
isa::Program wrapping_program() {
  isa::Program program;
  program.entry = kMax - 1;
  program.code = {
      Instruction{Opcode::kAddi, 1, 0, kTritZ, 3},  Instruction{Opcode::kAndi, 2, 0, kTritZ, -4},
      Instruction{Opcode::kLui, 3, 0, kTritZ, 7},   Instruction{Opcode::kLi, 3, 0, kTritZ, -20},
      Instruction{Opcode::kBeq, 0, 1, kTritP, 2},   Instruction{Opcode::kBne, 0, 1, kTritN, -1},
      Instruction{Opcode::kJal, 4, 0, kTritZ, 2},   Instruction{Opcode::kJalr, 5, 4, kTritZ, 1},
      Instruction::halt(),
  };
  return program;
}

const PackedOp& at(const DecodedImage& image, int64_t pc) { return image.fetch(pc); }

TEST(DecodedImage, OneRowPerTimAddress) {
  const std::shared_ptr<const DecodedImage> image = decode(wrapping_program());
  EXPECT_EQ(image->rows(), static_cast<std::size_t>(TernaryMemory::kRows));
  EXPECT_EQ(image->rows_data(), &image->row(0));
  for (int64_t pc : {-kMax, int64_t{0}, kMax}) {
    EXPECT_EQ(&image->fetch(pc), &image->row(DecodedImage::row_of(pc))) << pc;
    EXPECT_EQ(image->fetch(pc).pc, pc);
  }
}

TEST(DecodedImage, PcChainWrapsLikeThePcRegister) {
  const std::shared_ptr<const DecodedImage> image = decode(wrapping_program());
  const PackedOp& last = at(*image, kMax);
  EXPECT_EQ(last.kind, DispatchKind::kAndi);
  EXPECT_EQ(last.next_pc, -kMax);
  EXPECT_EQ(last.next_row, 0u);
  EXPECT_EQ(image->row(0).pc, -kMax);
  EXPECT_EQ(image->row(0).kind, DispatchKind::kLui);

  const PackedOp& first = at(*image, kMax - 1);
  EXPECT_EQ(first.next_pc, kMax);
  EXPECT_EQ(first.next_row, DecodedImage::row_of(kMax));
}

TEST(DecodedImage, HaltFoldsAndStaticTargetsArePrecomputed) {
  const std::shared_ptr<const DecodedImage> image = decode(wrapping_program());
  EXPECT_EQ(at(*image, -9835).kind, DispatchKind::kHalt);

  const PackedOp& beq = at(*image, -9839);
  EXPECT_EQ(beq.kind, DispatchKind::kBeq);
  EXPECT_EQ(beq.bcond, 1);
  EXPECT_EQ(beq.taken_pc, -9837);
  EXPECT_EQ(beq.taken_row, DecodedImage::row_of(-9837));
  EXPECT_EQ(beq.next_row, DecodedImage::row_of(-9838));

  const PackedOp& bne = at(*image, -9838);
  EXPECT_EQ(bne.kind, DispatchKind::kBne);
  EXPECT_EQ(bne.bcond, -1);
  EXPECT_EQ(bne.taken_pc, -9839);
  EXPECT_EQ(bne.taken_row, DecodedImage::row_of(-9839));
  EXPECT_EQ(bne.next_row, DecodedImage::row_of(-9837));

  const PackedOp& jal = at(*image, -9837);
  EXPECT_EQ(jal.kind, DispatchKind::kJal);
  EXPECT_EQ(jal.taken_pc, -9835);
  EXPECT_EQ(jal.taken_row, DecodedImage::row_of(-9835));
  EXPECT_EQ(jal.next_row, DecodedImage::row_of(-9836));
}

TEST(DecodedImage, OperandWordAgreesInBothEncodings) {
  const std::shared_ptr<const DecodedImage> image = decode(wrapping_program());
  const auto expect_word = [&](int64_t pc, const Word9& want) {
    const PackedOp& op = at(*image, pc);
    EXPECT_EQ(op.word9, want) << pc;
    EXPECT_EQ(op.word().decode(), op.word9) << pc;
  };
  expect_word(kMax - 1, Word9::from_int(3));  // ADDI: the immediate operand
  expect_word(kMax, Word9::from_int(-4));     // ANDI
  expect_word(-kMax, Word9::from_int(7 * 243));  // LUI: the complete result
  expect_word(-9840, Word9::from_int(-20));      // LI: imm5, zeros above
  expect_word(-9837, Word9::from_int(-9836));    // JAL: the link
  expect_word(-9836, Word9::from_int(-9835));    // JALR

  // The link wraps like the PC: a jump on the last row links to -9841.
  isa::Program edge;
  edge.entry = kMax;
  edge.code = {Instruction{Opcode::kJal, 1, 0, kTritZ, 1}};
  const std::shared_ptr<const DecodedImage> edge_image = decode(edge);
  const PackedOp& jal = edge_image->fetch(kMax);
  EXPECT_EQ(jal.word9, Word9::from_int(-kMax));
  EXPECT_EQ(jal.word().decode(), jal.word9);
}

TEST(DecodedImage, SourceInstructionsStayOnTheColdSide) {
  const isa::Program program = wrapping_program();
  const std::shared_ptr<const DecodedImage> image = decode(program);
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const int64_t pc = ArchState::wrap(program.entry + static_cast<int64_t>(i));
    EXPECT_EQ(image->instruction(DecodedImage::row_of(pc)), program.code[i]) << pc;
  }
  // A row without code yields Instruction{}, dispatches to the trap path
  // and still carries its own PC for the trap text.
  for (int64_t pc : {int64_t{0}, kMax - 2, int64_t{-9834}}) {
    const std::size_t row = DecodedImage::row_of(pc);
    EXPECT_EQ(image->instruction(row), Instruction{}) << pc;
    EXPECT_EQ(image->row(row).kind, DispatchKind::kInvalid) << pc;
    EXPECT_EQ(image->row(row).pc, pc);
  }
}

TEST(DecodedImage, OutOfRangeImmediateThrowsAtDecode) {
  // ANDI takes an imm3 (±13): an unencodable one fails at load time,
  // naming its address, not on first execution.
  isa::Program program;
  program.entry = 5;
  program.code = {Instruction::nop(), Instruction{Opcode::kAndi, 1, 0, kTritZ, 14}};
  try {
    static_cast<void>(decode(program));
    FAIL() << "an out-of-range ANDI immediate must not decode";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("address 6"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace art9::sim

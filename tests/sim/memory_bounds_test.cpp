// Regression: ART-9 address handling must stay defined and loud at the
// extremes — the same wraparound class the rv32 RAM checks were hardened
// against.  .t9 images carry arbitrary int64 addresses, so `row_of` must not
// overflow while folding them and program load must reject out-of-range
// entries/data words with a SimError naming the faulting address (mirrors
// tests/rv32/rv32_sim_test.cpp's OutOfRangeAccessRaisesWithFaultingAddress),
// and a program with more instructions than the TIM has rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "sim/decoded_image.hpp"
#include "sim/engine.hpp"
#include "sim/functional_sim.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace art9::sim {
namespace {

constexpr int64_t kMax = ternary::Word9::kMaxValue;  // 9841

TEST(MemoryBounds, RowOfBijectionAnchors) {
  EXPECT_EQ(TernaryMemory::row_of(-kMax), 0u);
  EXPECT_EQ(TernaryMemory::row_of(0), static_cast<std::size_t>(kMax));
  EXPECT_EQ(TernaryMemory::row_of(kMax), static_cast<std::size_t>(TernaryMemory::kRows - 1));
}

TEST(MemoryBounds, RowOfIsPeriodicAtTheExtremes) {
  // The previous `(address + 9841) % 19683` biased before reducing, which is
  // signed overflow (UB) for addresses near INT64_MAX.  Reduction must agree
  // with the small-address bijection for every congruent address.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(TernaryMemory::row_of(max), TernaryMemory::row_of(max % TernaryMemory::kRows));
  EXPECT_EQ(TernaryMemory::row_of(min), TernaryMemory::row_of(min % TernaryMemory::kRows));
  for (int64_t a : {int64_t{0}, kMax, -kMax, int64_t{12345}}) {
    EXPECT_EQ(TernaryMemory::row_of(a - TernaryMemory::kRows), TernaryMemory::row_of(a)) << a;
    EXPECT_EQ(TernaryMemory::row_of(a + TernaryMemory::kRows), TernaryMemory::row_of(a)) << a;
  }
}

TEST(MemoryBounds, ExtremeAddressRoundTripsThroughBothMemories) {
  const auto w = ternary::Word9::from_int(-777);
  TernaryMemory tdm;
  tdm.poke(std::numeric_limits<int64_t>::max(), w);
  EXPECT_EQ(tdm.peek(std::numeric_limits<int64_t>::max()).to_int(), -777);
  PackedMemory packed;
  packed.poke(std::numeric_limits<int64_t>::min(), ternary::BctWord9::encode(w));
  EXPECT_EQ(packed.unpack().peek(std::numeric_limits<int64_t>::min()).to_int(), -777);
}

TEST(MemoryBounds, LoadRejectsOutOfRangeEntryNamingAddress) {
  isa::Program program;
  program.code.push_back(isa::Instruction::halt());
  program.entry = kMax + 1;
  try {
    LazyFunctionalSimulator sim(program);
    FAIL() << "out-of-range entry must not load";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("9842"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("entry"), std::string::npos) << e.what();
  }
  // The pre-decoded front end rejects identically (it folds entry + i too).
  program.entry = std::numeric_limits<int64_t>::max();
  EXPECT_THROW(static_cast<void>(DecodedImage(program)), SimError);
}

TEST(MemoryBounds, LoadRejectsOutOfRangeDataWordNamingAddress) {
  isa::Program program;
  program.code.push_back(isa::Instruction::halt());
  program.entry = 0;
  program.data.push_back(isa::DataWord{-kMax - 2, ternary::Word9::from_int(1)});
  try {
    FunctionalSimulator sim(program);
    FAIL() << "out-of-range data word must not load";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("-9843"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("data-word"), std::string::npos) << e.what();
  }
  // The pre-decoded front end rejects it too, so the packed kinds (which
  // place data words by folded row) never load a wrapped image.
  try {
    static_cast<void>(decode(program));
    FAIL() << "out-of-range data word must not decode";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("-9843"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("data-word"), std::string::npos) << e.what();
  }
}

TEST(MemoryBounds, InRangeProgramStillLoadsEverywhere) {
  isa::Program program;
  program.code.push_back(isa::Instruction::halt());
  program.entry = kMax;  // last valid row
  program.data.push_back(isa::DataWord{-kMax, ternary::Word9::from_int(5)});
  FunctionalSimulator sim(program);
  EXPECT_EQ(sim.state().tdm.peek(-kMax).to_int(), 5);
  EXPECT_EQ(sim.state().pc, kMax);
}

/// `size` instructions from entry 0: `ADDI T1, 5`, NOPs, then `ADDI T1, 2`
/// and HALT, so a run of the whole program leaves T1 = 7.
isa::Program addi_program(std::size_t size) {
  isa::Program program;
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 5});
  program.code.resize(size - 2, isa::Instruction::nop());
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 2});
  program.code.push_back(isa::Instruction::halt());
  return program;
}

TEST(MemoryBounds, ProgramLongerThanTheTimIsRejectedNamingItsSize) {
  // Regression: the last two instructions of a 19,685-instruction program
  // wrapped onto the first two rows, so every ART-9 kind ran `ADDI T1, 2;
  // HALT` (one instruction, T1 = 2) instead of the program as written.
  const isa::Program program = addi_program(TernaryMemory::kRows + 2);
  try {
    static_cast<void>(decode(program));
    FAIL() << "a program longer than the TIM must not decode";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("19685 instructions"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("19683-row TIM"), std::string::npos) << e.what();
  }
  for (EngineKind kind : art9_engine_kinds()) {
    EXPECT_THROW(static_cast<void>(make_engine(kind, decode(program))), SimError)
        << engine_kind_name(kind);
  }
  // The decode-on-fetch simulator loads from the program itself.
  EXPECT_THROW(LazyFunctionalSimulator{program}, SimError);
}

TEST(MemoryBounds, ProgramFillingTheTimRunsOnEveryKind) {
  // Exactly 3^9 instructions still load: the code wraps from +9841 to
  // -9841 and runs, all of it, to its HALT at -1.
  const std::shared_ptr<const DecodedImage> image =
      decode(addi_program(TernaryMemory::kRows));
  for (EngineKind kind : art9_engine_kinds()) {
    const RunResult r = make_engine(kind, image)->run({});
    EXPECT_EQ(r.halt, HaltReason::kHalted) << engine_kind_name(kind);
    EXPECT_EQ(r.stats.instructions, static_cast<uint64_t>(TernaryMemory::kRows - 1))
        << engine_kind_name(kind);
    EXPECT_EQ(r.state.art9().trf.read(1).to_int(), 7) << engine_kind_name(kind);
  }
}

}  // namespace
}  // namespace art9::sim

// Regression: ART-9 address handling must stay defined and loud at the
// extremes — the same wraparound class the rv32 RAM checks were hardened
// against.  .t9 images carry arbitrary int64 addresses, so `row_of` must not
// overflow while folding them and program load must reject out-of-range
// entries/data words with a SimError naming the faulting address (mirrors
// tests/rv32/rv32_sim_test.cpp's OutOfRangeAccessRaisesWithFaultingAddress).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "sim/decoded_image.hpp"
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

}  // namespace
}  // namespace art9::sim

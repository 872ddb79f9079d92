// The "rv32_packed" engine name: make_engine(kRv32Packed) builds the
// reference rv32::Rv32Simulator engine under its historical name (kept
// because art9-run, the serve API and the benchmark keys use it).  The
// rv32 conformance suite (tests/sim/engine_conformance_test.cpp) runs
// this kind over both corpora; these cases pin the reported kind, the
// host reference outputs and trap behaviour through the facade.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/benchmarks.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"

namespace art9::rv32 {
namespace {

using sim::EngineKind;

std::unique_ptr<sim::Engine> packed_engine(const std::string& source) {
  return sim::make_engine(EngineKind::kRv32Packed, decode(assemble_rv32(source)));
}

/// Little-endian word at `address` of a snapshot's RAM.
uint32_t word_at(const Rv32ArchState& state, uint32_t address) {
  uint32_t v = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(state.ram.at(address + i)) << (8 * i);
  }
  return v;
}

TEST(Rv32PackedEngine, EngineReportsRv32PackedKind) {
  EXPECT_EQ(packed_engine("li a0, 1\nebreak\n")->kind(), EngineKind::kRv32Packed);
  EXPECT_EQ(sim::engine_kind_name(EngineKind::kRv32Packed), "rv32_packed");
  EXPECT_EQ(sim::parse_engine_kind("rv32_packed"), EngineKind::kRv32Packed);
}

TEST(Rv32PackedEngine, BenchmarkOutputsMatchHostReference) {
  const sim::RunResult bubble = packed_engine(core::bubble_sort().rv32)->run();
  ASSERT_EQ(bubble.halt, sim::HaltReason::kHalted);
  const std::vector<int32_t> expected = core::bubble_expected();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<int32_t>(word_at(
                  bubble.state.rv32(), core::kBubbleArrayAddr + 4 * static_cast<uint32_t>(i))),
              expected[i]);
  }

  const sim::RunResult dhry = packed_engine(core::dhrystone().rv32)->run();
  ASSERT_EQ(dhry.halt, sim::HaltReason::kHalted);
  EXPECT_EQ(static_cast<int32_t>(word_at(dhry.state.rv32(), core::kDhrystoneChecksumAddr)),
            core::dhrystone_expected_checksum());
}

TEST(Rv32PackedEngine, TrapsMatchReference) {
  // Fetch outside the program.
  {
    const std::unique_ptr<sim::Engine> engine = packed_engine("nop\n");
    EXPECT_TRUE(engine->step());
    EXPECT_THROW(static_cast<void>(engine->step()), Rv32SimError);
  }
  // Out-of-range memory traffic, including the uint32 wraparound corner.
  EXPECT_THROW(static_cast<void>(packed_engine("li a0, -2\nlw a1, 0(a0)\nebreak\n")->run()),
               Rv32SimError);
  EXPECT_THROW(static_cast<void>(packed_engine("li a0, -2\nsh a1, 0(a0)\nebreak\n")->run()),
               Rv32SimError);
}

}  // namespace
}  // namespace art9::rv32

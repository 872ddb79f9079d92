// Fixed-seed smoke over the differential fuzz harness: a deterministic
// slice of what `art9-fuzz` / the libFuzzer target explore, kept green
// in the tier-1 suite so the harness itself can't rot.  Every divergence
// the fuzzer has ever found is pinned in fixed_corpus() once minimized —
// the regression ratchet the fuzz subsystem exists to feed.
#include "fuzz/harness.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace art9::fuzz {
namespace {

/// Re-pins the mode selector byte: repros must stay on the oracle that
/// caught them even when a new mode widens the selector modulus (as
/// mode 4 "snapshot" did) — only byte 0 changes, so the decoded case is
/// otherwise bit-identical.
std::vector<uint8_t> pinned_to_mode(std::vector<uint8_t> bytes, uint8_t mode) {
  bytes[0] = mode;
  return bytes;
}

/// A snapshot-mode case forging sparse-table violation `pick` (see
/// check_snapshot_case strategy 7) into the checkpoint of a generated
/// rv32 program whose RAM is touched by step 54.
std::vector<uint8_t> rv32_sparse_violation(uint8_t pick) {
  std::vector<uint8_t> bytes = {4, 1};
  for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<uint8_t>(12239131130605509653ull >> (8 * b)));
  for (const uint8_t tail : {uint8_t{54}, uint8_t{0}, uint8_t{7}, pick, uint8_t{0}}) {
    bytes.push_back(tail);
  }
  return bytes;
}

/// An api-mode case (see check_api_case) of `{bad; ADDI T1, 1; HALT}`,
/// plus the mode's closing HALT, at budget 512, `bad` given as its field
/// pick and field bytes.
std::vector<uint8_t> api_probe(std::initializer_list<uint8_t> bad) {
  std::vector<uint8_t> bytes = {5, 2, 0xFF, 0x01};  // api, 3 instructions, budget 512
  for (const uint8_t b : bad) bytes.push_back(b);
  for (const uint8_t b : {5, 13, 1, 0, 1, 14, 0,     // ADDI T1, 1 (imm 14 folds to 1)
                          5, 20, 0, 0, 1, 121, 0}) {  // JAL T0, 0: HALT (121 folds to 0)
    bytes.push_back(b);
  }
  return bytes;
}

/// Minimized repro inputs of every fuzzer-found divergence, kept forever
/// as fixed regressions (replayable standalone: `art9-fuzz <file>` on
/// the same bytes).  Empty entries are never added — each one documents
/// the bug it caught.
const std::vector<std::pair<std::string, std::vector<uint8_t>>>& fixed_corpus() {
  static const std::vector<std::pair<std::string, std::vector<uint8_t>>> kCorpus = {
      // The fuzzer's first catch: `resumed->checkpoint().art9()` bound a
      // reference into the destroyed temporary MachineState, so the
      // snapshot-leg comparison read freed heap — these two inputs flagged
      // phantom TDM divergences whenever earlier cases had warmed the
      // allocator.  Fixed by ref-qualifying MachineState::art9()/rv32()
      // (rvalue access moves the view out) and binding a named boundary.
      {"dangling checkpoint view, packed->pipeline leg", pinned_to_mode(seeded_input(1, 24), 0)},
      {"dangling checkpoint view, packed->lazy counter leg",
       pinned_to_mode(seeded_input(1, 29), 0)},
      // Pinned coverage (not a bug repro): a hand-built raw-mode case
      // whose program is one straight line of every superblock fusion
      // pattern — LUI+LI constant formation, LOAD+ADD, and COMP+BEQ —
      // plus an unfused LUI+ADDI pair, so the superblock tier's macro-op
      // fusion stays under the raw oracle's byte-identical trap/state
      // parity forever.
      // Layout: mode=3(raw), len byte 9 (10 instructions), budget 512,
      // then per instruction: op, ta, tb, bcond, [imm16le].
      {"superblock fused-pair straight line, raw parity",
       {3,    9,    0xFF, 0x01,              // raw, 10 instructions, budget 512
        16,   1,    0,    1,    0x2B, 0x00,  // LUI  t1, 3
        17,   1,    0,    1,    0x7E, 0x00,  // LI   t1, 5   (fused const)
        16,   2,    0,    1,    0x2A, 0x00,  // LUI  t2, 2
        13,   2,    0,    1,    0x14, 0x00,  // ADDI t2, 7   (runs unfused)
        22,   3,    4,    1,    0x0D, 0x00,  // LOAD t3, [t4+0]
        7,    5,    3,    1,                 // ADD  t5, t3  (fused load+op)
        11,   6,    1,    1,                 // COMP t6, t1
        18,   0,    6,    1,    0x2A, 0x00,  // BEQ  t6, 0, +2 (fused cmp+branch)
        20,   0,    0,    1,    0x79, 0x00,  // JAL  t0, 0 — halt (not taken)
        20,   0,    0,    1,    0x79, 0x00}},  // JAL t0, 0 — halt (taken)
      // Pinned coverage (not a bug repro): snapshot-mode strategy 7 on an
      // rv32 checkpoint that holds touched RAM, forging the two sparse
      // v2 layout violations the codec must name — a stored chunk zeroed
      // ("not canonical") and a chunk entry repeated ("out of order").
      // Layout: mode=4(snapshot), rv32, u64 program seed, split 54,
      // kind 0, strategy 7, then the violation pick and entry index.
      {"snapshot v2: zeroed rv32 RAM chunk", rv32_sparse_violation(1)},
      {"snapshot v2: repeated rv32 RAM chunk", rv32_sparse_violation(3)},
      // Programs built in code with an instruction that has no encoding.
      // Before the program check rejected them at load, the packed kinds
      // aborted or died with SIGSEGV on the first two opcodes and on T9,
      // the pre-decoded kinds halted (24) or trapped (25) where lazy ran
      // a no-op, the kinds disagreed on T12 and T-1, and the rest ran on
      // every kind.  Field picks: 0 opcode, 1 Ta, 2 Tb, 4 immediate.
      {"api: opcode 40", api_probe({0, 40, 1, 0, 1, 0, 0})},
      {"api: opcode 200", api_probe({0, 200, 1, 0, 1, 0, 0})},
      {"api: opcode 24 (the halt kind)", api_probe({0, 24, 1, 0, 1, 0, 0})},
      {"api: opcode 25 (the invalid-row kind)", api_probe({0, 25, 1, 0, 1, 0, 0})},
      {"api: ADDI T9, 1", api_probe({1, 13, 9, 0, 1, 14, 0})},
      {"api: ADD T1, T12", api_probe({2, 7, 1, 12, 1})},
      {"api: ADD T-1, T1", api_probe({1, 7, 0xFF, 1, 1})},
      {"api: SRI T1, 20", api_probe({4, 14, 1, 0, 1, 20, 0})},
      {"api: SLI T1, -3", api_probe({4, 15, 1, 0, 1, 0xFD, 0xFF})},
      {"api: BEQ T1, 0, 500", api_probe({4, 18, 0, 1, 1, 0xF4, 0x01})},
      {"api: LOAD T1, 900(T2)", api_probe({4, 22, 1, 2, 1, 0x84, 0x03})},
      {"api: JALR T1, T2, 700", api_probe({4, 21, 1, 2, 1, 0xBC, 0x02})},
  };
  return kCorpus;
}

TEST(FuzzHarness, FixedCorpusStaysGreen) {
  for (const auto& [name, bytes] : fixed_corpus()) {
    const FuzzResult result = run_fuzz_case(bytes.data(), bytes.size());
    EXPECT_TRUE(result.ok) << name << ": [" << result.mode << "] " << result.detail;
  }
}

TEST(FuzzHarness, SeededSweepFindsNoDivergence) {
  // The same inputs `art9-fuzz --seed 1 --runs 64` replays: a cheap,
  // fully deterministic slice across all six oracle modes.
  for (uint64_t index = 0; index < 64; ++index) {
    const std::vector<uint8_t> input = seeded_input(1, index);
    const FuzzResult result = run_fuzz_case(input.data(), input.size());
    EXPECT_TRUE(result.ok) << "seed=1 index=" << index << " [" << result.mode << "] "
                           << result.detail;
  }
}

TEST(FuzzHarness, EveryModeRunsOnForcedSelector) {
  // Pinning the mode byte (what art9-fuzz --mode does) reaches each
  // oracle; all six stay green on a handful of seeded inputs.
  const std::vector<std::string> modes = {"art9", "rv32", "xlat", "raw", "snapshot", "api"};
  for (uint8_t mode = 0; mode < 6; ++mode) {
    for (uint64_t index = 0; index < 8; ++index) {
      std::vector<uint8_t> input = seeded_input(7, index);
      input[0] = mode;
      const FuzzResult result = run_fuzz_case(input.data(), input.size());
      EXPECT_EQ(result.mode, modes[mode]);
      EXPECT_TRUE(result.ok) << "mode=" << modes[mode] << " index=" << index << " "
                             << result.detail;
    }
  }
}

TEST(FuzzHarness, EmptyAndTinyInputsAreValidCases) {
  // Exhausted bytes read as zero: the empty input and every prefix of a
  // valid input are themselves valid cases (shrinking never leaves the
  // grammar).
  EXPECT_TRUE(run_fuzz_case(nullptr, 0).ok);
  const std::vector<uint8_t> input = seeded_input(3, 0);
  for (std::size_t len : {1u, 2u, 9u, 17u}) {
    const FuzzResult result = run_fuzz_case(input.data(), len);
    EXPECT_TRUE(result.ok) << "len=" << len << " [" << result.mode << "] " << result.detail;
  }
}

TEST(FuzzHarness, SeededInputIsDeterministic) {
  EXPECT_EQ(seeded_input(42, 7), seeded_input(42, 7));
  EXPECT_NE(seeded_input(42, 7), seeded_input(42, 8));
  EXPECT_NE(seeded_input(42, 7), seeded_input(43, 7));
}

}  // namespace
}  // namespace art9::fuzz

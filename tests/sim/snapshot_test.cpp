// Snapshot/restore suite: freeze a run mid-flight on engine kind A,
// serialize, deserialize, resume on kind B, and demand the final state
// be identical to never having been interrupted — for every (A, B) pair
// of each ISA, through the blob format of sim/snapshot.hpp.
//
// Also locks the format itself: serialize -> deserialize is an exact
// round trip (access counters included), blobs are canonical (equal
// states produce identical bytes), the sparse v2 rv32 layout is pinned
// byte for byte, and every class of malformed or non-canonical blob is
// rejected with a SimError naming the violation.
#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"

namespace art9::sim {
namespace {

/// ART-9 workload with memory traffic, a loop and a clean halt: long
/// enough that a budget-7 split lands strictly mid-run on every kind.
const char* const kArt9Source = R"(
  LIMM T1, 4
  LIMM T2, -9000
  LIMM T4, 0
loop:
  STORE T1, 0(T2)
  LOAD  T3, 0(T2)
  ADD   T4, T3
  ADDI  T2, 3
  ADDI  T1, -1
  MV    T5, T1
  COMP  T5, T0
  BNE   T5, 0, loop
  HALT
)";

/// rv32 mirror: RAM traffic, a loop, an EBREAK halt.
const char* const kRv32Source = R"(
  li   a0, 5
  li   a1, 64
loop:
  sw   a0, 0(a1)
  lw   a2, 0(a1)
  add  a3, a3, a2
  addi a1, a1, 4
  addi a0, a0, -1
  bne  a0, zero, loop
  ebreak
)";

constexpr uint64_t kSplitBudget = 7;
constexpr uint64_t kRunBudget = 10'000;

/// True when the two kinds share full access-counter accounting: the
/// three functional kinds are bit-identical including TDM counters, as
/// are the two pipeline datapaths — but a pipeline's wrong-path and
/// per-stage accesses legitimately differ from the functional models'.
bool same_counter_class(EngineKind a, EngineKind b) {
  return is_cycle_accurate(a) == is_cycle_accurate(b);
}

void expect_same_art9_architecture(const ArchState& got, const ArchState& want,
                                   bool counters_too) {
  EXPECT_EQ(got.trf, want.trf);
  EXPECT_EQ(got.pc, want.pc);
  if (counters_too) {
    EXPECT_EQ(got.tdm, want.tdm);  // contents *and* counters
    return;
  }
  for (int64_t a = -ternary::Word9::kMaxValue; a <= ternary::Word9::kMaxValue; ++a) {
    if (got.tdm.peek(a) != want.tdm.peek(a)) FAIL() << "TDM mismatch at address " << a;
  }
}

/// Re-stamps the trailing FNV-1a checksum after a deliberate edit, so
/// corruption tests exercise the *structural* validation behind it.
void restamp(std::vector<uint8_t>& blob) {
  const uint64_t h = fnv1a_64(blob.data(), blob.size() - 8);
  for (std::size_t b = 0; b < 8; ++b) blob[blob.size() - 8 + b] = static_cast<uint8_t>(h >> (8 * b));
}

/// Appends `value` little-endian in `bytes` bytes (golden-blob builder).
void append_le(std::vector<uint8_t>& out, uint64_t value, std::size_t bytes) {
  for (std::size_t b = 0; b < bytes; ++b) out.push_back(static_cast<uint8_t>(value >> (8 * b)));
}

/// Overwrites `bytes` bytes at `at` with `value` little-endian.
void poke_le(std::vector<uint8_t>& blob, std::size_t at, uint64_t value, std::size_t bytes) {
  for (std::size_t b = 0; b < bytes; ++b) blob[at + b] = static_cast<uint8_t>(value >> (8 * b));
}

void expect_rejects(const std::vector<uint8_t>& blob, const std::string& needle) {
  try {
    static_cast<void>(deserialize_snapshot(blob));
    FAIL() << "expected SimError containing \"" << needle << "\"";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

// ===========================================================================
// Resume on every (A, B) pair — ART-9.
// ===========================================================================

using KindPair = std::pair<EngineKind, EngineKind>;

std::vector<KindPair> art9_pairs() {
  std::vector<KindPair> pairs;
  for (EngineKind a : art9_engine_kinds()) {
    for (EngineKind b : art9_engine_kinds()) pairs.emplace_back(a, b);
  }
  return pairs;
}

std::vector<KindPair> rv32_pairs() {
  std::vector<KindPair> pairs;
  for (EngineKind a : rv32_engine_kinds()) {
    for (EngineKind b : rv32_engine_kinds()) pairs.emplace_back(a, b);
  }
  return pairs;
}

std::string pair_name(const ::testing::TestParamInfo<KindPair>& info) {
  return std::string(engine_kind_name(info.param.first)) + "_to_" +
         std::string(engine_kind_name(info.param.second));
}

class Art9SnapshotResume : public ::testing::TestWithParam<KindPair> {};

TEST_P(Art9SnapshotResume, MidRunSnapshotResumesBitIdentically) {
  const auto [a, b] = GetParam();
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(kArt9Source));

  // Kind A runs a short budget, checkpoints at the next instruction
  // boundary, and the checkpoint travels through the byte format.
  std::unique_ptr<Engine> source = make_engine(a, image);
  ASSERT_EQ(source->run({kSplitBudget}).halt, HaltReason::kMaxCycles);
  const MachineState snap = source->checkpoint();
  EXPECT_NE(snap.art9().pc, image->program().entry);  // genuinely mid-run
  const MachineState revived = deserialize_snapshot(serialize_snapshot(snap));
  EXPECT_EQ(revived, snap);

  // Kind B resumes from the blob and runs to halt...
  std::unique_ptr<Engine> resumed = make_engine(b, image, revived);
  ASSERT_EQ(resumed->run({kRunBudget}).halt, HaltReason::kHalted);

  // ...and must land exactly where an uninterrupted kind-A run lands
  // (checkpoint() normalizes the pipeline kinds' halt PC to the shared
  // rest-on-halt convention).
  std::unique_ptr<Engine> uninterrupted = make_engine(a, image);
  ASSERT_EQ(uninterrupted->run({kRunBudget}).halt, HaltReason::kHalted);
  expect_same_art9_architecture(resumed->checkpoint().art9(), uninterrupted->checkpoint().art9(),
                                same_counter_class(a, b));
}

TEST_P(Art9SnapshotResume, CheckpointLeavesTheSourceEngineConsistent) {
  // checkpoint() drains and self-restores: the source engine keeps
  // running afterwards and still reaches the exact uninterrupted end
  // state of its own kind.
  const auto [a, b] = GetParam();
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(kArt9Source));
  std::unique_ptr<Engine> interrupted = make_engine(a, image);
  static_cast<void>(interrupted->run({kSplitBudget}));
  static_cast<void>(interrupted->checkpoint());  // mid-run freeze, result unused
  ASSERT_EQ(interrupted->run({kRunBudget}).halt, HaltReason::kHalted);

  std::unique_ptr<Engine> uninterrupted = make_engine(a, image);
  ASSERT_EQ(uninterrupted->run({kRunBudget}).halt, HaltReason::kHalted);
  expect_same_art9_architecture(interrupted->checkpoint().art9(),
                                uninterrupted->checkpoint().art9(), true);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, Art9SnapshotResume, ::testing::ValuesIn(art9_pairs()),
                         pair_name);

// ===========================================================================
// Resume on every (A, B) pair — rv32.
// ===========================================================================

class Rv32SnapshotResume : public ::testing::TestWithParam<KindPair> {};

TEST_P(Rv32SnapshotResume, MidRunSnapshotResumesBitIdentically) {
  const auto [a, b] = GetParam();
  const std::shared_ptr<const rv32::Rv32DecodedImage> image =
      rv32::decode(rv32::assemble_rv32(kRv32Source));
  // A small RAM keeps the blobs small; the snapshot carries the size.
  EngineOptions options;
  options.rv32_ram_bytes = 4096;

  std::unique_ptr<Engine> source = make_engine(a, image, options);
  ASSERT_EQ(source->run({kSplitBudget}).halt, HaltReason::kMaxCycles);
  const MachineState snap = source->checkpoint();
  const MachineState revived = deserialize_snapshot(serialize_snapshot(snap));
  EXPECT_EQ(revived, snap);

  // Note: no EngineOptions on resume — the snapshot's RAM size must win.
  std::unique_ptr<Engine> resumed = make_engine(b, image, revived);
  ASSERT_EQ(resumed->run({kRunBudget}).halt, HaltReason::kHalted);

  std::unique_ptr<Engine> uninterrupted = make_engine(a, image, options);
  ASSERT_EQ(uninterrupted->run({kRunBudget}).halt, HaltReason::kHalted);
  EXPECT_EQ(resumed->state(), uninterrupted->state());  // full Rv32ArchState ==
}

INSTANTIATE_TEST_SUITE_P(AllPairs, Rv32SnapshotResume, ::testing::ValuesIn(rv32_pairs()),
                         pair_name);

// ===========================================================================
// The byte format.
// ===========================================================================

MachineState sample_art9_state() {
  std::unique_ptr<Engine> engine = make_engine(EngineKind::kFunctional,
                                               decode(isa::assemble(kArt9Source)));
  static_cast<void>(engine->run({11}));
  return engine->state();
}

MachineState sample_rv32_state() {
  EngineOptions options;
  options.rv32_ram_bytes = 256;
  std::unique_ptr<Engine> engine =
      make_engine(EngineKind::kRv32, rv32::decode(rv32::assemble_rv32(kRv32Source)), options);
  static_cast<void>(engine->run({11}));
  return engine->state();
}

TEST(Snapshot, RoundTripsBothIsas) {
  for (const MachineState& state : {sample_art9_state(), sample_rv32_state()}) {
    const std::vector<uint8_t> blob = serialize_snapshot(state);
    EXPECT_EQ(deserialize_snapshot(blob), state);
    // Canonical: re-serializing the parsed state reproduces the bytes.
    EXPECT_EQ(serialize_snapshot(deserialize_snapshot(blob)), blob);
  }
}

TEST(Snapshot, RvalueViewsOutliveTheTemporary) {
  // Regression for a fuzzer-caught use-after-free: binding a reference to
  // `engine->checkpoint().art9()` used to dangle into the destroyed
  // temporary MachineState.  The accessors are now ref-qualified — rvalue
  // access moves the view out, so lifetime extension keeps it valid.
  const ArchState& art9_view = sample_art9_state().art9();
  EXPECT_EQ(art9_view, sample_art9_state().art9());
  const rv32::Rv32ArchState& rv32_view = sample_rv32_state().rv32();
  EXPECT_EQ(rv32_view, sample_rv32_state().rv32());
  // Wrong-ISA access throws on rvalues exactly as on lvalues.
  EXPECT_THROW(static_cast<void>(sample_art9_state().rv32()), SimError);
  EXPECT_THROW(static_cast<void>(sample_rv32_state().art9()), SimError);
}

TEST(Snapshot, CarriesAccessCounters) {
  const MachineState state = sample_art9_state();
  const MachineState back = deserialize_snapshot(serialize_snapshot(state));
  EXPECT_GT(state.art9().tdm.reads(), 0u);
  EXPECT_EQ(back.art9().tdm.reads(), state.art9().tdm.reads());
  EXPECT_EQ(back.art9().tdm.writes(), state.art9().tdm.writes());
}

TEST(Snapshot, RejectsCorruptedBlobs) {
  std::vector<uint8_t> blob = serialize_snapshot(sample_art9_state());

  // Any bit flip without a matching re-stamp fails the checksum.
  std::vector<uint8_t> flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  expect_rejects(flipped, "checksum mismatch");

  // Truncation below the header floor.
  expect_rejects(std::vector<uint8_t>(blob.begin(), blob.begin() + 5), "too short");

  // Truncated payload (checksum re-stamped so the structural check fires).
  std::vector<uint8_t> cut(blob.begin(), blob.end() - 10);
  cut.resize(cut.size() + 8);  // fresh checksum slot
  restamp(cut);
  expect_rejects(cut, "truncated");

  // Bad magic.
  std::vector<uint8_t> magic = blob;
  magic[0] = 'X';
  restamp(magic);
  expect_rejects(magic, "bad magic");

  // Unknown version.
  std::vector<uint8_t> version = blob;
  version[8] = 0x7F;
  restamp(version);
  expect_rejects(version, "unsupported version");

  // Version 1 stored rv32 RAM densely; no v1 reader is kept.
  std::vector<uint8_t> v1 = blob;
  poke_le(v1, 8, 1, 2);
  restamp(v1);
  expect_rejects(v1, "unsupported version 1");

  // Unknown ISA tag.
  std::vector<uint8_t> isa = blob;
  isa[10] = 9;
  restamp(isa);
  expect_rejects(isa, "unknown ISA tag");

  // Register value outside the 9-trit range (first register's i16 sits
  // right after the header + 8-byte pc).
  std::vector<uint8_t> reg = blob;
  reg[19] = 0x20;
  reg[20] = 0x4E;  // 20000 LE
  restamp(reg);
  expect_rejects(reg, "outside the 9-trit range");

  // Trailing garbage between payload and checksum.
  std::vector<uint8_t> padded = blob;
  padded.insert(padded.end() - 8, 0x00);
  restamp(padded);
  expect_rejects(padded, "trailing");
}

TEST(Snapshot, RejectsNonCanonicalTdmRows) {
  ArchState s;
  s.tdm.poke(5, ternary::Word9::from_int(7));
  s.tdm.poke(9, ternary::Word9::from_int(-3));
  const std::vector<uint8_t> blob = serialize_snapshot(MachineState{s});
  // Row table: header(11) + i64 pc + 9 x i16 + 2 x u64 counters, then
  // u32 count and (u32 row, i16 value) entries.
  constexpr std::size_t kRowTable = 11 + 8 + 18 + 16 + 4;
  ASSERT_EQ(blob.size(), kRowTable + 2 * 6 + 8);

  std::vector<uint8_t> swapped = blob;
  std::rotate(swapped.begin() + kRowTable, swapped.begin() + kRowTable + 6,
              swapped.begin() + kRowTable + 12);
  restamp(swapped);
  expect_rejects(swapped, "out of order");

  std::vector<uint8_t> zero = blob;
  poke_le(zero, kRowTable + 4, 0, 2);
  restamp(zero);
  expect_rejects(zero, "not canonical");
}

// ===========================================================================
// The sparse rv32 RAM (format v2).
// ===========================================================================

/// 130 bytes of RAM: chunk 0 (64 bytes, non-zero), chunk 1 (64 bytes,
/// all zero, so omitted) and the 2-byte partial chunk 2 (non-zero).
rv32::Rv32ArchState small_rv32_state() {
  rv32::Rv32ArchState s;
  s.pc = 0x104;
  s.regs[1] = 0x11223344;
  s.regs[31] = 0xFFFFFFFF;
  s.ram.assign(130, 0);
  s.ram[0] = 0xAB;
  s.ram[129] = 0xCD;
  return s;
}

/// Byte offsets in the small_rv32_state() blob.
constexpr std::size_t kRamSizeAt = 11 + 4 + 32 * 4;
constexpr std::size_t kChunkCountAt = kRamSizeAt + 8;
constexpr std::size_t kChunk0At = kChunkCountAt + 4;
constexpr std::size_t kChunk2At = kChunk0At + 4 + 64;

TEST(Snapshot, PinsTheV2Rv32Layout) {
  std::vector<uint8_t> want = {'A', 'R', 'T', '9', 'S', 'N', 'A', 'P'};
  append_le(want, 2, 2);      // version
  append_le(want, 1, 1);      // ISA tag: rv32
  append_le(want, 0x104, 4);  // pc
  append_le(want, 0, 4);      // x0
  append_le(want, 0x11223344, 4);
  for (int r = 2; r < 31; ++r) append_le(want, 0, 4);
  append_le(want, 0xFFFFFFFF, 4);
  append_le(want, 130, 8);  // RAM size
  append_le(want, 2, 4);    // chunk count: 0 and 2 (1 is all zero)
  append_le(want, 0, 4);    // chunk 0: 64 bytes
  want.push_back(0xAB);
  want.insert(want.end(), 63, 0);
  append_le(want, 2, 4);  // chunk 2: the last 130 - 128 = 2 bytes
  want.push_back(0x00);
  want.push_back(0xCD);
  append_le(want, 0xc3300ad5bc529207ull, 8);  // FNV-1a 64 of the above

  const std::vector<uint8_t> blob = serialize_snapshot(MachineState{small_rv32_state()});
  EXPECT_EQ(blob, want);
  EXPECT_EQ(deserialize_snapshot(blob), MachineState{small_rv32_state()});
}

TEST(Snapshot, RoundTripsAPartialLastChunk) {
  rv32::Rv32ArchState s;
  s.ram.assign(200, 0);  // 3 full chunks and an 8-byte one
  s.ram[70] = 1;
  s.ram[199] = 7;
  s.regs[5] = 42;
  const MachineState state{s};
  const std::vector<uint8_t> blob = serialize_snapshot(state);
  EXPECT_EQ(deserialize_snapshot(blob), state);
  EXPECT_EQ(serialize_snapshot(deserialize_snapshot(blob)), blob);
}

TEST(Snapshot, BlobSizeFollowsTouchedRamNotRamSize) {
  // The default 1 MiB RAM with one word stored: one chunk travels.
  std::unique_ptr<Engine> engine = make_engine(
      EngineKind::kRv32,
      rv32::decode(rv32::assemble_rv32("li a0, 4096\nli a1, 0x1234\nsw a1, 0(a0)\nebreak\n")));
  ASSERT_EQ(engine->run({100}).halt, HaltReason::kHalted);
  const MachineState state = engine->state();
  ASSERT_EQ(state.rv32().ram.size(), 1u << 20);
  const std::vector<uint8_t> blob = serialize_snapshot(state);
  EXPECT_LT(blob.size(), 1024u);
  EXPECT_EQ(deserialize_snapshot(blob), state);
}

TEST(Snapshot, RejectsNonCanonicalRamChunks) {
  const std::vector<uint8_t> blob = serialize_snapshot(MachineState{small_rv32_state()});

  std::vector<uint8_t> zeroed = blob;  // chunk 0 present but all zero
  zeroed[kChunk0At + 4] = 0;
  restamp(zeroed);
  expect_rejects(zeroed, "rv32 RAM chunk 0 is all zero (not canonical)");

  std::vector<uint8_t> duplicate = blob;  // chunk 2 relabelled as chunk 0
  poke_le(duplicate, kChunk2At, 0, 4);
  restamp(duplicate);
  expect_rejects(duplicate, "rv32 RAM chunk 0 out of order");

  rv32::Rv32ArchState both = small_rv32_state();
  both.ram[64] = 1;  // chunk 1 now travels too
  std::vector<uint8_t> swapped = serialize_snapshot(MachineState{both});
  std::rotate(swapped.begin() + kChunk0At, swapped.begin() + kChunk0At + 68,
              swapped.begin() + kChunk0At + 136);
  restamp(swapped);
  expect_rejects(swapped, "rv32 RAM chunk 0 out of order");

  std::vector<uint8_t> beyond = blob;  // ceil(130 / 64) = 3 slots: 0..2
  poke_le(beyond, kChunk2At, 3, 4);
  restamp(beyond);
  expect_rejects(beyond, "rv32 RAM chunk 3 out of range");

  std::vector<uint8_t> counted = blob;
  poke_le(counted, kChunkCountAt, 4, 4);
  restamp(counted);
  expect_rejects(counted, "rv32 RAM chunk count 4 exceeds 3");
}

TEST(Snapshot, RejectsAnOverCapRamSizeBeforeAllocating) {
  // Just past the 32-bit address space, in a blob that stops right after
  // the size field: the cap check must fire before any allocation or
  // read of the chunk table.
  std::vector<uint8_t> forged = serialize_snapshot(MachineState{small_rv32_state()});
  forged.resize(kChunkCountAt + 8);
  poke_le(forged, kRamSizeAt, (uint64_t{1} << 32) + 1, 8);
  restamp(forged);
  expect_rejects(forged, "rv32 RAM size 4294967297 exceeds 2^32 bytes");

  poke_le(forged, kRamSizeAt, ~uint64_t{0}, 8);
  restamp(forged);
  expect_rejects(forged, "exceeds 2^32 bytes");
}

TEST(Snapshot, RejectsNonzeroX0) {
  std::vector<uint8_t> blob = serialize_snapshot(sample_rv32_state());
  blob[11 + 4] = 1;  // x0's low byte: header(11) + u32 pc
  restamp(blob);
  expect_rejects(blob, "x0");
}

// ===========================================================================
// ISA mismatch through the facade.
// ===========================================================================

TEST(Snapshot, RestoreRejectsIsaMismatch) {
  std::unique_ptr<Engine> art9 =
      make_engine(EngineKind::kPacked, decode(isa::assemble("HALT\n")));
  EXPECT_THROW(art9->restore(sample_rv32_state()), SimError);
  std::unique_ptr<Engine> rv = make_engine(EngineKind::kRv32Packed,
                                           rv32::decode(rv32::assemble_rv32("ebreak\n")));
  EXPECT_THROW(rv->restore(sample_art9_state()), SimError);

  // The resume factory propagates the same contract.
  EXPECT_THROW(static_cast<void>(make_engine(EngineKind::kPipeline,
                                             decode(isa::assemble("HALT\n")),
                                             sample_rv32_state())),
               SimError);
}

TEST(Snapshot, ResumeFactoryDispatchesOnTheImageVariant) {
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(kArt9Source));
  std::unique_ptr<Engine> source = make_engine(EngineKind::kFunctional, image);
  static_cast<void>(source->run({kSplitBudget}));
  const MachineState snap = source->checkpoint();
  std::unique_ptr<Engine> resumed = make_engine(EngineKind::kLazy, EngineImage{image}, snap);
  EXPECT_EQ(resumed->state(), snap);
}

}  // namespace
}  // namespace art9::sim

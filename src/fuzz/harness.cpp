#include "fuzz/harness.hpp"

#include <algorithm>
#include <optional>
#include <random>
#include <sstream>
#include <utility>

#include "core/progen.hpp"
#include "isa/instruction.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "xlat/framework.hpp"

namespace art9::fuzz {
namespace {

/// Budget that every progen-generated program halts well inside (the
/// generators emit bounded counted loops; the largest corpus programs
/// halt in tens of thousands of steps).
constexpr uint64_t kCompletionBudget = 5'000'000;

/// Fuzz-input cursor: exhausted bytes read as zero, so any byte string
/// is a valid case and shrinking a crashing input stays a valid case.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] uint8_t u8() { return pos_ < size_ ? data_[pos_++] : 0; }

  [[nodiscard]] uint16_t u16() {
    const uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (u8() << 8));
  }

  [[nodiscard]] uint64_t u64() {
    uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(u8()) << (8 * b);
    return v;
  }

 private:
  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Folds an arbitrary value into [lo, hi] (inclusive, lo <= hi).
int fold(int64_t raw, int lo, int hi) {
  const int64_t span = static_cast<int64_t>(hi) - lo + 1;
  int64_t r = raw % span;
  if (r < 0) r += span;
  return static_cast<int>(lo + r);
}

std::string describe_stats(const sim::SimStats& s) {
  std::ostringstream os;
  os << "cycles=" << s.cycles << " instructions=" << s.instructions
     << " halt=" << (s.halt == sim::HaltReason::kHalted ? "halted" : "max-cycles");
  return os.str();
}

// ===========================================================================
// ART-9 outcomes.
// ===========================================================================

/// One retired-instruction event, rendered for comparison.
struct Event {
  int64_t pc = 0;
  std::string text;
  bool taken = false;  // rv32 only

  friend bool operator==(const Event&, const Event&) = default;
};

struct Art9Outcome {
  bool threw = false;
  std::string error;
  sim::SimStats stats;
  sim::MachineState state;     // state() at the end of the run
  sim::MachineState boundary;  // checkpoint(): pipeline halt PC normalized
  std::vector<Event> stream;
};

Art9Outcome run_art9(sim::EngineKind kind, const std::shared_ptr<const sim::DecodedImage>& image,
                     uint64_t budget) {
  Art9Outcome out;
  std::unique_ptr<sim::Engine> engine = sim::make_engine(kind, image);
  engine->set_observer(
      [&](const sim::Retired& r) { out.stream.push_back({r.pc, isa::to_string(r.art9())}); });
  try {
    out.stats = engine->run_stats({budget});
    out.state = engine->state();
    out.boundary = engine->checkpoint();
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

std::optional<std::string> diff_streams(const std::vector<Event>& got,
                                        const std::vector<Event>& want) {
  if (got.size() != want.size()) {
    return "stream length " + std::to_string(got.size()) + " vs " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    std::ostringstream os;
    os << "stream[" << i << "]: pc=" << got[i].pc << " \"" << got[i].text
       << "\" taken=" << got[i].taken << " vs pc=" << want[i].pc << " \"" << want[i].text
       << "\" taken=" << want[i].taken;
    return os.str();
  }
  return std::nullopt;
}

/// Full-parity comparison for two functional ART-9 outcomes: identical
/// traps, or identical SimStats + MachineState + observer stream.
std::optional<std::string> diff_art9_functional(const Art9Outcome& got, const Art9Outcome& want) {
  if (got.threw != want.threw || (got.threw && got.error != want.error)) {
    return "trap mismatch: \"" + (got.threw ? got.error : "<none>") + "\" vs \"" +
           (want.threw ? want.error : "<none>") + "\"";
  }
  if (got.threw) return std::nullopt;
  if (got.stats != want.stats) {
    return "stats mismatch: " + describe_stats(got.stats) + " vs " + describe_stats(want.stats);
  }
  if (got.state != want.state) return "MachineState mismatch";
  return diff_streams(got.stream, want.stream);
}

/// Runs every instruction-at-a-time ART-9 kind (all but the lazy reference
/// and the cycle-accurate kinds) at `budget` and compares each against
/// the lazy reference with full parity.
std::optional<std::string> check_art9_functional_kinds(
    const std::shared_ptr<const sim::DecodedImage>& image, uint64_t budget) {
  const Art9Outcome reference = run_art9(sim::EngineKind::kLazy, image, budget);
  for (sim::EngineKind kind : sim::art9_engine_kinds()) {
    if (kind == sim::EngineKind::kLazy || sim::is_cycle_accurate(kind)) continue;
    if (auto d = diff_art9_functional(run_art9(kind, image, budget), reference)) {
      return std::string(sim::engine_kind_name(kind)) + " vs lazy: " + *d;
    }
  }
  return std::nullopt;
}

/// Architectural comparison for a pipeline outcome against the lazy
/// reference at halt: TRF, TDM contents, normalized PC, retire count and
/// stream (cycle accounting and TDM access counters are the pipeline's
/// own model).
std::optional<std::string> diff_art9_pipeline(const Art9Outcome& got, const Art9Outcome& want) {
  if (got.threw || want.threw) {
    return "trap mismatch: \"" + (got.threw ? got.error : "<none>") + "\" vs \"" +
           (want.threw ? want.error : "<none>") + "\"";
  }
  if (got.stats.halt != sim::HaltReason::kHalted) return "pipeline did not halt";
  if (got.stats.instructions != want.stats.instructions) {
    return "retire count " + std::to_string(got.stats.instructions) + " vs " +
           std::to_string(want.stats.instructions);
  }
  const sim::ArchState& g = got.boundary.art9();
  const sim::ArchState& w = want.boundary.art9();
  if (g.trf != w.trf) return "TRF mismatch";
  if (g.pc != w.pc) return "PC " + std::to_string(g.pc) + " vs " + std::to_string(w.pc);
  for (int64_t a = -ternary::Word9::kMaxValue; a <= ternary::Word9::kMaxValue; ++a) {
    if (g.tdm.peek(a) != w.tdm.peek(a)) return "TDM mismatch at address " + std::to_string(a);
  }
  return diff_streams(got.stream, want.stream);
}

/// The embedded snapshot leg: run kind A for `split` steps, checkpoint,
/// serialize -> deserialize, resume on kind B, run to completion, and
/// compare the boundary state against the uninterrupted reference at
/// halt.  Counter parity is demanded only when A and B share the
/// reference counter model (both functional).
std::optional<std::string> check_art9_snapshot_leg(
    const std::shared_ptr<const sim::DecodedImage>& image, sim::EngineKind a, sim::EngineKind b,
    uint64_t split, const sim::MachineState& reference_at_halt) {
  std::unique_ptr<sim::Engine> source = sim::make_engine(a, image);
  static_cast<void>(source->run_stats({split}));
  const sim::MachineState snap = source->checkpoint();
  const std::vector<uint8_t> blob = sim::serialize_snapshot(snap);
  const sim::MachineState revived = sim::deserialize_snapshot(blob);
  if (revived != snap) return "snapshot round-trip mismatch";

  std::unique_ptr<sim::Engine> resumed = sim::make_engine(b, image, revived);
  if (resumed->run_stats({kCompletionBudget}).halt != sim::HaltReason::kHalted) {
    return "resumed engine did not halt";
  }
  // Named local: checkpoint() returns by value, and `.art9()` on the
  // temporary would move the view out per call — bind the boundary once.
  const sim::MachineState resumed_boundary = resumed->checkpoint();
  const sim::ArchState& g = resumed_boundary.art9();
  const sim::ArchState& w = reference_at_halt.art9();
  if (g.trf != w.trf) return "resumed TRF mismatch";
  if (g.pc != w.pc) return "resumed PC mismatch";
  const bool counters = !sim::is_cycle_accurate(a) && !sim::is_cycle_accurate(b);
  if (counters && g.tdm != w.tdm) return "resumed TDM (contents+counters) mismatch";
  for (int64_t addr = -ternary::Word9::kMaxValue; addr <= ternary::Word9::kMaxValue; ++addr) {
    if (g.tdm.peek(addr) != w.tdm.peek(addr)) {
      return "resumed TDM mismatch at address " + std::to_string(addr);
    }
  }
  return std::nullopt;
}

// ===========================================================================
// Mode 0 — ART-9 progen differential.
// ===========================================================================

std::optional<std::string> check_art9_case(ByteReader& in) {
  const uint64_t seed = in.u64();
  const uint8_t bits = in.u8();
  core::Art9GenOptions options;
  options.with_memory_ops = (bits & 1) != 0;
  options.with_branches = (bits & 2) != 0;
  options.with_loops = (bits & 4) != 0;
  options.min_length = 5 + in.u8() % 40;
  options.max_length = options.min_length + 1 + in.u8() % 80;
  const uint64_t budget = 1 + in.u16() % 2048;

  std::mt19937_64 rng(seed);
  const std::shared_ptr<const sim::DecodedImage> image =
      sim::decode(core::generate_art9_program(rng, options));

  std::ostringstream tag;
  tag << "seed=" << seed << " bits=" << int(bits) << " len=[" << options.min_length << ","
      << options.max_length << "] budget=" << budget;

  // Functional kinds against the lazy reference at the randomized budget.
  if (auto d = check_art9_functional_kinds(image, budget)) return *d + " (" + tag.str() + ")";

  // Pipeline kinds at halt (generated programs always halt).
  const Art9Outcome at_halt = run_art9(sim::EngineKind::kLazy, image, kCompletionBudget);
  if (at_halt.threw) return "lazy reference trapped: " + at_halt.error + " (" + tag.str() + ")";
  if (at_halt.stats.halt != sim::HaltReason::kHalted) {
    return "generated program did not halt (" + tag.str() + ")";
  }
  for (sim::EngineKind kind : sim::art9_engine_kinds()) {
    if (!sim::is_cycle_accurate(kind)) continue;
    if (auto d = diff_art9_pipeline(run_art9(kind, image, kCompletionBudget), at_halt)) {
      return std::string(sim::engine_kind_name(kind)) + " vs lazy: " + *d + " (" + tag.str() + ")";
    }
  }

  // Snapshot leg over a fuzz-chosen kind pair and split point.
  const auto kinds = sim::art9_engine_kinds();
  const sim::EngineKind a = kinds[in.u8() % kinds.size()];
  const sim::EngineKind b = kinds[in.u8() % kinds.size()];
  const uint64_t split = in.u8() % 64;
  if (auto d = check_art9_snapshot_leg(image, a, b, split, at_halt.boundary)) {
    return "snapshot " + std::string(sim::engine_kind_name(a)) + "->" +
           std::string(sim::engine_kind_name(b)) + " split=" + std::to_string(split) + ": " + *d +
           " (" + tag.str() + ")";
  }
  return std::nullopt;
}

// ===========================================================================
// rv32 outcomes.
// ===========================================================================

struct Rv32Outcome {
  bool threw = false;
  std::string error;
  uint64_t instructions = 0;
  bool halted = false;
  rv32::Rv32ArchState state;
  std::vector<Event> stream;
};

Rv32Outcome run_rv32_reference(const rv32::Rv32Program& program, std::size_t ram_bytes,
                               uint64_t budget) {
  Rv32Outcome out;
  rv32::LazyRv32Simulator sim(program, ram_bytes);
  try {
    const rv32::Rv32RunStats stats = sim.run(budget, [&](const rv32::Rv32Retired& r) {
      out.stream.push_back({static_cast<int64_t>(r.pc), rv32::to_string(r.inst), r.taken});
    });
    out.instructions = stats.instructions;
    out.halted = stats.halted;
    out.state = sim.state();
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

Rv32Outcome run_rv32_engine(sim::EngineKind kind,
                            const std::shared_ptr<const rv32::Rv32DecodedImage>& image,
                            std::size_t ram_bytes, uint64_t budget) {
  Rv32Outcome out;
  sim::EngineOptions options;
  options.rv32_ram_bytes = ram_bytes;
  std::unique_ptr<sim::Engine> engine = sim::make_engine(kind, image, options);
  engine->set_observer([&](const sim::Retired& r) {
    out.stream.push_back({r.pc, rv32::to_string(r.rv32()), r.taken});
  });
  try {
    const sim::SimStats stats = engine->run_stats({budget});
    out.instructions = stats.instructions;
    out.halted = stats.halt == sim::HaltReason::kHalted;
    out.state = engine->state().rv32();
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

std::optional<std::string> diff_rv32(const Rv32Outcome& got, const Rv32Outcome& want) {
  if (got.threw != want.threw || (got.threw && got.error != want.error)) {
    return "trap mismatch: \"" + (got.threw ? got.error : "<none>") + "\" vs \"" +
           (want.threw ? want.error : "<none>") + "\"";
  }
  if (got.threw) return std::nullopt;
  if (got.instructions != want.instructions || got.halted != want.halted) {
    return "stats mismatch: instructions=" + std::to_string(got.instructions) + " halted=" +
           std::to_string(got.halted) + " vs instructions=" + std::to_string(want.instructions) +
           " halted=" + std::to_string(want.halted);
  }
  if (got.state != want.state) return "Rv32ArchState mismatch";
  return diff_streams(got.stream, want.stream);
}

// ===========================================================================
// Mode 1 — rv32 progen differential.
// ===========================================================================

std::optional<std::string> check_rv32_case(ByteReader& in) {
  const uint64_t seed = in.u64();
  const uint8_t bits = in.u8();
  core::Rv32GenOptions options;
  options.with_memory_ops = (bits & 1) != 0;
  options.with_mul = (bits & 2) != 0;
  options.max_registers = 5 + in.u8() % 6;  // 5..10: exercises spilling
  const std::size_t ram_bytes = std::size_t{1} << (10 + in.u8() % 7);  // 1 KiB .. 64 KiB
  const uint64_t budget = 1 + in.u16() % 2048;

  std::mt19937_64 rng(seed);
  const rv32::Rv32Program program = rv32::assemble_rv32(core::generate_rv32_source(rng, options));
  const std::shared_ptr<const rv32::Rv32DecodedImage> image = rv32::decode(program);

  std::ostringstream tag;
  tag << "seed=" << seed << " bits=" << int(bits) << " regs=" << options.max_registers
      << " ram=" << ram_bytes << " budget=" << budget;

  const Rv32Outcome reference = run_rv32_reference(program, ram_bytes, budget);
  for (sim::EngineKind kind : sim::rv32_engine_kinds()) {
    if (auto d = diff_rv32(run_rv32_engine(kind, image, ram_bytes, budget), reference)) {
      return std::string(sim::engine_kind_name(kind)) + " vs seed-lazy: " + *d + " (" + tag.str() +
             ")";
    }
  }

  // Snapshot leg between the two rv32 kinds: freeze A, resume B, and the
  // final state must equal the uninterrupted reference at halt.
  const Rv32Outcome at_halt = run_rv32_reference(program, ram_bytes, kCompletionBudget);
  if (at_halt.threw) return "rv32 reference trapped: " + at_halt.error + " (" + tag.str() + ")";
  if (!at_halt.halted) return "generated rv32 program did not halt (" + tag.str() + ")";

  const auto kinds = sim::rv32_engine_kinds();
  const sim::EngineKind a = kinds[in.u8() % kinds.size()];
  const sim::EngineKind b = kinds[in.u8() % kinds.size()];
  const uint64_t split = in.u8() % 64;
  sim::EngineOptions eopts;
  eopts.rv32_ram_bytes = ram_bytes;
  std::unique_ptr<sim::Engine> source = sim::make_engine(a, image, eopts);
  static_cast<void>(source->run_stats({split}));
  const sim::MachineState snap = source->checkpoint();
  const sim::MachineState revived = sim::deserialize_snapshot(sim::serialize_snapshot(snap));
  if (revived != snap) return "rv32 snapshot round-trip mismatch (" + tag.str() + ")";
  std::unique_ptr<sim::Engine> resumed = sim::make_engine(b, image, revived);
  if (resumed->run_stats({kCompletionBudget}).halt != sim::HaltReason::kHalted) {
    return "resumed rv32 engine did not halt (" + tag.str() + ")";
  }
  if (resumed->state().rv32() != at_halt.state) {
    return "snapshot " + std::string(sim::engine_kind_name(a)) + "->" +
           std::string(sim::engine_kind_name(b)) + " split=" + std::to_string(split) +
           ": resumed state mismatch (" + tag.str() + ")";
  }
  return std::nullopt;
}

// ===========================================================================
// Mode 2 — xlat: translate-then-simulate vs rv32-native.
// ===========================================================================

int64_t art9_location_value(const xlat::TranslationResult& xlat, const sim::ArchState& state,
                            int reg) {
  const xlat::Location& loc = xlat.location(reg);
  switch (loc.kind) {
    case xlat::Location::Kind::kZero:
      return 0;
    case xlat::Location::Kind::kReg:
    case xlat::Location::Kind::kLink:
      return state.trf.read(loc.reg).to_int();
    case xlat::Location::Kind::kSpill:
      return state.tdm.peek(loc.slot).to_int();
  }
  return 0;
}

std::optional<std::string> check_xlat_case(ByteReader& in) {
  const uint64_t seed = in.u64();
  const uint8_t bits = in.u8();
  core::Rv32GenOptions options;
  options.with_memory_ops = (bits & 1) != 0;
  options.with_mul = (bits & 2) != 0;
  options.max_registers = 5 + in.u8() % 6;
  const auto kinds = sim::art9_engine_kinds();
  const sim::EngineKind kind = kinds[in.u8() % kinds.size()];

  std::mt19937_64 rng(seed);
  const rv32::Rv32Program program = rv32::assemble_rv32(core::generate_rv32_source(rng, options));

  std::ostringstream tag;
  tag << "seed=" << seed << " bits=" << int(bits) << " regs=" << options.max_registers
      << " kind=" << sim::engine_kind_name(kind);

  rv32::LazyRv32Simulator native(program);
  if (!native.run(kCompletionBudget).halted) {
    return "rv32-native did not halt (" + tag.str() + ")";
  }

  const xlat::SoftwareFramework framework;
  const xlat::TranslationResult xlat = framework.translate(program);
  std::unique_ptr<sim::Engine> translated = sim::make_engine(kind, sim::decode(xlat.program));
  if (translated->run_stats({kCompletionBudget}).halt != sim::HaltReason::kHalted) {
    return "translated program did not halt (" + tag.str() + ")";
  }
  const sim::ArchState t9 = translated->checkpoint().art9();

  // Every rv32 register the generator can touch (x0 + its pool) through
  // the renaming map, then the word-granular memory-slot correspondence.
  for (int reg : {0, 10, 11, 12, 13, 14, 5, 6, 7, 18, 19}) {
    const int64_t got = art9_location_value(xlat, t9, reg);
    const auto want = static_cast<int32_t>(native.reg(reg));
    if (got != want) {
      return "x" + std::to_string(reg) + " = " + std::to_string(got) + " vs " +
             std::to_string(want) + " (" + tag.str() + ")";
    }
  }
  for (int slot = 0; slot < 16; ++slot) {
    const int64_t got = t9.tdm.peek(slot * 4).to_int();
    const auto want = static_cast<int32_t>(native.load_word(static_cast<uint32_t>(slot * 4)));
    if (got != want) {
      return "memory slot " + std::to_string(slot) + " = " + std::to_string(got) + " vs " +
             std::to_string(want) + " (" + tag.str() + ")";
    }
  }
  return std::nullopt;
}

// ===========================================================================
// Mode 3 — raw instruction words: wild control flow, trap parity.
// ===========================================================================

std::optional<std::string> check_raw_case(ByteReader& in) {
  const int length = 1 + in.u8() % 28;
  const uint64_t budget = 1 + in.u16() % 512;
  isa::Program program;
  program.entry = 0;
  for (int i = 0; i < length; ++i) {
    isa::Instruction inst;
    inst.op = isa::all_opcodes()[in.u8() % isa::kNumOpcodes];
    inst.ta = in.u8() % isa::kNumRegisters;
    inst.tb = in.u8() % isa::kNumRegisters;
    inst.bcond = ternary::Trit(static_cast<int>(in.u8() % 3) - 1);
    const isa::OpcodeSpec& s = isa::spec(inst.op);
    inst.imm = s.imm_min == s.imm_max
                   ? s.imm_min
                   : fold(static_cast<int16_t>(in.u16()), s.imm_min, s.imm_max);
    program.code.push_back(inst);
  }

  std::ostringstream tag;
  tag << "len=" << length << " budget=" << budget << " code=[";
  for (const isa::Instruction& inst : program.code) tag << " " << isa::to_string(inst) << ";";
  tag << " ]";

  // Wild jumps land on uninitialised TIM rows: a *trap* is a legal
  // outcome, but it must be byte-identical across the functional kinds.
  const std::shared_ptr<const sim::DecodedImage> image = sim::decode(program);
  if (auto d = check_art9_functional_kinds(image, budget)) return *d + " (" + tag.str() + ")";
  return std::nullopt;
}

// ===========================================================================
// Mode 4 — snapshot codec: mutated blobs must reject-or-round-trip.
// ===========================================================================

/// Re-stamps the codec's trailing FNV-1a 64 after a deliberate structural
/// edit so the *field* validation behind the integrity check is what the
/// case exercises.
void restamp_checksum(std::vector<uint8_t>& blob) {
  if (blob.size() < 8) return;
  const uint64_t h = sim::fnv1a_64(blob.data(), blob.size() - 8);
  for (std::size_t b = 0; b < 8; ++b) blob[blob.size() - 8 + b] = static_cast<uint8_t>(h >> (8 * b));
}

/// Where each (u32 index, payload) entry of a genuine blob's sparse
/// memory table starts, plus where the last one ends.  ART-9 TDM rows
/// carry an i16; rv32 RAM chunks carry min(64, size - 64 * index) bytes.
std::vector<std::size_t> sparse_entry_bounds(const std::vector<uint8_t>& blob, bool rv32) {
  const auto le = [&blob](std::size_t at, std::size_t bytes) {
    uint64_t v = 0;
    for (std::size_t b = 0; b < bytes; ++b) v |= static_cast<uint64_t>(blob[at + b]) << (8 * b);
    return v;
  };
  // After the 11-byte header — ART-9: i64 pc, 9 x i16 registers, two u64
  // counters; rv32: u32 pc, 32 x u32 registers, u64 RAM size.
  const std::size_t count_at = rv32 ? 11 + 4 + 128 + 8 : 11 + 8 + 18 + 16;
  const uint64_t ram_size = rv32 ? le(count_at - 8, 8) : 0;
  std::vector<std::size_t> bounds{count_at + 4};
  for (uint64_t entries = le(count_at, 4); entries > 0; --entries) {
    const std::size_t at = bounds.back();
    bounds.push_back(at + 4 + (rv32 ? std::min<uint64_t>(64, ram_size - 64 * le(at, 4)) : 2));
  }
  return bounds;
}

/// What the oracle demands of deserialize_snapshot on the mutated blob.
enum class CodecExpectation { kAccept, kReject, kEither };

std::optional<std::string> check_snapshot_case(ByteReader& in) {
  // A genuine checkpoint blob: fuzz-chosen ISA, engine kind and split.
  const bool use_rv32 = (in.u8() & 1) != 0;
  const uint64_t seed = in.u64();
  const uint64_t split = in.u8() % 64;

  std::mt19937_64 rng(seed);
  std::unique_ptr<sim::Engine> engine;
  if (use_rv32) {
    const auto kinds = sim::rv32_engine_kinds();
    sim::EngineOptions options;
    options.rv32_ram_bytes = 4096;  // a small RAM keeps the blobs small
    engine = sim::make_engine(kinds[in.u8() % kinds.size()],
                              rv32::decode(rv32::assemble_rv32(core::generate_rv32_source(rng))),
                              options);
  } else {
    const auto kinds = sim::art9_engine_kinds();
    engine = sim::make_engine(kinds[in.u8() % kinds.size()],
                              sim::decode(core::generate_art9_program(rng)));
  }
  static_cast<void>(engine->run_stats({split}));
  const sim::MachineState snap = engine->checkpoint();
  const std::vector<uint8_t> blob = sim::serialize_snapshot(snap);

  // One fuzz-chosen mutation.  Structural edits are re-stamped so the
  // named field check — not the checksum gate in front of it — must fire.
  const uint8_t strategy = in.u8() % 9;
  std::vector<uint8_t> mutated = blob;
  CodecExpectation expectation = CodecExpectation::kReject;
  const char* message = nullptr;  // required rejection substring
  switch (strategy) {
    case 0:  // pristine: the canonical-round-trip leg
      expectation = CodecExpectation::kAccept;
      break;
    case 1:  // any bit flip without a re-stamp fails the integrity check
      mutated[in.u16() % mutated.size()] ^= static_cast<uint8_t>(1u << (in.u8() % 8));
      message = "checksum mismatch";
      break;
    case 2: {  // truncation at an arbitrary point
      const std::size_t keep = in.u16() % (mutated.size() + 1);
      mutated.resize(keep);
      if (keep == blob.size()) expectation = CodecExpectation::kAccept;
      break;
    }
    case 3:  // corrupted magic
      mutated[in.u8() % 8] ^= static_cast<uint8_t>(1u << (in.u8() % 8));
      restamp_checksum(mutated);
      message = "bad magic";
      break;
    case 4:  // version bump (the u16 at offset 8)
      mutated[8 + in.u8() % 2] ^= static_cast<uint8_t>(1 + in.u8() % 255);
      restamp_checksum(mutated);
      message = "unsupported version";
      break;
    case 5:  // ISA tag outside {art9, rv32} (the byte at offset 10)
      mutated[10] = static_cast<uint8_t>(2 + in.u8() % 254);
      restamp_checksum(mutated);
      message = "unknown ISA tag";
      break;
    case 6:  // garbage wedged between payload and checksum
      mutated.insert(mutated.end() - 8, 1 + in.u8() % 8, 0xA5);
      restamp_checksum(mutated);
      message = "trailing";
      break;
    case 7: {  // ISA-specific field violation behind a valid checksum
      const std::vector<std::size_t> bounds = sparse_entry_bounds(blob, use_rv32);
      const std::size_t entries = bounds.size() - 1;
      const auto at = [&mutated, &bounds](std::size_t k) {
        return mutated.begin() + static_cast<std::ptrdiff_t>(bounds[k]);
      };
      const uint8_t pick = in.u8() % 4;
      const std::size_t e = in.u8();
      if (pick == 1 && entries >= 1) {
        // One sparse entry's payload zeroed: the canonical form omits it.
        const std::size_t k = e % entries;
        std::fill(at(k) + 4, at(k + 1), uint8_t{0});
        message = "not canonical";
      } else if (pick == 2 && entries >= 2) {
        // Two adjacent sparse entries swapped: indices must ascend.
        const std::size_t k = e % (entries - 1);
        std::rotate(at(k), at(k + 1), at(k + 2));
        message = "out of order";
      } else if (pick == 3 && entries >= 1) {
        // One sparse entry repeated, the count bumped to match: a
        // duplicate index is out of order too.
        const std::size_t k = e % entries;
        mutated.insert(at(k + 1), blob.begin() + static_cast<std::ptrdiff_t>(bounds[k]),
                       blob.begin() + static_cast<std::ptrdiff_t>(bounds[k + 1]));
        for (std::size_t b = 0; b < 4; ++b) {
          mutated[bounds[0] - 4 + b] = static_cast<uint8_t>((entries + 1) >> (8 * b));
        }
        message = "out of order";
      } else if (use_rv32) {
        // x0 must deserialize as zero: header(11) + u32 pc, then x0.
        mutated[11 + 4 + in.u8() % 4] |= static_cast<uint8_t>(1u << (in.u8() % 8));
        message = "x0";
      } else {
        // First register's i16 (header 11 + i64 pc) pushed to 20000.
        mutated[19] = 0x20;
        mutated[20] = 0x4E;
        message = "outside the 9-trit range";
      }
      restamp_checksum(mutated);
      break;
    }
    default:  // wholly fuzzer-authored bytes: reject-or-round-trip
      mutated.assign(in.u16() % 96, 0);
      for (uint8_t& byte : mutated) byte = in.u8();
      expectation = CodecExpectation::kEither;
      break;
  }

  std::ostringstream tag;
  tag << (use_rv32 ? "rv32" : "art9") << " seed=" << seed << " split=" << split
      << " strategy=" << int(strategy) << " bytes=" << blob.size() << "->" << mutated.size();

  try {
    const sim::MachineState revived = sim::deserialize_snapshot(mutated);
    if (expectation == CodecExpectation::kReject) {
      return "malformed blob accepted (" + tag.str() + ")";
    }
    // The untouched blob must round-trip to the checkpoint state.
    if (mutated == blob && revived != snap) return "round-trip lost state (" + tag.str() + ")";
    // Only canonical blobs are accepted: re-serializing reproduces the bytes.
    if (sim::serialize_snapshot(revived) != mutated) {
      return "accepted blob is not canonical (" + tag.str() + ")";
    }
  } catch (const sim::SimError& e) {
    const std::string what = e.what();
    if (expectation == CodecExpectation::kAccept) {
      return "valid blob rejected: " + what + " (" + tag.str() + ")";
    }
    if (expectation == CodecExpectation::kReject && what.rfind("snapshot:", 0) != 0) {
      return "rejection without the snapshot: prefix: " + what + " (" + tag.str() + ")";
    }
    if (message != nullptr && what.find(message) == std::string::npos) {
      return std::string("wrong rejection: expected \"") + message + "\", got \"" + what + "\" (" +
             tag.str() + ")";
    }
  } catch (const std::exception& e) {
    return std::string("rejected with a non-SimError exception: ") + e.what() + " (" + tag.str() +
           ")";
  }
  return std::nullopt;
}

}  // namespace

FuzzResult run_fuzz_case(const uint8_t* data, std::size_t size) {
  ByteReader in(data, size);
  FuzzResult result;
  std::optional<std::string> divergence;
  switch (in.u8() % 5) {
    case 0:
      result.mode = "art9";
      divergence = check_art9_case(in);
      break;
    case 1:
      result.mode = "rv32";
      divergence = check_rv32_case(in);
      break;
    case 2:
      result.mode = "xlat";
      divergence = check_xlat_case(in);
      break;
    case 3:
      result.mode = "raw";
      divergence = check_raw_case(in);
      break;
    default:
      result.mode = "snapshot";
      divergence = check_snapshot_case(in);
      break;
  }
  if (divergence) {
    result.ok = false;
    result.detail = *divergence;
  }
  return result;
}

std::vector<uint8_t> seeded_input(uint64_t seed, uint64_t index) {
  // mt19937_64 raw output is pinned by the standard, so the stream is
  // identical on every platform/stdlib (same portability argument as
  // ternary/random.hpp).  Enough bytes for the hungriest mode (raw: up
  // to 28 instructions at 5 bytes each).
  std::mt19937_64 rng(seed ^ (index * 0x9e3779b97f4a7c15ULL));
  std::vector<uint8_t> bytes(160);
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    const uint64_t word = rng();
    for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
      bytes[i + b] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return bytes;
}

}  // namespace art9::fuzz

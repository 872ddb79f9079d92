// Unified simulation-engine facade: one API over every execution backend
// of the paper's evaluation framework — both ISAs.
//
// The evaluation is inherently cross-ISA: RV32 baselines (the
// PicoRV32/VexRiscv timing models of Tables II/III) are compared against
// the translated ART-9 ternary core.  The facade therefore spans
//
//   * the seven ART-9 kinds (lazy decode-on-fetch, pre-decoded dispatch,
//     the superblock translation tier over the plane-packed SWAR datapath
//     — kPacked names the same engine — the bit-sliced fleet, and the
//     cycle-accurate pipeline on the reference or the plane-packed
//     datapath), and
//   * the three RV32 kinds (pre-decoded dispatch and the superblock
//     translation tier over it — kRv32Packed names the pre-decoded
//     engine),
//
// behind one contract:
//
//   auto engine = make_engine(EngineKind::kSuperblock, decode(program));
//   RunResult r = engine->run({.max_steps = budget});
//   // r.state / r.stats / r.halt — identical shape for every kind.
//
// Contract guarantees, locked by tests/sim/engine_conformance_test.cpp:
//  * all functional kinds of one ISA produce bit-identical MachineState
//    and SimStats on the same program and budget (the pipeline kinds
//    match ArchState and retired-instruction count; their cycle
//    accounting is their whole point);
//  * budget exhaustion is reported as HaltReason::kMaxCycles by every
//    kind — never left defaulted;
//  * the retired-instruction observer is zero-cost when unset: engines
//    only leave their native hot loop (e.g. the superblock threaded
//    dispatch) when an observer is installed.
//
// Two adapters in engine.cpp implement it.  One template serves every
// instruction-at-a-time kind of both ISAs: it drives a simulator through
// step(), run(max), pc(), state() and restore(), and builds the retire
// stream of every such kind in one place.  PipelineEngine serves the two
// cycle-accurate kinds, whose cycle budgets, per-call stat deltas and
// draining checkpoint are their own contract.  A new instruction-at-a-time
// backend (another datapath, another ISA) is a new EngineKind plus one
// instantiation of the template; no consumer changes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>

#include "isa/instruction.hpp"
#include "rv32/rv32_decoded_image.hpp"
#include "rv32/rv32_sim.hpp"
#include "sim/decoded_image.hpp"
#include "sim/machine.hpp"
#include "sim/pipeline.hpp"

namespace art9::sim {

/// Every execution backend the facade can construct.
enum class EngineKind : uint8_t {
  kLazy,            // seed decode-on-fetch loop (baseline for differential runs)
  kFunctional,      // pre-decoded dispatch fast path (golden model)
  kPacked,          // the kSuperblock engine under its historical name
  kSuperblock,      // superblock translation tier over the packed datapath
  kPipeline,        // cycle-accurate 5-stage pipeline (reference datapath)
  kPackedPipeline,  // the same 5-stage control logic over plane-packed words
  kRv32,            // RV32 baseline, pre-decoded dispatch (reference model)
  kRv32Superblock,  // RV32 superblock translation tier (block batching,
                    // fused load+ALU pairs):
                    // 1.19-1.21x kRv32 on gemm/sobel, where straight-line
                    // runs are long (21/21 interleaved rounds); no
                    // measured difference on bubble-sort or Dhrystone
  kRv32Packed,      // the kRv32 engine under its historical name
  kFleet,           // bit-sliced fleet: 32 ART-9 machines per plane word
};

/// All kinds, in factory order — for generic sweeps (benches, conformance).
[[nodiscard]] constexpr std::array<EngineKind, 10> all_engine_kinds() noexcept {
  return {EngineKind::kLazy,           EngineKind::kFunctional,     EngineKind::kPacked,
          EngineKind::kSuperblock,     EngineKind::kFleet,          EngineKind::kPipeline,
          EngineKind::kPackedPipeline, EngineKind::kRv32,           EngineKind::kRv32Superblock,
          EngineKind::kRv32Packed};
}

/// True for the kinds that execute RV32 programs (an Rv32DecodedImage);
/// the others execute ART-9 programs (a DecodedImage).
[[nodiscard]] constexpr bool is_rv32(EngineKind kind) noexcept {
  return kind == EngineKind::kRv32 || kind == EngineKind::kRv32Superblock ||
         kind == EngineKind::kRv32Packed;
}

/// The seven ART-9 kinds, in factory order.
[[nodiscard]] constexpr std::array<EngineKind, 7> art9_engine_kinds() noexcept {
  return {EngineKind::kLazy,  EngineKind::kFunctional, EngineKind::kPacked,
          EngineKind::kSuperblock, EngineKind::kFleet, EngineKind::kPipeline,
          EngineKind::kPackedPipeline};
}

/// The three RV32 kinds, in factory order.
[[nodiscard]] constexpr std::array<EngineKind, 3> rv32_engine_kinds() noexcept {
  return {EngineKind::kRv32, EngineKind::kRv32Superblock, EngineKind::kRv32Packed};
}

/// True for the cycle-accurate kinds (step() is one clock, budgets are
/// cycle counts, SimStats carry the microarchitectural accounting).
[[nodiscard]] constexpr bool is_cycle_accurate(EngineKind kind) noexcept {
  return kind == EngineKind::kPipeline || kind == EngineKind::kPackedPipeline;
}

/// Stable lower-case name ("lazy", "functional", "packed", "superblock",
/// "fleet", "pipeline", "pipeline_packed", "rv32", "rv32_superblock",
/// "rv32_packed") — the vocabulary of art9-run's --engine= flag and the
/// bench JSON keys.
[[nodiscard]] std::string_view engine_kind_name(EngineKind kind) noexcept;

/// Inverse of engine_kind_name; nullopt for unknown names.
[[nodiscard]] std::optional<EngineKind> parse_engine_kind(std::string_view name) noexcept;

/// Construction-time options.  Functional kinds ignore the pipeline
/// fields; ART-9 kinds ignore rv32_ram_bytes.
/// `pipeline.max_cycles` caps each run() of a cycle-accurate engine in
/// addition to RunOptions::max_steps (the tighter budget wins).
struct EngineOptions {
  PipelineConfig pipeline;  // microarchitecture switches (both pipeline kinds)
  TraceObserver tracer;     // per-cycle pipeline trace stream (both pipeline kinds)
  std::size_t rv32_ram_bytes = 1u << 20;  // data RAM of the rv32 kinds
};

/// Per-run options.  `max_steps` is the step() budget: retired
/// instructions for the functional kinds, clock cycles for the pipeline
/// (its architectural meaning of one step).
struct RunOptions {
  uint64_t max_steps = 100'000'000;
};

/// The architectural state of either ISA, as one comparable value:
/// ART-9 kinds snapshot an ArchState (TRF, TDM, balanced PC), rv32 kinds
/// an Rv32ArchState (x-registers, RAM bytes, byte PC).  Accessors throw
/// SimError when the wrong ISA's view is requested.
class MachineState {
 public:
  MachineState() = default;  // a default-constructed ART-9 state
  /*implicit*/ MachineState(ArchState state) : state_(std::move(state)) {}
  /*implicit*/ MachineState(::art9::rv32::Rv32ArchState state) : state_(std::move(state)) {}

  [[nodiscard]] bool is_art9() const noexcept { return state_.index() == 0; }
  [[nodiscard]] bool is_rv32() const noexcept { return state_.index() == 1; }

  /// The ART-9 view (registers, TDM, PC).  Ref-qualified: on an rvalue —
  /// e.g. `engine->checkpoint().art9()` — the view is *moved out* instead
  /// of referencing the dying temporary, so `const ArchState& s = ...`
  /// lifetime-extends a value rather than dangling (a use-after-free the
  /// differential fuzzer caught in its own harness).
  [[nodiscard]] const ArchState& art9() const& {
    if (const ArchState* s = std::get_if<ArchState>(&state_)) return *s;
    throw SimError("MachineState: rv32 state has no ART-9 view");
  }
  [[nodiscard]] ArchState art9() && {
    if (ArchState* s = std::get_if<ArchState>(&state_)) return std::move(*s);
    throw SimError("MachineState: rv32 state has no ART-9 view");
  }

  /// The rv32 view (x-registers, RAM bytes, PC).  Ref-qualified like art9().
  [[nodiscard]] const ::art9::rv32::Rv32ArchState& rv32() const& {
    if (const auto* s = std::get_if<::art9::rv32::Rv32ArchState>(&state_)) return *s;
    throw SimError("MachineState: ART-9 state has no rv32 view");
  }
  [[nodiscard]] ::art9::rv32::Rv32ArchState rv32() && {
    if (auto* s = std::get_if<::art9::rv32::Rv32ArchState>(&state_)) return std::move(*s);
    throw SimError("MachineState: ART-9 state has no rv32 view");
  }

  friend bool operator==(const MachineState&, const MachineState&) = default;

 private:
  std::variant<ArchState, ::art9::rv32::Rv32ArchState> state_;
};

/// What a run returns, identical for every kind.  `halt` duplicates
/// `stats.halt` so call sites can switch on the reason without digging.
struct RunResult {
  MachineState state;
  SimStats stats;
  HaltReason halt = HaltReason::kHalted;
};

/// One retired instruction, as seen by Engine observers, for either ISA.
/// ART-9 kinds stream isa::Instruction events (the halt pseudo-op never
/// retires); rv32 kinds stream Rv32Instruction events in the convention
/// of rv32::LazyRv32Simulator's stream — the halting ECALL/EBREAK is
/// observed (it feeds the baseline cycle models) and `taken` carries the
/// simulator's branch outcome.
struct Retired {
  std::variant<isa::Instruction, ::art9::rv32::Rv32Instruction> inst;
  int64_t pc = 0;
  uint64_t index = 0;  // sequence number, 0-based from observer installation
  bool taken = false;  // rv32 branches/jumps: condition outcome

  [[nodiscard]] bool is_rv32() const noexcept { return inst.index() == 1; }

  /// The ART-9 instruction (throws std::bad_variant_access on rv32 events).
  [[nodiscard]] const isa::Instruction& art9() const { return std::get<isa::Instruction>(inst); }

  /// The rv32 instruction (throws std::bad_variant_access on ART-9 events).
  [[nodiscard]] const ::art9::rv32::Rv32Instruction& rv32() const {
    return std::get<::art9::rv32::Rv32Instruction>(inst);
  }

  /// The event in the vocabulary of the RV32 timing models
  /// (rv32::PicoRv32CycleModel / rv32::VexRiscvCycleModel::observe).
  [[nodiscard]] ::art9::rv32::Rv32Retired to_rv32() const {
    return ::art9::rv32::Rv32Retired{rv32(), static_cast<uint32_t>(pc), taken};
  }
};

class Engine {
 public:
  using Observer = std::function<void(const Retired&)>;

  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] virtual EngineKind kind() const noexcept = 0;

  /// Executes one step (instruction, or clock cycle for the pipeline).
  /// Returns false once the halt convention retires (the ART-9 self-jump
  /// or the rv32 ECALL/EBREAK).  Observers installed via set_observer
  /// fire for instructions retired by step() too.
  virtual bool step() = 0;

  /// Runs from the current state until halt or the step budget,
  /// returning this run's statistics (per-call, not lifetime — repeated
  /// runs each report only their own steps, on every kind).
  /// `stats.halt` is kMaxCycles on budget exhaustion, kHalted
  /// otherwise — for every kind.  This is the
  /// throughput path: no architectural-state materialization (a state()
  /// copies the whole TDM, a measurable fraction of a short run); inspect
  /// via state() or use run() when the state is wanted.
  virtual SimStats run_stats(const RunOptions& options = {}) = 0;

  /// run_stats() plus a state() snapshot, in one uniform result.
  [[nodiscard]] RunResult run(const RunOptions& options = {}) {
    SimStats stats = run_stats(options);
    return RunResult{state(), stats, stats.halt};
  }

  /// Snapshot of the architectural state.  A packed TRF is decoded at
  /// this boundary; the TDM is one representation on every kind (plane
  /// rows, sim/memory.hpp) and is copied as it is.
  [[nodiscard]] virtual MachineState state() const = 0;

  /// A restorable checkpoint: the architectural state at the next
  /// instruction boundary.  For the functional kinds this is state()
  /// verbatim.  The cycle-accurate kinds first drain in-flight
  /// instructions to a boundary (charging the drain cycles to their
  /// stats) so the checkpoint resumes bit-identically on *any* kind of
  /// the same ISA — including instruction-at-a-time ones; the source
  /// engine itself stays consistent and can keep running.
  [[nodiscard]] virtual MachineState checkpoint() { return state(); }

  /// Replaces the architectural state wholesale (registers, data memory
  /// contents and access counters / RAM bytes, PC) and re-syncs the
  /// fetch path to the snapshot's PC.  Pipelines resume with empty
  /// latches, exactly as if execution had started at the snapshot.
  /// Throws SimError when the snapshot's ISA does not match the
  /// engine's.  Code is not part of the state: the snapshot must have
  /// been taken on an engine over the same program image.
  virtual void restore(const MachineState& snapshot) = 0;

  /// Streams every retired instruction to `observer` (empty to remove).
  /// Engines fall back to an instrumented step loop only while an
  /// observer is installed; the native hot loops are untouched otherwise.
  virtual void set_observer(Observer observer) = 0;

 protected:
  Engine() = default;
};

/// Either ISA's shareable pre-decoded image — what every engine is built
/// from.  A typed shared_ptr (e.g. the result of sim::decode or
/// rv32::decode) converts implicitly.
using EngineImage = std::variant<std::shared_ptr<const DecodedImage>,
                                 std::shared_ptr<const ::art9::rv32::Rv32DecodedImage>>;

/// Constructs an engine of `kind` over a shared immutable image.  Any
/// number of engines (across threads — see SimulationService) may share
/// one image.  Throws std::invalid_argument on a null image or a kind of
/// the other ISA.
[[nodiscard]] std::unique_ptr<Engine> make_engine(EngineKind kind, EngineImage image,
                                                  const EngineOptions& options = {});

/// Constructs an engine of `kind` and resumes it from `snapshot` (e.g.
/// one produced by checkpoint() on any kind of the same ISA, or
/// deserialized via sim/snapshot.hpp) instead of the image's entry
/// state.  The image supplies the code; the snapshot supplies registers,
/// data memory and PC.  An rv32 snapshot's RAM size is adopted,
/// overriding EngineOptions::rv32_ram_bytes.
[[nodiscard]] std::unique_ptr<Engine> make_engine(EngineKind kind, EngineImage image,
                                                  const MachineState& snapshot,
                                                  const EngineOptions& options = {});

}  // namespace art9::sim

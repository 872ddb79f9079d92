#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rv32/rv32_superblock.hpp"
#include "sim/fleet.hpp"
#include "sim/functional_sim.hpp"
#include "sim/packed_pipeline.hpp"
#include "sim/superblock.hpp"

namespace art9::sim {

std::string_view engine_kind_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kLazy:
      return "lazy";
    case EngineKind::kFunctional:
      return "functional";
    case EngineKind::kPacked:
      return "packed";
    case EngineKind::kSuperblock:
      return "superblock";
    case EngineKind::kFleet:
      return "fleet";
    case EngineKind::kPipeline:
      return "pipeline";
    case EngineKind::kPackedPipeline:
      return "pipeline_packed";
    case EngineKind::kRv32:
      return "rv32";
    case EngineKind::kRv32Superblock:
      return "rv32_superblock";
    case EngineKind::kRv32Packed:
      return "rv32_packed";
  }
  return "unknown";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) noexcept {
  for (EngineKind kind : all_engine_kinds()) {
    if (name == engine_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

/// Shared skeleton of the instruction-at-a-time engines.  The native hot
/// loops (pre-decoded switch, block-chained superblock dispatch, fleet
/// cohorts, lazy fetch) run untouched unless an observer is installed;
/// only then do step()/run() route through the instrumented
/// per-instruction loop, so the unobserved steps/s of every backend is
/// exactly the wrapped simulator's.
class FunctionalEngineBase : public Engine {
 public:
  bool step() final {
    if (!observer_) return do_step();
    const int64_t pc = pc_now();
    if (!do_step()) return false;
    observer_(Retired{image_->fetch(pc).inst, pc, retired_++});
    return true;
  }

  SimStats run_stats(const RunOptions& options) final {
    if (!observer_) return do_run(options.max_steps);
    // Observed run: the same budget/halt contract, one observer call per
    // retired instruction (the halt pseudo-op never retires).
    SimStats stats;
    while (stats.instructions < options.max_steps) {
      if (!step()) {
        stats.halt = HaltReason::kHalted;
        stats.cycles = stats.instructions;
        return stats;
      }
      ++stats.instructions;
    }
    stats.halt = HaltReason::kMaxCycles;
    stats.cycles = stats.instructions;
    return stats;
  }

  [[nodiscard]] MachineState state() const final { return MachineState{arch_snapshot()}; }
  // art9() throws SimError on an rv32 snapshot — the ISA-mismatch contract.
  void restore(const MachineState& snapshot) final { do_restore(snapshot.art9()); }
  void set_observer(Observer observer) final {
    observer_ = std::move(observer);
    retired_ = 0;  // every installation numbers its stream from 0
  }

 protected:
  explicit FunctionalEngineBase(std::shared_ptr<const DecodedImage> image)
      : image_(std::move(image)) {}

  virtual bool do_step() = 0;
  virtual SimStats do_run(uint64_t max_instructions) = 0;
  [[nodiscard]] virtual int64_t pc_now() const = 0;
  [[nodiscard]] virtual ArchState arch_snapshot() const = 0;
  virtual void do_restore(const ArchState& state) = 0;

  std::shared_ptr<const DecodedImage> image_;

 private:
  Observer observer_;
  uint64_t retired_ = 0;  // observer stream sequence number
};

class LazyEngine final : public FunctionalEngineBase {
 public:
  explicit LazyEngine(std::shared_ptr<const DecodedImage> image)
      : FunctionalEngineBase(std::move(image)), sim_(image_->program()) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return EngineKind::kLazy; }

 private:
  bool do_step() override { return sim_.step(); }
  SimStats do_run(uint64_t max_instructions) override { return sim_.run(max_instructions); }
  [[nodiscard]] int64_t pc_now() const override { return sim_.state().pc; }
  [[nodiscard]] ArchState arch_snapshot() const override { return sim_.state(); }
  void do_restore(const ArchState& state) override { sim_.restore(state); }

  LazyFunctionalSimulator sim_;
};

class FunctionalEngine final : public FunctionalEngineBase {
 public:
  explicit FunctionalEngine(std::shared_ptr<const DecodedImage> image)
      : FunctionalEngineBase(std::move(image)), sim_(image_) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return EngineKind::kFunctional; }

 private:
  bool do_step() override { return sim_.step(); }
  SimStats do_run(uint64_t max_instructions) override { return sim_.run(max_instructions); }
  [[nodiscard]] int64_t pc_now() const override { return sim_.state().pc; }
  [[nodiscard]] ArchState arch_snapshot() const override { return sim_.state(); }
  void do_restore(const ArchState& state) override { sim_.restore(state); }

  FunctionalSimulator sim_;
};

/// The single-machine packed datapath.  kSuperblock and kPacked (the
/// historical name art9-run, the serve API and the benchmarks still
/// accept) both build this engine; it reports whichever kind it was made
/// as.
class SuperblockEngine final : public FunctionalEngineBase {
 public:
  SuperblockEngine(std::shared_ptr<const DecodedImage> image, EngineKind kind)
      : FunctionalEngineBase(std::move(image)), kind_(kind), sim_(image_) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return kind_; }

 private:
  bool do_step() override { return sim_.step(); }
  SimStats do_run(uint64_t max_instructions) override { return sim_.run(max_instructions); }
  [[nodiscard]] int64_t pc_now() const override { return sim_.pc(); }
  [[nodiscard]] ArchState arch_snapshot() const override { return sim_.unpack_state(); }
  void do_restore(const ArchState& state) override { sim_.restore(state); }

  EngineKind kind_;
  SuperblockSimulator sim_;
};

/// The bit-sliced fleet backend through the single-machine contract:
/// lane 0 of a one-lane FleetSimulator.  The multi-lane surface
/// (advance(), cohorts) is what SimulationService::submit_cohort rides;
/// this facade is what keeps kFleet inside the conformance suite's
/// bit-identity net.
class FleetEngine final : public FunctionalEngineBase {
 public:
  explicit FleetEngine(std::shared_ptr<const DecodedImage> image)
      : FunctionalEngineBase(std::move(image)), sim_(image_, 1) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return EngineKind::kFleet; }

 private:
  bool do_step() override { return sim_.step(); }
  SimStats do_run(uint64_t max_instructions) override { return sim_.run(max_instructions); }
  [[nodiscard]] int64_t pc_now() const override { return sim_.pc(); }
  [[nodiscard]] ArchState arch_snapshot() const override { return sim_.unpack_lane(0); }
  void do_restore(const ArchState& state) override { sim_.restore_lane(0, state); }

  FleetSimulator sim_;
};

/// The cycle-accurate pipelines behind the same contract: step() is one
/// clock, run()'s budget is a cycle budget, and stats carry the full
/// microarchitectural accounting.  The retired-instruction observer rides
/// the WB retire hook, so it sees exactly the same stream (instruction,
/// pc, index) the functional kinds produce.  One template serves both
/// datapaths: Sim is PipelineSimulator (kPipeline) or
/// PackedPipelineSimulator (kPackedPipeline).
template <class Sim, EngineKind Kind>
class PipelineEngine final : public Engine {
 public:
  PipelineEngine(std::shared_ptr<const DecodedImage> image, const EngineOptions& options)
      : sim_(std::move(image), options.pipeline) {
    if (options.tracer) sim_.set_tracer(options.tracer);
  }

  /// Counter-wise `a - b`: the stats accrued after snapshot `b`.
  [[nodiscard]] static SimStats minus(SimStats a, const SimStats& b) noexcept {
    a.cycles -= b.cycles;
    a.instructions -= b.instructions;
    a.stall_load_use -= b.stall_load_use;
    a.stall_branch_hazard -= b.stall_branch_hazard;
    a.stall_raw -= b.stall_raw;
    a.flush_taken_branch -= b.flush_taken_branch;
    a.predictions_correct -= b.predictions_correct;
    a.predictions_wrong -= b.predictions_wrong;
    return a;  // halt carries the outcome of this run
  }

  [[nodiscard]] EngineKind kind() const noexcept override { return Kind; }

  bool step() override { return sim_.step(); }

  SimStats run_stats(const RunOptions& options) override {
    // This run's cycle allowance is RunOptions.max_steps, additionally
    // capped by the config's own per-run budget (both are cycle counts
    // for this kind), applied relative to the cycles already burnt so
    // repeated run() calls see a fresh allowance (saturating on
    // overflow).  The underlying simulator accumulates stats across its
    // lifetime; report this run's *delta* so repeated runs match the
    // per-call stats of the functional kinds.
    const SimStats before = sim_.stats();
    const uint64_t allowance = std::min(options.max_steps, sim_.config().max_cycles);
    const uint64_t limit =
        allowance > UINT64_MAX - before.cycles ? UINT64_MAX : before.cycles + allowance;
    return minus(sim_.run(limit), before);
  }

  [[nodiscard]] MachineState state() const override { return MachineState{sim_.state()}; }

  /// Drains the pipe to an instruction boundary (the drain cycles accrue
  /// to this engine's stats) and returns the boundary state; the engine
  /// itself resumes from that state with empty latches.
  [[nodiscard]] MachineState checkpoint() override { return MachineState{sim_.checkpoint()}; }
  void restore(const MachineState& snapshot) override { sim_.restore_state(snapshot.art9()); }

  void set_observer(Observer observer) override {
    if (!observer) {
      sim_.set_retire_observer({});
      return;
    }
    // Renumber from 0 at installation (the hook's index counts every
    // retire since construction) so the stream matches the functional
    // kinds' numbering whenever the observer is installed.
    sim_.set_retire_observer(
        [observer = std::move(observer), index = uint64_t{0}](const isa::Instruction& inst,
                                                             int64_t pc, uint64_t) mutable {
          observer(Retired{inst, pc, index++});
        });
  }

 private:
  Sim sim_;
};

/// The RV32 baseline backends behind the same contract.  Sim is
/// rv32::Rv32Simulator (kRv32, and kRv32Packed under its historical name)
/// or rv32::Rv32SuperblockSimulator (kRv32Superblock).  The wrapped
/// simulators already carry the observer hook in their native loop
/// (guarded by one branch per retire, exactly the zero-cost-when-unset
/// contract), so the facade only adapts the event type and renumbers the
/// stream from each installation.
template <class Sim, EngineKind Kind>
class Rv32Engine final : public Engine {
 public:
  Rv32Engine(std::shared_ptr<const rv32::Rv32DecodedImage> image, const EngineOptions& options)
      : sim_(std::move(image), options.rv32_ram_bytes) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return Kind; }

  bool step() override { return sim_.step(); }

  SimStats run_stats(const RunOptions& options) override {
    const rv32::Rv32RunStats stats = sim_.run(options.max_steps);
    SimStats out;
    out.instructions = stats.instructions;
    out.cycles = stats.instructions;  // == instructions on functional kinds
    out.halt = stats.halted ? HaltReason::kHalted : HaltReason::kMaxCycles;
    return out;
  }

  [[nodiscard]] MachineState state() const override { return MachineState{sim_.state()}; }
  // rv32() throws SimError on an ART-9 snapshot — the ISA-mismatch contract.
  void restore(const MachineState& snapshot) override { sim_.restore(snapshot.rv32()); }

  void set_observer(Observer observer) override {
    if (!observer) {
      sim_.set_observer({});
      return;
    }
    // Renumber from 0 at installation; the native stream keeps its own
    // convention (the halting ECALL/EBREAK is observed, `taken` carries
    // the branch outcome) — what the baseline cycle models consume.
    sim_.set_observer([observer = std::move(observer),
                       index = uint64_t{0}](const rv32::Rv32Retired& r) mutable {
      observer(Retired{r.inst, static_cast<int64_t>(r.pc), index++, r.taken});
    });
  }

 private:
  Sim sim_;
};

/// The per-ISA factories behind make_engine; `image` is non-null.
std::unique_ptr<Engine> build(EngineKind kind, std::shared_ptr<const DecodedImage> image,
                              const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kLazy:
      return std::make_unique<LazyEngine>(std::move(image));
    case EngineKind::kFunctional:
      return std::make_unique<FunctionalEngine>(std::move(image));
    case EngineKind::kPacked:
    case EngineKind::kSuperblock:
      return std::make_unique<SuperblockEngine>(std::move(image), kind);
    case EngineKind::kFleet:
      return std::make_unique<FleetEngine>(std::move(image));
    case EngineKind::kPipeline:
      return std::make_unique<PipelineEngine<PipelineSimulator, EngineKind::kPipeline>>(
          std::move(image), options);
    case EngineKind::kPackedPipeline:
      return std::make_unique<
          PipelineEngine<PackedPipelineSimulator, EngineKind::kPackedPipeline>>(std::move(image),
                                                                                options);
    case EngineKind::kRv32:
    case EngineKind::kRv32Superblock:
    case EngineKind::kRv32Packed:
      throw std::invalid_argument("make_engine: rv32 kind needs an Rv32DecodedImage");
  }
  throw std::invalid_argument("make_engine: unknown EngineKind");
}

std::unique_ptr<Engine> build(EngineKind kind, std::shared_ptr<const rv32::Rv32DecodedImage> image,
                              const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kRv32:
      return std::make_unique<Rv32Engine<rv32::Rv32Simulator, EngineKind::kRv32>>(std::move(image),
                                                                                  options);
    case EngineKind::kRv32Superblock:
      return std::make_unique<
          Rv32Engine<rv32::Rv32SuperblockSimulator, EngineKind::kRv32Superblock>>(std::move(image),
                                                                                  options);
    case EngineKind::kRv32Packed:
      return std::make_unique<Rv32Engine<rv32::Rv32Simulator, EngineKind::kRv32Packed>>(
          std::move(image), options);
    default:
      throw std::invalid_argument("make_engine: ART-9 kind needs a DecodedImage");
  }
}

}  // namespace

std::unique_ptr<Engine> make_engine(EngineKind kind, EngineImage image,
                                    const EngineOptions& options) {
  return std::visit(
      [&](auto shared) {
        if (!shared) throw std::invalid_argument("make_engine: null image");
        return build(kind, std::move(shared), options);
      },
      std::move(image));
}

std::unique_ptr<Engine> make_engine(EngineKind kind, EngineImage image,
                                    const MachineState& snapshot, const EngineOptions& options) {
  std::unique_ptr<Engine> engine = make_engine(kind, std::move(image), options);
  engine->restore(snapshot);
  return engine;
}

}  // namespace art9::sim

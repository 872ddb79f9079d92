#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
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

/// Every instruction-at-a-time kind of either ISA behind the Engine
/// contract, over the five members each such simulator shares: step(),
/// run(max), pc(), state() and restore().  The native hot loop (pre-decoded
/// switch, block-chained superblock dispatch, fleet cohorts, lazy fetch)
/// runs untouched unless an observer is installed; only then do step()
/// and run_stats() route through observed_step(), so the unobserved
/// steps/s of every backend is exactly the wrapped simulator's.  Kind is a
/// template argument, so kPacked and kRv32Packed (the historical names
/// art9-run, the serve API and the benchmarks still accept) are one more
/// instantiation each over the superblock and rv32 simulators.
template <class Sim, EngineKind Kind>
class InstructionEngine final : public Engine {
  static constexpr bool kRv32 = is_rv32(Kind);
  using Image = std::conditional_t<kRv32, rv32::Rv32DecodedImage, DecodedImage>;

 public:
  InstructionEngine(std::shared_ptr<const Image> image, const EngineOptions& options)
      : image_(std::move(image)), sim_(make_sim(image_, options)) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return Kind; }

  bool step() override { return observer_ ? observed_step() : sim_.step(); }

  SimStats run_stats(const RunOptions& options) override {
    if (observer_) return run_steps(*this, options.max_steps);
    if constexpr (kRv32) {
      const rv32::Rv32RunStats stats = sim_.run(options.max_steps);
      return functional_stats(stats.instructions, stats.halted);
    } else {
      return sim_.run(options.max_steps);
    }
  }

  [[nodiscard]] MachineState state() const override { return MachineState{sim_.state()}; }

  // art9()/rv32() throw SimError on the other ISA's snapshot — the
  // ISA-mismatch contract.
  void restore(const MachineState& snapshot) override {
    if constexpr (kRv32) {
      sim_.restore(snapshot.rv32());
    } else {
      sim_.restore(snapshot.art9());
    }
  }

  void set_observer(Observer observer) override {
    observer_ = std::move(observer);
    retired_ = 0;  // every installation numbers its stream from 0
  }

 private:
  static Sim make_sim(const std::shared_ptr<const Image>& image, const EngineOptions& options) {
    if constexpr (kRv32) {
      return Sim(image, options.rv32_ram_bytes);
    } else if constexpr (std::is_same_v<Sim, LazyFunctionalSimulator>) {
      return Sim(image->program());  // decode-on-fetch is the point of this kind
    } else {
      return Sim(image);
    }
  }

  /// One instruction with its retire event — the stream of every kind,
  /// built here.  ART-9's halt pseudo-op never retires; rv32 streams the
  /// halting ECALL/EBREAK, which the baseline cycle models charge, and
  /// the simulator's own branch outcome.
  bool observed_step() {
    const auto pc = sim_.pc();
    const bool more = sim_.step();
    if constexpr (kRv32) {
      observer_(Retired{image_->instruction(image_->row_of(pc)), pc, retired_++, sim_.taken()});
    } else if (more) {
      observer_(Retired{image_->instruction(image_->row_of(pc)), pc, retired_++});
    }
    return more;
  }

  std::shared_ptr<const Image> image_;
  Sim sim_;
  Observer observer_;
  uint64_t retired_ = 0;  // observer stream sequence number
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

/// The per-ISA factories behind make_engine; `image` is non-null.
std::unique_ptr<Engine> build(EngineKind kind, std::shared_ptr<const DecodedImage> image,
                              const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kLazy:
      return std::make_unique<InstructionEngine<LazyFunctionalSimulator, EngineKind::kLazy>>(
          std::move(image), options);
    case EngineKind::kFunctional:
      return std::make_unique<InstructionEngine<FunctionalSimulator, EngineKind::kFunctional>>(
          std::move(image), options);
    case EngineKind::kPacked:
      return std::make_unique<InstructionEngine<SuperblockSimulator, EngineKind::kPacked>>(
          std::move(image), options);
    case EngineKind::kSuperblock:
      return std::make_unique<InstructionEngine<SuperblockSimulator, EngineKind::kSuperblock>>(
          std::move(image), options);
    case EngineKind::kFleet:
      return std::make_unique<InstructionEngine<FleetSimulator, EngineKind::kFleet>>(
          std::move(image), options);
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
      return std::make_unique<InstructionEngine<rv32::Rv32Simulator, EngineKind::kRv32>>(
          std::move(image), options);
    case EngineKind::kRv32Superblock:
      return std::make_unique<
          InstructionEngine<rv32::Rv32SuperblockSimulator, EngineKind::kRv32Superblock>>(
          std::move(image), options);
    case EngineKind::kRv32Packed:
      return std::make_unique<InstructionEngine<rv32::Rv32Simulator, EngineKind::kRv32Packed>>(
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

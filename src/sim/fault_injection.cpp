#include "sim/fault_injection.hpp"

#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace art9::sim {

namespace {

/// Engine decorator: runs the inner engine in sub-slices cut at the
/// plan's event points, so a fault lands after *exactly* N executed
/// steps no matter what budgets callers pass.
class FaultInjectedEngine final : public Engine {
 public:
  FaultInjectedEngine(std::unique_ptr<Engine> inner, std::shared_ptr<FaultState> state)
      : inner_(std::move(inner)), state_(std::move(state)) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return inner_->kind(); }

  bool step() override {
    const bool more = inner_->step();
    state_->advance(1);  // may stall or throw TransientFault
    return more;
  }

  SimStats run_stats(const RunOptions& options) override {
    SimStats total;
    total.halt = HaltReason::kMaxCycles;
    uint64_t remaining = options.max_steps;
    while (remaining > 0) {
      const uint64_t slice = std::min(remaining, state_->steps_until_event());
      const SimStats s = inner_->run_stats({slice});
      accumulate_stats(total, s);
      remaining -= std::min(remaining, s.cycles);
      state_->advance(s.cycles);  // may stall or throw TransientFault
      if (s.halt == HaltReason::kHalted) {
        total.halt = HaltReason::kHalted;
        break;
      }
      if (s.cycles == 0) break;  // zero-step slice: nothing can ever progress
    }
    return total;
  }

  [[nodiscard]] MachineState state() const override { return inner_->state(); }
  [[nodiscard]] MachineState checkpoint() override { return inner_->checkpoint(); }
  void restore(const MachineState& snapshot) override { inner_->restore(snapshot); }
  void set_observer(Observer observer) override { inner_->set_observer(std::move(observer)); }

 private:
  std::unique_ptr<Engine> inner_;
  std::shared_ptr<FaultState> state_;
};

}  // namespace

FaultPlan FaultPlan::seeded(uint64_t seed, uint64_t max_step, unsigned throws) noexcept {
  // mt19937_64 raw output is pinned by the standard, so a seeded plan is
  // identical on every platform (the repo-wide portability argument).
  std::mt19937_64 rng(seed);
  FaultPlan plan;
  plan.seed = seed;
  plan.throw_at_step = max_step == 0 ? 0 : 1 + rng() % max_step;
  plan.throw_count = throws;
  return plan;
}

uint64_t FaultState::steps_until_event() const noexcept {
  uint64_t next = std::numeric_limits<uint64_t>::max();
  if (plan_.throw_at_step != 0 && fired_ < plan_.throw_count) {
    const uint64_t at = plan_.throw_at_step * (static_cast<uint64_t>(fired_) + 1);
    if (at > steps_) next = std::min(next, at - steps_);
  }
  if (plan_.stall_at_step != 0 && !stalled_ && plan_.stall_at_step > steps_) {
    next = std::min(next, plan_.stall_at_step - steps_);
  }
  return next;
}

void FaultState::advance(uint64_t steps) {
  steps_ += steps;
  if (plan_.stall_at_step != 0 && !stalled_ && steps_ >= plan_.stall_at_step) {
    stalled_ = true;
    std::this_thread::sleep_for(plan_.stall_for);
  }
  if (plan_.throw_at_step != 0 && fired_ < plan_.throw_count &&
      steps_ >= plan_.throw_at_step * (static_cast<uint64_t>(fired_) + 1)) {
    ++fired_;
    throw TransientFault("fault injection: transient fault #" + std::to_string(fired_) +
                         " at step " + std::to_string(steps_) +
                         " (seed=" + std::to_string(plan_.seed) + ")");
  }
}

void FaultState::mutate_checkpoint(std::vector<uint8_t>& blob) {
  ++checkpoints_;
  if (plan_.corrupt_checkpoint == 0 || checkpoints_ != plan_.corrupt_checkpoint || blob.empty()) {
    return;
  }
  std::mt19937_64 rng(plan_.seed ^ 0x636f727275707421ULL);  // "corrupt!"
  blob[rng() % blob.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
}

std::unique_ptr<Engine> with_fault_injection(std::unique_ptr<Engine> inner,
                                             std::shared_ptr<FaultState> state) {
  if (!inner) throw std::invalid_argument("with_fault_injection: null engine");
  if (!state) throw std::invalid_argument("with_fault_injection: null fault state");
  return std::make_unique<FaultInjectedEngine>(std::move(inner), std::move(state));
}

}  // namespace art9::sim

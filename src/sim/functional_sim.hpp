// Functional (instruction-at-a-time) ART-9 simulator — the golden model
// that the cycle-accurate pipeline is differentially tested against.
//
// The hot loop runs off a pre-decoded DecodedImage — the same rows the
// packed kinds run, read through their Word9 operand — so dispatch is a
// single dense-kind switch with precomputed PC chains (see
// decoded_image.hpp).  The seed's lazy decode-on-fetch loop is retained
// as LazyFunctionalSimulator so the dispatch fast path stays
// differentially testable and benchmarkable against the original.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hpp"
#include "sim/decoded_image.hpp"
#include "sim/machine.hpp"

namespace art9::sim {

class FunctionalSimulator {
 public:
  /// Decodes `program` into a private image.
  explicit FunctionalSimulator(const isa::Program& program);

  /// Runs off a shared pre-decoded image (SimulationService, differential
  /// harnesses).  `image` must be non-null.
  explicit FunctionalSimulator(std::shared_ptr<const DecodedImage> image);

  /// Executes one instruction.  Returns false when the HALT convention
  /// (self-jump) executes — state.pc then rests on the halt instruction.
  bool step();

  /// Runs until HALT or `max_instructions`.
  SimStats run(uint64_t max_instructions = 100'000'000);

  [[nodiscard]] const ArchState& state() const noexcept { return state_; }
  [[nodiscard]] int64_t pc() const noexcept { return state_.pc; }

  /// Replaces the architectural state wholesale (snapshot restore) and
  /// re-syncs the cached fetch row with the restored PC.
  void restore(const ArchState& state) {
    state_ = state;
    row_ = DecodedImage::row_of(state_.pc);
  }

  /// The pre-decoded image this simulator executes.
  [[nodiscard]] const DecodedImage& image() const noexcept { return *image_; }

  /// Convenience accessors.
  [[nodiscard]] const ternary::Word9& reg(int index) const { return state_.trf.read(index); }
  [[nodiscard]] int64_t reg_int(int index) const { return state_.trf.read(index).to_int(); }

 private:
  std::shared_ptr<const DecodedImage> image_;
  ArchState state_;
  // Current fetch row, kept in lock-step with state_.pc so sequential
  // flow chases precomputed row links instead of re-folding the PC.
  std::size_t row_ = 0;
};

/// The seed's decode-on-fetch simulator: per-step validity branch, spec
/// lookup and PC wrap.  Kept as the reference baseline for the
/// pre-decoded dispatch fast path (differential tests, bench_micro_sim).
class LazyFunctionalSimulator {
 public:
  explicit LazyFunctionalSimulator(const isa::Program& program);

  bool step();
  SimStats run(uint64_t max_instructions = 100'000'000);

  [[nodiscard]] const ArchState& state() const noexcept { return state_; }
  [[nodiscard]] int64_t pc() const noexcept { return state_.pc; }

  /// Replaces the architectural state wholesale (snapshot restore).  The
  /// TIM is untouched: code comes from the program, never the snapshot
  /// (self-modifying code is unsupported by design).
  void restore(const ArchState& state) { state_ = state; }

  [[nodiscard]] const ternary::Word9& reg(int index) const { return state_.trf.read(index); }
  [[nodiscard]] int64_t reg_int(int index) const { return state_.trf.read(index).to_int(); }

 private:
  const isa::Instruction& fetch(int64_t pc) const;

  ArchState state_;
  // The TIM is the program's code, fetched at the pc's row offset from the
  // entry's (self-modifying code unsupported, by design).
  std::vector<isa::Instruction> code_;
  std::size_t entry_row_;
};

}  // namespace art9::sim

// Shared simulator types: architectural state, halt reasons, statistics.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "isa/encoding.hpp"
#include "isa/program.hpp"
#include "sim/memory.hpp"
#include "sim/regfile.hpp"

namespace art9::sim {

/// Raised on architectural errors (fetch from uninitialised TIM, invalid
/// encoding reached the decoder, cycle budget exhausted).
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A *transient* fault: the execution environment hiccuped (injected
/// fault, lost worker, torn checkpoint) rather than the program being
/// architecturally wrong.  Distinguished from plain SimError because the
/// two demand opposite scheduling policies — a SimError trap is
/// deterministic (replaying the program re-traps, so retrying is
/// pointless and the job resolves kTrapped), while a TransientFault is
/// worth retrying from the last checkpoint (SimulationService's
/// checkpoint-based retry path; exhausting the retry budget resolves
/// kFaulted).  Thrown by the fault-injection layer
/// (sim/fault_injection.hpp) and by any future engine seam that detects
/// a recoverable environment failure.
class TransientFault : public SimError {
 public:
  using SimError::SimError;
};

/// Why a run() returned.
enum class HaltReason {
  kHalted,       // executed the HALT convention (self-jump)
  kMaxCycles,    // budget exhausted before halting
};

/// Architectural state shared by the functional and pipelined simulators.
/// Differential tests compare these field-by-field.
struct ArchState {
  RegFile trf;
  TernaryMemory tdm;
  int64_t pc = 0;  // balanced 9-trit value

  /// Wraps a balanced value into the 9-trit range (what the PC register and
  /// address adders do on overflow).
  [[nodiscard]] static int64_t wrap(int64_t value) noexcept {
    return ternary::Word9::from_int_wrapped(value).to_int();
  }

  friend bool operator==(const ArchState&, const ArchState&) = default;
};

/// Run statistics.  The pipeline model fills every field; the functional
/// model only counts retired instructions (its "cycles" equal instructions).
struct SimStats {
  uint64_t cycles = 0;
  uint64_t instructions = 0;       // retired, excluding squashed bubbles
  uint64_t stall_load_use = 0;     // cycles lost to load-use interlocks
  uint64_t stall_branch_hazard = 0;  // cycles lost waiting for branch/JALR operands
  uint64_t stall_raw = 0;          // cycles lost to RAW interlocks when forwarding is off
  uint64_t flush_taken_branch = 0;   // wrong-path fetches squashed by taken branches/jumps
  uint64_t predictions_correct = 0;  // static-prediction hits (no bubble paid)
  uint64_t predictions_wrong = 0;    // mispredictions (bubble paid as usual)
  HaltReason halt = HaltReason::kHalted;

  friend bool operator==(const SimStats&, const SimStats&) = default;

  /// Cycles per retired instruction.
  [[nodiscard]] double cpi() const {
    return instructions == 0 ? 0.0 : static_cast<double>(cycles) / static_cast<double>(instructions);
  }
};

/// The stats of a functional run: cycles equal the retired instructions,
/// and the run ended at the halt convention or at its budget.
[[nodiscard]] inline SimStats functional_stats(uint64_t instructions, bool halted) noexcept {
  SimStats stats;
  stats.instructions = instructions;
  stats.cycles = instructions;
  stats.halt = halted ? HaltReason::kHalted : HaltReason::kMaxCycles;
  return stats;
}

/// The run contract of every instruction-at-a-time ART-9 loop: calls
/// `sim.step()` until the halt convention or until `max_instructions`
/// have retired, counting on from `stats` (a block loop's partial-block
/// tail continues its count).  The halt pseudo-op never retires.  A
/// header template so each simulator's .cpp instantiates it over its own
/// step(), which inlines.
template <class Sim>
SimStats run_steps(Sim& sim, uint64_t max_instructions, SimStats stats = {}) {
  for (; stats.instructions < max_instructions; ++stats.instructions) {
    if (!sim.step()) return functional_stats(stats.instructions, true);
  }
  return functional_stats(stats.instructions, false);
}

/// Field-wise accumulation of per-call run_stats deltas — the contract
/// that slicing one run into chunks reports the same totals as one call.
/// `halt` is NOT combined: it names a reason, not a count, so the caller
/// decides which slice's reason stands.
inline void accumulate_stats(SimStats& total, const SimStats& slice) noexcept {
  total.cycles += slice.cycles;
  total.instructions += slice.instructions;
  total.stall_load_use += slice.stall_load_use;
  total.stall_branch_hazard += slice.stall_branch_hazard;
  total.stall_raw += slice.stall_raw;
  total.flush_taken_branch += slice.flush_taken_branch;
  total.predictions_correct += slice.predictions_correct;
  total.predictions_wrong += slice.predictions_wrong;
}

/// Rejects loadable addresses outside the 9-trit balanced range, naming the
/// faulting address.  .t9 images carry arbitrary int64 addresses; silently
/// folding an out-of-range entry or data word modulo 3^9 would load a
/// different program than the image describes (and `entry + i` arithmetic
/// downstream could overflow).  Mirrors the rv32 check_ram_range contract.
inline void check_t9_address(int64_t address, const char* what) {
  if (address < -ternary::Word9::kMaxValue || address > ternary::Word9::kMaxValue) {
    throw SimError("art9 " + std::string(what) + " address " + std::to_string(address) +
                   " outside the 9-trit range [-9841, 9841]");
  }
}

/// Rejects a program that would load as a different one or holds an
/// instruction with no encoding: an entry or data word outside the 9-trit
/// range, more instructions than the TIM has rows (the excess would wrap
/// onto the first rows), or an instruction isa::field_violation names —
/// even one that would never run ("malformed immediate at address 6:
/// ANDI T1, 14").
inline void check_t9_program(const isa::Program& program) {
  check_t9_address(program.entry, "entry");
  if (program.code.size() > static_cast<std::size_t>(TernaryMemory::kRows)) {
    throw SimError("art9 program of " + std::to_string(program.code.size()) +
                   " instructions exceeds the " + std::to_string(TernaryMemory::kRows) +
                   "-row TIM");
  }
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    if (const std::optional<isa::FieldViolation> v = isa::field_violation(program.code[i])) {
      const int64_t pc = ArchState::wrap(program.entry + static_cast<int64_t>(i));
      throw SimError("malformed " + std::string(v->field) + " at address " + std::to_string(pc) +
                     ": " + v->text);
    }
  }
  for (const isa::DataWord& d : program.data) check_t9_address(d.address, "data-word");
}

/// The index into `program.code` of TIM row `row`: code fills the rows
/// from `entry_row` on, wrapping mod 3^9.  An index past the code is a
/// row that holds none.
[[nodiscard]] inline std::size_t code_index(std::size_t row, std::size_t entry_row) noexcept {
  constexpr auto kRows = static_cast<std::size_t>(TernaryMemory::kRows);
  return (row + kRows - entry_row) % kRows;
}

/// Checks `program` (check_t9_program), loads it into the TDM and resets
/// `state`.  (The TIM is each simulator's own; self-modifying code is out
/// of scope by design.)
inline void load_data(const isa::Program& program, ArchState& state) {
  check_t9_program(program);
  for (const isa::DataWord& d : program.data) state.tdm.poke(d.address, d.value);
  state.pc = program.entry;
}

}  // namespace art9::sim

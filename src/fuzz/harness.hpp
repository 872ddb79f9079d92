// Coverage-guided differential fuzz harness over the engine facade.
//
// One byte string decodes into one differential test case: a mode
// selector, a generator seed, budget/option bits, and (for the raw mode)
// instruction fields.  The case runs the same program on every
// conformant backend pair and demands full parity:
//
//   * mode 0 — ART-9 progen: a random always-halting ART-9 program runs
//     on all five ART-9 kinds against the lazy (seed-loop) reference —
//     MachineState, SimStats and retired-instruction observer streams at
//     a randomized budget for the functional kinds; architectural state,
//     retire count and stream at halt for the pipeline kinds — plus a
//     snapshot leg: freeze kind A mid-run, serialize -> deserialize,
//     resume on kind B, and the final state must equal never having
//     been interrupted.
//   * mode 1 — rv32 progen: both rv32 kinds against the seed
//     LazyRv32Simulator (state, stats, streams, randomized budget and
//     RAM size) with the same embedded snapshot leg.
//   * mode 2 — xlat: translate the generated rv32 program through
//     xlat::SoftwareFramework and compare the translated run (on a
//     fuzz-chosen ART-9 kind) against the rv32-native run through the
//     register-location map and the memory-slot correspondence.
//   * mode 3 — raw instruction words: arbitrary (valid-range) ART-9
//     instructions with wild control flow, run on the three functional
//     kinds under a small budget — outcome parity includes *traps*: all
//     kinds must throw the same error text, or none.
//   * mode 4 — snapshot codec: serialize a genuine checkpoint of a
//     fuzz-chosen ISA/kind/split, mutate the blob (bit flips, truncation,
//     checksum-re-stamped structural edits including sparse-table
//     violations, wholly forged bytes), and demand deserialize_snapshot
//     either throws the precisely named "snapshot: ..." SimError or
//     accepts a canonical blob — one that re-serializes to its own bytes
//     (pristine blobs additionally round-trip to the checkpoint state).
//   * mode 5 — api: a short program as an isa::Program built in code can
//     hold it — any opcode byte, register, condition or immediate in some
//     instructions, then HALT — must be rejected at construction by every
//     ART-9 kind with the same text, or run on every kind exactly as on
//     lazy (the functional kinds at the budget, the pipeline kinds at
//     halt).
//
// The harness is deliberately libFuzzer-agnostic: fuzz/fuzz_differential.cpp
// wraps run_fuzz_case as a LLVMFuzzerTestOneInput, and tools/art9_fuzz.cpp
// drives the identical code from a seeded RNG with no fuzzer runtime —
// the CI smoke path and the repro replayer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace art9::fuzz {

/// Outcome of one fuzz case.
struct FuzzResult {
  bool ok = true;
  std::string mode;    // oracle ran: "art9", "rv32", "xlat", "raw", "snapshot", "api"
  std::string detail;  // divergence description; empty when ok
};

/// Decodes `data` into a differential case and runs it (see above).
/// Exhausted input bytes read as zero, so every byte string is a valid
/// case.  Never throws: a backend trap is part of the compared outcome,
/// and a divergence is reported in the result, not thrown.
[[nodiscard]] FuzzResult run_fuzz_case(const uint8_t* data, std::size_t size);

/// Deterministic input for iteration `index` of a seeded CLI run: a
/// byte string drawn from mt19937_64(seed ^ index) — the libFuzzer-free
/// driver's input source (same distribution on every platform).
[[nodiscard]] std::vector<uint8_t> seeded_input(uint64_t seed, uint64_t index);

}  // namespace art9::fuzz

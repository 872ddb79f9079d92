// Ternary data memory (TDM) model, the one TDM of every ART-9 kind.
//
// The hardware decodes a 9-trit address pattern to one of 3^9 = 19683 rows
// using the unsigned digit interpretation (paper §II-A).  Software-visible
// addresses in this repository are balanced values; the bijection is
// row = balanced + 9841 (mod 19683).  Reads/writes are counted so cycle
// models and power estimators can charge per-access energy.
//
// Rows are binary-coded ternary plane pairs (BctWord9, 18 bits), the
// encoding the paper's FPGA platform stores (§V-B).  The packed kinds
// move rows as they are; the reference kinds decode a row at each LOAD
// and encode one at each STORE.  So every kind holds the same memory, and
// a state snapshot copies it without a conversion.
#pragma once

#include <cstdint>
#include <vector>

#include "ternary/bct.hpp"
#include "ternary/word.hpp"

namespace art9::sim {

class TernaryMemory {
 public:
  /// Full 9-trit address space.
  static constexpr int64_t kRows = ternary::Word9::kStates;  // 19683

  TernaryMemory() : rows_(static_cast<std::size_t>(kRows)) {}

  /// Row index for a balanced address (wraps modulo 3^9).  Reduces before
  /// biasing: `balanced_address + kMaxValue` would be signed overflow (UB)
  /// for addresses near INT64_MAX — the same wraparound class the rv32 RAM
  /// checks were hardened against — and .t9 images can carry any int64.
  [[nodiscard]] static std::size_t row_of(int64_t balanced_address) noexcept {
    int64_t r = balanced_address % kRows;  // (-kRows, kRows): safe to bias
    r += ternary::Word9::kMaxValue;
    if (r < 0) r += kRows;
    if (r >= kRows) r -= kRows;
    return static_cast<std::size_t>(r);
  }

  // --- by balanced address, in the reference representation --------------

  /// Counted LOAD: decodes the row.
  [[nodiscard]] ternary::Word9 read(int64_t balanced_address) {
    ++reads_;
    return rows_[row_of(balanced_address)].decode();
  }

  /// Read without bumping the access counters (debug/bench inspection).
  [[nodiscard]] ternary::Word9 peek(int64_t balanced_address) const {
    return rows_[row_of(balanced_address)].decode();
  }

  /// Counted STORE: encodes the row.
  void write(int64_t balanced_address, const ternary::Word9& value) {
    ++writes_;
    rows_[row_of(balanced_address)] = ternary::BctWord9::encode(value);
  }

  /// Direct initialisation (program load) — not counted as an access.
  void poke(int64_t balanced_address, const ternary::Word9& value) {
    rows_[row_of(balanced_address)] = ternary::BctWord9::encode(value);
  }

  // --- by row index, as plane pairs -------------------------------------

  /// Counted read by pre-folded row index (the packed kinds fold addresses
  /// with ternary::packed::row_of).
  [[nodiscard]] const ternary::BctWord9& read_row(std::size_t row) noexcept {
    ++reads_;
    return rows_[row];
  }

  /// Counted write by pre-folded row index.
  void write_row(std::size_t row, const ternary::BctWord9& value) noexcept {
    ++writes_;
    rows_[row] = value;
  }

  /// Uncounted row read — whole-memory walks (comparison, snapshots).
  [[nodiscard]] const ternary::BctWord9& row(std::size_t r) const noexcept { return rows_[r]; }

  /// Hot-loop escape hatch: raw row storage for a register-resident
  /// execute loop.  Callers that bypass read_row/write_row must account
  /// their accesses via add_counters before the next inspection.
  [[nodiscard]] ternary::BctWord9* data() noexcept { return rows_.data(); }
  void add_counters(uint64_t reads, uint64_t writes) noexcept {
    reads_ += reads;
    writes_ += writes;
  }

  [[nodiscard]] uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] uint64_t writes() const noexcept { return writes_; }

  /// Restores the access counters (snapshot restore resumes the
  /// accounting where the snapshot left it).
  void set_counters(uint64_t reads, uint64_t writes) noexcept {
    reads_ = reads;
    writes_ = writes;
  }

  /// Bit-identical comparison: contents *and* access counters (two equal
  /// memories are indistinguishable to cycle/power models too).
  friend bool operator==(const TernaryMemory&, const TernaryMemory&) = default;

 private:
  std::vector<ternary::BctWord9> rows_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace art9::sim

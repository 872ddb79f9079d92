// Plane-packed SWAR datapath — the host-side realization of the paper's
// FPGA emulation strategy (§V-B): every ternary block becomes a handful of
// binary operations on two bit-planes.
//
// Tritwise logic is already 2-3 bitwise ops on the planes (bct.hpp).  This
// header adds the *arithmetic* half of the TALU in branchless form:
//
//  * packed -> balanced-int in two loads from a 512-entry plane-value
//    table and a subtract, and balanced-int -> packed as one divide-by-3^5
//    split plus loads from a 243-entry and an 81-entry half-word plane
//    table — all tables together stay under 2.5 KB, so the hot loop's
//    conversion state is permanently L1-resident;
//  * ADD/SUB/compare in the value domain: integer add, a precomputed
//    mod-3^9 wrap as two conditional moves, then table loads back to
//    planes — no per-trit carry ripple;
//  * the unsigned-domain helpers the simulators need (register shift
//    amounts, memory row decode) as a couple of shifts/adds.
//
// All of them are free functions over BctWord9, the one packed word type:
// the superblock tier, the fleet's scalar lanes and the packed pipeline
// run on them (through sim/packed_alu.hpp's cells).
//
// Everything is constexpr, so every operation here is usable in constant
// expressions (tests/ternary/packed_word_test.cpp) and the packed-vs-
// reference equivalence suite (tests/ternary/packed_test.cpp) checks them
// exhaustively.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ternary/bct.hpp"
#include "ternary/word.hpp"

namespace art9::ternary::packed {

/// Number of 9-trit states (3^9) and the balanced range bounds.
inline constexpr int32_t kStates = static_cast<int32_t>(Word9::kStates);   // 19683
inline constexpr int32_t kMax = static_cast<int32_t>(Word9::kMaxValue);    //  9841
inline constexpr int32_t kMin = static_cast<int32_t>(Word9::kMinValue);    // -9841

namespace detail {

/// plane -> sum of 3^i over set bits: to_int(w) = table[pos] - table[neg].
constexpr std::array<int16_t, 512> make_plane_value() {
  std::array<int16_t, 512> table{};
  for (uint32_t mask = 0; mask < 512; ++mask) {
    int32_t value = 0;
    int32_t p = 1;
    for (int i = 0; i < 9; ++i) {
      if ((mask >> i) & 1u) value += p;
      p *= 3;
    }
    table[mask] = static_cast<int16_t>(value);
  }
  return table;
}

/// Packed planes as (neg << 16) | pos for `digits` unsigned base-3 digits
/// of `u`, trit i = digit i - 1, bit positions starting at `shift`.
constexpr uint32_t planes_of_unsigned(uint32_t u, int digits, int shift) {
  uint32_t neg = 0;
  uint32_t pos = 0;
  for (int i = 0; i < digits; ++i) {
    const uint32_t level = u % 3;
    u /= 3;
    if (level == 0) neg |= 1u << (shift + i);
    if (level == 2) pos |= 1u << (shift + i);
  }
  return (neg << 16) | pos;
}

/// Unsigned low 5 digits (value + kMax in [0, 242]) -> planes of trits 0..4.
constexpr std::array<uint32_t, 243> make_packed_low() {
  std::array<uint32_t, 243> table{};
  for (uint32_t u = 0; u < 243; ++u) table[u] = planes_of_unsigned(u, 5, 0);
  return table;
}

/// Unsigned high 4 digits ((value + kMax) / 243 in [0, 80]) -> planes of
/// trits 5..8, pre-shifted into position.
constexpr std::array<uint32_t, 81> make_packed_high() {
  std::array<uint32_t, 81> table{};
  for (uint32_t u = 0; u < 81; ++u) table[u] = planes_of_unsigned(u, 4, 5);
  return table;
}

}  // namespace detail

inline constexpr std::array<int16_t, 512> kPlaneValue = detail::make_plane_value();
inline constexpr std::array<uint32_t, 243> kPackedLow = detail::make_packed_low();
inline constexpr std::array<uint32_t, 81> kPackedHigh = detail::make_packed_high();

/// Balanced value of a packed word: two table loads and a subtract.
[[nodiscard]] constexpr int32_t to_int(const BctWord9& w) noexcept {
  return kPlaneValue[w.pos_plane()] - kPlaneValue[w.neg_plane()];
}

/// Packed word for a balanced value: one divide-by-243 split (a
/// multiply-shift after strength reduction) and two small-table loads.
/// Precondition: v in [kMin, kMax].
[[nodiscard]] constexpr BctWord9 from_int(int32_t v) noexcept {
  const uint32_t u = static_cast<uint32_t>(v + kMax);  // unsigned digit view
  const uint32_t planes = kPackedLow[u % 243u] | kPackedHigh[u / 243u];
  return BctWord9::from_planes_unchecked(planes >> 16, planes & BctWord9::kMask);
}

/// Reduces a value into [kMin, kMax] modulo 3^9.  Branchless for the
/// datapath's overflow range: precondition |v| < 2 * kStates (one
/// correction per side), which covers every sum/difference of two in-range
/// values plus a small immediate.
[[nodiscard]] constexpr int32_t wrap(int32_t v) noexcept {
  v += v < kMin ? kStates : 0;
  v -= v > kMax ? kStates : 0;
  return v;
}

/// Balanced addition modulo 3^9 — the packed TALU ADD cell.
[[nodiscard]] constexpr BctWord9 add(const BctWord9& a, const BctWord9& b) noexcept {
  return from_int(wrap(to_int(a) + to_int(b)));
}

/// a + imm for a small pre-validated immediate (|imm| <= kStates - 1).
[[nodiscard]] constexpr BctWord9 add_int(const BctWord9& a, int32_t imm) noexcept {
  return from_int(wrap(to_int(a) + imm));
}

/// Balanced subtraction modulo 3^9 — the packed TALU SUB cell.
[[nodiscard]] constexpr BctWord9 sub(const BctWord9& a, const BctWord9& b) noexcept {
  return from_int(wrap(to_int(a) - to_int(b)));
}

/// sign(a - b) in {-1, 0, +1} — the packed compare tree.
[[nodiscard]] constexpr int compare(const BctWord9& a, const BctWord9& b) noexcept {
  const int32_t d = to_int(a) - to_int(b);
  return (d > 0) - (d < 0);
}

/// COMP result word: sign(a - b) in the least-significant trit, upper trits
/// zero (mirrors sim::comp_result).
[[nodiscard]] constexpr BctWord9 comp_word(const BctWord9& a, const BctWord9& b) noexcept {
  const int c = compare(a, b);
  return BctWord9::from_planes_unchecked(static_cast<uint32_t>(c < 0), static_cast<uint32_t>(c > 0));
}

/// Unsigned shift amount from the two least-significant trits (the
/// register-shift forms SR/SL, paper Table I): level(w[1]) * 3 + level(w[0]),
/// always in [0, 8].
[[nodiscard]] constexpr unsigned shift_amount(const BctWord9& w) noexcept {
  const uint32_t pos = w.pos_plane();
  const uint32_t neg = w.neg_plane();
  const uint32_t level0 = 1u + (pos & 1u) - (neg & 1u);
  const uint32_t level1 = 1u + ((pos >> 1) & 1u) - ((neg >> 1) & 1u);
  return level1 * 3u + level0;
}

/// Memory/TIM row of a balanced address: (v + kMax) mod 3^9, branchless.
/// Precondition: |v| < 2 * kStates (one correction per side), which holds
/// for any base register value plus an imm3 offset.
[[nodiscard]] constexpr std::size_t row_of(int32_t v) noexcept {
  int32_t r = v + kMax;
  r += r < 0 ? kStates : 0;
  r -= r >= kStates ? kStates : 0;
  return static_cast<std::size_t>(r);
}

}  // namespace art9::ternary::packed

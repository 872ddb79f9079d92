// Binary-coded (balanced) ternary — the encoding the paper uses for the
// FPGA verification platform (paper §V-B, "all the ternary-based building
// blocks are emulated with the binary modules, adopting the binary-encoded
// ternary number system [Frieder & Luk 1975]").
//
// Each trit is held in two bit-planes: a POS bit and a NEG bit.
//   (neg, pos) = (0,0) -> 0,  (0,1) -> +1,  (1,0) -> -1,  (1,1) invalid.
// One 9-trit word therefore costs 18 flip-flops / RAM bits — which is why
// the FPGA prototype's two 256-word memories occupy 2 * 256 * 18 = 9216
// bits (Table V).
//
// All Fig. 1 logic gates become 2-gate-level binary expressions on the
// planes; the equivalences against the reference `Trit` operations are
// asserted exhaustively in tests/ternary/bct_test.cpp.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "ternary/word.hpp"

namespace art9::ternary {

// The codec below reads and writes a Word9 as nine trit bytes, the first
// eight as one little-endian 64-bit word.
static_assert(sizeof(Word9) == 9 && std::endian::native == std::endian::little,
              "the BctWord9 codec needs one-byte trits on a little-endian host");

/// A 9-trit word in binary-coded ternary form (two 9-bit planes).
class BctWord9 {
 public:
  static constexpr std::size_t kTrits = 9;
  static constexpr uint32_t kMask = (1u << kTrits) - 1;
  /// Storage cost of one word in the binary emulation.
  static constexpr int kBitsPerWord = 2 * static_cast<int>(kTrits);

  /// Zero word (both planes clear).
  constexpr BctWord9() noexcept = default;

  /// Constructs from raw planes.  Throws std::invalid_argument if any trit
  /// position has both NEG and POS set (the unused fourth code).
  static constexpr BctWord9 from_planes(uint32_t neg, uint32_t pos) {
    if ((neg & pos) != 0 || (neg | pos) > kMask) {
      throw std::invalid_argument("BctWord9: invalid plane encoding");
    }
    return from_planes_unchecked(neg, pos);
  }

  /// Unchecked plane construction for the packed datapath hot loop.
  /// Precondition (not verified): `neg & pos == 0` and both fit kMask.
  static constexpr BctWord9 from_planes_unchecked(uint32_t neg, uint32_t pos) noexcept {
    BctWord9 w;
    w.neg_ = neg;
    w.pos_ = pos;
    return w;
  }

  /// Encodes a ternary word, branch-free.  A Word9 is nine one-byte
  /// trits (0x01, 0x00 or 0xFF), so trits 0..7 load as one 64-bit word:
  /// bit 0 of a byte marks a non-zero trit and bit 7 a -1, and one
  /// multiply gathers those byte bits into a plane.
  static BctWord9 encode(const Word9& w) noexcept {
    uint64_t lo = 0;
    std::memcpy(&lo, &w, sizeof lo);
    const uint64_t neg = (lo >> 7) & kByteLsb;
    const int top = w[8].value();
    BctWord9 out;
    out.neg_ = gather(neg) | static_cast<uint32_t>(top < 0) << 8;
    out.pos_ = gather((lo & kByteLsb) ^ neg) | static_cast<uint32_t>(top > 0) << 8;
    return out;
  }

  /// Decodes back to the reference representation, branch-free: each
  /// plane's low eight bits spread to one byte per trit, and a -1 byte is
  /// the NEG spread times 0xFF.
  [[nodiscard]] Word9 decode() const noexcept {
    const uint64_t lo = spread(pos_) | spread(neg_) * 0xFF;
    std::array<uint8_t, kTrits> bytes;
    std::memcpy(bytes.data(), &lo, sizeof lo);
    bytes[8] = static_cast<uint8_t>(((pos_ >> 8) & 1u) - ((neg_ >> 8) & 1u));
    return std::bit_cast<Word9>(bytes);
  }

  [[nodiscard]] constexpr uint32_t neg_plane() const noexcept { return neg_; }
  [[nodiscard]] constexpr uint32_t pos_plane() const noexcept { return pos_; }

  constexpr friend bool operator==(const BctWord9&, const BctWord9&) noexcept = default;

  // --- Fig. 1 gates on bit-planes (2 binary gate levels each) -----------

  /// STI: negate every trit = swap the planes.
  [[nodiscard]] constexpr BctWord9 sti() const noexcept {
    BctWord9 out;
    out.neg_ = pos_;
    out.pos_ = neg_;
    return out;
  }

  /// NTI: +1 where input was -1, else -1.
  [[nodiscard]] constexpr BctWord9 nti() const noexcept {
    BctWord9 out;
    out.pos_ = neg_;
    out.neg_ = ~neg_ & kMask;
    return out;
  }

  /// PTI: -1 where input was +1, else +1.
  [[nodiscard]] constexpr BctWord9 pti() const noexcept {
    BctWord9 out;
    out.neg_ = pos_;
    out.pos_ = ~pos_ & kMask;
    return out;
  }

  /// AND = tritwise min.
  [[nodiscard]] static constexpr BctWord9 tand(const BctWord9& a, const BctWord9& b) noexcept {
    BctWord9 out;
    out.neg_ = a.neg_ | b.neg_;
    out.pos_ = a.pos_ & b.pos_ & ~out.neg_;
    return out;
  }

  /// OR = tritwise max.
  [[nodiscard]] static constexpr BctWord9 tor(const BctWord9& a, const BctWord9& b) noexcept {
    BctWord9 out;
    out.pos_ = a.pos_ | b.pos_;
    out.neg_ = a.neg_ & b.neg_ & ~out.pos_;
    return out;
  }

  /// XOR = negated tritwise product.
  [[nodiscard]] static constexpr BctWord9 txor(const BctWord9& a, const BctWord9& b) noexcept {
    BctWord9 out;
    // product is +1 when signs agree (and both non-zero), -1 when they
    // differ; XOR negates that.
    out.neg_ = (a.pos_ & b.pos_) | (a.neg_ & b.neg_);
    out.pos_ = (a.pos_ & b.neg_) | (a.neg_ & b.pos_);
    return out;
  }

  // --- plane shifts (the packed form of Word9::shl / Word9::shr) ---------

  /// Shift left by `amount` trits: both planes shift towards the MST and
  /// zero trits ((0,0) codes) enter at the LST end.  Amounts >= kTrits
  /// clear the word, matching Word9::shl.
  [[nodiscard]] constexpr BctWord9 shl(unsigned amount) const noexcept {
    if (amount >= kTrits) return BctWord9{};
    return from_planes_unchecked((neg_ << amount) & kMask, (pos_ << amount) & kMask);
  }

  /// Shift right by `amount` trits (balanced divide-by-3^amount rounding to
  /// nearest): zero trits enter at the MST end.  Amounts >= kTrits clear
  /// the word, matching Word9::shr.
  [[nodiscard]] constexpr BctWord9 shr(unsigned amount) const noexcept {
    if (amount >= kTrits) return BctWord9{};
    return from_planes_unchecked(neg_ >> amount, pos_ >> amount);
  }

  /// Balanced value of the least-significant trit in {-1, 0, +1} — what the
  /// branch condition compare looks at.
  [[nodiscard]] constexpr int lst_value() const noexcept {
    return static_cast<int>(pos_ & 1u) - static_cast<int>(neg_ & 1u);
  }

  /// Balanced value of trit `i` in {-1, 0, +1}.
  [[nodiscard]] constexpr int trit_value(std::size_t i) const noexcept {
    return static_cast<int>((pos_ >> i) & 1u) - static_cast<int>((neg_ >> i) & 1u);
  }

  /// Ripple addition over the planes (the binary-emulated balanced adder).
  /// Reference-grade: the packed fast path uses ternary::packed::add.
  [[nodiscard]] static BctWord9 add(const BctWord9& a, const BctWord9& b) noexcept;

 private:
  static constexpr uint64_t kByteLsb = 0x0101010101010101ull;

  /// Bit 0 of byte i -> bit i (every other bit of `bytes` clear): the
  /// partial products of one multiply land disjointly, bytes 0..7 in the
  /// top byte.
  static constexpr uint32_t gather(uint64_t bytes) noexcept {
    return static_cast<uint32_t>((bytes * 0x0102040810204080ull) >> 56);
  }

  /// Bit i of `plane` (i < 8) -> bit 0 of byte i: replicate the low byte,
  /// keep bit i in byte i, and carry any set bit up to bit 7 of its byte.
  static constexpr uint64_t spread(uint32_t plane) noexcept {
    const uint64_t bits = ((plane & 0xFFu) * kByteLsb) & 0x8040201008040201ull;
    return ((bits + 0x7F7F7F7F7F7F7F7Full) >> 7) & kByteLsb;
  }

  uint32_t neg_ = 0;
  uint32_t pos_ = 0;
};

}  // namespace art9::ternary

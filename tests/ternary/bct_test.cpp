// Binary-coded ternary: the FPGA emulation encoding (2 bits per trit) must
// agree with the reference trit semantics gate-for-gate.
#include "ternary/bct.hpp"

#include <gtest/gtest.h>

#include <random>

#include "ternary/random.hpp"

namespace art9::ternary {
namespace {

TEST(Bct, EncodingCostMatchesTableV) {
  // 9 trits x 2 bits = 18 bits per word; two 256-word memories = 9216 bits.
  EXPECT_EQ(BctWord9::kBitsPerWord, 18);
  EXPECT_EQ(2 * 256 * BctWord9::kBitsPerWord, 9216);
}

TEST(Bct, EncodeDecodeRoundTripExhaustive) {
  for (int64_t v = Word9::kMinValue; v <= Word9::kMaxValue; ++v) {
    const Word9 w = Word9::from_int(v);
    EXPECT_EQ(BctWord9::encode(w).decode(), w);
    // Each half on its own, against planes built trit by trit: encode
    // sets exactly each trit's plane bit, and decode reads it back.
    uint32_t neg = 0;
    uint32_t pos = 0;
    for (std::size_t i = 0; i < 9; ++i) {
      neg |= static_cast<uint32_t>(w[i].value() < 0) << i;
      pos |= static_cast<uint32_t>(w[i].value() > 0) << i;
    }
    const BctWord9 planes = BctWord9::from_planes(neg, pos);
    EXPECT_EQ(BctWord9::encode(w), planes) << v;
    EXPECT_EQ(planes.decode(), w) << v;
  }
}

TEST(Bct, PlaneInvariants) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const BctWord9 b = BctWord9::encode(random_word<9>(rng));
    EXPECT_EQ(b.neg_plane() & b.pos_plane(), 0u);  // the 11 code never appears
    EXPECT_LE(b.neg_plane(), BctWord9::kMask);
    EXPECT_LE(b.pos_plane(), BctWord9::kMask);
  }
}

TEST(Bct, FromPlanesValidation) {
  EXPECT_NO_THROW(BctWord9::from_planes(0b1u, 0b10u));
  EXPECT_THROW(BctWord9::from_planes(0b1u, 0b1u), std::invalid_argument);
  EXPECT_THROW(BctWord9::from_planes(1u << 9, 0u), std::invalid_argument);
}

TEST(Bct, ZeroWord) {
  EXPECT_EQ(BctWord9{}.decode(), Word9{});
  EXPECT_EQ(BctWord9::encode(Word9{}), BctWord9{});
}

// The bit-plane logic expressions must equal the tritwise reference ops on
// every input — checked on random words plus an exhaustive one-trit sweep.
TEST(Bct, LogicOpsMatchReference) {
  std::mt19937_64 rng(4);
  for (int i = 0; i < 3000; ++i) {
    const Word9 a = random_word<9>(rng);
    const Word9 b = random_word<9>(rng);
    const BctWord9 ea = BctWord9::encode(a);
    const BctWord9 eb = BctWord9::encode(b);
    EXPECT_EQ(BctWord9::tand(ea, eb).decode(), tand(a, b));
    EXPECT_EQ(BctWord9::tor(ea, eb).decode(), tor(a, b));
    EXPECT_EQ(BctWord9::txor(ea, eb).decode(), txor(a, b));
    EXPECT_EQ(ea.sti().decode(), sti(a));
    EXPECT_EQ(ea.nti().decode(), nti(a));
    EXPECT_EQ(ea.pti().decode(), pti(a));
  }
}

TEST(Bct, LogicOpsSingleTritExhaustive) {
  for (Trit x : kAllTrits) {
    for (Trit y : kAllTrits) {
      Word9 a;
      Word9 b;
      a.set(0, x);
      b.set(0, y);
      const BctWord9 ea = BctWord9::encode(a);
      const BctWord9 eb = BctWord9::encode(b);
      EXPECT_EQ(BctWord9::tand(ea, eb).decode()[0], tand(x, y));
      EXPECT_EQ(BctWord9::tor(ea, eb).decode()[0], tor(x, y));
      EXPECT_EQ(BctWord9::txor(ea, eb).decode()[0], txor(x, y));
    }
  }
}

TEST(Bct, AddMatchesReferenceAdder) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 3000; ++i) {
    const Word9 a = random_word<9>(rng);
    const Word9 b = random_word<9>(rng);
    const BctWord9 sum = BctWord9::add(BctWord9::encode(a), BctWord9::encode(b));
    EXPECT_EQ(sum.decode(), a + b);
  }
}

TEST(Bct, StiIsPlaneSwap) {
  std::mt19937_64 rng(6);
  for (int i = 0; i < 500; ++i) {
    const BctWord9 b = BctWord9::encode(random_word<9>(rng));
    const BctWord9 inverted = b.sti();
    EXPECT_EQ(inverted.neg_plane(), b.pos_plane());
    EXPECT_EQ(inverted.pos_plane(), b.neg_plane());
    EXPECT_EQ(inverted.sti(), b);  // involution
  }
}

}  // namespace
}  // namespace art9::ternary

// Transposed-plane (bit-sliced) kernel contract: every SlicedWord9
// operation must agree, lane by lane, with the scalar BctWord9 /
// packed:: reference kernels, and a write to lane i must never perturb
// lane j.  Round trips are locked against both the Trit-array Word9 and
// the plane-packed BctWord9 representation; add, sub, compare and the
// variable shifts run randomized 32-lane sweeps against the scalar
// datapath.
#include "ternary/bitsliced.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>

#include "ternary/bct.hpp"
#include "ternary/packed.hpp"
#include "ternary/random.hpp"
#include "ternary/word.hpp"

namespace art9::ternary {
namespace {

namespace bs = bitsliced;
namespace pk = packed;

/// 32 independent random words inserted lane by lane.
struct LaneSet {
  std::array<BctWord9, bs::kLanes> words{};
  bs::SlicedWord9 sliced;
};

template <typename Rng>
LaneSet random_lanes(Rng& rng) {
  LaneSet set;
  for (unsigned i = 0; i < bs::kLanes; ++i) {
    set.words[i] = pk::from_int(static_cast<int32_t>(random_in(rng, pk::kMin, pk::kMax)));
    bs::insert_lane(set.sliced, i, set.words[i]);
  }
  return set;
}

// --- transpose / untranspose round trips ------------------------------------

TEST(Bitsliced, BroadcastRoundTripsEveryWordExhaustive) {
  for (int32_t v = pk::kMin; v <= pk::kMax; ++v) {
    const BctWord9 w = pk::from_int(v);
    const bs::SlicedWord9 s = bs::broadcast(w);
    // Every lane holds the word; spot the two edges and the middle.
    for (unsigned lane : {0u, 15u, 31u}) {
      const BctWord9 back = bs::extract_lane(s, lane);
      EXPECT_EQ(back, w);
      // The untransposed planes are exactly the BctWord9 planes, and the
      // Trit-array view agrees.
      EXPECT_EQ(back.neg_plane(), w.neg_plane());
      EXPECT_EQ(back.pos_plane(), w.pos_plane());
      EXPECT_EQ(back.decode(), Word9::from_int(v));
      EXPECT_EQ(back.decode(), pk::from_int(v).decode());
    }
  }
}

TEST(Bitsliced, InsertExtractRoundTripsRandomLaneSets) {
  std::mt19937_64 rng(0x5eed'b17511ced001ull);
  for (int round = 0; round < 64; ++round) {
    const LaneSet set = random_lanes(rng);
    for (unsigned i = 0; i < bs::kLanes; ++i) {
      EXPECT_EQ(bs::extract_lane(set.sliced, i), set.words[i]);
    }
  }
}

// --- lane isolation ----------------------------------------------------------

TEST(Bitsliced, InsertLaneNeverPerturbsOtherLanesExhaustive) {
  // For every (writer, observer) lane pair: writing any of the three
  // extreme words into `writer` leaves `observer` bit-identical.
  std::mt19937_64 rng(0x5eed'0150'1a7eull);
  const LaneSet base = random_lanes(rng);
  const std::array<BctWord9, 3> probes = {pk::from_int(pk::kMin), pk::from_int(0),
                                          pk::from_int(pk::kMax)};
  for (unsigned writer = 0; writer < bs::kLanes; ++writer) {
    for (const BctWord9& probe : probes) {
      bs::SlicedWord9 s = base.sliced;
      bs::insert_lane(s, writer, probe);
      EXPECT_EQ(bs::extract_lane(s, writer), probe);
      for (unsigned observer = 0; observer < bs::kLanes; ++observer) {
        if (observer == writer) continue;
        ASSERT_EQ(bs::extract_lane(s, observer), base.words[observer])
            << "write to lane " << writer << " perturbed lane " << observer;
      }
    }
  }
}

TEST(Bitsliced, MaskedAssignOnlyTouchesMaskedLanes) {
  std::mt19937_64 rng(0x5eed'3a5cull);
  for (int round = 0; round < 32; ++round) {
    const LaneSet dst = random_lanes(rng);
    const LaneSet src = random_lanes(rng);
    const auto mask = static_cast<uint32_t>(random_bits64(rng));
    bs::SlicedWord9 merged = dst.sliced;
    bs::assign_masked(merged, src.sliced, mask);
    for (unsigned i = 0; i < bs::kLanes; ++i) {
      const BctWord9 expected = (mask >> i) & 1u ? src.words[i] : dst.words[i];
      ASSERT_EQ(bs::extract_lane(merged, i), expected) << "lane " << i << " mask " << mask;
    }
  }
}

// --- tritwise gates: exhaustive unary, randomized 32-lane binary -------------

TEST(Bitsliced, UnaryGatesMatchScalarExhaustive) {
  for (int32_t v = pk::kMin; v <= pk::kMax; ++v) {
    const BctWord9 w = pk::from_int(v);
    const bs::SlicedWord9 s = bs::broadcast(w);
    EXPECT_EQ(bs::extract_lane(bs::sti(s), 7), w.sti());
    EXPECT_EQ(bs::extract_lane(bs::nti(s), 7), w.nti());
    EXPECT_EQ(bs::extract_lane(bs::pti(s), 7), w.pti());
  }
}

TEST(Bitsliced, BinaryGatesMatchScalarPerLane) {
  std::mt19937_64 rng(0x5eed'6a7e5ull);
  for (int round = 0; round < 128; ++round) {
    const LaneSet a = random_lanes(rng);
    const LaneSet b = random_lanes(rng);
    const bs::SlicedWord9 sliced_and = bs::tand(a.sliced, b.sliced);
    const bs::SlicedWord9 sliced_or = bs::tor(a.sliced, b.sliced);
    const bs::SlicedWord9 sliced_xor = bs::txor(a.sliced, b.sliced);
    for (unsigned i = 0; i < bs::kLanes; ++i) {
      ASSERT_EQ(bs::extract_lane(sliced_and, i), BctWord9::tand(a.words[i], b.words[i]));
      ASSERT_EQ(bs::extract_lane(sliced_or, i), BctWord9::tor(a.words[i], b.words[i]));
      ASSERT_EQ(bs::extract_lane(sliced_xor, i), BctWord9::txor(a.words[i], b.words[i]));
    }
  }
}

// --- arithmetic: randomized 32-lane parity vs the scalar kernels -------------

TEST(Bitsliced, AddSubMatchPackedKernelsPerLane) {
  std::mt19937_64 rng(0x5eed'add5'0b17ull);
  for (int round = 0; round < 256; ++round) {
    const LaneSet a = random_lanes(rng);
    const LaneSet b = random_lanes(rng);
    const bs::SlicedWord9 sum = bs::add(a.sliced, b.sliced);
    const bs::SlicedWord9 diff = bs::sub(a.sliced, b.sliced);
    for (unsigned i = 0; i < bs::kLanes; ++i) {
      ASSERT_EQ(bs::extract_lane(sum, i), pk::add(a.words[i], b.words[i])) << "lane " << i;
      ASSERT_EQ(bs::extract_lane(diff, i), pk::sub(a.words[i], b.words[i])) << "lane " << i;
    }
  }
}

TEST(Bitsliced, AddCarryChainCornersExhaustiveOnEdgeValues) {
  // The carry chain is the delicate part: sweep every pairing of the
  // wrap-adjacent edge values through all lanes at once.
  const std::array<int32_t, 8> edges = {pk::kMin, pk::kMin + 1, -1, 0, 1, 121, pk::kMax - 1,
                                        pk::kMax};
  for (const int32_t va : edges) {
    for (const int32_t vb : edges) {
      const BctWord9 a = pk::from_int(va);
      const BctWord9 b = pk::from_int(vb);
      const bs::SlicedWord9 sum = bs::add(bs::broadcast(a), bs::broadcast(b));
      const bs::SlicedWord9 diff = bs::sub(bs::broadcast(a), bs::broadcast(b));
      for (unsigned lane : {0u, 31u}) {
        ASSERT_EQ(bs::extract_lane(sum, lane), pk::add(a, b)) << va << " + " << vb;
        ASSERT_EQ(bs::extract_lane(diff, lane), pk::sub(a, b)) << va << " - " << vb;
      }
    }
  }
}

TEST(Bitsliced, CompareMatchesUnwrappedSignPerLane) {
  std::mt19937_64 rng(0x5eed'c0de'c0deull);
  for (int round = 0; round < 256; ++round) {
    const LaneSet a = random_lanes(rng);
    const LaneSet b = random_lanes(rng);
    const bs::CompareMasks m = bs::compare(a.sliced, b.sliced);
    const bs::SlicedWord9 word = bs::comp(a.sliced, b.sliced);
    for (unsigned i = 0; i < bs::kLanes; ++i) {
      const int32_t expected = pk::compare(a.words[i], b.words[i]);
      ASSERT_EQ((m.gt >> i) & 1u, expected > 0 ? 1u : 0u) << "lane " << i;
      ASSERT_EQ((m.lt >> i) & 1u, expected < 0 ? 1u : 0u) << "lane " << i;
      ASSERT_EQ(bs::extract_lane(word, i), pk::comp_word(a.words[i], b.words[i]));
    }
  }
}

// --- shifts ------------------------------------------------------------------

TEST(Bitsliced, UniformShiftsMatchScalarIncludingClearingAmounts) {
  std::mt19937_64 rng(0x5eed'517full);
  const LaneSet a = random_lanes(rng);
  for (unsigned amount = 0; amount <= 12; ++amount) {
    const bs::SlicedWord9 right = bs::shr(a.sliced, amount);
    const bs::SlicedWord9 left = bs::shl(a.sliced, amount);
    for (unsigned i = 0; i < bs::kLanes; ++i) {
      ASSERT_EQ(bs::extract_lane(right, i), a.words[i].shr(amount)) << "amount " << amount;
      ASSERT_EQ(bs::extract_lane(left, i), a.words[i].shl(amount)) << "amount " << amount;
    }
  }
  // A negative immediate cast to unsigned must clear, as on BctWord9.
  const auto huge = static_cast<unsigned>(-3);
  EXPECT_EQ(bs::extract_lane(bs::shr(a.sliced, huge), 5), BctWord9{});
  EXPECT_EQ(bs::extract_lane(bs::shl(a.sliced, huge), 5), BctWord9{});
}

TEST(Bitsliced, VariableShiftsMatchScalarShiftAmountPerLane) {
  // Per-lane amounts: every lane of `amt` gets an independent word, so
  // the two barrel stages must route each lane by its own trits [1:0].
  std::mt19937_64 rng(0x5eed'ba77e1ull);
  for (int round = 0; round < 128; ++round) {
    const LaneSet a = random_lanes(rng);
    const LaneSet amt = random_lanes(rng);
    const bs::SlicedWord9 right = bs::shr_var(a.sliced, amt.sliced);
    const bs::SlicedWord9 left = bs::shl_var(a.sliced, amt.sliced);
    for (unsigned i = 0; i < bs::kLanes; ++i) {
      const unsigned amount = pk::shift_amount(amt.words[i]);
      ASSERT_LE(amount, 8u);
      ASSERT_EQ(bs::extract_lane(right, i), a.words[i].shr(amount)) << "lane " << i;
      ASSERT_EQ(bs::extract_lane(left, i), a.words[i].shl(amount)) << "lane " << i;
    }
  }
}

// --- condition masks ---------------------------------------------------------

TEST(Bitsliced, LstMasksMatchScalarLstValuePerLane) {
  std::mt19937_64 rng(0x5eed'1e57ull);
  for (int round = 0; round < 64; ++round) {
    const LaneSet a = random_lanes(rng);
    for (int cond : {-1, 0, 1}) {
      const uint32_t mask = bs::lst_eq_mask(a.sliced, cond);
      for (unsigned i = 0; i < bs::kLanes; ++i) {
        ASSERT_EQ((mask >> i) & 1u, a.words[i].lst_value() == cond ? 1u : 0u)
            << "lane " << i << " cond " << cond;
      }
    }
  }
}

}  // namespace
}  // namespace art9::ternary

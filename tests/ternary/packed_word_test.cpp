// The packed word's constant-expression contract: ternary::BctWord9 and
// the packed:: value-domain functions (packed.hpp) are constexpr, so the
// range bounds, the mod-3^9 wrap of add and the COMP word are checked at
// compile time — and the same checks run once more as a runtime test.
// The exhaustive and randomized equivalence sweeps live in packed_test.cpp.
#include "ternary/packed.hpp"

#include <gtest/gtest.h>

#include "ternary/bct.hpp"

namespace art9::ternary {
namespace {

namespace pk = packed;

constexpr BctWord9 kAllPos = BctWord9::from_planes_unchecked(0, BctWord9::kMask);
constexpr BctWord9 kAllNeg = BctWord9::from_planes_unchecked(BctWord9::kMask, 0);
constexpr BctWord9 kLstPos = BctWord9::from_planes_unchecked(0, 1);
constexpr BctWord9 kLstNeg = BctWord9::from_planes_unchecked(1, 0);

// from_int / to_int at the range bounds: kMax is every trit +1, kMin
// every trit -1.
static_assert(pk::from_int(pk::kMax) == kAllPos);
static_assert(pk::from_int(pk::kMin) == kAllNeg);
static_assert(pk::to_int(kAllPos) == pk::kMax);
static_assert(pk::to_int(kAllNeg) == pk::kMin);

// add wraps modulo 3^9 at both ends.
static_assert(pk::to_int(pk::add(pk::from_int(100), pk::from_int(21))) == 121);
static_assert(pk::to_int(pk::add(pk::from_int(pk::kMax), pk::from_int(1))) == pk::kMin);
static_assert(pk::to_int(pk::add(pk::from_int(pk::kMin), pk::from_int(-1))) == pk::kMax);

// comp_word: sign(a - b) in the least-significant trit, upper trits zero.
static_assert(pk::comp_word(pk::from_int(5), pk::from_int(-3)) == kLstPos);
static_assert(pk::comp_word(pk::from_int(-3), pk::from_int(5)) == kLstNeg);
static_assert(pk::comp_word(pk::from_int(7), pk::from_int(7)) == BctWord9{});
static_assert(pk::comp_word(kAllNeg, kAllPos) == kLstNeg);

TEST(BctWord9Constexpr, ContractHoldsAtRunTime) {
  EXPECT_EQ(pk::from_int(pk::kMax), kAllPos);
  EXPECT_EQ(pk::from_int(pk::kMin), kAllNeg);
  EXPECT_EQ(pk::to_int(kAllPos), pk::kMax);
  EXPECT_EQ(pk::to_int(kAllNeg), pk::kMin);

  EXPECT_EQ(pk::to_int(pk::add(pk::from_int(100), pk::from_int(21))), 121);
  EXPECT_EQ(pk::to_int(pk::add(pk::from_int(pk::kMax), pk::from_int(1))), pk::kMin);
  EXPECT_EQ(pk::to_int(pk::add(pk::from_int(pk::kMin), pk::from_int(-1))), pk::kMax);

  EXPECT_EQ(pk::comp_word(pk::from_int(5), pk::from_int(-3)), kLstPos);
  EXPECT_EQ(pk::comp_word(pk::from_int(-3), pk::from_int(5)), kLstNeg);
  EXPECT_EQ(pk::comp_word(pk::from_int(7), pk::from_int(7)), BctWord9{});
  EXPECT_EQ(pk::comp_word(kAllNeg, kAllPos), kLstNeg);
}

}  // namespace
}  // namespace art9::ternary

#include "src/support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace dynbcast {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformBound1IsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

/// The bounded draw as it was first written: 2^64 mod bound divided out
/// before every call. Counts its raw draws into `draws`.
std::uint64_t alwaysDividingUniform(Rng& rng, std::uint64_t bound,
                                    std::size_t& draws) {
  const std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    const std::uint64_t x = rng();
    ++draws;
    const auto m = static_cast<unsigned __int128>(x) * bound;
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

TEST(RngTest, UniformMatchesAlwaysDividingLoopDrawForDraw) {
  // Dividing only when the low word is below bound accepts exactly the
  // same draws, so every value and the raw-draw count of every call are
  // those of the loop that always divides. 2^63 + 1 rejects about half
  // of all draws, so the rejection path runs too.
  std::vector<std::uint64_t> bounds = {
      1, 2, 3, (1ull << 32) + 1, (1ull << 63) + 1, ~0ull};
  Rng pick(99);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t wide = pick();  // rejects up to half of all draws
    bounds.push_back(i % 2 == 0 ? wide : wide >> pick.uniform(64));
  }
  for (const std::uint64_t bound : bounds) {
    if (bound == 0) continue;
    Rng rng(bound ^ 0x5eedull);
    Rng reference = rng;
    std::size_t rejected = 0;
    for (int call = 0; call < 2000; ++call) {
      std::size_t draws = 0;
      const std::uint64_t expected =
          alwaysDividingUniform(reference, bound, draws);
      Rng before = rng;
      ASSERT_EQ(rng.uniform(bound), expected) << "bound " << bound;
      for (std::size_t d = 0; d < draws; ++d) (void)before();
      Rng after = rng;
      ASSERT_EQ(before(), after()) << "bound " << bound << ": uniform took "
                                   << "a different number of raw draws than "
                                   << draws;
      rejected += draws - 1;
    }
    if (bound == (1ull << 63) + 1) {
      EXPECT_GT(rejected, 500u);
    }
    EXPECT_EQ(rng(), reference());
  }
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntHitsEndpoints) {
  Rng rng(5);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(77);
  for (const std::size_t n : {1u, 2u, 5u, 100u}) {
    std::vector<std::size_t> p = rng.permutation(n);
    ASSERT_EQ(p.size(), n);
    std::sort(p.begin(), p.end());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(p[i], i);
  }
}

TEST(RngTest, PermutationsVary) {
  Rng rng(123);
  const std::vector<std::size_t> a = rng.permutation(20);
  const std::vector<std::size_t> b = rng.permutation(20);
  EXPECT_NE(a, b);  // probability of collision ~ 1/20!
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(55);
  Rng child = a.split();
  // The child must not replay the parent's stream.
  Rng fresh(55);
  (void)fresh.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == fresh()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitmixAvalanche) {
  std::uint64_t s1 = 0, s2 = 1;
  const std::uint64_t a = splitmix64(s1);
  const std::uint64_t b = splitmix64(s2);
  EXPECT_NE(a, b);
}

class RngDistributionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngDistributionTest, BoundedUniformIsRoughlyFlat) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 31 + 7);
  std::vector<std::size_t> buckets(bound, 0);
  const std::size_t draws = 2000 * bound;
  for (std::size_t i = 0; i < draws; ++i) ++buckets[rng.uniform(bound)];
  for (std::uint64_t v = 0; v < bound; ++v) {
    // Expected 2000 per bucket; allow generous slack (±25%).
    EXPECT_GT(buckets[v], 1500u) << "value " << v;
    EXPECT_LT(buckets[v], 2500u) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngDistributionTest,
                         ::testing::Values(2, 3, 5, 8, 13));

}  // namespace
}  // namespace dynbcast

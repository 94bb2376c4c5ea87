#include "src/graph/bitmatrix.h"

#include <gtest/gtest.h>

#include "src/support/rng.h"

namespace dynbcast {
namespace {

BitMatrix randomMatrix(std::size_t n, double density, Rng& rng) {
  BitMatrix m(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      if (rng.chance(density)) m.set(x, y);
    }
  }
  return m;
}

/// Reference O(n³) boolean product for cross-checking.
BitMatrix naiveProduct(const BitMatrix& a, const BitMatrix& b) {
  const std::size_t n = a.dim();
  BitMatrix out(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t z = 0; z < n; ++z) {
        if (a.get(x, z) && b.get(z, y)) {
          out.set(x, y);
          break;
        }
      }
    }
  }
  return out;
}

TEST(BitMatrixTest, IdentityProperties) {
  const BitMatrix id = BitMatrix::identity(5);
  EXPECT_EQ(id.dim(), 5u);
  EXPECT_EQ(id.countOnes(), 5u);
  EXPECT_TRUE(id.isReflexive());
  EXPECT_FALSE(id.isFull());
}

TEST(BitMatrixTest, FullMatrix) {
  const BitMatrix f = BitMatrix::full(4);
  EXPECT_TRUE(f.isFull());
  EXPECT_EQ(f.countOnes(), 16u);
  EXPECT_TRUE(f.hasBroadcaster());
  EXPECT_EQ(f.broadcasters().size(), 4u);
}

TEST(BitMatrixTest, IdentityIsProductNeutral) {
  Rng rng(31);
  const BitMatrix a = randomMatrix(9, 0.3, rng);
  const BitMatrix id = BitMatrix::identity(9);
  EXPECT_EQ(a.product(id), a);
  EXPECT_EQ(id.product(a), a);
}

TEST(BitMatrixTest, ProductMatchesDefinition) {
  // Definition 2.1: (x, y) ∈ A ∘ B iff ∃z: (x, z) ∈ A and (z, y) ∈ B.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(12);
    const BitMatrix a = randomMatrix(n, 0.25, rng);
    const BitMatrix b = randomMatrix(n, 0.25, rng);
    EXPECT_EQ(a.product(b), naiveProduct(a, b)) << "n=" << n;
  }
}

TEST(BitMatrixTest, ProductIsAssociative) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform(10);
    const BitMatrix a = randomMatrix(n, 0.3, rng);
    const BitMatrix b = randomMatrix(n, 0.3, rng);
    const BitMatrix c = randomMatrix(n, 0.3, rng);
    EXPECT_EQ(a.product(b).product(c), a.product(b.product(c)));
  }
}

TEST(BitMatrixTest, ProductOfReflexiveIsMonotone) {
  // With self-loops, A ∘ B ⊇ A and ⊇ B — the model's no-forgetting.
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform(10);
    BitMatrix a = randomMatrix(n, 0.2, rng);
    BitMatrix b = randomMatrix(n, 0.2, rng);
    for (std::size_t i = 0; i < n; ++i) {
      a.set(i, i);
      b.set(i, i);
    }
    const BitMatrix p = a.product(b);
    for (std::size_t x = 0; x < n; ++x) {
      EXPECT_TRUE(p.row(x).isSupersetOf(a.row(x)));
      EXPECT_TRUE(p.row(x).isSupersetOf(b.row(x)));
    }
  }
}

TEST(BitMatrixTest, TransposeInvolution) {
  Rng rng(5);
  const BitMatrix a = randomMatrix(17, 0.3, rng);
  EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(BitMatrixTest, TransposeMatchesEntrywiseAcrossBlockEdges) {
  // The transpose works on 64×64 blocks; sizes around the block edge
  // exercise partial blocks and the tail invariant of the output rows.
  Rng rng(6);
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 130u, 200u}) {
    for (const double density : {0.0, 0.02, 0.5, 1.0}) {
      const BitMatrix a = randomMatrix(n, density, rng);
      const BitMatrix t = a.transposed();
      BitMatrix expected(n);
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t y = 0; y < n; ++y) {
          if (a.get(x, y)) expected.set(y, x);
        }
      }
      EXPECT_EQ(t, expected) << "n=" << n << " density=" << density;
      EXPECT_EQ(t.countOnes(), a.countOnes()) << "n=" << n;
    }
  }
}

TEST(BitMatrixTest, TransposeSwapsEntries) {
  BitMatrix m(3);
  m.set(0, 2);
  const BitMatrix t = m.transposed();
  EXPECT_TRUE(t.get(2, 0));
  EXPECT_FALSE(t.get(0, 2));
}

TEST(BitMatrixTest, ColumnMatchesTransposedRow) {
  Rng rng(67);
  const BitMatrix a = randomMatrix(20, 0.4, rng);
  const BitMatrix t = a.transposed();
  for (std::size_t y = 0; y < 20; ++y) {
    EXPECT_EQ(a.column(y), t.row(y));
  }
}

TEST(BitMatrixTest, OrWithUnions) {
  BitMatrix a(3), b(3);
  a.set(0, 1);
  b.set(1, 2);
  a.orWith(b);
  EXPECT_TRUE(a.get(0, 1));
  EXPECT_TRUE(a.get(1, 2));
  EXPECT_EQ(a.countOnes(), 2u);
}

TEST(BitMatrixTest, BroadcasterDetection) {
  BitMatrix m = BitMatrix::identity(4);
  EXPECT_FALSE(m.hasBroadcaster());
  for (std::size_t y = 0; y < 4; ++y) m.set(2, y);
  EXPECT_TRUE(m.hasBroadcaster());
  const auto bc = m.broadcasters();
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0], 2u);
}

TEST(BitMatrixTest, HashDiffersOnContent) {
  BitMatrix a(6), b(6);
  a.set(1, 2);
  b.set(2, 1);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitMatrixTest, ToStringShape) {
  BitMatrix m(2);
  m.set(0, 1);
  EXPECT_EQ(m.toString(), "01\n00\n");
}

class BitMatrixSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitMatrixSizeTest, ProductDefinitionHoldsAcrossSizes) {
  const std::size_t n = GetParam();
  Rng rng(n * 131 + 7);
  const BitMatrix a = randomMatrix(n, 0.15, rng);
  const BitMatrix b = randomMatrix(n, 0.15, rng);
  EXPECT_EQ(a.product(b), naiveProduct(a, b));
}

TEST_P(BitMatrixSizeTest, BlockedProductMatchesNaiveAcrossDensities) {
  // product() dispatches to the blocked kernel; pin the explicit entry
  // point too, across densities (empty rows, dense rows, identity-ish).
  const std::size_t n = GetParam();
  for (const double density : {0.0, 0.03, 0.3, 0.9}) {
    Rng rng(n * 977 + static_cast<std::uint64_t>(density * 100));
    const BitMatrix a = randomMatrix(n, density, rng);
    const BitMatrix b = randomMatrix(n, density, rng);
    EXPECT_EQ(a.productBlocked(b), naiveProduct(a, b))
        << "n=" << n << " density=" << density;
  }
}

// 63/64/65/127/130 straddle the word boundaries where the blocked
// kernel's z-block indexing could go out of bounds.
INSTANTIATE_TEST_SUITE_P(Sizes, BitMatrixSizeTest,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 63, 64, 65,
                                           100, 127, 130));

}  // namespace
}  // namespace dynbcast

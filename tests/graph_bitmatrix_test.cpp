#include "src/graph/bitmatrix.h"

#include <gtest/gtest.h>

#include "src/sim/broadcast_sim.h"
#include "src/support/rng.h"
#include "tests/oracles/oracles.h"

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

/// randomMatrix plus every self-loop: a graph BroadcastSim can apply.
BitMatrix randomReflexiveMatrix(std::size_t n, double density, Rng& rng) {
  BitMatrix m = randomMatrix(n, density, rng);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i);
  return m;
}

/// a ∘ b as the library computes it: two BroadcastSim rounds from G(0).
BitMatrix simulatedProduct(const BitMatrix& a, const BitMatrix& b) {
  BroadcastSim sim(a.dim());
  sim.applyGraph(a);
  sim.applyGraph(b);
  return sim.reachMatrix();
}

TEST(BitMatrixTest, IdentityProperties) {
  const BitMatrix id = BitMatrix::identity(5);
  EXPECT_EQ(id.dim(), 5u);
  EXPECT_EQ(id.countOnes(), 5u);
  EXPECT_TRUE(id.isReflexive());
  EXPECT_TRUE(id.broadcasters().empty());
}

TEST(BitMatrixTest, FullMatrix) {
  BitMatrix f(4);
  for (std::size_t x = 0; x < 4; ++x) f.row(x).setAll();
  EXPECT_EQ(f.countOnes(), 16u);
  EXPECT_EQ(f.broadcasters().size(), 4u);
  EXPECT_EQ(f.completeRows().size(), 4u);
}

// BitMatrix has no product of its own: the product the library computes
// is BroadcastSim's, one round at a time. These tests pin that path
// against Definition 2.1 — (x, y) ∈ A ∘ B iff ∃z: (x, z) ∈ A and
// (z, y) ∈ B — as the naive oracle reads it, and check the oracle's own
// algebra, since the product tests elsewhere use it as their reference.

TEST(BitMatrixTest, IdentityIsProductNeutral) {
  Rng rng(31);
  const BitMatrix a = randomMatrix(9, 0.3, rng);
  const BitMatrix id = BitMatrix::identity(9);
  EXPECT_EQ(naiveProduct(a, id), a);
  EXPECT_EQ(naiveProduct(id, a), a);
}

TEST(BitMatrixTest, ProductMatchesDefinition) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(12);
    const BitMatrix a = randomReflexiveMatrix(n, 0.25, rng);
    const BitMatrix b = randomReflexiveMatrix(n, 0.25, rng);
    EXPECT_EQ(simulatedProduct(a, b), naiveProduct(a, b)) << "n=" << n;
  }
}

TEST(BitMatrixTest, ProductIsAssociative) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform(10);
    const BitMatrix a = randomMatrix(n, 0.3, rng);
    const BitMatrix b = randomMatrix(n, 0.3, rng);
    const BitMatrix c = randomMatrix(n, 0.3, rng);
    EXPECT_EQ(naiveProduct(naiveProduct(a, b), c),
              naiveProduct(a, naiveProduct(b, c)));
  }
}

TEST(BitMatrixTest, ProductOfReflexiveIsMonotone) {
  // With self-loops, A ∘ B ⊇ A and ⊇ B — the model's no-forgetting.
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform(10);
    const BitMatrix a = randomReflexiveMatrix(n, 0.2, rng);
    const BitMatrix b = randomReflexiveMatrix(n, 0.2, rng);
    const BitMatrix p = simulatedProduct(a, b);
    for (std::size_t x = 0; x < n; ++x) {
      EXPECT_TRUE(isSupersetOf(p.row(x), a.row(x)));
      EXPECT_TRUE(isSupersetOf(p.row(x), b.row(x)));
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

TEST(BitMatrixTest, BroadcasterDetection) {
  BitMatrix m = BitMatrix::identity(4);
  EXPECT_TRUE(m.broadcasters().empty());
  for (std::size_t y = 0; y < 4; ++y) m.set(2, y);
  const auto bc = m.broadcasters();
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0], 2u);
}

TEST(BitMatrixTest, HashDiffersOnContent) {
  BitMatrix a(6), b(6);
  a.set(1, 2);
  b.set(2, 1);
  EXPECT_NE(matrixHash(a), matrixHash(b));
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
  const BitMatrix a = randomReflexiveMatrix(n, 0.15, rng);
  const BitMatrix b = randomReflexiveMatrix(n, 0.15, rng);
  EXPECT_EQ(simulatedProduct(a, b), naiveProduct(a, b));
}

TEST_P(BitMatrixSizeTest, BlockedProductMatchesNaiveAcrossDensities) {
  // The library's product, applied a word-row at a time by BroadcastSim,
  // across densities from the identity to near-full: these cover both of
  // applyGraph's per-source paths (bit by bit and whole-row OR).
  const std::size_t n = GetParam();
  for (const double density : {0.0, 0.03, 0.3, 0.9}) {
    Rng rng(n * 977 + static_cast<std::uint64_t>(density * 100));
    const BitMatrix a = randomReflexiveMatrix(n, density, rng);
    const BitMatrix b = randomReflexiveMatrix(n, density, rng);
    EXPECT_EQ(simulatedProduct(a, b), naiveProduct(a, b))
        << "n=" << n << " density=" << density;
  }
}

// 63/64/65/127/130 straddle the 64-bit word boundaries of the rows.
INSTANTIATE_TEST_SUITE_P(Sizes, BitMatrixSizeTest,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 63, 64, 65,
                                           100, 127, 130));

}  // namespace
}  // namespace dynbcast

// The raw-word kernels (bitword::*) against naive per-bit references, at
// sizes straddling every word-boundary case: a single partial word, one
// bit short of a boundary, exactly on it, one past it, and multi-word
// with a partial tail. An off-by-one in word indexing or a tail-invariant
// violation shows up exactly here.
#include <gtest/gtest.h>

#include <vector>

#include "src/support/bitset.h"
#include "src/support/rng.h"

namespace dynbcast {
namespace {

const std::size_t kSizes[] = {1, 63, 64, 65, 127, 130};

DynBitset randomBits(std::size_t n, double density, Rng& rng) {
  DynBitset b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniformReal() < density) b.set(i);
  }
  return b;
}

TEST(BitwordKernelTest, OrAssignMatchesNaive) {
  Rng rng(11);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 20; ++trial) {
      DynBitset dst = randomBits(n, 0.4, rng);
      const DynBitset src = randomBits(n, 0.4, rng);
      DynBitset expect(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (dst.test(i) || src.test(i)) expect.set(i);
      }
      bitword::orAssign(dst.wordData(), src.wordData(), dst.wordCount());
      EXPECT_EQ(dst, expect) << "n=" << n;
    }
  }
}

TEST(BitwordKernelTest, OrCountMatchesNaiveLoop) {
  Rng rng(12);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 20; ++trial) {
      DynBitset dst = randomBits(n, 0.3, rng);
      const DynBitset src = randomBits(n, 0.3, rng);
      std::size_t expectCount = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (dst.test(i) || src.test(i)) ++expectCount;
      }
      const std::size_t got =
          bitword::orCount(dst.wordData(), src.wordData(), dst.wordCount());
      EXPECT_EQ(got, expectCount) << "n=" << n;
      EXPECT_EQ(dst.count(), expectCount) << "n=" << n;
    }
  }
}

TEST(BitwordKernelTest, AndAssignCountMatchesNaiveLoop) {
  Rng rng(14);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 20; ++trial) {
      DynBitset dst = randomBits(n, 0.5, rng);
      const DynBitset src = randomBits(n, 0.5, rng);
      std::size_t expectCount = 0;
      DynBitset expect(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (dst.test(i) && src.test(i)) {
          expect.set(i);
          ++expectCount;
        }
      }
      const std::size_t got = bitword::andAssignCount(
          dst.wordData(), src.wordData(), dst.wordCount());
      EXPECT_EQ(got, expectCount) << "n=" << n;
      EXPECT_EQ(dst, expect) << "n=" << n;
    }
  }
}

TEST(BitwordKernelTest, OrCountWithPreservesTailInvariant) {
  // After fused OR+count at a non-aligned size, bits past size() must
  // still be zero — all() and count() would silently break otherwise.
  for (const std::size_t n : kSizes) {
    DynBitset a(n);
    DynBitset b(n);
    a.setAll();
    b.setAll();
    EXPECT_EQ(a.orCountWith(b), n) << "n=" << n;
    EXPECT_TRUE(a.all()) << "n=" << n;
    EXPECT_EQ(a.count(), n) << "n=" << n;
  }
}

}  // namespace
}  // namespace dynbcast

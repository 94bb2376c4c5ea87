// The SIMD dispatch contract: every kernel table kernelsFor() can hand
// out — scalar, AVX2, AVX-512, whichever this machine supports —
// computes bit-identical results on identical inputs, at span lengths
// that straddle every vector-width boundary (sub-lane tails, exact
// multiples, one word over). Plus the resolution machinery itself:
// DYNBCAST_FORCE_SCALAR pins resolveSimdLevel() to scalar, dispatch()
// reports a supported tier, and the bit-level wrappers agree with naive
// loops at the same n values the kernel suite uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/support/bitset.h"
#include "src/support/rng.h"

namespace dynbcast {
namespace {

using bitword::dispatch;
using bitword::Kernels;
using bitword::kernelsFor;
using bitword::resolveSimdLevel;
using bitword::SimdLevel;
using bitword::simdLevelName;
using bitword::simdSupported;

// Word-span lengths straddling the AVX2 (4-word) and AVX-512 (8-word)
// lane widths and the kDispatchMinWords inline/dispatch boundary.
const std::size_t kWordCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33};

std::vector<std::uint64_t> randomWords(std::size_t nwords, Rng& rng) {
  std::vector<std::uint64_t> w(nwords);
  for (std::uint64_t& x : w) x = rng();
  return w;
}

std::vector<SimdLevel> supportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (simdSupported(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (simdSupported(SimdLevel::kAvx512)) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

TEST(SimdKernelTest, AllSupportedLevelsComputeIdenticalResults) {
  const std::vector<SimdLevel> levels = supportedLevels();
  const Kernels& scalar = kernelsFor(SimdLevel::kScalar);
  ASSERT_EQ(scalar.level, SimdLevel::kScalar);
  Rng rng(2024);
  for (const std::size_t nwords : kWordCounts) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<std::uint64_t> a = randomWords(nwords, rng);
      const std::vector<std::uint64_t> b = randomWords(nwords, rng);

      std::vector<std::uint64_t> expectOr = a;
      scalar.orAssign(expectOr.data(), b.data(), nwords);
      std::vector<std::uint64_t> expectAnd = a;
      const std::size_t expectAndCount =
          scalar.andAssignCount(expectAnd.data(), b.data(), nwords);

      for (const SimdLevel level : levels) {
        const Kernels& k = kernelsFor(level);
        ASSERT_EQ(k.level, level);
        const std::string tag = std::string(k.name) +
                                " nwords=" + std::to_string(nwords);

        std::vector<std::uint64_t> dst = a;
        k.orAssign(dst.data(), b.data(), nwords);
        EXPECT_EQ(dst, expectOr) << "orAssign " << tag;

        dst = a;
        std::size_t count = k.orCount(dst.data(), b.data(), nwords);
        EXPECT_EQ(dst, expectOr) << "orCount dst " << tag;
        std::size_t naive = 0;
        for (const std::uint64_t w : expectOr) {
          naive += static_cast<std::size_t>(__builtin_popcountll(w));
        }
        EXPECT_EQ(count, naive) << "orCount count " << tag;

        dst = a;
        count = k.andAssignCount(dst.data(), b.data(), nwords);
        EXPECT_EQ(dst, expectAnd) << "andAssignCount dst " << tag;
        EXPECT_EQ(count, expectAndCount) << "andAssignCount count " << tag;
      }
    }
  }
}

TEST(SimdDispatchTest, UnsupportedLevelFallsBackToScalar) {
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const Kernels& k = kernelsFor(level);
    if (simdSupported(level)) {
      EXPECT_EQ(k.level, level);
    } else {
      EXPECT_EQ(k.level, SimdLevel::kScalar);
    }
    EXPECT_STREQ(k.name, simdLevelName(k.level));
  }
}

TEST(SimdDispatchTest, ForceScalarEnvPinsResolution) {
  // dispatch() snapshots once per process, but resolveSimdLevel()
  // re-reads the environment — which is what lets one test cover the
  // forced-scalar path regardless of how CI launched the binary.
  const char* old = std::getenv("DYNBCAST_FORCE_SCALAR");
  const std::string saved = old != nullptr ? old : "";

  ASSERT_EQ(setenv("DYNBCAST_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(resolveSimdLevel(), SimdLevel::kScalar);
  ASSERT_EQ(setenv("DYNBCAST_FORCE_SCALAR", "0", 1), 0);
  const SimdLevel native = resolveSimdLevel();
  EXPECT_TRUE(simdSupported(native));

  if (old != nullptr) {
    setenv("DYNBCAST_FORCE_SCALAR", saved.c_str(), 1);
  } else {
    unsetenv("DYNBCAST_FORCE_SCALAR");
  }
}

TEST(SimdDispatchTest, ProcessWideTableIsSupportedAndNamed) {
  const Kernels& k = dispatch();
  EXPECT_TRUE(simdSupported(k.level));
  EXPECT_STREQ(k.name, simdLevelName(k.level));
}

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ(simdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simdLevelName(SimdLevel::kAvx512), "avx512");
}

// --- bit-level wrappers at the ISSUE's n values ---------------------

const std::size_t kBitSizes[] = {1, 63, 64, 65, 127, 130};

DynBitset randomBits(std::size_t n, Rng& rng) {
  DynBitset b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.4)) b.set(i);
  }
  return b;
}

TEST(SimdWrapperTest, OrCountMatchesNaiveAtWordBoundaryBitSizes) {
  Rng rng(99);
  for (const std::size_t n : kBitSizes) {
    for (int trial = 0; trial < 10; ++trial) {
      DynBitset dst = randomBits(n, rng);
      const DynBitset src = randomBits(n, rng);
      std::size_t expect = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (dst.test(i) || src.test(i)) ++expect;
      }
      EXPECT_EQ(
          bitword::orCount(dst.wordData(), src.wordData(), dst.wordCount()),
          expect)
          << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace dynbcast

#include "src/support/bitset.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/support/rng.h"
#include "tests/oracles/oracles.h"

namespace dynbcast {
namespace {

TEST(DynBitsetTest, DefaultConstructedIsEmpty) {
  DynBitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.none());
  EXPECT_TRUE(b.all());  // vacuous
}

TEST(DynBitsetTest, SizedConstructionIsAllZero) {
  DynBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  EXPECT_FALSE(b.all());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynBitsetTest, SetResetTest) {
  DynBitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynBitsetTest, AssignSetsAndClears) {
  DynBitset b(10);
  b.assign(3, true);
  EXPECT_TRUE(b.test(3));
  b.assign(3, false);
  EXPECT_FALSE(b.test(3));
}

TEST(DynBitsetTest, SetAllRespectsTailInvariant) {
  for (const std::size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    DynBitset b(size);
    b.setAll();
    EXPECT_EQ(b.count(), size) << "size=" << size;
    EXPECT_TRUE(b.all()) << "size=" << size;
    // The tail invariant: no bits beyond size() may be set, which `all`
    // and `count` both rely on.
    if (size % 64 != 0) {
      EXPECT_EQ(b.words().back() >> (size % 64), 0u) << "size=" << size;
    }
  }
}

TEST(DynBitsetTest, ClearZeroesEverything) {
  DynBitset b(77);
  b.setAll();
  b.clear();
  EXPECT_TRUE(b.none());
}

TEST(DynBitsetTest, OrWithUnionsBits) {
  DynBitset a(130), b(130);
  a.set(5);
  a.set(100);
  b.set(6);
  b.set(100);
  a.orWith(b);
  EXPECT_TRUE(a.test(5));
  EXPECT_TRUE(a.test(6));
  EXPECT_TRUE(a.test(100));
  EXPECT_EQ(a.count(), 3u);
}

// intersection, difference and isSupersetOf are test oracles
// (tests/oracles/oracles.h); other suites rely on them, so pin them here.

TEST(DynBitsetTest, AndWithIntersectsBits) {
  DynBitset a(130), b(130);
  a.set(5);
  a.set(100);
  b.set(100);
  b.set(101);
  const DynBitset ab = intersection(a, b);
  EXPECT_EQ(ab.count(), 1u);
  EXPECT_TRUE(ab.test(100));
}

TEST(DynBitsetTest, SubtractRemovesBits) {
  DynBitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  const DynBitset diff = difference(a, b);
  EXPECT_TRUE(diff.test(1));
  EXPECT_FALSE(diff.test(65));
}

TEST(DynBitsetTest, SupersetRelation) {
  DynBitset a(66), b(66);
  a.set(1);
  a.set(65);
  b.set(1);
  EXPECT_TRUE(isSupersetOf(a, b));
  EXPECT_FALSE(isSupersetOf(b, a));
  EXPECT_TRUE(isSupersetOf(a, a));
  b.set(2);
  EXPECT_FALSE(isSupersetOf(a, b));
}

TEST(DynBitsetTest, ForEachSetWalksSetBitsAscending) {
  DynBitset b(200);
  b.set(3);
  b.set(64);
  b.set(199);
  std::vector<std::size_t> seen;
  b.forEachSet([&seen](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 199}));
  std::size_t calls = 0;
  DynBitset(50).forEachSet([&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(DynBitsetTest, FindNextClearWalksClearBitsAndHidesTheTail) {
  DynBitset b(130);
  b.setAll();
  b.reset(5);
  b.reset(64);
  EXPECT_EQ(b.findNextClear(0), 5u);
  EXPECT_EQ(b.findNextClear(6), 64u);
  // Bits 130..191 of the last word are zero but not part of the set.
  EXPECT_EQ(b.findNextClear(65), 130u);
  EXPECT_EQ(b.findNextClear(130), 130u);
  DynBitset full(128);
  full.setAll();
  EXPECT_EQ(full.findNextClear(0), 128u);
  EXPECT_EQ(DynBitset(70).findNextClear(69), 69u);
}

TEST(DynBitsetTest, EqualityAndOrdering) {
  DynBitset a(10), b(10);
  EXPECT_EQ(a, b);
  a.set(3);
  EXPECT_NE(a, b);
  EXPECT_TRUE(b < a);
}

TEST(DynBitsetTest, HashDiffersOnContent) {
  DynBitset a(64), b(64);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
  DynBitset c(64);
  c.set(1);
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(DynBitsetTest, ToStringRendersBitZeroFirst) {
  DynBitset b(4);
  b.set(0);
  b.set(2);
  EXPECT_EQ(b.toString(), "1010");
}

// Property sweep: randomized ops agree with a reference std::vector<bool>.
class DynBitsetPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DynBitsetPropertyTest, MatchesReferenceImplementation) {
  const std::size_t size = GetParam();
  Rng rng(size * 7919 + 13);
  DynBitset b(size);
  std::vector<bool> ref(size, false);
  for (int step = 0; step < 500; ++step) {
    const std::size_t i = rng.uniform(size);
    switch (rng.uniform(3)) {
      case 0:
        b.set(i);
        ref[i] = true;
        break;
      case 1:
        b.reset(i);
        ref[i] = false;
        break;
      default:
        EXPECT_EQ(b.test(i), ref[i]);
    }
  }
  std::size_t refCount = 0;
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(b.test(i), ref[i]) << "bit " << i;
    if (ref[i]) ++refCount;
  }
  EXPECT_EQ(b.count(), refCount);
}

TEST_P(DynBitsetPropertyTest, UnionIsCommutativeAndIdempotent) {
  const std::size_t size = GetParam();
  Rng rng(size + 42);
  DynBitset a(size), b(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (rng.chance(0.3)) a.set(i);
    if (rng.chance(0.3)) b.set(i);
  }
  DynBitset ab = a;
  ab.orWith(b);
  DynBitset ba = b;
  ba.orWith(a);
  EXPECT_EQ(ab, ba);
  DynBitset again = ab;
  again.orWith(b);
  EXPECT_EQ(again, ab);
  EXPECT_TRUE(isSupersetOf(ab, a));
  EXPECT_TRUE(isSupersetOf(ab, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DynBitsetPropertyTest,
                         ::testing::Values(1, 7, 63, 64, 65, 128, 129, 500));

}  // namespace
}  // namespace dynbcast

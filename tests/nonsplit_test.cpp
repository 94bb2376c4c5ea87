#include "src/nonsplit/nonsplit.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bounds/bounds.h"
#include "src/nonsplit/reduction.h"
#include "src/support/assert.h"
#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"
#include "tests/oracles/oracles.h"

namespace dynbcast {
namespace {

TEST(NonsplitGeneratorTest, RandomGraphsAreNonsplitAndReflexive) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(20);
    const BitMatrix g = randomNonsplitGraph(n, n, rng);
    EXPECT_TRUE(isNonsplit(g));
    EXPECT_TRUE(g.isReflexive());
  }
}

TEST(NonsplitGeneratorTest, SkewedGraphsAreNonsplit) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(20);
    const BitMatrix g = skewedNonsplitGraph(n, rng);
    EXPECT_TRUE(isNonsplit(g));
    EXPECT_TRUE(g.isReflexive());
  }
}

// The graphs themselves, not just the t* they lead to: the content hash
// of one graph per (generator, n) and the RNG draw that follows it. Any
// change to which pairs get repaired, or to the order of the draws,
// moves one of the two. Sizes straddle the 64-bit word boundary; the
// random and bernoulli pins at 63 and 127..129 sit where the repair's
// per-word cursor advances a word or stops at the tail.
struct GraphPin {
  const char* generator;
  std::size_t n;
  std::uint64_t hash;
  std::uint64_t nextDraw;
};

BitMatrix makePinnedGraph(const std::string& generator, std::size_t n,
                          Rng& rng) {
  if (generator == "random") return randomNonsplitGraph(n, 2 * n, rng);
  if (generator == "bernoulli") return bernoulliNonsplitGraph(n, 0.01, rng);
  return skewedNonsplitGraph(n, rng);
}

TEST(NonsplitGeneratorTest, GraphsAndNextDrawArePinned) {
  static const GraphPin kPins[] = {
      {"random", 1, 0x57fbe32951ec2d93ull, 0x3a93f636a8fdc171ull},
      {"random", 64, 0xc3a529b385b6565full, 0x2b1c7cf2eab37eaeull},
      {"random", 63, 0xe71cea156cb928c0ull, 0x269c084ffe045054ull},
      {"random", 65, 0x9de3ee4c39cd4b79ull, 0x10dad9e8776deb05ull},
      {"random", 127, 0x73a77243814b171full, 0xa905e6dfba51e012ull},
      {"random", 128, 0x4d74333ba3d978e9ull, 0xe8f50b83d7923615ull},
      {"random", 129, 0x7a3ed700e46d12fcull, 0xf67d3c01bb838018ull},
      {"random", 257, 0x5691ac5a5511b0adull, 0x5c33d66d9202d05aull},
      {"random", 2048, 0x90ac0f875154d78dull, 0x66a89b67c9be6ef9ull},
      {"bernoulli", 1, 0x57fbe32951ec2d93ull, 0xcd45c7f1de81ef56ull},
      {"bernoulli", 64, 0x7a311cf303b82d60ull, 0xae55fc63ddb0403full},
      {"bernoulli", 63, 0x625a88c39030ce52ull, 0xa232dc3fe9087014ull},
      {"bernoulli", 65, 0x08546bff50dc548full, 0x377f7a9edfe41d88ull},
      {"bernoulli", 127, 0x42597abfb4265745ull, 0x087e921c1d4dc8b5ull},
      {"bernoulli", 128, 0xac7f8e79630692f0ull, 0xa4e9899db128ea1dull},
      {"bernoulli", 129, 0x1d56b643e17790b3ull, 0x9d80791c2163a9c3ull},
      {"bernoulli", 257, 0x0926ea6542ef5cd4ull, 0x0206f657f5e816b4ull},
      {"bernoulli", 2048, 0xf22a95737b703d57ull, 0xaa67f8875e41c039ull},
      {"skewed", 1, 0x57fbe32951ec2d93ull, 0xcd45c7f1de81ef56ull},
      {"skewed", 64, 0x6fe085f7c4eb7911ull, 0xe4b1cafa80b9203eull},
      {"skewed", 65, 0xf12b385c05780a31ull, 0xeb527757387df2f7ull},
      {"skewed", 257, 0x4ec7a59aa6be570eull, 0x2e969ffae0b933a6ull},
      {"skewed", 2048, 0x2843cf2e19f8dd97ull, 0x3785e4f45cc23b70ull},
  };
  for (const GraphPin& pin : kPins) {
    Rng rng(0x5eed0000u + pin.n);
    const BitMatrix g = makePinnedGraph(pin.generator, pin.n, rng);
    const std::uint64_t next = rng();
    EXPECT_TRUE(isNonsplit(g)) << pin.generator << " n=" << pin.n;
    EXPECT_EQ(matrixHash(g), pin.hash) << pin.generator << " n=" << pin.n;
    EXPECT_EQ(next, pin.nextDraw) << pin.generator << " n=" << pin.n;
  }
}

TEST(NonsplitBroadcastTest, FinishesWithinLogBound) {
  // [2]: broadcast under nonsplit adversaries takes ≤ ⌈log₂ n⌉ rounds.
  Rng rng(3);
  for (const std::size_t n : {4u, 16u, 64u, 128u}) {
    const BroadcastRun run = runNonsplitBroadcast(
        n,
        [n](Rng& r) { return randomNonsplitGraph(n, 2 * n, r); },
        bounds::nonsplitLogUpper(n) + 5, rng);
    EXPECT_TRUE(run.completed) << "n=" << n;
    EXPECT_LE(run.rounds, bounds::nonsplitLogUpper(n) + 2) << "n=" << n;
  }
}

TEST(NonsplitBroadcastTest, SkewedAlsoLogarithmic) {
  Rng rng(4);
  const std::size_t n = 64;
  const BroadcastRun run = runNonsplitBroadcast(
      n, [n](Rng& r) { return skewedNonsplitGraph(n, r); },
      bounds::nonsplitLogUpper(n) + 5, rng);
  EXPECT_TRUE(run.completed);
}

TEST(NonsplitBroadcastTest, SplitGraphIsRejected) {
  // A nonsplit round, then the identity: the second must not be applied.
  Rng rng(9);
  const std::size_t n = 32;
  std::size_t calls = 0;
  try {
    (void)runNonsplitBroadcast(
        n,
        [n, &calls](Rng& r) {
          return calls++ == 0 ? randomNonsplitGraph(n, 2 * n, r)
                              : BitMatrix::identity(n);
        },
        bounds::nonsplitLogUpper(n) + 5, rng);
    FAIL() << "a split graph was applied";
  } catch (const AssertionError& e) {
    EXPECT_EQ(calls, 2u);
    EXPECT_NE(std::string(e.what()).find("must be nonsplit"),
              std::string::npos)
        << e.what();
  }
}

// Random tree sequences at sizes that straddle the 64-bit word boundary
// of the heard rows, trees and paths alternating.
std::vector<RootedTree> randomSequence(std::size_t n, std::size_t length,
                                       Rng& rng) {
  std::vector<RootedTree> trees;
  for (std::size_t i = 0; i < length; ++i) {
    trees.push_back(i % 2 == 0 ? randomRootedTree(n, rng)
                               : randomPath(n, rng));
  }
  return trees;
}

constexpr std::size_t kBoundarySizes[] = {1, 2, 6, 63, 64, 65, 130};

TEST(ReductionTest, ProductOfTreesMatchesManualProduct) {
  Rng rng(5);
  for (const std::size_t n : kBoundarySizes) {
    for (int seq = 0; seq < 4; ++seq) {
      const std::vector<RootedTree> trees =
          randomSequence(n, 1 + rng.uniform(5), rng);
      BitMatrix manual = trees[0].toMatrix();
      for (std::size_t i = 1; i < trees.size(); ++i) {
        manual = naiveProduct(manual, trees[i].toMatrix());
      }
      EXPECT_EQ(productOfTrees(trees), manual)
          << "n=" << n << " seq=" << seq << " length=" << trees.size();
    }
  }
}

TEST(ReductionTest, PrefixLengthMatchesPrefixByPrefixProduct) {
  Rng rng(9);
  for (const std::size_t n : kBoundarySizes) {
    for (int seq = 0; seq < 4; ++seq) {
      const std::vector<RootedTree> trees =
          randomSequence(n, 1 + rng.uniform(8), rng);
      std::size_t expected = trees.size() + 1;
      BitMatrix prefix = trees[0].toMatrix();
      for (std::size_t length = 1;; ++length) {
        if (isNonsplit(prefix)) {
          expected = length;
          break;
        }
        if (length == trees.size()) break;
        prefix = naiveProduct(prefix, trees[length].toMatrix());
      }
      EXPECT_EQ(nonsplitPrefixLength(trees), expected)
          << "n=" << n << " seq=" << seq << " length=" << trees.size();
    }
  }
}

TEST(ReductionTest, NMinus1TreeProductIsAlwaysNonsplit) {
  // The Charron-Bost–Függer–Nowak lemma, exercised on random sequences.
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.uniform(10);
    std::vector<RootedTree> trees;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      trees.push_back(randomRootedTree(n, rng));
    }
    EXPECT_TRUE(treeProductIsNonsplit(trees)) << "n=" << n;
  }
}

TEST(ReductionTest, WorstCaseSequenceNeedsExactlyNMinus1) {
  // A static path is the extreme case: its (n−2)-fold product is still
  // split (nodes 0 and n−1 share no in-neighbor), the (n−1)-fold is not.
  const std::size_t n = 8;
  std::vector<RootedTree> trees(n - 1, makePath(n));
  EXPECT_EQ(nonsplitPrefixLength(trees), n - 1);
  std::vector<RootedTree> short_(trees.begin(), trees.end() - 1);
  EXPECT_FALSE(treeProductIsNonsplit(short_));
}

TEST(ReductionTest, StarIsImmediatelyNonsplit) {
  const std::vector<RootedTree> trees{makeStar(7, 0)};
  EXPECT_EQ(nonsplitPrefixLength(trees), 1u);
}

TEST(ReductionTest, PrefixLengthNeverExceedsNMinus1) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.uniform(8);
    std::vector<RootedTree> trees;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      trees.push_back(randomPath(n, rng));
    }
    EXPECT_LE(nonsplitPrefixLength(trees), n - 1) << "n=" << n;
  }
}

}  // namespace
}  // namespace dynbcast

// Unit coverage for the sparse backend: runFrontierTStar must land on
// the exact dense t* under any cache budget or sample seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/two_phase_rounds.h"
#include "src/bounds/bounds.h"
#include "src/graph/bitmatrix.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/support/assert.h"
#include "src/support/rng.h"
#include "tests/oracles/oracles.h"

namespace dynbcast {
namespace {

/// A round over n nodes from an arc list in any order, regrouped by the
/// pair→CSR helper the out-of-order producers use.
[[nodiscard]] SparseRound roundOf(std::size_t n, const std::vector<Arc>& arcs) {
  SparseRound round;
  assignArcs(n, arcs, round);
  return round;
}

[[nodiscard]] SparseRound randomArcRound(std::size_t n, std::size_t arcs,
                                         Rng& rng) {
  std::vector<Arc> pairs;
  for (std::size_t i = 0; i < arcs; ++i) {
    pairs.emplace_back(static_cast<std::uint32_t>(rng.uniform(n)),
                       static_cast<std::uint32_t>(rng.uniform(n)));
  }
  return roundOf(n, pairs);
}

/// Replayable scripted source: cycles over a fixed vector of rounds.
class VectorRoundSource final : public SparseRoundSource {
 public:
  explicit VectorRoundSource(std::vector<SparseRound> rounds)
      : rounds_(std::move(rounds)) {}
  void reset() override { next_ = 0; }
  const SparseRound& next() override {
    const SparseRound& round = rounds_[next_ % rounds_.size()];
    ++next_;
    return round;
  }

 private:
  std::vector<SparseRound> rounds_;
  std::size_t next_ = 0;
};

[[nodiscard]] std::size_t denseTStar(std::size_t n,
                                     const std::vector<SparseRound>& script,
                                     std::size_t cap) {
  BroadcastSim dense(n);
  if (dense.broadcastDone()) return 0;
  while (dense.round() < cap) {
    dense.applyGraph(denseFromRound(script[dense.round() % script.size()]));
    if (dense.broadcastDone()) return dense.round();
  }
  return 0;  // never completed
}

/// ⌈n/64⌉: the most batches the certification pass may forward, since
/// each batch removes at least its own members from the candidates.
[[nodiscard]] std::size_t batchBound(std::size_t n) { return (n + 63) / 64; }

class FrontierTStarTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrontierTStarTest, MatchesDenseTStarOnScriptedSequences) {
  // n > 64 exercises the sampled upper bound + backward filter +
  // certification path; at n ≤ 64 every node is a sampled source, so the
  // filter must pass none (and the sample count is clamped to n).
  const std::size_t n = GetParam();
  Rng rng(n * 37 + 101);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<SparseRound> script;
    const std::size_t period = 3 + rng.uniform(5);
    for (std::size_t r = 0; r < period; ++r) {
      script.push_back(randomArcRound(n, n / 2 + 2, rng));
    }
    const std::size_t cap = 20 * n;
    const std::size_t expected = denseTStar(n, script, cap);

    VectorRoundSource source(script);
    FrontierTStarOptions options;
    options.maxRounds = cap;
    options.sampleSeed = rng();
    const FrontierTStarResult result = runFrontierTStar(n, source, options);
    // The batch counter is bounded and replays exactly.
    EXPECT_LE(result.batches, batchBound(n))
        << "n=" << n << " trial=" << trial;
    const FrontierTStarResult again = runFrontierTStar(n, source, options);
    EXPECT_EQ(again.batches, result.batches)
        << "n=" << n << " trial=" << trial;
    if (expected == 0) {
      EXPECT_FALSE(result.completed) << "n=" << n << " trial=" << trial;
      EXPECT_EQ(result.rounds, cap);
    } else {
      EXPECT_TRUE(result.completed) << "n=" << n << " trial=" << trial;
      EXPECT_EQ(result.rounds, expected)
          << "n=" << n << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrontierTStarTest,
                         ::testing::Values(2, 5, 17, 63, 64, 65, 100, 130));

/// Rounds that stress the pair→CSR regrouping (assignArcs) and the
/// round cache and replay behind it: random arcs with every arc doubled
/// and self-loops mixed in, a self-loop-only round, an empty round, and
/// a round of arcs only into and out of node n − 1 — the arc rounds both
/// shuffled and sorted by source, the rounds in a shuffled order.
[[nodiscard]] std::vector<SparseRound> awkwardScript(std::size_t n,
                                                     Rng& rng) {
  const auto node = [&] { return static_cast<std::uint32_t>(rng.uniform(n)); };
  const auto last = static_cast<std::uint32_t>(n - 1);
  const auto noisy = [&] {
    std::vector<Arc> arcs;
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const std::uint32_t x = node();
      const std::uint32_t y = node();
      arcs.emplace_back(x, y);
      arcs.emplace_back(y, y);
      arcs.emplace_back(x, y);
    }
    rng.shuffle(arcs);
    return arcs;
  };
  std::vector<Arc> loops;
  for (std::uint32_t x = 0; x < n; x += 2) loops.emplace_back(x, x);
  std::vector<Arc> edge;
  for (std::uint32_t x = 0; x < last; ++x) {
    if (rng.chance(0.75)) edge.emplace_back(last, x);
    if (rng.chance(0.5)) edge.emplace_back(x, last);
  }
  const auto sorted = [](std::vector<Arc> arcs) {
    std::sort(arcs.begin(), arcs.end());
    return arcs;
  };
  rng.shuffle(edge);
  const std::vector<std::vector<Arc>> arcLists = {
      noisy(), sorted(noisy()), loops, edge, sorted(edge), {}};
  std::vector<SparseRound> script;
  for (const std::vector<Arc>& arcs : arcLists) {
    script.push_back(roundOf(n, arcs));
  }
  rng.shuffle(script);
  return script;
}

TEST(FrontierTStarTest, CompactRoundsMatchDenseOnAwkwardArcLists) {
  for (const std::size_t n : {2, 63, 64, 65, 130}) {
    Rng rng(n * 13 + 7);
    for (int trial = 0; trial < 6; ++trial) {
      const std::vector<SparseRound> script = awkwardScript(n, rng);
      const std::size_t cap = 20 * n;
      const std::size_t expected = denseTStar(n, script, cap);
      for (const std::size_t budget :
           {FrontierTStarOptions{}.cacheBudgetArcs, std::size_t(0)}) {
        VectorRoundSource source(script);
        FrontierTStarOptions options;
        options.maxRounds = cap;
        options.sampleSeed = static_cast<std::uint64_t>(trial);
        options.cacheBudgetArcs = budget;
        const FrontierTStarResult result =
            runFrontierTStar(n, source, options);
        EXPECT_EQ(result.completed, expected != 0)
            << "n=" << n << " trial=" << trial << " budget=" << budget;
        EXPECT_EQ(result.rounds, expected != 0 ? expected : cap)
            << "n=" << n << " trial=" << trial << " budget=" << budget;
      }
    }
  }
}

TEST(FrontierTStarTest, ReportsIncompleteAtCapOnSilentNetwork) {
  // Arc-free rounds never spread anything: for n >= 2 broadcast cannot
  // complete, and the result must say cap/incomplete, not loop or lie.
  const std::size_t n = 80;
  VectorRoundSource source({roundOf(n, {})});
  FrontierTStarOptions options;
  options.maxRounds = 25;
  const FrontierTStarResult result = runFrontierTStar(n, source, options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 25u);
}

TEST(FrontierTStarTest, TinyCacheBudgetReplaysExactly) {
  // A cache budget too small for even one round forces every probe to
  // replay through source.reset(); the answer must not change.
  const std::size_t n = 90;
  Rng rng(555);
  std::vector<SparseRound> script;
  for (int r = 0; r < 5; ++r) script.push_back(randomArcRound(n, n, rng));
  VectorRoundSource source(script);

  FrontierTStarOptions cached;
  cached.maxRounds = 20 * n;
  cached.sampleSeed = 7;
  const FrontierTStarResult big = runFrontierTStar(n, source, cached);

  source.reset();
  FrontierTStarOptions tiny = cached;
  tiny.cacheBudgetArcs = 1;
  const FrontierTStarResult small = runFrontierTStar(n, source, tiny);

  EXPECT_EQ(big.completed, small.completed);
  EXPECT_EQ(big.rounds, small.rounds);
  EXPECT_EQ(denseTStar(n, script, cached.maxRounds), big.rounds);
}

TEST(FrontierTStarTest, SampleSeedOnlyAffectsPerformance) {
  // t* is exact, so any sample seed (and any sample count) must report
  // the same round.
  const std::size_t n = 120;
  Rng rng(808);
  std::vector<SparseRound> script;
  // 4n arcs per round: sparse, but enough in-degree that the periodic
  // script completes broadcast with overwhelming probability.
  for (int r = 0; r < 4; ++r) {
    script.push_back(randomArcRound(n, 4 * n, rng));
  }
  const std::size_t expected = denseTStar(n, script, 20 * n);
  ASSERT_NE(expected, 0u);

  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    for (const std::size_t samples : {std::size_t(1), std::size_t(16),
                                      std::size_t(64)}) {
      VectorRoundSource source(script);
      FrontierTStarOptions options;
      options.maxRounds = 20 * n;
      options.sampleSeed = seed;
      options.samples = samples;
      const FrontierTStarResult result =
          runFrontierTStar(n, source, options);
      EXPECT_TRUE(result.completed)
          << "seed=" << seed << " samples=" << samples;
      EXPECT_EQ(result.rounds, expected)
          << "seed=" << seed << " samples=" << samples;
    }
  }
}

/// Runs the two-phase line at n through the sparse engine: the
/// construction meets ⌈(3n−1)/2⌉ − 2 exactly, and above n = 64 the
/// sampled bound, the laggard targets and the certifier must land on it
/// too.
void expectLowerBoundLine(std::size_t n) {
  TwoPhaseRoundSource source(n);
  FrontierTStarOptions options;
  options.maxRounds = 4 * n;
  const FrontierTStarResult result = runFrontierTStar(n, source, options);
  EXPECT_TRUE(result.completed) << "n=" << n;
  EXPECT_EQ(result.rounds, bounds::lowerBound(n)) << "n=" << n;
  EXPECT_LE(result.batches, batchBound(n)) << "n=" << n;
}

TEST(FrontierTStarTest, ReproducesTheLowerBoundLine) {
  for (std::size_t n = 2; n <= 256; ++n) expectLowerBoundLine(n);
  expectLowerBoundLine(1024);
}

TEST(FrontierTStarTest, ReproducesTheLowerBoundLineAt4096) {
#ifdef NDEBUG
  expectLowerBoundLine(4096);  // ~5 s in Release
#else
  GTEST_SKIP() << "n = 4096 runs in optimized (NDEBUG) builds only";
#endif
}

TEST(FrontierTStarTest, LaterBatchesLowerTheBestRound) {
  // Hub b = 129 and two groups, G1 = {0..64} and G2 = {65..128}. After
  // two silent rounds, b broadcasts at round 3; G1 reaches b at round 4
  // and completes with b's round-5 star; G2 reaches b at round 6 and
  // completes with the round-7 star. So t* = 3.
  const std::size_t n = 130;
  const std::uint32_t hub = 129;
  std::vector<Arc> star, g1, g2;
  for (std::uint32_t x = 0; x < hub; ++x) {
    star.emplace_back(hub, x);
    (x <= 64 ? g1 : g2).emplace_back(x, hub);
  }
  const SparseRound silent = roundOf(n, {});
  const SparseRound hubStar = roundOf(n, star);
  const std::vector<SparseRound> script = {
      silent, silent, hubStar, roundOf(n, g1), hubStar, roundOf(n, g2),
      hubStar};
  ASSERT_EQ(denseTStar(n, script, 20 * n), 3u);

  // With one sample from G2 (seed 1 picks node 88), the sampled bound is 7
  // and the one target is node 0, which only G1 and b reach by round 6:
  // the filter passes those 66 nodes. Batch {0..63} completes at 5; the
  // re-filter at round 4 leaves b alone, whose batch completes at 3.
  // Only a sample from G2 makes the pass forward two batches.
  VectorRoundSource source(script);
  FrontierTStarOptions options;
  options.maxRounds = 20 * n;
  options.samples = 1;
  options.sampleSeed = 1;
  const FrontierTStarResult result = runFrontierTStar(n, source, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_EQ(result.batches, 2u);
}

TEST(FrontierTStarTest, CompletingBatchRefiltersTheRest) {
  // Round 1 is node 1's star, so t* = 1. Round 2 has B = {64..128} \ {88}
  // tell node 0, round 3 has node 88 tell everyone else and round 4 has
  // it tell node 0. The one sample (seed 1 picks node 88) completes at
  // round 4 and leaves node 0 as the target, which only 0, 1 and B reach
  // by round 3: 66 candidates. The first batch, {0, 1, 64..126} \ {88},
  // completes at round 1. The re-filter at round 0 keeps only targets,
  // so 127 and 128 go too, and the pass ends after one batch; keeping
  // them would forward a second, failing batch.
  const std::size_t n = 130;
  std::vector<Arc> star, toZero, spread;
  for (std::uint32_t x = 0; x < n; ++x) {
    if (x != 1) star.emplace_back(1, x);
    if (x >= 64 && x <= 128 && x != 88) toZero.emplace_back(x, 0);
    if (x != 0 && x != 88) spread.emplace_back(88, x);
  }
  const std::vector<SparseRound> script = {
      roundOf(n, star), roundOf(n, toZero), roundOf(n, spread),
      roundOf(n, {{88, 0}})};
  ASSERT_EQ(denseTStar(n, script, 20 * n), 1u);

  VectorRoundSource source(script);
  FrontierTStarOptions options;
  options.maxRounds = 20 * n;
  options.samples = 1;
  options.sampleSeed = 1;
  const FrontierTStarResult result = runFrontierTStar(n, source, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.batches, 1u);
}

TEST(FrontierTStarTest, RejectsMalformedRounds) {
  // Every pass indexes a round by its offsets and heads, so each pulled
  // round's shape is checked before any pass reads it.
  const std::size_t n = 70;
  Rng rng(2024);
  const SparseRound good = randomArcRound(n, 2 * n, rng);
  ASSERT_GE(good.arcs.size(), 2u);
  const auto expectRejected = [&](const SparseRound& bad, const char* what) {
    VectorRoundSource source({good, bad});
    FrontierTStarOptions options;
    options.maxRounds = 4;
    EXPECT_THROW((void)runFrontierTStar(n, source, options), AssertionError)
        << what;
  };
  SparseRound shortOffsets = good;
  shortOffsets.offsets.pop_back();
  expectRejected(shortOffsets, "n offsets");
  SparseRound longOffsets = good;
  longOffsets.offsets.push_back(longOffsets.offsets.back());
  expectRejected(longOffsets, "n + 2 offsets");
  SparseRound decreasing = good;
  decreasing.offsets[n / 2] = decreasing.offsets[n];
  ASSERT_LT(decreasing.offsets[n / 2 + 1], decreasing.offsets[n / 2]);
  expectRejected(decreasing, "a decreasing offset");
  SparseRound extraArc = good;
  extraArc.arcs.push_back(0);
  expectRejected(extraArc, "offsets[n] below the arc count");
  SparseRound missingArc = good;
  missingArc.arcs.pop_back();
  expectRejected(missingArc, "offsets[n] above the arc count");
  SparseRound shifted = good;
  shifted.offsets[0] = 1;
  expectRejected(shifted, "offsets[0] above 0");
  SparseRound farHead = good;
  farHead.arcs.back() = static_cast<std::uint32_t>(n);
  expectRejected(farHead, "a head equal to n");
  // The well-formed rounds themselves run.
  VectorRoundSource source({good, good});
  FrontierTStarOptions options;
  options.maxRounds = 4;
  EXPECT_NO_THROW((void)runFrontierTStar(n, source, options));
}

TEST(FrontierTStarTest, SingleProcessCompletesImmediately) {
  VectorRoundSource source({roundOf(1, {})});
  FrontierTStarOptions options;
  options.maxRounds = 10;
  const FrontierTStarResult result = runFrontierTStar(1, source, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 0u);
}

}  // namespace
}  // namespace dynbcast

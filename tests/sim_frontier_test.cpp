// Unit coverage for the sparse backend: runFrontierTStar must land on
// the exact dense t* under any cache budget or sample seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "bench/two_phase_rounds.h"
#include "src/bounds/bounds.h"
#include "src/graph/bitmatrix.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/support/rng.h"

namespace dynbcast {
namespace {

[[nodiscard]] SparseRound randomArcRound(std::size_t n, std::size_t arcs,
                                         Rng& rng) {
  SparseRound round;
  round.n = n;
  for (std::size_t i = 0; i < arcs; ++i) {
    round.arcs.emplace_back(static_cast<std::uint32_t>(rng.uniform(n)),
                            static_cast<std::uint32_t>(rng.uniform(n)));
  }
  return round;
}

[[nodiscard]] BitMatrix denseFromRound(const SparseRound& round) {
  BitMatrix g = BitMatrix::identity(round.n);
  for (const auto& [src, dst] : round.arcs) g.set(src, dst);
  return g;
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

/// 1 + ⌈log₂ u⌉: the most probes a search below the bound u may take.
[[nodiscard]] std::size_t probeBound(std::size_t u) {
  return 1 + static_cast<std::size_t>(std::bit_width(u - 1));
}

class FrontierTStarTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrontierTStarTest, MatchesDenseTStarOnScriptedSequences) {
  // n > 64 exercises the sampled upper bound + backward filter +
  // certification path; n ≤ 64 takes the exact all-sources shortcut.
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
    // The sampled bound never exceeds the cap, so neither do the probes
    // of a search below it; the counters replay exactly.
    EXPECT_LE(result.probes, probeBound(cap))
        << "n=" << n << " trial=" << trial;
    const FrontierTStarResult again = runFrontierTStar(n, source, options);
    EXPECT_EQ(again.probes, result.probes) << "n=" << n << " trial=" << trial;
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
                         ::testing::Values(2, 5, 17, 64, 65, 100, 130));

/// Rounds that stress the per-source regrouping of runFrontierTStar's
/// round cache: random arcs with every arc doubled and self-loops mixed
/// in, a self-loop-only round, an empty round, and a round of arcs only
/// into and out of node n − 1 — the arc rounds both shuffled and sorted
/// by source, the rounds in a shuffled order.
[[nodiscard]] std::vector<SparseRound> awkwardScript(std::size_t n,
                                                     Rng& rng) {
  const auto node = [&] { return static_cast<std::uint32_t>(rng.uniform(n)); };
  const auto last = static_cast<std::uint32_t>(n - 1);
  const auto noisy = [&] {
    SparseRound round;
    round.n = n;
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const std::uint32_t x = node();
      const std::uint32_t y = node();
      round.arcs.emplace_back(x, y);
      round.arcs.emplace_back(y, y);
      round.arcs.emplace_back(x, y);
    }
    rng.shuffle(round.arcs);
    return round;
  };
  SparseRound loops;
  loops.n = n;
  for (std::uint32_t x = 0; x < n; x += 2) loops.arcs.emplace_back(x, x);
  SparseRound empty;
  empty.n = n;
  SparseRound edge;
  edge.n = n;
  for (std::uint32_t x = 0; x < last; ++x) {
    if (rng.chance(0.75)) edge.arcs.emplace_back(last, x);
    if (rng.chance(0.5)) edge.arcs.emplace_back(x, last);
  }
  const auto sorted = [](SparseRound round) {
    std::sort(round.arcs.begin(), round.arcs.end());
    return round;
  };
  rng.shuffle(edge.arcs);
  std::vector<SparseRound> script = {noisy(), sorted(noisy()), loops,
                                     edge,    sorted(edge),    empty};
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
  SparseRound silent;
  silent.n = n;
  VectorRoundSource source({silent});
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

TEST(FrontierTStarTest, ReproducesTheLowerBoundLine) {
  // The construction meets ⌈(3n−1)/2⌉ − 2 exactly; above n = 64 the
  // sampled bound, the laggard targets and the certifier must land on
  // it too. On this line the sampled bound already is t*, so the first
  // probe, one round below it, fails and settles t* alone.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 256; ++n) sizes.push_back(n);
  sizes.push_back(1024);
  for (const std::size_t n : sizes) {
    TwoPhaseRoundSource source(n);
    FrontierTStarOptions options;
    options.maxRounds = 4 * n;
    const FrontierTStarResult result = runFrontierTStar(n, source, options);
    EXPECT_TRUE(result.completed) << "n=" << n;
    EXPECT_EQ(result.rounds, bounds::lowerBound(n)) << "n=" << n;
    EXPECT_LE(result.probes, 1u) << "n=" << n;
  }
}

TEST(FrontierTStarTest, SingleProcessCompletesImmediately) {
  SparseRound empty;
  empty.n = 1;
  VectorRoundSource source({empty});
  FrontierTStarOptions options;
  options.maxRounds = 10;
  const FrontierTStarResult result = runFrontierTStar(1, source, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 0u);
}

}  // namespace
}  // namespace dynbcast

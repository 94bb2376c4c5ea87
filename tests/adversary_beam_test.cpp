#include "src/adversary/beam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/adversary/exact_solver.h"
#include "src/adversary/lookahead.h"
#include "src/bounds/bounds.h"

namespace dynbcast {
namespace {

BeamConfig testConfig() {
  BeamConfig cfg;
  cfg.beamWidth = 128;
  cfg.randomMovesPerState = 6;
  cfg.diversityPercent = 30;
  return cfg;
}

TEST(BeamWitnessTest, WitnessVerifiesAtClaimedLength) {
  for (const std::size_t n : {4u, 8u, 12u}) {
    const BeamResult r = beamSearchWitness(n, 7, testConfig());
    EXPECT_EQ(verifyWitness(n, r.witness), r.rounds)
        << "witness replay disagrees at n=" << n;
  }
}

TEST(BeamWitnessTest, BeatsStaticPathBaseline) {
  // The central lower-bound-regime claim our search machinery certifies:
  // dynamic adversaries are strictly stronger than any static tree.
  for (const std::size_t n : {8u, 12u, 16u}) {
    const BeamResult r = beamSearchWitness(n, 7, testConfig());
    EXPECT_GT(r.rounds, n - 1) << "n=" << n;
    EXPECT_LE(r.rounds, bounds::linearUpper(n)) << "n=" << n;
  }
}

TEST(BeamWitnessTest, MatchesExactAtTinyN) {
  // At n ≤ 5 the beam should recover the full exact game value.
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    const ExactResult exact = ExactSolver(n).solve();
    std::size_t best = 0;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      best = std::max(best, beamSearchWitness(n, seed, testConfig()).rounds);
    }
    EXPECT_EQ(best, exact.tStar) << "n=" << n;
  }
}

TEST(BeamWitnessTest, DeterministicPerSeed) {
  const BeamResult a = beamSearchWitness(10, 99, testConfig());
  const BeamResult b = beamSearchWitness(10, 99, testConfig());
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.witness.size(), b.witness.size());
  for (std::size_t i = 0; i < a.witness.size(); ++i) {
    EXPECT_EQ(a.witness[i], b.witness[i]);
  }
}

TEST(BeamWitnessTest, TrivialSizes) {
  const BeamResult r2 = beamSearchWitness(2, 1, testConfig());
  EXPECT_EQ(r2.rounds, 1u);  // every tree on 2 nodes broadcasts at once
  EXPECT_EQ(verifyWitness(2, r2.witness), 1u);
}

TEST(BeamWitnessTest, WitnessTreesAreWellFormed) {
  const BeamResult r = beamSearchWitness(9, 5, testConfig());
  for (const RootedTree& t : r.witness) {
    EXPECT_EQ(t.size(), 9u);
  }
}

TEST(BeamWitnessTest, RejectsZeroWidth) {
  // width = 0 used to read frontier.front() of an empty frontier.
  BeamConfig cfg = testConfig();
  cfg.beamWidth = 0;
  EXPECT_THROW((void)beamSearchWitness(8, 1, cfg), std::invalid_argument);
  EXPECT_THROW(validateBeamConfig(cfg), std::invalid_argument);
}

TEST(BeamWitnessTest, RejectsDiversityAboveHundredPercent) {
  // diversity > 100 used to underflow the size_t elite slot count.
  BeamConfig cfg = testConfig();
  cfg.diversityPercent = 101;
  EXPECT_THROW((void)beamSearchWitness(8, 1, cfg), std::invalid_argument);
  EXPECT_THROW(validateBeamConfig(cfg), std::invalid_argument);
}

TEST(BeamWitnessTest, RejectsNonFiniteOrNegativeNoise) {
  // The noise scales the damage-tree weights by 1 + noise·u: a NaN or
  // negative amplitude used to be accepted and silently ran noise-free.
  for (const double bad : {std::nan(""), -3.0, -1e-9,
                           std::numeric_limits<double>::infinity()}) {
    BeamConfig cfg = testConfig();
    cfg.noiseAmplitude = bad;
    EXPECT_THROW((void)beamSearchWitness(8, 1, cfg), std::invalid_argument)
        << bad;
    EXPECT_THROW(validateBeamConfig(cfg), std::invalid_argument) << bad;
  }
  // Zero stays legal: deterministic damage trees only.
  BeamConfig quiet = testConfig();
  quiet.noiseAmplitude = 0.0;
  EXPECT_NO_THROW(validateBeamConfig(quiet));
}

TEST(BeamWitnessTest, TinyMaxRoundsIsARealCap) {
  // Regression: the old loop guard (levels <= cap) admitted one level too
  // many, so reported rounds exceeded maxRounds by one.
  for (const std::size_t cap : {1u, 2u, 3u, 5u}) {
    BeamConfig cfg = testConfig();
    cfg.maxRounds = cap;
    const BeamResult r = beamSearchWitness(12, 3, cfg);
    EXPECT_LE(r.rounds, cap) << "cap=" << cap;
    EXPECT_EQ(verifyWitness(12, r.witness), r.rounds) << "cap=" << cap;
  }
}

TEST(BeamWitnessTest, SearchTelemetryIsConsistent) {
  const BeamResult r = beamSearchWitness(12, 7, testConfig());
  EXPECT_GT(r.movesGenerated, 0u);
  EXPECT_GE(r.movesGenerated, r.statesExpanded);  // dedup only removes
  EXPECT_GT(r.uniqueStates, 0u);
  // Every evaluated candidate either finished, merged with an identical
  // state, or was admitted as a unique state.
  EXPECT_LE(r.uniqueStates + r.transpositionHits, r.statesExpanded);
  EXPECT_GT(r.arenaPeakNodes, 0u);
  // The retained history is the ancestor closure of the frontier, far
  // below the full per-level history (rounds × width states).
  EXPECT_LT(r.arenaPeakNodes, r.rounds * testConfig().beamWidth);
}

TEST(BeamWitnessTest, WitnessValidAcrossConfigSpace) {
  // Property sweep over the config axes the registry exposes: whatever
  // the knobs, the reported rounds must equal the witness replay.
  for (const std::size_t width : {1u, 8u, 64u}) {
    for (const std::size_t diversity : {0u, 50u, 100u}) {
      for (const bool structured : {true, false}) {
        BeamConfig cfg;
        cfg.beamWidth = width;
        cfg.diversityPercent = diversity;
        cfg.structuredMoves = structured;
        cfg.randomMovesPerState = 3;
        const BeamResult r = beamSearchWitness(8, 13, cfg);
        EXPECT_EQ(verifyWitness(8, r.witness), r.rounds)
            << "width=" << width << " diversity=" << diversity
            << " structured=" << structured;
        EXPECT_EQ(r.witness.size(), r.rounds);
      }
    }
  }
}

TEST(LookaheadTest, CompletesWithinTheoremAndAtLeastNearStatic) {
  for (const std::size_t n : {6u, 10u, 16u}) {
    LookaheadDelayAdversary adv(n, 3, {.depth = 2});
    const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
    ASSERT_TRUE(run.completed) << "n=" << n;
    EXPECT_LE(run.rounds, bounds::linearUpper(n));
    EXPECT_GE(run.rounds + 2, n - 1);  // never much worse than static
  }
}

TEST(LookaheadTest, DeterministicPerSeed) {
  LookaheadDelayAdversary adv(8, 11, {.depth = 2});
  const BroadcastRun a = runAdversary(8, adv, defaultRoundCap(8));
  const BroadcastRun b = runAdversary(8, adv, defaultRoundCap(8));
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(LookaheadTest, TranspositionStatsAndToggle) {
  // Freeze variants transpose heavily, so a depth-3 search must score
  // table hits and still land inside the theorem bracket.
  LookaheadDelayAdversary a(10, 17, {.depth = 3});
  const BroadcastRun ra = runAdversary(10, a, defaultRoundCap(10));
  ASSERT_TRUE(ra.completed);
  EXPECT_LE(ra.rounds, bounds::linearUpper(10));
  EXPECT_GT(a.stats().nodesVisited, 0u);
  EXPECT_GT(a.stats().transpositionHits, 0u);
  EXPECT_LE(a.stats().transpositionHits, a.stats().nodesVisited);
}

}  // namespace
}  // namespace dynbcast

// Oracle test for the damage-greedy tree builder.
//
// DamageTrees promises the exact trees of the plain per-pair Prim below:
// the same picks, the same tie breaks and the same IEEE additions, plain
// and noisy, on every kernel tier kernelsFor() hands out. The reference
// is kept here verbatim in spirit: for every (pick p, open y) pair it
// sums weight[x] over x ∈ Heard(p) \ Heard(y) in ascending x.
//
// States are reachable ones, chosen to hit every corner of the contract:
// sizes straddling the 64-lane block and the 8/4-lane vector groups,
// zero-cost ties (Heard(root) ⊆ Heard(y) for many y), coverage past the
// 2^50 weight cap, and coverage n−1 (the 1e6 factor). Noise amplitudes
// 1e290 and 1e308 overflow some sums, or every weight, to +inf, where
// the reference's scan falls back to the lowest open y.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/adversary/adaptive.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/bitset.h"
#include "src/support/eval_scratch.h"
#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

using bitword::kernelsFor;
using bitword::SimdLevel;
using bitword::simdSupported;

/// The per-pair Prim the builder replaced, kept as the reference.
RootedTree referenceDamageTree(const std::vector<DynBitset>& heard,
                               const std::vector<std::size_t>& coverage,
                               std::size_t root, double noiseAmplitude,
                               Rng* rng) {
  const std::size_t n = heard.size();
  std::vector<double> weight(n);
  for (std::size_t x = 0; x < n; ++x) {
    const double capped = static_cast<double>(std::min<std::size_t>(
        coverage[x], 50));
    weight[x] = std::exp2(capped) * (coverage[x] + 1 >= n ? 1e6 : 1.0);
    if (noiseAmplitude > 0.0 && rng != nullptr) {
      weight[x] *= 1.0 + noiseAmplitude * rng->uniformReal();
    }
  }
  const auto damage = [&](std::size_t p, std::size_t y) {
    double d = 0.0;
    for (std::size_t x = 0; x < n; ++x) {
      if (heard[p].test(x) && !heard[y].test(x)) d += weight[x];
    }
    return d;
  };
  std::vector<std::size_t> parent(n, n);
  std::vector<double> bestCost(n, 0.0);
  std::vector<bool> attached(n, false);
  parent[root] = root;
  attached[root] = true;
  for (std::size_t y = 0; y < n; ++y) {
    if (y != root) {
      parent[y] = root;
      bestCost[y] = damage(root, y);
    }
  }
  for (std::size_t step = 1; step < n; ++step) {
    std::size_t pick = n;
    for (std::size_t y = 0; y < n; ++y) {
      if (!attached[y] && (pick == n || bestCost[y] < bestCost[pick])) {
        pick = y;
      }
    }
    attached[pick] = true;
    for (std::size_t y = 0; y < n; ++y) {
      if (!attached[y]) {
        const double c = damage(pick, y);
        if (c < bestCost[y]) {
          bestCost[y] = c;
          parent[y] = pick;
        }
      }
    }
  }
  return RootedTree(root, std::move(parent));
}

std::vector<SimdLevel> supportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (simdSupported(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (simdSupported(SimdLevel::kAvx512)) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

const char* tierName(SimdLevel level) { return kernelsFor(level).name; }

struct State {
  std::string label;
  std::vector<DynBitset> heard;
  std::vector<std::size_t> coverage;
};

State snapshot(const std::string& label, const BroadcastSim& sim) {
  return {label, sim.heardMatrix(), coverageCounts(sim)};
}

/// Reachable, unfinished states of an n-process game.
std::vector<State> statesFor(std::size_t n, Rng& rng) {
  std::vector<State> states;
  BroadcastSim identity(n);
  states.push_back(snapshot("identity", identity));
  if (n < 3) return states;
  {
    // Root 0 feeds 1..n−2, and n−1 hangs off 1: afterwards
    // Heard(0) = {0} ⊆ Heard(y) for y = 1..n−2, so a tree rooted at 0
    // opens with n−2 zero-cost ties, yet n−1 never heard 0.
    std::vector<std::size_t> parent(n, 0);
    parent[n - 1] = 1;
    BroadcastSim sim(n);
    sim.applyTree(RootedTree(0, parent));
    states.push_back(snapshot("zero-ties", sim));
  }
  {
    // k rounds of the static path 0 → 1 → … → n−1 give Heard(y) =
    // [y−k, y], so cov(0) = k+1: k = n−2 is one round from broadcast
    // (coverage n−1), and past 50 once n ≥ 53.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    const RootedTree path = makePath(order);
    BroadcastSim sim(n);
    for (std::size_t k = 1; k <= n - 2; ++k) {
      sim.applyTree(path);
      if (k == 1 || k == n / 2 || k == n - 2) {
        states.push_back(snapshot("path-k" + std::to_string(k), sim));
      }
    }
  }
  {
    BroadcastSim sim(n);
    for (int r = 1; r <= 3; ++r) {
      sim.applyTree(r % 2 == 0 ? randomPath(n, rng)
                               : randomRootedTree(n, rng));
      if (sim.broadcastDone()) break;
      states.push_back(snapshot("random-r" + std::to_string(r), sim));
    }
  }
  return states;
}

std::vector<std::size_t> rootsFor(std::size_t n, Rng& rng) {
  std::vector<std::size_t> roots = {0, n - 1, n / 2, rng.uniform(n)};
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

TEST(DamageTreeOracleTest, MatchesPerPairPrimOnEveryTier) {
  const std::size_t sizes[] = {1,  2,  3,   31,  32,  33,  63, 64,
                               65, 127, 128, 129, 255, 256, 257};
  const std::vector<SimdLevel> levels = supportedLevels();
  // One scratch per tier for the whole sweep: rebinding across sizes
  // (growing and shrinking) must not leak state between trees.
  std::vector<EvalScratch> scratches(levels.size());
  Rng rng(0xda3a6e);
  bool sawCapped = false;
  bool sawNearlyDone = false;
  bool sawZeroTies = false;
  for (const std::size_t n : sizes) {
    for (const State& state : statesFor(n, rng)) {
      const std::size_t maxCov =
          *std::max_element(state.coverage.begin(), state.coverage.end());
      if (n > 1) {
        ASSERT_LT(maxCov, n) << "states must be unfinished";
      }
      sawCapped = sawCapped || maxCov > 50;
      sawNearlyDone = sawNearlyDone || (n >= 3 && maxCov == n - 1);
      sawZeroTies = sawZeroTies || state.label == "zero-ties";
      // One binding per tier, reused for every root and variant below.
      std::vector<DamageTrees> tiers;
      for (std::size_t li = 0; li < levels.size(); ++li) {
        ASSERT_EQ(kernelsFor(levels[li]).level, levels[li]);
        tiers.emplace_back(state.heard, state.coverage, scratches[li],
                           kernelsFor(levels[li]));
      }
      for (const std::size_t root : rootsFor(n, rng)) {
        const RootedTree plain = referenceDamageTree(
            state.heard, state.coverage, root, 0.0, nullptr);
        for (std::size_t li = 0; li < levels.size(); ++li) {
          EXPECT_EQ(tiers[li].greedy(root), plain)
              << tierName(levels[li]) << " n=" << n << " " << state.label
              << " root=" << root << " plain";
        }
        for (const double amplitude : {8.0, 0.5, 1e290, 1e308}) {
          const std::uint64_t seed = rng();
          Rng expectRng(seed);
          const RootedTree noisy = referenceDamageTree(
              state.heard, state.coverage, root, amplitude, &expectRng);
          const std::uint64_t expectNext = expectRng();
          for (std::size_t li = 0; li < levels.size(); ++li) {
            Rng actualRng(seed);
            EXPECT_EQ(tiers[li].noisy(root, amplitude, actualRng), noisy)
                << tierName(levels[li]) << " n=" << n << " " << state.label
                << " root=" << root << " noisy amplitude=" << amplitude;
            EXPECT_EQ(actualRng(), expectNext)
                << tierName(levels[li]) << " n=" << n
                << ": rng position after a noisy build";
          }
        }
      }
    }
  }
  EXPECT_TRUE(sawCapped) << "no state had coverage past the 2^50 cap";
  EXPECT_TRUE(sawNearlyDone) << "no state had coverage n-1";
  EXPECT_TRUE(sawZeroTies) << "no zero-cost tie state";
}

/// The serial Prim pick after a relax: the open y of least cost, strict
/// < in ascending y (so the lowest y wins a tie), or n when nothing is
/// open.
std::size_t serialArgmin(const std::vector<double>& cost,
                         const std::vector<std::uint64_t>& open,
                         std::size_t n) {
  std::size_t pick = n;
  for (std::size_t y = 0; y < n; ++y) {
    if (((open[y / 64] >> (y % 64)) & 1) != 0 &&
        (pick == n || cost[y] < cost[pick])) {
      pick = y;
    }
  }
  return pick;
}

TEST(DamageTreeOracleTest, RelaxSumsAreBitIdenticalToSerialLoop) {
  // Trees only expose the argmin decisions; this checks the sums
  // themselves. Weights span 2^1 .. 2^50 × 1e6 with noise, so most
  // sums round, and any reordering of the additions would show up in
  // the last bit. Closed entries must keep their sentinels, and the
  // returned next pick must be the serial argmin of the costs written.
  const std::vector<SimdLevel> levels = supportedLevels();
  Rng rng(0x5e1a);
  for (const std::size_t n : {5, 63, 64, 65, 130, 257}) {
    BroadcastSim sim(n);
    for (int r = 0; r < 2; ++r) sim.applyTree(randomRootedTree(n, rng));
    const std::vector<std::size_t> coverage = coverageCounts(sim);
    const std::vector<DynBitset>& heard = sim.heardMatrix();
    const std::size_t nwords = heard[0].wordCount();
    EvalScratch scratch;
    DamageTrees bind(heard, coverage, scratch);
    std::vector<double> weight(n);
    for (double& w : weight) {
      w = std::exp2(static_cast<double>(1 + rng.uniform(50))) *
          (rng.uniform(4) == 0 ? 1e6 : 1.0) * (1.0 + 8.0 * rng.uniformReal());
    }
    // The serial sums: expect[y] = Σ weight[x], x ∈ Heard(pick) \ Heard(y).
    const auto sumsFor = [&](std::size_t pick) {
      std::vector<double> expect(n, 0.0);
      for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
          if (heard[pick].test(x) && !heard[y].test(x)) {
            expect[y] += weight[x];
          }
        }
      }
      return expect;
    };
    // Runs one relax per tier and mode from `base` and checks every
    // entry and the returned pick.
    const auto check = [&](std::size_t pick,
                           const std::vector<std::uint64_t>& open,
                           const std::vector<double>& base,
                           const std::string& label) {
      const std::vector<double> expect = sumsFor(pick);
      for (const SimdLevel level : levels) {
        for (const bool assign : {true, false}) {
          std::vector<double> cost = base;
          std::vector<std::size_t> parent(nwords * 64, n + 7);
          bitword::DamageRelax relax{heard[pick].wordData(),
                                     scratch.damage.unaware.data(),
                                     weight.data(),
                                     open.data(),
                                     cost.data(),
                                     parent.data(),
                                     n,
                                     nwords,
                                     pick,
                                     assign};
          const std::size_t next = kernelsFor(level).damageRelax(relax);
          const std::string where = std::string(tierName(level)) +
                                    " n=" + std::to_string(n) + " " + label +
                                    (assign ? " assign" : " relax");
          EXPECT_EQ(next, serialArgmin(cost, open, n)) << where << " pick";
          for (std::size_t y = 0; y < nwords * 64; ++y) {
            const bool isOpen = y < n && ((open[y / 64] >> (y % 64)) & 1);
            const bool updated =
                isOpen && (assign || expect[y] < base[y]);
            const std::string at = where + " y=" + std::to_string(y);
            if (updated) {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(cost[y]),
                        std::bit_cast<std::uint64_t>(expect[y]))
                  << at;
              EXPECT_EQ(parent[y], pick) << at;
            } else {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(cost[y]),
                        std::bit_cast<std::uint64_t>(base[y]))
                  << at << " must stay untouched";
              EXPECT_EQ(parent[y], n + 7) << at << " must stay untouched";
            }
          }
        }
      }
    };
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t pick = rng.uniform(n);
      std::vector<std::uint64_t> open(nwords, 0);
      for (std::size_t y = 0; y < n; ++y) {
        if (y != pick && rng.uniform(3) != 0) open[y / 64] |= 1ull << (y % 64);
      }
      const std::vector<double> expect = sumsFor(pick);
      std::vector<double> base(nwords * 64);
      for (double& c : base) c = rng.uniformReal() * expect[rng.uniform(n)];
      check(pick, open, base, "trial=" + std::to_string(trial));
    }
    // All-equal costs: relaxing against +0.0 never updates, so every
    // open y ties and the pick must be the lowest open y, wherever it
    // sits relative to the 8-lane groups, 32-y halves and 64-y blocks.
    // An empty open set returns n.
    const std::vector<double> zeros(nwords * 64, 0.0);
    for (const std::size_t first :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{31}, std::size_t{32}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{129}, n - 1, n}) {
      if (first > n) continue;
      const std::size_t pick = first == 0 ? n - 1 : 0;
      std::vector<std::uint64_t> open(nwords, 0);
      for (std::size_t y = first; y < n; ++y) {
        if (y != pick) open[y / 64] |= 1ull << (y % 64);
      }
      check(pick, open, zeros, "ties-from=" + std::to_string(first));
    }
    // All-+inf costs: with every weight +inf (noise past the double
    // range) each open y unaware of some x ∈ Heard(pick) costs +inf, and
    // relaxing +inf against +inf never updates. That is a tie like any
    // other, so the pick is still the lowest open y, never n.
    std::fill(weight.begin(), weight.end(),
              std::numeric_limits<double>::infinity());
    const std::vector<double> infs(nwords * 64,
                                   std::numeric_limits<double>::infinity());
    for (const std::size_t first :
         {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{32},
          std::size_t{63}, std::size_t{64}, std::size_t{65}, n - 1}) {
      if (first >= n) continue;
      const std::size_t pick = first == 0 ? n - 1 : 0;
      const std::vector<double> expect = sumsFor(pick);
      std::vector<std::uint64_t> open(nwords, 0);
      std::size_t opened = 0;
      for (std::size_t y = first; y < n; ++y) {
        if (y != pick && expect[y] != 0.0) {
          open[y / 64] |= 1ull << (y % 64);
          ++opened;
        }
      }
      if (opened == 0) continue;
      check(pick, open, infs, "inf-from=" + std::to_string(first));
    }
  }
}

TEST(DamageTreeOracleTest, NoisyDrawsExactlyNValues) {
  const std::size_t n = 40;
  BroadcastSim sim(n);
  Rng setup(7);
  sim.applyTree(randomRootedTree(n, setup));
  const std::vector<std::size_t> cov = coverageCounts(sim);
  EvalScratch scratch;
  DamageTrees trees(sim.heardMatrix(), cov, scratch);
  Rng used(99);
  Rng skipped(99);
  (void)trees.noisy(3, 8.0, used);
  for (std::size_t i = 0; i < n; ++i) (void)skipped.uniformReal();
  EXPECT_EQ(used(), skipped());
  // amplitude 0 draws nothing and builds the plain tree.
  Rng idle(5);
  Rng fresh(5);
  EXPECT_EQ(trees.noisy(3, 0.0, idle), trees.greedy(3));
  EXPECT_EQ(idle(), fresh());
}

TEST(DamageTreeOracleTest, BindingSurvivesInterleavedEvaluation) {
  // The beam and lookahead evaluate candidates into the same scratch
  // their damage trees are bound to; the binding must be unaffected.
  const std::size_t n = 70;
  BroadcastSim sim(n);
  Rng rng(13);
  for (int r = 0; r < 2; ++r) sim.applyTree(randomPath(n, rng));
  const std::vector<std::size_t> cov = coverageCounts(sim);
  EvalScratch scratch = EvalScratch::forProcessCount(n);
  DamageTrees trees(sim.heardMatrix(), cov, scratch);
  const RootedTree first = trees.greedy(5);
  (void)evaluateCandidate(sim.heardMatrix(), cov, first, scratch);
  (void)evaluateCandidate(sim.heardMatrix(), cov, randomPath(n, rng),
                          scratch);
  EXPECT_EQ(trees.greedy(5), first);
  EvalScratch fresh;
  EXPECT_EQ(DamageTrees(sim.heardMatrix(), cov, fresh).greedy(5), first);
}

}  // namespace
}  // namespace dynbcast

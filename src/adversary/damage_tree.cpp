// Damage-greedy tree construction (DamageTrees, declared in adaptive.h).
//
// Binding a state transposes its heard matrix into the scratch's
// `unaware` blocks and derives the coverage weights; each tree then runs
// Prim with one dispatched bitword::Kernels::damageRelax call per pick,
// which relaxes the open y and returns the next pick.
// The exactness contract (same picks, ties and IEEE additions as a
// per-pair serial loop) is spelled out in adaptive.h and checked against
// that loop, on every kernel tier, by DamageTreeOracleTest.
// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/adversary/adaptive.h"
#include "src/support/assert.h"

namespace dynbcast {

namespace {

/// In-place transpose of a 64×64 bit block: afterwards bit i of a[j] is
/// the old bit j of a[i]. Six rounds swap ever smaller off-diagonal
/// sub-blocks (32×32 down to 1×1), 32 row pairs per round.
void transpose64(std::uint64_t* a) noexcept {
  constexpr std::uint64_t kLowHalves[6] = {
      0x00000000ffffffffull, 0x0000ffff0000ffffull, 0x00ff00ff00ff00ffull,
      0x0f0f0f0f0f0f0f0full, 0x3333333333333333ull, 0x5555555555555555ull};
  std::size_t j = 32;
  for (const std::uint64_t low : kLowHalves) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & low;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
    j >>= 1;
  }
}

}  // namespace

DamageTrees::DamageTrees(const std::vector<DynBitset>& heard,
                         const std::vector<std::size_t>& coverage,
                         EvalScratch& scratch,
                         const bitword::Kernels& kernels)
    : heard_(heard), buf_(scratch.damage), kernels_(kernels) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(n > 0 && coverage.size() == n);
  buf_.resize(n);
  // Exponential coverage weights: leaking a process with coverage c costs
  // 2^min(c, 50); a process at coverage n−1 would finish the game, so it
  // dominates every other consideration.
  for (std::size_t x = 0; x < n; ++x) {
    const double capped =
        static_cast<double>(std::min<std::size_t>(coverage[x], 50));
    buf_.weight[x] =
        std::exp2(capped) * (coverage[x] + 1 >= n ? 1e6 : 1.0);
  }
  // unaware[b * n + x] = the y of block b with x ∉ Heard(y): transpose
  // each 64×64 block of the heard matrix and complement it within the
  // block's valid lanes (rows past n are zero, so they transpose to
  // zero lanes, and the mask keeps them out of the complement).
  const std::size_t nwords = heard[0].wordCount();
  std::uint64_t block[64] = {};
  for (std::size_t b = 0; b < nwords; ++b) {
    const std::size_t rows = std::min<std::size_t>(64, n - b * 64);
    const std::uint64_t lanes =
        rows == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rows) - 1;
    for (std::size_t xw = 0; xw < nwords; ++xw) {
      for (std::size_t i = 0; i < 64; ++i) {
        block[i] = i < rows ? heard[b * 64 + i].wordData()[xw] : 0;
      }
      transpose64(block);
      const std::size_t cols = std::min<std::size_t>(64, n - xw * 64);
      for (std::size_t i = 0; i < cols; ++i) {
        buf_.unaware[b * n + xw * 64 + i] = ~block[i] & lanes;
      }
    }
  }
}

RootedTree DamageTrees::greedy(std::size_t root) {
  return build(root, buf_.weight.data());
}

RootedTree DamageTrees::noisy(std::size_t root, double amplitude, Rng& rng) {
  if (!(amplitude > 0.0)) return greedy(root);
  const std::size_t n = heard_.size();
  for (std::size_t x = 0; x < n; ++x) {
    buf_.noisyWeight[x] =
        buf_.weight[x] * (1.0 + amplitude * rng.uniformReal());
  }
  return build(root, buf_.noisyWeight.data());
}

RootedTree DamageTrees::build(std::size_t root, const double* weight) {
  const std::size_t n = heard_.size();
  DYNBCAST_ASSERT(root < n);
  const std::size_t nwords = heard_[0].wordCount();
  std::uint64_t* open = buf_.open.data();
  double* cost = buf_.cost.data();
  std::size_t* parent = buf_.parent.data();
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::size_t bits = std::min<std::size_t>(64, n - w * 64);
    open[w] =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  }
  open[root / 64] &= ~(std::uint64_t{1} << (root % 64));
  parent[root] = root;
  bitword::DamageRelax relax{heard_[root].wordData(),
                             buf_.unaware.data(),
                             weight,
                             open,
                             cost,
                             parent,
                             n,
                             nwords,
                             root,
                             /*assign=*/true};
  // Prim over the complete damage graph: heard sets are start-of-round
  // snapshots, so edge costs never change mid-build.
  for (std::size_t step = 1; step < n; ++step) {
    const std::size_t pick = kernels_.damageRelax(relax);
    DYNBCAST_ASSERT(pick < n);  // n − step y are open, so one is picked
    open[pick / 64] &= ~(std::uint64_t{1} << (pick % 64));
    relax.pickHeard = heard_[pick].wordData();
    relax.pick = pick;
    relax.assign = false;
  }
  // dynbcast-lint: allow(hot-alloc) -- the returned tree owns its parents
  std::vector<std::size_t> parents(parent, parent + n);
  return RootedTree(root, std::move(parents));
}

}  // namespace dynbcast

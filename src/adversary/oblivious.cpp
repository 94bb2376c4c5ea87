#include "src/adversary/oblivious.h"

#include <algorithm>

#include "src/support/assert.h"
#include "src/tree/constrained.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {

namespace {

std::vector<std::size_t> reversedIdentity(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = n - 1 - i;
  return order;
}

/// The phase-2 path u → u+1 → … → n−1 → 0 → … → u−1, u = ⌊(n−1)/2⌋: the
/// identity circle (0, …, n−2, r) cut open at u.
RootedTree twoPhaseTail(std::size_t n) {
  DYNBCAST_ASSERT(n >= 1);
  const std::size_t u = (n - 1) / 2;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = (u + i) % n;
  return makePath(order);
}

}  // namespace

StaticTreeAdversary::StaticTreeAdversary(RootedTree tree)
    : tree_(std::move(tree)) {}

RootedTree StaticTreeAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == tree_.size());
  return tree_;
}

StaticPathAdversary::StaticPathAdversary(std::size_t n)
    : tree_(makePath(n)) {}

RootedTree StaticPathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == tree_.size());
  return tree_;
}

UniformRandomAdversary::UniformRandomAdversary(std::size_t n,
                                               std::uint64_t seed)
    : n_(n), seed_(seed), rng_(seed) {}

RootedTree UniformRandomAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  return randomRootedTree(n_, rng_);
}

void UniformRandomAdversary::reset() { rng_ = Rng(seed_); }

RandomPathAdversary::RandomPathAdversary(std::size_t n, std::uint64_t seed)
    : n_(n), seed_(seed), rng_(seed) {}

RootedTree RandomPathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  return randomPath(n_, rng_);
}

void RandomPathAdversary::reset() { rng_ = Rng(seed_); }

AlternatingPathAdversary::AlternatingPathAdversary(std::size_t n)
    : forward_(makePath(n)), backward_(makePath(reversedIdentity(n))) {}

RootedTree AlternatingPathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == forward_.size());
  return state.round() % 2 == 0 ? forward_ : backward_;
}

TwoPhaseAdversary::TwoPhaseAdversary(std::size_t n)
    : n_(n), phase2_(twoPhaseTail(n)) {
  reset();
}

RootedTree TwoPhaseAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  return next();
}

RootedTree TwoPhaseAdversary::next() {
  ++round_;
  if (round_ + 1 >= n_) return phase2_;
  // Phase 1: every node outside [low_, high_) is a leaf under r = n−1.
  const std::size_t r = n_ - 1;
  std::vector<std::size_t> parent(n_, r);
  if (round_ % 2 == 1) {
    for (std::size_t i = low_ + 1; i < high_; ++i) parent[i] = i - 1;
    ++low_;
  } else {
    for (std::size_t i = low_; i + 1 < high_; ++i) parent[i] = i + 1;
    --high_;
  }
  return RootedTree(r, std::move(parent));
}

void TwoPhaseAdversary::reset() {
  low_ = 0;
  high_ = n_ - 1;
  round_ = 0;
}

KLeafAdversary::KLeafAdversary(std::size_t n, std::size_t k,
                               std::uint64_t seed)
    : n_(n), k_(k), seed_(seed), rng_(seed) {
  DYNBCAST_ASSERT(n >= 2 && k >= 1 && k <= n - 1);
}

RootedTree KLeafAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  return randomTreeWithKLeaves(n_, k_, rng_);
}

std::string KLeafAdversary::name() const {
  return "k-leaf:k=" + std::to_string(k_);
}

void KLeafAdversary::reset() { rng_ = Rng(seed_); }

KInnerAdversary::KInnerAdversary(std::size_t n, std::size_t k,
                                 std::uint64_t seed)
    : n_(n), k_(k), seed_(seed), rng_(seed) {
  DYNBCAST_ASSERT(n >= 2 && k >= 1 && k <= n - 1);
}

RootedTree KInnerAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  return randomTreeWithKInnerNodes(n_, k_, rng_);
}

std::string KInnerAdversary::name() const {
  return "k-inner:k=" + std::to_string(k_);
}

void KInnerAdversary::reset() { rng_ = Rng(seed_); }

}  // namespace dynbcast

// Oblivious adversaries: fixed or randomized tree sequences that ignore
// the heard-of state. They provide the model's baselines (§2 of the
// paper: a static path costs exactly n−1; any static tree costs its
// height), the random-environment comparison of §5, and the two-phase
// line that meets the lower bound of [14].
//
// The reset() implementations below promise byte-identical replay; the
// named suite is the determinism gate that holds them to it.
// dynbcast-lint: replay-test(ResetReplaysIdenticalRun)
#pragma once

#include <cstdint>

#include "src/adversary/adversary.h"
#include "src/support/rng.h"

namespace dynbcast {

/// Repeats one fixed tree forever. t* equals the tree's height.
class StaticTreeAdversary final : public Adversary {
 public:
  explicit StaticTreeAdversary(RootedTree tree);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "static-tree"; }

 private:
  RootedTree tree_;
};

/// Repeats the identity path 0 → 1 → … → n−1. t* = n−1 (paper §2).
class StaticPathAdversary final : public Adversary {
 public:
  explicit StaticPathAdversary(std::size_t n);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "static-path"; }

 private:
  RootedTree tree_;
};

/// A fresh uniformly random rooted tree every round.
class UniformRandomAdversary final : public Adversary {
 public:
  UniformRandomAdversary(std::size_t n, std::uint64_t seed);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "random-tree"; }
  void reset() override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;
};

/// A path over a fresh uniformly random permutation every round.
class RandomPathAdversary final : public Adversary {
 public:
  RandomPathAdversary(std::size_t n, std::uint64_t seed);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "random-path"; }
  void reset() override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Alternates the identity path and its reversal — the classic "ping-pong"
/// sequence; completes gossip in Θ(n), unlike any static tree.
class AlternatingPathAdversary final : public Adversary {
 public:
  explicit AlternatingPathAdversary(std::size_t n);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override {
    return "alternating-path";
  }

 private:
  RootedTree forward_;
  RootedTree backward_;
};

/// The two-phase line that reaches the lower bound ⌈(3n−1)/2⌉−2 of [14]
/// exactly at every n, with no search and O(n) work per tree. Name the
/// processes r = n−1 and P = (0, …, n−2).
///
/// Phase 1, rounds 1..n−2, root r: positions outside the window
/// [L, R) (initially [0, n−1)) are leaves under r; [L, R) is one chain
/// under r, forward L → … → R−1 on odd rounds (then L += 1) and
/// backward R−1 → … → L on even rounds (then R −= 1).
///
/// Phase 2 plays the static path u → … → n−2 → r → 0 → … → u−1 with
/// u = ⌊(n−1)/2⌋: u never hears r, and every other heard-of set is an
/// arc of that circle through u, which grows by one process per round.
/// Total (n−2) + (n − ⌈n/2⌉) rounds.
class TwoPhaseAdversary final : public Adversary {
 public:
  explicit TwoPhaseAdversary(std::size_t n);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "two-phase"; }
  void reset() override;

  /// The next tree of the line; nextTree() is this plus a size check.
  [[nodiscard]] RootedTree next();

 private:
  std::size_t n_;
  std::size_t low_ = 0;
  std::size_t high_ = 0;
  std::size_t round_ = 0;
  RootedTree phase2_;
};

/// Restricted adversary of [14]: a fresh random tree with exactly k
/// leaves every round. Broadcast under this class is O(kn).
class KLeafAdversary final : public Adversary {
 public:
  KLeafAdversary(std::size_t n, std::size_t k, std::uint64_t seed);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  std::size_t n_;
  std::size_t k_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Restricted adversary of [14]: a fresh random tree with exactly k inner
/// nodes every round. Broadcast under this class is O(kn).
class KInnerAdversary final : public Adversary {
 public:
  KInnerAdversary(std::size_t n, std::size_t k, std::uint64_t seed);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  std::size_t n_;
  std::size_t k_;
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace dynbcast

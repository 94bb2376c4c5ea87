// Oblivious adversaries: fixed or randomized tree sequences that ignore
// the heard-of state. They provide the model's baselines (§2 of the
// paper: a static path costs exactly n−1; any static tree costs its
// height) and the random-environment comparison of §5.
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

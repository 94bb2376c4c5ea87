// ExperimentEngine: the shared parallel substrate for benches, tests,
// scenarios and service workers.
//
// Every number this repo reports comes from embarrassingly parallel
// per-(n, seed, adversary) runs. The engine owns the pool they shard
// over and one primitive, map(count, seed, f): each task's seed is
// derived from its POSITION via SeedSequence (never from execution
// order), the tasks fan out over the ThreadPool's helpers and the
// calling thread (one parallelFor, largest index first), and every
// result lands in a preallocated slot indexed by position. Consequence:
// collected results are bit-identical at any --jobs value, so
// parallelism is free to use everywhere — including inside determinism
// tests. Scenario grids (sizes × seed replicates × members) are planned
// and executed on top of map by src/engine/task_plan.h.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/adversary/portfolio.h"
#include "src/sim/metrics.h"
#include "src/support/seed_sequence.h"
#include "src/support/thread_pool.h"

namespace dynbcast {

struct EngineConfig {
  /// Pool helper threads (the caller works too); 0 = one per hardware
  /// thread. At most kMaxPoolThreads.
  std::size_t jobs = 1;
};

/// One member's run inside a sweep — the atomic unit of work.
struct SweepRow {
  std::size_t n = 0;
  std::size_t seedIndex = 0;      // replicate index within this size
  std::uint64_t instanceSeed = 0; // derived seed shared by the instance
  std::string member;
  std::size_t rounds = 0;
  bool completed = false;
  std::vector<RoundMetrics> history;  // empty unless recordHistory

  friend bool operator==(const SweepRow& a, const SweepRow& b) {
    return a.n == b.n && a.seedIndex == b.seedIndex &&
           a.instanceSeed == b.instanceSeed && a.member == b.member &&
           a.rounds == b.rounds && a.completed == b.completed;
  }
};

/// Per-(n, seed) aggregate: the portfolio view of one instance. Entry
/// histories are left empty here — per-round metrics live only in
/// SweepResult::rows, to avoid holding them twice.
struct SweepInstance {
  std::size_t n = 0;
  std::size_t seedIndex = 0;
  std::uint64_t instanceSeed = 0;
  PortfolioResult portfolio;  // entries in member order
};

struct SweepResult {
  /// All rows, ordered by (size position, seed replicate, member) — the
  /// same order a serial loop would produce, at any thread count.
  std::vector<SweepRow> rows;
  /// Rows regrouped per instance, same deterministic order.
  std::vector<SweepInstance> instances;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineConfig config = {});

  [[nodiscard]] std::size_t jobCount() const noexcept {
    return pool_.threadCount();
  }

  /// Generic sharded map: evaluates fn(index, seed) for every index in
  /// [0, count), where seed = SeedSequence(masterSeed).at(index), and
  /// returns results in index order. R must be default-constructible.
  template <typename R, typename F>
  [[nodiscard]] std::vector<R> map(std::size_t count,
                                   std::uint64_t masterSeed, F&& fn) {
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> bit-packs, so concurrent writes to "
                  "adjacent slots race — use char or a wrapper struct");
    std::vector<R> out(count);
    const SeedSequence seeds(masterSeed);
    pool_.parallelFor(count, [&](std::size_t index) {
      out[index] = fn(index, seeds.at(index));
    });
    return out;
  }

 private:
  ThreadPool pool_;
};

}  // namespace dynbcast

// ExperimentEngine: the shared parallel substrate for benches, tests,
// scenarios and service workers.
//
// Every number this repo reports comes from embarrassingly parallel
// per-(n, seed, adversary) runs. The engine owns the pool they shard
// over and one primitive, map(count, seed, f): each task's seed is
// derived from its POSITION via SeedSequence (never from execution
// order), the tasks fan out over a work-stealing ThreadPool, and every
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
  /// Worker threads; 0 = one per hardware thread.
  std::size_t jobs = 1;
};

/// How the scenario executor schedules the replicates of a (size,
/// member) cell.
///
/// Replicates of an OBLIVIOUS member are independent runs of the same
/// tree process, so the executor can advance a whole chunk of them in
/// lockstep through one BatchBroadcastSim — decoding each round's tree
/// once for the chunk instead of once per replicate, with the row work
/// going through the SIMD dispatch table as contiguous lane-planes.
/// Batching never changes a single byte of output: the batched
/// recurrence is bit-identical to the scalar runs (see runObliviousBatch)
/// and every row still lands in its position-indexed slot. Cells that
/// cannot batch — adaptive members, history recording, gossip, graph
/// models — always run the scalar path.
struct BatchPolicy {
  enum class Mode {
    kAuto,  ///< batch eligible cells with >= kAutoWidth replicates
    kOff,   ///< scalar path for everything
    kFixed  ///< batch eligible cells in chunks of `width` lanes
  };
  Mode mode = Mode::kAuto;
  /// Lane width under kFixed (>= 1); ignored for the other modes.
  std::size_t width = 0;

  /// The width kAuto uses, and the replicate count at which it engages.
  static constexpr std::size_t kAutoWidth = 8;

  friend bool operator==(const BatchPolicy&, const BatchPolicy&) = default;
};

/// Parses "auto" | "off" | a lane width like "8" (the --batch grammar),
/// throwing std::invalid_argument with suggestions on anything else.
[[nodiscard]] BatchPolicy parseBatchPolicy(const std::string& text);
[[nodiscard]] std::string batchPolicyName(const BatchPolicy& policy);

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

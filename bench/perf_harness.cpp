// perf_harness: the repo's perf telemetry source of truth.
//
// Times (a) the raw-word kernels (through the runtime SIMD dispatch
// table), tree construction, the damage-greedy tree builder, one
// greedy-delay and one local-search round, the sparse t* certifier on
// the two-phase line and two dense applyGraph rounds, (b) BroadcastSim
// round throughput and the dense-vs-sparse t* crossover, and (c) the
// end-to-end thm31 portfolio sweep, then emits machine-readable JSON:
//
//   BENCH_kernels.json — per-kernel ns/op and GiB/s
//   BENCH_sweep.json   — sweep wall times, speedup factors and
//                        search-core telemetry
//
// CI's bench-smoke job runs `perf_harness --quick --csv=...`, uploads the
// JSONs as artifacts, and gates on bench/baseline.json via
// bench/check_bench_regression.py (see bench/README.md for the schema).
// Set DYNBCAST_FORCE_SCALAR=1 to take the SIMD tiers out of every
// measurement (the printed simd level records which tier actually ran).
//
// Flags (on top of the shared driver's --sizes/--seed/--jobs/--csv):
//   --quick        CI mode: smaller sweep size and shorter kernel reps
//   --out=DIR      directory for the BENCH_*.json files (default ".")
//   --sweep-n=N    portfolio sweep size (default 256; 96 with --quick)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <filesystem>

#include "bench/driver.h"
#include "bench/two_phase_rounds.h"
#include "src/adversary/adaptive.h"
#include "src/adversary/beam.h"
#include "src/adversary/local_search.h"
#include "src/adversary/lookahead.h"
#include "src/adversary/portfolio.h"
#include "src/dynamics/registry.h"
#include "src/engine/scenario.h"
#include "src/graph/bitmatrix.h"
#include "src/graph/properties.h"
#include "src/nonsplit/nonsplit.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/service/worker.h"
#include "src/support/file_lock.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/support/bitset.h"
#include "src/support/eval_scratch.h"
#include "src/support/rng.h"
#include "src/support/table.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One timed kernel measurement.
struct KernelResult {
  std::string name;
  std::size_t bits = 0;    // operand width in bits (0 = n/a)
  std::uint64_t reps = 0;  // operations timed
  double nsPerOp = 0.0;
  double gibPerS = 0.0;  // words touched per op * reps / time (0 = n/a)
};

/// Runs `op` (one operation per call) until ~minSeconds elapsed, in
/// doubling batches from `firstBatch`, and returns (reps, seconds).
/// Millisecond-scale ops start at 1 so one batch cannot take seconds.
template <typename Op>
std::pair<std::uint64_t, double> timeLoop(double minSeconds, Op&& op,
                                          std::uint64_t firstBatch = 64) {
  std::uint64_t reps = 0;
  std::uint64_t batch = firstBatch;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < minSeconds) {
    for (std::uint64_t i = 0; i < batch; ++i) op();
    reps += batch;
    elapsed = secondsSince(start);
    if (batch < (std::uint64_t{1} << 20)) batch *= 2;
  }
  return {reps, elapsed};
}

DynBitset randomBitset(std::size_t bits, double density, Rng& rng) {
  DynBitset b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.uniformReal() < density) b.set(i);
  }
  return b;
}

std::uint64_t volatile gSink = 0;  // keeps results observable
void consume(std::uint64_t v) { gSink = gSink + v; }

// GiB/s accounts bytes actually moved per word so kernels are comparable:
// orAssign/orCount read src, read dst, write dst (24 B/word).
constexpr double kBytesPerWordRmw = 24.0;

KernelResult benchOrAssign(std::size_t bits, double minSeconds, Rng& rng) {
  DynBitset dst = randomBitset(bits, 0.3, rng);
  const DynBitset src = randomBitset(bits, 0.3, rng);
  const std::size_t nwords = dst.wordCount();
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    bitword::orAssign(dst.wordData(), src.wordData(), nwords);
    consume(dst.wordData()[0]);
  });
  KernelResult r{"orAssign", bits, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  r.gibPerS = static_cast<double>(reps) * static_cast<double>(nwords) *
              kBytesPerWordRmw / secs / (1024.0 * 1024.0 * 1024.0);
  return r;
}

KernelResult benchOrCount(std::size_t bits, double minSeconds, Rng& rng) {
  DynBitset dst = randomBitset(bits, 0.3, rng);
  const DynBitset src = randomBitset(bits, 0.3, rng);
  const std::size_t nwords = dst.wordCount();
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    consume(bitword::orCount(dst.wordData(), src.wordData(), nwords));
  });
  KernelResult r{"orCount", bits, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  r.gibPerS = static_cast<double>(reps) * static_cast<double>(nwords) *
              kBytesPerWordRmw / secs / (1024.0 * 1024.0 * 1024.0);
  return r;
}

/// One damage-greedy tree per op (DamageTrees::greedy, or ::noisy at
/// the beam's amplitude 8) on a state greedy-delay itself reaches after
/// n/2 rounds, the kind of state the thm31 sweep builds its trees on.
/// The state is bound once, as the beam binds each frontier state once
/// for its ten trees, so ns/op is the per-tree Prim cost (n − 1
/// relax-kernel calls, each returning the next pick) without the
/// transpose.
KernelResult benchDamageTree(std::size_t n, bool noisy, double minSeconds,
                             Rng& rng) {
  BroadcastSim sim(n);
  GreedyDelayAdversary greedy(n, rng());
  for (std::size_t r = 0; r < n / 2 && !sim.broadcastDone(); ++r) {
    sim.applyTree(greedy.nextTree(sim));
  }
  const std::vector<std::size_t> coverage = coverageCounts(sim);
  EvalScratch scratch = EvalScratch::forProcessCount(n);
  DamageTrees trees(sim.heardMatrix(), coverage, scratch);
  std::size_t root = 0;
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    const RootedTree t =
        noisy ? trees.noisy(root, 8.0, rng) : trees.greedy(root);
    root = (root + 1) % n;
    consume(t.parent(n - 1));
  });
  KernelResult r{noisy ? "noisyDamageTree" : "damageTree", n, reps, 0.0,
                 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// One RootedTree construction per op: makePath over a fixed random
/// permutation, i.e. the parent array plus the children lists, depths
/// and BFS check every adversary move pays for.
KernelResult benchRootedTree(std::size_t n, double minSeconds, Rng& rng) {
  const std::vector<std::size_t> order = rng.permutation(n);
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    const RootedTree t = makePath(order);
    consume(t.height());
  });
  KernelResult r{"rootedTree", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// One GreedyDelayAdversary::nextTree per op on the state greedy-delay
/// itself reaches after n/2 rounds: coverage counts, the candidate pool
/// (paths, broom, random and damage-greedy trees) and its evaluation.
/// The same adversary answers every op on that one state, so its
/// carried order and RNG move on but the state does not.
KernelResult benchGreedyDelayRound(std::size_t n, double minSeconds,
                                   Rng& rng) {
  BroadcastSim sim(n);
  GreedyDelayAdversary greedy(n, rng());
  for (std::size_t r = 0; r < n / 2 && !sim.broadcastDone(); ++r) {
    sim.applyTree(greedy.nextTree(sim));
  }
  auto [reps, secs] = timeLoop(
      minSeconds,
      [&] {
        const RootedTree t = greedy.nextTree(sim);
        consume(t.root());
      },
      /*firstBatch=*/8);
  KernelResult r{"greedyDelayRound", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// One LocalSearchPathAdversary::nextTree per op on the state
/// local-search itself reaches after n/4 rounds: coverage counts, the
/// starting freeze order and its 64 scored swaps and reversals. As with
/// greedyDelayRound, the state stays fixed while the adversary's carried
/// order and RNG move on. The adversary is seeded with `seed` rather than
/// from the shared stream, so quick and full runs time the same state.
KernelResult benchLocalSearchRound(std::size_t n, double minSeconds,
                                   std::uint64_t seed) {
  BroadcastSim sim(n);
  LocalSearchPathAdversary search(n, seed);
  for (std::size_t r = 0; r < n / 4 && !sim.broadcastDone(); ++r) {
    sim.applyTree(search.nextTree(sim));
  }
  auto [reps, secs] = timeLoop(
      minSeconds,
      [&] {
        const RootedTree t = search.nextTree(sim);
        consume(t.root());
      },
      /*firstBatch=*/8);
  KernelResult r{"localSearchRound", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// One randomNonsplitGraph(n, 2n) per op: the graph nonsplit-random
/// (zoo-dense) draws every round, repair pass included.
KernelResult benchNonsplitGraph(std::size_t n, double minSeconds, Rng& rng) {
  auto [reps, secs] = timeLoop(
      minSeconds,
      [&] { consume(randomNonsplitGraph(n, 2 * n, rng).row(0).words()[0]); },
      /*firstBatch=*/1);
  KernelResult r{"nonsplitGraph", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// One isNonsplit per op on such a graph: the per-round class check of
/// the nonsplit dynamics driver, run to completion since the graph
/// passes.
KernelResult benchIsNonsplit(std::size_t n, double minSeconds, Rng& rng) {
  const BitMatrix g = randomNonsplitGraph(n, 2 * n, rng);
  auto [reps, secs] = timeLoop(
      minSeconds, [&] { consume(isNonsplit(g) ? 1 : 0); },
      /*firstBatch=*/1);
  KernelResult r{"isNonsplit", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// Two applyGraph rounds from the identity per op, on two
/// randomNonsplitGraph(n, 2n) graphs drawn once: zoo-dense's round
/// kernel. Round 1's sources are singletons (the bitwise path), round 2's
/// hold ~140 bits each (the whole-row OR).
KernelResult benchApplyGraph(std::size_t n, double minSeconds, Rng& rng) {
  const BitMatrix g1 = randomNonsplitGraph(n, 2 * n, rng);
  const BitMatrix g2 = randomNonsplitGraph(n, 2 * n, rng);
  BroadcastSim sim(n);
  auto [reps, secs] = timeLoop(
      minSeconds,
      [&] {
        sim.reset();
        sim.applyGraph(g1);
        sim.applyGraph(g2);
        consume(sim.heardCount(0));
      },
      /*firstBatch=*/1);
  KernelResult r{"applyGraph", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// One native edge-markovian step per op at zoo-sparse's largest n and
/// density (p = 0.0002, q = 0.5): deaths, births merged with the
/// survivors, and the arcs decoded. Two warm-up rounds first, so the
/// stationary draw is not timed and the buffers have their size. A step
/// takes tens of ms, so callers pass enough time for several of them.
KernelResult benchEdgeMarkovianRound(std::size_t n, double minSeconds,
                                     Rng& rng) {
  const auto model = DynamicsRegistry::instance().make(
      "edge-markovian:p=0.0002,q=0.5", n, rng());
  SparseRound round;
  for (int warmUp = 0; warmUp < 2; ++warmUp) model->nextSparseRound(round);
  auto [reps, secs] = timeLoop(
      minSeconds,
      [&] {
        model->nextSparseRound(round);
        consume(round.arcs.size());
      },
      /*firstBatch=*/1);
  KernelResult r{"edgeMarkovianRound", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// One runFrontierTStar per op over the two-phase line at n: the sparse
/// certifier on an adversarial line, t* = lowerBound(n) ≈ 1.5n rounds.
KernelResult benchFrontierTwoPhase(std::size_t n, double minSeconds) {
  TwoPhaseRoundSource source(n);
  FrontierTStarOptions options;
  options.maxRounds = 4 * n;
  auto [reps, secs] = timeLoop(
      minSeconds,
      [&] { consume(runFrontierTStar(n, source, options).rounds); },
      /*firstBatch=*/1);
  KernelResult r{"frontierTStar:twoPhase", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

BitMatrix randomMatrix(std::size_t n, double density, Rng& rng) {
  BitMatrix m(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      if (x == y || rng.uniformReal() < density) m.set(x, y);
    }
  }
  return m;
}

KernelResult benchSimRound(std::size_t n, double minSeconds, Rng& rng) {
  // A pool of random trees applied cyclically; each op = one full round
  // (the O(n²/64) heard-of recurrence + incremental completion refresh).
  std::vector<RootedTree> trees;
  for (int i = 0; i < 32; ++i) trees.push_back(randomRootedTree(n, rng));
  BroadcastSim sim(n);
  std::size_t next = 0;
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    sim.applyTree(trees[next]);
    next = (next + 1) % trees.size();
    if (sim.gossipDone()) sim.reset();
    consume(sim.heardCount(0));
  });
  KernelResult r{"simApplyTree", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// Dense-vs-sparse crossover at one n: wall ms of a full edge-markovian
/// t* run through each backend.
struct FrontierCrossover {
  std::size_t n = 0;
  double denseMs = 0.0;
  double sparseMs = 0.0;
  std::size_t denseRounds = 0;
  std::size_t sparseRounds = 0;
};

FrontierCrossover timeFrontierCrossover(std::size_t n, std::uint64_t seed) {
  // Deliberately above kSparseDenseMirrorMaxN: past the threshold the
  // sparse generator runs its native skip-sampling path (below it,
  // mirror-mode replays the dense RNG stream and would mask the win).
  // Stationary density 16/n keeps the graph sparse at any n while t*
  // stays a handful of rounds.
  char spec[64];
  std::snprintf(spec, sizeof spec, "edge-markovian:p=%.8f,q=0.5",
                8.0 / static_cast<double>(n));
  FrontierCrossover out;
  out.n = n;
  {
    const auto model = DynamicsRegistry::instance().make(spec, n, seed);
    const auto start = Clock::now();
    const BroadcastRun run = runDynamicsBroadcast(n, *model, /*maxRounds=*/64);
    out.denseMs = secondsSince(start) * 1e3;
    out.denseRounds = run.rounds;
  }
  {
    const auto model = DynamicsRegistry::instance().make(spec, n, seed);
    const auto start = Clock::now();
    const BroadcastRun run =
        runFrontierDynamicsBroadcast(n, *model, /*maxRounds=*/64, seed);
    out.sparseMs = secondsSince(start) * 1e3;
    out.sparseRounds = run.rounds;
  }
  return out;
}

/// End-to-end portfolio sweep timing. Returns wall ms.
double timePortfolioSweep(std::size_t n, std::uint64_t seed,
                          std::size_t* bestRounds) {
  const auto start = Clock::now();
  const PortfolioResult result = runPortfolio(n, seed);
  const double ms = secondsSince(start) * 1e3;
  if (bestRounds != nullptr) *bestRounds = result.bestRounds;
  return ms;
}

/// Service throughput: distinct sweep specs pushed through the manifest
/// worker loop against one shared result cache — once cold (every task
/// executes and its record + cache entry are fsynced) and once warm
/// (fresh manifests, every task satisfied from the cache). The specs/s
/// pair is the experiment service's headline number. The warm pass's
/// task counts are the gate: it must execute nothing, every task a cache
/// hit. The warm:cold ratio is reported only, since faster execution
/// shrinks the cold pass and with it the ratio.
struct ServiceThroughput {
  std::size_t specs = 0;
  double coldMs = 0.0;
  double warmMs = 0.0;
  WorkerReport warm;  ///< executed and cacheHits summed over the warm pass

  [[nodiscard]] double coldSpecsPerS() const { return specs * 1e3 / coldMs; }
  [[nodiscard]] double warmSpecsPerS() const { return specs * 1e3 / warmMs; }
  [[nodiscard]] double warmSpeedup() const { return coldMs / warmMs; }
};

ServiceThroughput timeServiceThroughput(const std::string& scratchDir,
                                        std::uint64_t seed, bool quick) {
  std::filesystem::remove_all(scratchDir);
  makeDirectories(scratchDir);
  const std::string cacheDir = scratchDir + "/cache";

  ServiceThroughput t;
  t.specs = quick ? 4 : 8;
  std::vector<ServiceRequest> requests;
  for (std::size_t i = 0; i < t.specs; ++i) {
    // Rooted-tree portfolio rows (real adversary runs, not the cheap
    // graph models) so task cost dwarfs the per-record fsync; the beam
    // pass is disabled — its tasks are minutes, not milliseconds.
    ServiceRequest request;
    request.scenario.sizes = {32, 48};
    request.scenario.seedsPerSize = 2;
    request.scenario.masterSeed = seed + i;  // distinct jobs, no overlap
    request.beamMaxN = 0;
    requests.push_back(request);
  }

  // Returns the pass's wall ms and adds its worker counts to `total`.
  const auto runAll = [&](const char* tag, WorkerReport& total) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string manifest = scratchDir + "/" + tag + "-" +
                                   std::to_string(i) + ".manifest";
      initManifest(manifest, canonicalRequestString(requests[i]),
                   planServiceJob(requests[i]).taskCount());
      WorkerOptions work;
      work.manifestPath = manifest;
      work.cacheDir = cacheDir;
      const WorkerReport report = runManifestWorker(work);
      total.executed += report.executed;
      total.cacheHits += report.cacheHits;
    }
    return secondsSince(start) * 1e3;
  };
  WorkerReport cold;
  t.coldMs = runAll("cold", cold);
  t.warmMs = runAll("warm", t.warm);
  std::filesystem::remove_all(scratchDir);
  return t;
}

/// Search-core telemetry: one beam witness search at a FIXED size (same
/// in quick and full mode, so CI's --quick run gates against the same
/// baseline values) plus one short lookahead run for its transposition
/// stats. All gated fields are deterministic counters for a fixed seed,
/// not wall times.
struct SearchTelemetry {
  std::size_t beamN = 48;
  std::size_t beamWidth = 256;
  BeamResult beam;
  double beamMs = 0.0;
  std::uint64_t lookaheadNodes = 0;
  std::uint64_t lookaheadHits = 0;
};

SearchTelemetry timeSearchTelemetry(std::uint64_t seed) {
  SearchTelemetry t;
  BeamConfig cfg;
  cfg.beamWidth = t.beamWidth;
  const auto start = Clock::now();
  t.beam = beamSearchWitness(t.beamN, seed ^ 0xbea3ull, cfg);
  t.beamMs = secondsSince(start) * 1e3;
  LookaheadDelayAdversary lookahead(24, seed ^ 0x10caull, {.depth = 3});
  (void)runAdversary(24, lookahead, defaultRoundCap(24));
  t.lookaheadNodes = lookahead.stats().nodesVisited;
  t.lookaheadHits = lookahead.stats().transpositionHits;
  return t;
}

void writeKernelsJson(const std::string& path,
                      const std::vector<KernelResult>& kernels, bool quick,
                      std::size_t jobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << '\n';
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"dynbcast-bench-kernels/1\",\n");
  std::fprintf(f, "  \"quick\": %s,\n  \"jobs\": %zu,\n",
               quick ? "true" : "false", jobs);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& k = kernels[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"bits\": %zu, \"reps\": %llu, "
                 "\"ns_per_op\": %.4f, \"gib_per_s\": %.4f}%s\n",
                 k.name.c_str(), k.bits,
                 static_cast<unsigned long long>(k.reps), k.nsPerOp,
                 k.gibPerS, i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::cout << "wrote " << path << '\n';
}

void writeSweepJson(const std::string& path, std::size_t n,
                    std::uint64_t seed, bool quick, double portfolioMs,
                    std::size_t bestRounds,
                    const FrontierCrossover& frontier,
                    const SearchTelemetry& search,
                    const ServiceThroughput& service) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << '\n';
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"dynbcast-bench-sweep/1\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"n\": %zu,\n  \"seed\": %llu,\n", n,
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"simd_level\": \"%s\",\n",
               bitword::simdLevelName(bitword::dispatch().level));
  std::fprintf(f, "  \"portfolio_ms\": %.3f,\n", portfolioMs);
  std::fprintf(f, "  \"frontier_n\": %zu,\n", frontier.n);
  std::fprintf(f, "  \"frontier_dense_ms\": %.3f,\n", frontier.denseMs);
  std::fprintf(f, "  \"frontier_sparse_ms\": %.3f,\n", frontier.sparseMs);
  std::fprintf(f, "  \"frontier_sparse_speedup\": %.4f,\n",
               frontier.denseMs / frontier.sparseMs);
  const BeamResult& beam = search.beam;
  std::fprintf(f, "  \"beam_n\": %zu,\n  \"beam_width\": %zu,\n",
               search.beamN, search.beamWidth);
  std::fprintf(f, "  \"beam_rounds\": %zu,\n", beam.rounds);
  std::fprintf(f, "  \"beam_unique_states\": %llu,\n",
               static_cast<unsigned long long>(beam.uniqueStates));
  std::fprintf(f, "  \"beam_moves_generated\": %llu,\n",
               static_cast<unsigned long long>(beam.movesGenerated));
  std::fprintf(f, "  \"beam_eval_dedup_ratio\": %.4f,\n",
               beam.uniqueStates != 0
                   ? static_cast<double>(beam.movesGenerated) /
                         static_cast<double>(beam.uniqueStates)
                   : 0.0);
  std::fprintf(f, "  \"transposition_hit_rate\": %.4f,\n",
               beam.statesExpanded != 0
                   ? static_cast<double>(beam.transpositionHits) /
                         static_cast<double>(beam.statesExpanded)
                   : 0.0);
  std::fprintf(f, "  \"beam_hash_collisions\": %llu,\n",
               static_cast<unsigned long long>(beam.hashCollisions));
  std::fprintf(f, "  \"beam_arena_peak_nodes\": %zu,\n",
               beam.arenaPeakNodes);
  std::fprintf(f, "  \"beam_ms\": %.3f,\n", search.beamMs);
  std::fprintf(f, "  \"lookahead_nodes\": %llu,\n",
               static_cast<unsigned long long>(search.lookaheadNodes));
  std::fprintf(f, "  \"lookahead_tt_hit_rate\": %.4f,\n",
               search.lookaheadNodes != 0
                   ? static_cast<double>(search.lookaheadHits) /
                         static_cast<double>(search.lookaheadNodes)
                   : 0.0);
  std::fprintf(f, "  \"service_specs\": %zu,\n", service.specs);
  std::fprintf(f, "  \"service_cold_ms\": %.3f,\n", service.coldMs);
  std::fprintf(f, "  \"service_warm_ms\": %.3f,\n", service.warmMs);
  std::fprintf(f, "  \"service_cold_specs_per_s\": %.4f,\n",
               service.coldSpecsPerS());
  std::fprintf(f, "  \"service_warm_specs_per_s\": %.4f,\n",
               service.warmSpecsPerS());
  std::fprintf(f, "  \"service_warm_speedup\": %.4f,\n",
               service.warmSpeedup());
  std::fprintf(f, "  \"service_warm_executed\": %zu,\n",
               service.warm.executed);
  std::fprintf(f, "  \"service_warm_cache_hits\": %zu,\n",
               service.warm.cacheHits);
  std::fprintf(f, "  \"best_rounds\": %zu\n}\n", bestRounds);
  std::fclose(f);
  std::cout << "wrote " << path << '\n';
}

}  // namespace
}  // namespace dynbcast

int main(int argc, char** argv) {
  using namespace dynbcast;
  BenchDriver driver(argc, argv, "256", 1);
  const bool quick = driver.options().getBool("quick", false);
  const std::string outDir = driver.options().getString("out", ".");
  const std::size_t sweepN =
      driver.options().getUInt("sweep-n", quick ? 96 : 256);
  const double minSeconds = quick ? 0.05 : 0.25;

  driver.printHeader("PERF — kernel throughput + portfolio sweep telemetry");
  std::cout << "simd dispatch: "
            << bitword::simdLevelName(bitword::dispatch().level)
            << " (set DYNBCAST_FORCE_SCALAR=1 to disable)\n\n";
  Rng rng(driver.seed());

  // --- kernels ---------------------------------------------------------
  std::vector<KernelResult> kernels;
  const std::vector<std::size_t> bitSizes =
      quick ? std::vector<std::size_t>{256, 1024}
            : std::vector<std::size_t>{256, 1024, 4096};
  for (const std::size_t bits : bitSizes) {
    kernels.push_back(benchOrAssign(bits, minSeconds, rng));
    kernels.push_back(benchOrCount(bits, minSeconds, rng));
  }
  // Draws two random matrices that no row uses, so every row below keeps
  // measuring the random inputs its baseline was recorded on.
  for (int i = 0; i < 2; ++i) {
    (void)randomMatrix(quick ? 128 : 256, 0.05, rng);
  }
  // Fixed sizes in quick and full mode alike (CI gates damageTree:256):
  // the beam's noisy n = 32 regime and greedy-delay's plain n = 256 one.
  kernels.push_back(benchDamageTree(32, /*noisy=*/true, minSeconds, rng));
  kernels.push_back(benchDamageTree(256, /*noisy=*/false, minSeconds, rng));
  kernels.push_back(benchSimRound(sweepN, minSeconds, rng));
  // zoo-dense's two per-round passes at its n = 2048, fixed in quick and
  // full mode alike (CI gates both).
  kernels.push_back(benchNonsplitGraph(2048, minSeconds, rng));
  kernels.push_back(benchIsNonsplit(2048, minSeconds, rng));
  // zoo-sparse's generator step at its n = 65536, fixed in quick and full
  // mode alike (CI gates it), timed for at least 0.25 s in both.
  kernels.push_back(
      benchEdgeMarkovianRound(65536, std::max(minSeconds, 0.25), rng));
  // The per-move cost every adversary shares (one tree construction) and
  // one whole greedy-delay round, both at the n = 256 of the thm31
  // sweep's largest row; fixed in quick and full mode alike (CI gates
  // both). Last, so the rows above draw the same random inputs as before.
  kernels.push_back(benchRootedTree(256, minSeconds, rng));
  kernels.push_back(benchGreedyDelayRound(256, minSeconds, rng));
  // One local-search round at the same n, gated like greedyDelayRound;
  // appended, so every row above draws the same random inputs as before.
  kernels.push_back(benchLocalSearchRound(256, minSeconds, driver.seed()));
  // The sparse t* certifier on the two-phase line at n = 1024, fixed in
  // quick and full mode alike and not gated; last, like the row above.
  kernels.push_back(benchFrontierTwoPhase(1024, minSeconds));
  // zoo-dense's round kernel at its n = 2048 (two applyGraph rounds from
  // the identity), fixed in quick and full mode alike and not gated;
  // last, like the row above.
  kernels.push_back(benchApplyGraph(2048, minSeconds, rng));

  TextTable kernelTable({"kernel", "bits/n", "reps", "ns/op", "GiB/s"});
  for (const KernelResult& k : kernels) {
    kernelTable.row()
        .add(k.name)
        .add(static_cast<std::uint64_t>(k.bits))
        .add(static_cast<std::uint64_t>(k.reps))
        .add(k.nsPerOp, 2)
        .add(k.gibPerS, 2);
  }

  // --- end-to-end sweep: thm31 portfolio -------------------------------
  std::size_t bestRounds = 0;
  const double portfolioMs =
      timePortfolioSweep(sweepN, driver.seed(), &bestRounds);
  TextTable sweepTable({"n", "portfolio ms", "best t*"});
  sweepTable.row()
      .add(static_cast<std::uint64_t>(sweepN))
      .add(portfolioMs, 1)
      .add(static_cast<std::uint64_t>(bestRounds));

  // --- search core: beam witness + lookahead transposition telemetry -
  const SearchTelemetry search = timeSearchTelemetry(driver.seed());
  TextTable searchTable({"search", "n", "rounds", "unique", "generated",
                         "tt hits", "arena peak", "ms"});
  searchTable.row()
      .add(std::string("beam:w=") + std::to_string(search.beamWidth))
      .add(static_cast<std::uint64_t>(search.beamN))
      .add(static_cast<std::uint64_t>(search.beam.rounds))
      .add(search.beam.uniqueStates)
      .add(search.beam.movesGenerated)
      .add(search.beam.transpositionHits)
      .add(static_cast<std::uint64_t>(search.beam.arenaPeakNodes))
      .add(search.beamMs, 1);

  // --- experiment service: specs/s through the worker loop, cold/warm -
  const ServiceThroughput service = timeServiceThroughput(
      outDir + "/BENCH_service_scratch", driver.seed(), quick);
  TextTable serviceTable({"specs", "cold ms", "warm ms", "cold specs/s",
                          "warm specs/s", "warm speedup", "warm executed",
                          "warm hits"});
  serviceTable.row()
      .add(static_cast<std::uint64_t>(service.specs))
      .add(service.coldMs, 1)
      .add(service.warmMs, 1)
      .add(service.coldSpecsPerS(), 2)
      .add(service.warmSpecsPerS(), 2)
      .add(service.warmSpeedup(), 2)
      .add(static_cast<std::uint64_t>(service.warm.executed))
      .add(static_cast<std::uint64_t>(service.warm.cacheHits));

  // --- dense vs sparse backend crossover (above the mirror threshold) -
  const std::size_t frontierN = quick ? 4608 : 8192;
  const FrontierCrossover frontier =
      timeFrontierCrossover(frontierN, driver.seed());
  TextTable frontierTable(
      {"n", "dense ms", "sparse ms", "speedup", "dense t*", "sparse t*"});
  frontierTable.row()
      .add(static_cast<std::uint64_t>(frontier.n))
      .add(frontier.denseMs, 1)
      .add(frontier.sparseMs, 1)
      .add(frontier.denseMs / frontier.sparseMs, 2)
      .add(static_cast<std::uint64_t>(frontier.denseRounds))
      .add(static_cast<std::uint64_t>(frontier.sparseRounds));

  // Only the kernel table goes through emit (and thus --csv); the sweep
  // numbers live in BENCH_sweep.json, which is the machine-readable copy.
  driver.emit(kernelTable);
  std::cout << '\n' << sweepTable.render() << '\n';
  std::cout << '\n' << searchTable.render() << '\n';
  std::cout << '\n' << serviceTable.render() << '\n';
  std::cout << '\n' << frontierTable.render() << '\n';

  writeKernelsJson(outDir + "/BENCH_kernels.json", kernels, quick,
                   driver.jobs());
  writeSweepJson(outDir + "/BENCH_sweep.json", sweepN, driver.seed(), quick,
                 portfolioMs, bestRounds, frontier, search, service);
  return 0;
}

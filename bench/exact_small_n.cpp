// EXACT: the exact game value t*(T_n) for tiny n, computed by exhaustive
// minimax over all n^(n−1) rooted trees per round — the ground truth that
// the paper's bounds must bracket, and the yardstick for how close our
// heuristic adversaries come to optimal play.
//
// The two-phase column replays the construction (TwoPhaseAdversary),
// the certified line that reaches the paper's lower bound ⌈(3n−1)/2⌉−2
// at every n; `dynbcast duel --adversaries=two-phase` runs it past the
// solver's range.
//
// Usage: exact_small_n [--maxn=5] [--heuristics=1]
//   --maxn is at most ExactSolver::kMaxN (8); solve() is practical
//   through n = 5.
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>

#include "src/adversary/exact_solver.h"
#include "src/adversary/oblivious.h"
#include "src/adversary/portfolio.h"
#include "src/bounds/theorem.h"
#include "src/support/options.h"
#include "src/support/table.h"
#include "src/tree/enumerate.h"

namespace {

int run(int argc, char** argv) {
  using namespace dynbcast;
  const Options opts(argc, argv);
  opts.requireKnown({"maxn", "heuristics"});
  const std::size_t maxN = opts.getUInt("maxn", 5);
  const bool heuristics = opts.getBool("heuristics", true);
  if (maxN > ExactSolver::kMaxN) {
    throw std::invalid_argument(
        "--maxn=" + std::to_string(maxN) +
        " exceeds the exhaustive solver's limit n <= " +
        std::to_string(ExactSolver::kMaxN));
  }

  std::cout << "EXACT — exhaustive game value of t*(T_n) for small n\n\n";

  TextTable table({"n", "|T_n| moves", "exact t*", "two-phase",
                   "lower bound", "upper bound", "best heuristic", "states",
                   "time ms"});
  for (std::size_t n = 2; n <= maxN; ++n) {
    const auto start = std::chrono::steady_clock::now();
    const ExactResult exact = ExactSolver(n).solve();
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const TheoremCheck check = checkTheorem31(n, exact.tStar);
    TwoPhaseAdversary construction(n);
    const BroadcastRun twoPhase =
        runAdversary(n, construction, defaultRoundCap(n));
    std::size_t heuristicBest = 0;
    if (heuristics) {
      heuristicBest = runPortfolio(n, 1).bestRounds;
    }
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(rootedTreeCount(n))
        .add(static_cast<std::uint64_t>(exact.tStar))
        .add(static_cast<std::uint64_t>(twoPhase.rounds))
        .add(check.lower)
        .add(check.upper)
        .add(static_cast<std::uint64_t>(heuristicBest))
        .add(exact.statesMemoized)
        .add(static_cast<std::uint64_t>(elapsed));
    if (!check.withinUpper || !check.witnessesLower) {
      std::cout << "NOTE at n=" << n << ": " << check.toString() << '\n';
    }
  }
  std::cout << table.render() << '\n';
  std::cout << "reading: exact t* must sit inside [lower, upper]; the "
               "two-phase column is the construction's replayed rounds (= "
               "lower bound at every n), and the heuristic column shows how "
               "much of the true game value the portfolio recovers without "
               "exhaustive search.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unknown flags and an out-of-range --maxn throw std::invalid_argument;
  // report them instead of terminating.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "exact_small_n: " << e.what() << '\n';
    return 2;
  }
}

// EXACT: the exact game value t*(T_n) for tiny n, computed by exhaustive
// minimax over all n^(n−1) rooted trees per round — the ground truth that
// the paper's bounds must bracket, and the yardstick for how close our
// heuristic adversaries come to optimal play.
//
// The second table goes past solve()'s practical range with
// witnessPlay(): a certified line of play reaching the paper's lower
// bound ⌈(3n−1)/2⌉−2 — found by the complete-pool search through n = 8,
// taken from the two-phase construction beyond.
//
// Usage: exact_small_n [--maxn=5] [--heuristics=1] [--witness-maxn=16]
#include <chrono>
#include <iostream>

#include "src/adversary/exact_solver.h"
#include "src/adversary/portfolio.h"
#include "src/bounds/bounds.h"
#include "src/bounds/theorem.h"
#include "src/support/options.h"
#include "src/support/table.h"
#include "src/tree/enumerate.h"

int main(int argc, char** argv) {
  using namespace dynbcast;
  const Options opts(argc, argv);
  const std::size_t maxN = opts.getUInt("maxn", 5);
  const bool heuristics = opts.getBool("heuristics", true);

  std::cout << "EXACT — exhaustive game value of t*(T_n) for small n\n\n";

  TextTable table({"n", "|T_n| moves", "exact t*", "lower bound",
                   "upper bound", "best heuristic", "states", "time ms"});
  for (std::size_t n = 2; n <= maxN && n <= 8; ++n) {
    const auto start = std::chrono::steady_clock::now();
    const ExactResult exact = ExactSolver(n).solve();
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const TheoremCheck check = checkTheorem31(n, exact.tStar);
    std::size_t heuristicBest = 0;
    if (heuristics) {
      heuristicBest = runPortfolio(n, 1).bestRounds;
    }
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(rootedTreeCount(n))
        .add(static_cast<std::uint64_t>(exact.tStar))
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
               "heuristic column shows how much of the true game value the "
               "portfolio recovers without exhaustive search.\n\n";

  const std::size_t witnessMaxN =
      opts.getUInt("witness-maxn", ExactSolver::kMaxN);
  TextTable witnessTable({"n", "target (= lower bound)", "certified rounds",
                          "pool", "time ms"});
  for (std::size_t n = 2; n <= witnessMaxN && n <= ExactSolver::kMaxN;
       ++n) {
    const std::size_t target = bounds::lowerBound(n);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<RootedTree> play = ExactSolver(n).witnessPlay(target);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    witnessTable.row()
        .add(static_cast<std::uint64_t>(n))
        .add(static_cast<std::uint64_t>(target))
        .add(static_cast<std::uint64_t>(play.size()))
        .add(n <= 8 ? "complete" : "construction")
        .add(static_cast<std::uint64_t>(elapsed));
  }
  std::cout << witnessTable.render() << '\n';
  std::cout << "reading: every certified play replays to exactly its "
               "length, so 'certified rounds' = target means t*(T_n) >= "
               "the [14] lower bound is witnessed, not just argued.\n";
  return 0;
}

// Adversary portfolio: the library's best effort at Definition 2.3's max.
//
// t*(T_n) is a maximum over all adversaries; any single strategy only
// witnesses a lower bound. The portfolio runs every built-in adversary
// and reports the strongest witness, which benches compare against the
// paper's two bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/adversary/adversary.h"

namespace dynbcast {

/// A named adversary factory, so runs can be repeated with fresh state.
struct PortfolioMember {
  std::string name;
  std::function<std::unique_ptr<Adversary>()> make;
};

/// The standard portfolio as data: registry spec strings for the members
/// every sweep runs by default — static path, random tree/path,
/// heard-order paths, freeze paths (depths 1–3), greedy-delay,
/// local-search.
[[nodiscard]] std::vector<std::string> standardPortfolioSpecs();

/// Resolves registry spec strings into portfolio members for one
/// (n, seed) instance. Validates every spec at n eagerly (unknown names,
/// keys and out-of-range values throw std::invalid_argument here, not
/// inside a worker thread); each member's display name is the canonical
/// spec string and its make() constructs a fresh adversary through the
/// AdversaryRegistry.
[[nodiscard]] std::vector<PortfolioMember> membersFromSpecs(
    const std::vector<std::string>& specs, std::size_t n,
    std::uint64_t seed);

/// standardPortfolioSpecs() resolved through the registry.
[[nodiscard]] std::vector<PortfolioMember> standardPortfolio(
    std::size_t n, std::uint64_t seed);

struct PortfolioEntry {
  std::string name;
  std::size_t rounds = 0;
  bool completed = false;
};

struct PortfolioResult {
  /// The strongest (largest) completed t* among members; bestName stays
  /// empty only when no member completed.
  std::size_t bestRounds = 0;
  std::string bestName;
  std::vector<PortfolioEntry> entries;

  /// Appends a member's entry. The first completed member sets the best
  /// (even at t* = 0, as every member has at n = 1); a later one
  /// replaces it only with strictly more rounds. Member names are
  /// canonical specs, never empty.
  void add(PortfolioEntry entry);
};

/// Runs each standard member to completion (cap defaultRoundCap(n)),
/// exactly once, and collects the per-member broadcast times. Per-round
/// history is a scenario concern: ScenarioSpec::recordHistory fills
/// SweepRow::history.
[[nodiscard]] PortfolioResult runPortfolio(std::size_t n, std::uint64_t seed);

/// Runs only the given members at size n; each member's make() already
/// carries its seed.
[[nodiscard]] PortfolioResult runPortfolio(
    std::size_t n, const std::vector<PortfolioMember>& members);

}  // namespace dynbcast

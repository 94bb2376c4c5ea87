#include "src/adversary/portfolio.h"

#include "src/adversary/registry.h"
#include "src/support/assert.h"

namespace dynbcast {

std::vector<std::string> standardPortfolioSpecs() {
  return {
      "static-path",        "random-tree",
      "random-path",        "heard-asc-path",
      "heard-desc-path",    "freeze-path:depth=1",
      "freeze-path:depth=2", "freeze-path:depth=3",
      "greedy-delay",       "local-search",
  };
}

std::vector<PortfolioMember> membersFromSpecs(
    const std::vector<std::string>& specs, std::size_t n,
    std::uint64_t seed) {
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  std::vector<PortfolioMember> members;
  members.reserve(specs.size());
  for (const std::string& text : specs) {
    AdversarySpec spec = AdversarySpec::parse(text);
    registry.validate(spec);
    std::string name = spec.toString();
    members.push_back({std::move(name),
                       [spec = std::move(spec), n, seed, &registry] {
                         return registry.make(spec, n, seed);
                       }});
  }
  return members;
}

std::vector<PortfolioMember> standardPortfolio(std::size_t n,
                                               std::uint64_t seed) {
  return membersFromSpecs(standardPortfolioSpecs(), n, seed);
}

void PortfolioResult::add(PortfolioEntry entry) {
  if (entry.completed && (bestName.empty() || entry.rounds > bestRounds)) {
    bestRounds = entry.rounds;
    bestName = entry.name;
  }
  entries.push_back(std::move(entry));
}

PortfolioResult runPortfolio(std::size_t n, std::uint64_t seed,
                             bool recordHistory) {
  return runPortfolio(n, seed, standardPortfolio(n, seed), recordHistory);
}

PortfolioResult runPortfolio(std::size_t n, std::uint64_t seed,
                             const std::vector<PortfolioMember>& members,
                             bool recordHistory) {
  (void)seed;
  PortfolioResult result;
  const std::size_t cap = defaultRoundCap(n);
  for (const PortfolioMember& member : members) {
    const std::unique_ptr<Adversary> adversary = member.make();
    // One run per member: history is recorded in the same run that
    // produces the t* witness, never by replaying the member.
    BroadcastRun run = runAdversary(n, *adversary, cap, recordHistory);
    result.add(
        {member.name, run.rounds, run.completed, std::move(run.history)});
  }
  return result;
}

}  // namespace dynbcast

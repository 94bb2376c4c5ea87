#include "src/tree/generators.h"

#include "src/support/assert.h"
#include "src/tree/families.h"
#include "src/tree/prufer.h"

namespace dynbcast {

RootedTree randomRootedTree(std::size_t n, Rng& rng) {
  DYNBCAST_ASSERT(n > 0);
  if (n == 1) return RootedTree::trivial();
  std::vector<std::size_t> seq(n >= 2 ? n - 2 : 0);
  for (auto& a : seq) a = rng.uniform(n);
  const std::size_t root = rng.uniform(n);
  return rootedFromPrufer(seq, root);
}

RootedTree randomPath(std::size_t n, Rng& rng) {
  return makePath(rng.permutation(n));
}

}  // namespace dynbcast

// Random rooted-tree generators.
#pragma once

#include <cstdint>
#include <vector>

#include "src/support/rng.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

/// Uniformly random rooted labeled tree on [n]: a uniform Prüfer sequence
/// plus a uniform root — exactly uniform over all n^(n−1) members of T_n
/// (ignoring the forced self-loops, which carry no entropy).
[[nodiscard]] RootedTree randomRootedTree(std::size_t n, Rng& rng);

/// Random path: a path over a uniformly random permutation.
[[nodiscard]] RootedTree randomPath(std::size_t n, Rng& rng);

}  // namespace dynbcast

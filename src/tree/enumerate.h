// Exhaustive enumeration of the adversary's move pool T_n for small n.
//
// There are n^(n−1) rooted labeled trees on [n] (n^(n−2) Cayley trees,
// each rooted at any of its n nodes). The exact game solver iterates over
// all of them; n ≤ 6 is practical (6^5 = 7776 moves per game state).
#pragma once

#include <cstdint>
#include <functional>

#include "src/tree/rooted_tree.h"

namespace dynbcast {

/// n^(n−1), the size of T_n. Overflow-checked: throws for n where the
/// count exceeds 2^64.
[[nodiscard]] std::uint64_t rootedTreeCount(std::size_t n);

/// Invokes `visit` for every rooted tree on [n] exactly once, in
/// (Prüfer sequence, root) lexicographic order. Stops early when `visit`
/// returns false. Returns the number of trees visited.
std::uint64_t forEachRootedTree(
    std::size_t n, const std::function<bool(const RootedTree&)>& visit);

}  // namespace dynbcast

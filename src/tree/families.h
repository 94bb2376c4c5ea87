// Structured tree families: the path, star and broom shapes the
// adversaries build their moves from.
//
// All constructors take explicit node orderings so adaptive adversaries
// can place specific processes at specific positions (the essence of the
// delaying strategies in [14] and of our greedy adversaries).
#pragma once

#include <cstdint>
#include <vector>

#include "src/tree/rooted_tree.h"

namespace dynbcast {

/// Path order[0] → order[1] → … → order[n−1]; order must be a permutation
/// of [n]. Height n−1 — the slowest static tree.
[[nodiscard]] RootedTree makePath(const std::vector<std::size_t>& order);

/// The parent array of makePath(order), written into `parent` (resized to
/// n, capacity reused): parent[order[i]] = order[i − 1] and
/// parent[order[0]] = order[0]. Runs makePath's checks — order non-empty
/// and a permutation of [n] — and throws AssertionError otherwise.
void pathParentsInto(const std::vector<std::size_t>& order,
                     std::vector<std::size_t>& parent);

/// Identity path 0 → 1 → … → n−1.
[[nodiscard]] RootedTree makePath(std::size_t n);

/// Star: `center` is the root with all other nodes as direct children.
[[nodiscard]] RootedTree makeStar(std::size_t n, std::size_t center);

/// Broom: a path over the first `handleLen` entries of `order`, with every
/// remaining node attached as a child of the path's last node. A broom
/// with handleLen = n−1 is a path; handleLen = 1 is a star.
[[nodiscard]] RootedTree makeBroom(const std::vector<std::size_t>& order,
                                   std::size_t handleLen);

}  // namespace dynbcast

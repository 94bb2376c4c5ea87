// The Charron-Bost–Függer–Nowak reduction [1], as executable facts:
// the product of any n−1 rooted trees (with self-loops) on n nodes is a
// nonsplit graph. This is the bridge that turned [9]'s O(log log n)
// nonsplit bound into the pre-paper O(n log log n) tree bound (§4).
#pragma once

#include <cstddef>
#include <vector>

#include "src/tree/rooted_tree.h"

namespace dynbcast {

/// The smallest prefix length L such that G_1 ∘ … ∘ G_L is nonsplit, or
/// trees.size()+1 when no prefix suffices. By [1], L ≤ n−1 always; the
/// benches report how much earlier random sequences get there. Products
/// of reflexive graphs only gain arcs, so every longer prefix is
/// nonsplit too: L ≤ trees.size() says the whole product is.
[[nodiscard]] std::size_t nonsplitPrefixLength(
    const std::vector<RootedTree>& trees);

}  // namespace dynbcast

// Structural predicates on directed graphs, phrased on BitMatrix.
//
// These implement the model-side definitions the paper and its cited
// results rely on: nonsplit (every pair of nodes has a common in-neighbor,
// per Charron-Bost & Schiper) and rooted-tree-with-self-loops membership
// in T_n.
#pragma once

#include <cstddef>

#include "src/graph/bitmatrix.h"

namespace dynbcast {

/// True when every pair of nodes (including pairs (y,y)) has a common
/// in-neighbor. This is the "nonsplit" property of [2]/[9]. One transpose
/// plus one pairCoverageFrom pass per node: O(n²/64 + E·n/64) word
/// operations for E edges, stopping at the first node with an uncovered
/// partner.
[[nodiscard]] bool isNonsplit(const BitMatrix& g);

/// Row y of the pair-coverage relation: overwrites the words of `cov`
/// from word y/64 on with the OR of g.row(z) over every z in `inOfY`
/// (column y of g, the in-neighbors of y); lower words are left as they
/// are. Afterwards, for y2 >= y, bit y2 of `cov` is set iff y and y2
/// share an in-neighbor. The in-neighbors are walked a word at a time
/// (DynBitset::forEachSet), so each costs one (n − y)/64-word OR and no
/// search call: |inOfY|·(n − y)/64 word ORs in all. Both the nonsplit
/// repair (src/nonsplit) and isNonsplit run this once per row.
/// Preconditions: cov.size() == inOfY.size() == g.dim(), y < g.dim().
void pairCoverageFrom(const BitMatrix& g, const DynBitset& inOfY,
                      std::size_t y, DynBitset& cov);

/// True when g is exactly a rooted tree on [n] plus one self-loop per node
/// — i.e. a member of the adversary's pool T_n (paper §2):
/// every node has the self-loop; the root has in-degree 1 (just the loop);
/// every other node has in-degree 2 (loop + tree parent); tree edges are
/// acyclic and connect everyone to the root.
[[nodiscard]] bool isRootedTreeWithSelfLoops(const BitMatrix& g);

}  // namespace dynbcast

// Reference implementations that tests check the library against.
//
// Each is the plain reading of a definition (entry by entry, bit by bit),
// kept independent of the word kernels it cross-checks. No program calls
// them; they live with the tests.
#pragma once

#include <cstdint>
#include <optional>

#include "src/graph/bitmatrix.h"
#include "src/support/bitset.h"

namespace dynbcast {

/// The boolean product a ∘ b by Definition 2.1: (x, y) is set iff some z
/// has (x, z) ∈ a and (z, y) ∈ b. O(n³).
[[nodiscard]] BitMatrix naiveProduct(const BitMatrix& a, const BitMatrix& b);

/// Nodes reachable from `start` (including itself) following edges forward.
[[nodiscard]] DynBitset reachableFrom(const BitMatrix& g, std::size_t start);

/// A node that reaches all others, if one exists.
[[nodiscard]] std::optional<std::size_t> findRoot(const BitMatrix& g);

/// True when some node reaches all others (the graph is "rooted").
[[nodiscard]] bool isRooted(const BitMatrix& g);

/// True when every bit of `sub` is also set in `super`.
[[nodiscard]] bool isSupersetOf(const DynBitset& super, const DynBitset& sub);

/// a ∩ b. Precondition: equal sizes.
[[nodiscard]] DynBitset intersection(const DynBitset& a, const DynBitset& b);

/// a \ b. Precondition: equal sizes.
[[nodiscard]] DynBitset difference(const DynBitset& a, const DynBitset& b);

/// 64-bit content hash of a matrix, for pinning generated graphs.
[[nodiscard]] std::uint64_t matrixHash(const BitMatrix& m);

}  // namespace dynbcast

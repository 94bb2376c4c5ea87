#include "tests/oracles/oracles.h"

#include <vector>

#include "src/support/assert.h"

namespace dynbcast {

BitMatrix naiveProduct(const BitMatrix& a, const BitMatrix& b) {
  DYNBCAST_ASSERT(a.dim() == b.dim());
  const std::size_t n = a.dim();
  BitMatrix out(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t z = 0; z < n; ++z) {
        if (a.get(x, z) && b.get(z, y)) {
          out.set(x, y);
          break;
        }
      }
    }
  }
  return out;
}

DynBitset reachableFrom(const BitMatrix& g, std::size_t start) {
  const std::size_t n = g.dim();
  DYNBCAST_ASSERT(start < n);
  DynBitset seen(n);
  std::vector<std::size_t> stack{start};
  seen.set(start);
  while (!stack.empty()) {
    const std::size_t x = stack.back();
    stack.pop_back();
    for (std::size_t y = 0; y < n; ++y) {
      if (g.get(x, y) && !seen.test(y)) {
        seen.set(y);
        stack.push_back(y);
      }
    }
  }
  return seen;
}

std::optional<std::size_t> findRoot(const BitMatrix& g) {
  // Tries every node as the start of one search: O(n³) worst case.
  for (std::size_t x = 0; x < g.dim(); ++x) {
    if (reachableFrom(g, x).all()) return x;
  }
  return std::nullopt;
}

bool isRooted(const BitMatrix& g) { return findRoot(g).has_value(); }

bool isSupersetOf(const DynBitset& super, const DynBitset& sub) {
  DYNBCAST_ASSERT(super.size() == sub.size());
  for (std::size_t i = 0; i < sub.size(); ++i) {
    if (sub.test(i) && !super.test(i)) return false;
  }
  return true;
}

DynBitset intersection(const DynBitset& a, const DynBitset& b) {
  DYNBCAST_ASSERT(a.size() == b.size());
  DynBitset out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.test(i) && b.test(i)) out.set(i);
  }
  return out;
}

DynBitset difference(const DynBitset& a, const DynBitset& b) {
  DYNBCAST_ASSERT(a.size() == b.size());
  DynBitset out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.test(i) && !b.test(i)) out.set(i);
  }
  return out;
}

BitMatrix denseFromRound(const SparseRound& round) {
  DYNBCAST_ASSERT(!round.offsets.empty());
  const std::size_t n = round.offsets.size() - 1;
  BitMatrix g = BitMatrix::identity(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::uint32_t k = round.offsets[x]; k < round.offsets[x + 1]; ++k) {
      g.set(x, round.arcs[k]);
    }
  }
  return g;
}

std::uint64_t matrixHash(const BitMatrix& m) {
  std::uint64_t h = 0x243f6a8885a308d3ull ^ m.dim();
  for (std::size_t x = 0; x < m.dim(); ++x) {
    h ^= m.row(x).hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace dynbcast

#include "src/graph/properties.h"

#include <vector>

#include "src/support/assert.h"

namespace dynbcast {

DynBitset reachableFrom(const BitMatrix& g, std::size_t start) {
  const std::size_t n = g.dim();
  DYNBCAST_ASSERT(start < n);
  DynBitset seen(n);
  std::vector<std::size_t> stack{start};
  seen.set(start);
  while (!stack.empty()) {
    const std::size_t x = stack.back();
    stack.pop_back();
    g.row(x).forEachSet([&seen, &stack](std::size_t y) {
      if (!seen.test(y)) {
        seen.set(y);
        stack.push_back(y);
      }
    });
  }
  return seen;
}

bool isRooted(const BitMatrix& g) { return findRoot(g).has_value(); }

std::optional<std::size_t> findRoot(const BitMatrix& g) {
  const std::size_t n = g.dim();
  if (n == 0) return std::nullopt;
  // Tries every node as the start of one DFS: O(n·(n + E)) worst case.
  for (std::size_t x = 0; x < n; ++x) {
    if (reachableFrom(g, x).all()) return x;
  }
  return std::nullopt;
}

bool isNonsplit(const BitMatrix& g) {
  const std::size_t n = g.dim();
  const BitMatrix t = g.transposed();
  DynBitset cov(n);
  for (std::size_t y1 = 0; y1 < n; ++y1) {
    pairCoverageFrom(g, t.row(y1), y1, cov);
    // Pairs (y1, y2) with y2 < y1 were checked as (y2, y1).
    if (cov.findNextClear(y1) < n) return false;
  }
  return true;
}

void pairCoverageFrom(const BitMatrix& g, const DynBitset& inOfY,
                      std::size_t y, DynBitset& cov) {
  const std::size_t n = g.dim();
  DYNBCAST_ASSERT(y < n && cov.size() == n && inOfY.size() == n);
  const std::size_t first = y / DynBitset::kBits;
  const std::size_t span = cov.wordCount() - first;
  std::uint64_t* dst = cov.wordData() + first;
  for (std::size_t i = 0; i < span; ++i) dst[i] = 0;
  inOfY.forEachSet([&g, dst, first, span](std::size_t z) {
    bitword::orAssign(dst, g.row(z).wordData() + first, span);
  });
}

bool isRootedTreeWithSelfLoops(const BitMatrix& g) {
  const std::size_t n = g.dim();
  if (n == 0) return false;
  if (!g.isReflexive()) return false;
  // Count non-loop in-edges: every node needs exactly one tree parent,
  // except a unique root with none.
  std::vector<std::size_t> parent(n, n);
  std::size_t rootCount = 0;
  std::size_t root = n;
  const BitMatrix t = g.transposed();
  for (std::size_t y = 0; y < n; ++y) {
    std::size_t deg = 0;
    std::size_t p = n;
    t.row(y).forEachSet([y, &deg, &p](std::size_t x) {
      if (x == y) return;  // self-loop
      ++deg;
      p = x;
    });
    if (deg == 0) {
      ++rootCount;
      root = y;
    } else if (deg == 1) {
      parent[y] = p;
    } else {
      return false;
    }
  }
  if (rootCount != 1) return false;
  // Also check out-edges contain nothing beyond loops + parent links
  // (they can't: we derived parents from the full edge set) and that the
  // parent structure is acyclic, i.e. every node walks up to the root.
  for (std::size_t y = 0; y < n; ++y) {
    std::size_t steps = 0;
    std::size_t cur = y;
    while (cur != root) {
      cur = parent[cur];
      if (cur == n || ++steps > n) return false;
    }
  }
  // Finally, total edge count must be exactly n self-loops + (n-1) tree
  // edges — excludes extra forward edges hiding behind valid in-degrees.
  return g.countOnes() == 2 * n - 1;
}

std::size_t treeDepth(const BitMatrix& g) {
  DYNBCAST_ASSERT_MSG(isRootedTreeWithSelfLoops(g),
                      "treeDepth requires a member of T_n");
  const std::size_t n = g.dim();
  // BFS from the root along non-loop edges.
  const BitMatrix t = g.transposed();
  std::size_t root = n;
  for (std::size_t y = 0; y < n; ++y) {
    if (t.row(y).count() == 1) {  // only the self-loop
      root = y;
      break;
    }
  }
  DYNBCAST_ASSERT(root < n);
  std::vector<std::size_t> depth(n, 0);
  std::vector<std::size_t> queue{root};
  std::size_t maxDepth = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::size_t x = queue[qi];
    g.row(x).forEachSet([x, &depth, &maxDepth, &queue](std::size_t y) {
      if (y == x) return;
      depth[y] = depth[x] + 1;
      maxDepth = std::max(maxDepth, depth[y]);
      queue.push_back(y);
    });
  }
  return maxDepth;
}

}  // namespace dynbcast

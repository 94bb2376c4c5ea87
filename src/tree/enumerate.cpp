#include "src/tree/enumerate.h"

#include <stdexcept>

#include "src/support/assert.h"
#include "src/tree/prufer.h"

namespace dynbcast {

std::uint64_t rootedTreeCount(std::size_t n) {
  DYNBCAST_ASSERT(n > 0);
  std::uint64_t count = 1;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t next = count * n;
    if (next / n != count) {
      throw std::overflow_error("rootedTreeCount overflows uint64");
    }
    count = next;
  }
  return count;
}

std::uint64_t forEachRootedTree(
    std::size_t n, const std::function<bool(const RootedTree&)>& visit) {
  DYNBCAST_ASSERT(n > 0);
  std::uint64_t visited = 0;
  if (n == 1) {
    ++visited;
    visit(RootedTree::trivial());
    return visited;
  }
  // Odometer over Prüfer sequences of length n−2 (empty for n == 2).
  std::vector<std::size_t> seq(n - 2, 0);
  for (;;) {
    const UndirectedTree shape = pruferDecode(seq);
    for (std::size_t root = 0; root < n; ++root) {
      ++visited;
      if (!visit(orientTree(n, shape, root))) return visited;
    }
    // Increment the odometer.
    std::size_t pos = seq.size();
    while (pos > 0) {
      --pos;
      if (++seq[pos] < n) break;
      seq[pos] = 0;
      if (pos == 0) return visited;  // wrapped: enumeration complete
    }
    if (seq.empty()) return visited;  // n == 2: single shape
  }
}

}  // namespace dynbcast

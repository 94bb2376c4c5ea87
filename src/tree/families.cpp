#include "src/tree/families.h"

#include <utility>

#include "src/support/assert.h"

namespace dynbcast {

void pathParentsInto(const std::vector<std::size_t>& order,
                     std::vector<std::size_t>& parent) {
  const std::size_t n = order.size();
  DYNBCAST_ASSERT(n > 0);
  // n marks an id not yet placed, so one pass both fills the array and
  // proves the order a permutation: every id in range, none twice.
  parent.assign(n, n);
  std::size_t prev = order[0];
  for (const std::size_t v : order) {
    DYNBCAST_ASSERT_MSG(v < n && parent[v] == n,
                        "order must be a permutation");
    parent[v] = prev;
    prev = v;
  }
}

RootedTree makePath(const std::vector<std::size_t>& order) {
  std::vector<std::size_t> parent;
  pathParentsInto(order, parent);
  return RootedTree(order[0], std::move(parent));
}

RootedTree makePath(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return makePath(order);
}

RootedTree makeStar(std::size_t n, std::size_t center) {
  DYNBCAST_ASSERT(n > 0 && center < n);
  std::vector<std::size_t> parent(n, center);
  return RootedTree(center, std::move(parent));
}

RootedTree makeBroom(const std::vector<std::size_t>& order,
                     std::size_t handleLen) {
  std::vector<std::size_t> parent;
  pathParentsInto(order, parent);  // the handle; bristles re-hung below
  const std::size_t n = order.size();
  DYNBCAST_ASSERT_MSG(handleLen >= 1 && handleLen <= n,
                      "handleLen must be in [1, n]");
  for (std::size_t i = handleLen; i < n; ++i) {
    parent[order[i]] = order[handleLen - 1];
  }
  return RootedTree(order[0], std::move(parent));
}

}  // namespace dynbcast

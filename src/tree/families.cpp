#include "src/tree/families.h"

#include <utility>

#include "src/support/assert.h"

namespace dynbcast {

namespace {

void checkPermutation(const std::vector<std::size_t>& order) {
  const std::size_t n = order.size();
  std::vector<bool> seen(n, false);
  for (const std::size_t v : order) {
    DYNBCAST_ASSERT_MSG(v < n && !seen[v], "order must be a permutation");
    seen[v] = true;
  }
}

}  // namespace

RootedTree makePath(const std::vector<std::size_t>& order) {
  checkPermutation(order);
  const std::size_t n = order.size();
  DYNBCAST_ASSERT(n > 0);
  std::vector<std::size_t> parent(n);
  parent[order[0]] = order[0];
  for (std::size_t i = 1; i < n; ++i) parent[order[i]] = order[i - 1];
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
  checkPermutation(order);
  const std::size_t n = order.size();
  DYNBCAST_ASSERT(n > 0);
  DYNBCAST_ASSERT_MSG(handleLen >= 1 && handleLen <= n,
                      "handleLen must be in [1, n]");
  std::vector<std::size_t> parent(n);
  parent[order[0]] = order[0];
  for (std::size_t i = 1; i < handleLen; ++i) {
    parent[order[i]] = order[i - 1];
  }
  for (std::size_t i = handleLen; i < n; ++i) {
    parent[order[i]] = order[handleLen - 1];
  }
  return RootedTree(order[0], std::move(parent));
}

}  // namespace dynbcast

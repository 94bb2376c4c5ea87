#include "src/tree/rooted_tree.h"

#include <algorithm>
#include <sstream>

#include "src/support/assert.h"

namespace dynbcast {

RootedTree::RootedTree(std::size_t root, std::vector<std::size_t> parent)
    : root_(root), parent_(std::move(parent)) {
  const std::size_t n = parent_.size();
  DYNBCAST_ASSERT_MSG(n > 0, "tree must have at least one node");
  DYNBCAST_ASSERT_MSG(root_ < n, "root out of range");
  DYNBCAST_ASSERT_MSG(parent_[root_] == root_,
                      "parent[root] must equal root");
  children_.assign(n, {});
  for (std::size_t v = 0; v < n; ++v) {
    DYNBCAST_ASSERT_MSG(parent_[v] < n, "parent out of range");
    if (v != root_) {
      DYNBCAST_ASSERT_MSG(parent_[v] != v, "non-root node with self parent");
      children_[parent_[v]].push_back(v);
    }
  }
  // BFS from the root assigns depths and simultaneously proves acyclicity:
  // all n nodes must be discovered.
  depth_.assign(n, 0);
  std::vector<std::size_t> queue{root_};
  queue.reserve(n);
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::size_t v = queue[qi];
    for (const std::size_t c : children_[v]) {
      depth_[c] = depth_[v] + 1;
      height_ = std::max(height_, depth_[c]);
      queue.push_back(c);
    }
  }
  DYNBCAST_ASSERT_MSG(queue.size() == n,
                      "parent links contain a cycle or unreachable node");
  for (std::size_t v = 0; v < n; ++v) {
    if (children_[v].empty()) ++leafCount_;
  }
}

RootedTree RootedTree::trivial() { return RootedTree(0, {0}); }

std::vector<std::size_t> RootedTree::leaves() const {
  std::vector<std::size_t> out;
  out.reserve(leafCount_);
  for (std::size_t v = 0; v < size(); ++v) {
    if (children_[v].empty()) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> RootedTree::bfsOrder() const {
  std::vector<std::size_t> queue;
  bfsOrderInto(queue);
  return queue;
}

void RootedTree::bfsOrderInto(std::vector<std::size_t>& out) const {
  out.clear();
  out.reserve(size());
  out.push_back(root_);
  for (std::size_t qi = 0; qi < out.size(); ++qi) {
    for (const std::size_t c : children_[out[qi]]) out.push_back(c);
  }
}

BitMatrix RootedTree::toMatrix() const {
  BitMatrix m(size());
  for (std::size_t v = 0; v < size(); ++v) {
    m.set(v, v);  // self-loop: processes remember what they know
    if (v != root_) m.set(parent_[v], v);
  }
  return m;
}

std::string RootedTree::toString() const {
  std::ostringstream os;
  os << "root=" << root_ << " parents=[";
  for (std::size_t v = 0; v < size(); ++v) {
    if (v != 0) os << ',';
    os << parent_[v];
  }
  os << ']';
  return os.str();
}

}  // namespace dynbcast

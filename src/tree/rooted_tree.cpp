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
  // Counting pass: childStart_[p + 1] counts p's children, then a prefix
  // sum turns counts into offsets and a fill in ascending v lists each
  // node's children in ascending order.
  childStart_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    DYNBCAST_ASSERT_MSG(parent_[v] < n, "parent out of range");
    if (v != root_) {
      DYNBCAST_ASSERT_MSG(parent_[v] != v, "non-root node with self parent");
      ++childStart_[parent_[v] + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    childStart_[v + 1] += childStart_[v];
    if (childStart_[v + 1] == childStart_[v]) ++leafCount_;
  }
  // depth_ doubles as the per-parent fill cursor until the BFS below.
  childList_.resize(n - 1);
  depth_.assign(childStart_.begin(), childStart_.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    if (v != root_) childList_[depth_[parent_[v]]++] = v;
  }
  // BFS from the root assigns depths and simultaneously proves acyclicity:
  // all n nodes must be discovered.
  depth_[root_] = 0;
  std::vector<std::size_t> queue;
  bfsOrderInto(queue);
  for (std::size_t qi = 1; qi < queue.size(); ++qi) {
    const std::size_t c = queue[qi];
    depth_[c] = depth_[parent_[c]] + 1;
    height_ = std::max(height_, depth_[c]);
  }
  DYNBCAST_ASSERT_MSG(queue.size() == n,
                      "parent links contain a cycle or unreachable node");
}

RootedTree RootedTree::trivial() { return RootedTree(0, {0}); }

std::vector<std::size_t> RootedTree::leaves() const {
  std::vector<std::size_t> out;
  out.reserve(leafCount_);
  for (std::size_t v = 0; v < size(); ++v) {
    if (childrenOf(v).empty()) out.push_back(v);
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
    for (const std::size_t c : childrenOf(out[qi])) out.push_back(c);
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

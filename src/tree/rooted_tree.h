// RootedTree: the adversary's move in the broadcast game (paper §2).
//
// A rooted tree on [n] with edges directed parent → child (away from the
// root), plus an implicit self-loop at every node when converted to a
// communication graph. With that orientation, in round t node y receives
// from exactly {parent_t(y), y}, which yields the heard-of recurrence
//   Heard_t(y) = Heard_{t−1}(y) ∪ Heard_{t−1}(parent_t(y)).
//
// Representation: a parent array with parent[root] == root, plus the
// children adjacency in compressed (CSR) form, precomputed at construction
// since simulators and generators both traverse downward: the children of
// v are childList_[childStart_[v] .. childStart_[v + 1]), ascending. A
// tree is four flat arrays whatever its shape, with no per-node
// allocation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/graph/bitmatrix.h"

namespace dynbcast {

class RootedTree {
 public:
  /// Builds a tree from a parent array; parent[root] must equal root and
  /// the parent links must be acyclic. Throws AssertionError otherwise.
  RootedTree(std::size_t root, std::vector<std::size_t> parent);

  /// The unique tree on one node.
  [[nodiscard]] static RootedTree trivial();

  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }
  [[nodiscard]] std::size_t root() const noexcept { return root_; }

  /// Parent of v; parent(root()) == root().
  [[nodiscard]] std::size_t parent(std::size_t v) const noexcept {
    return parent_[v];
  }

  [[nodiscard]] const std::vector<std::size_t>& parents() const noexcept {
    return parent_;
  }

  /// Children of v, ascending.
  [[nodiscard]] std::span<const std::size_t> childrenOf(
      std::size_t v) const noexcept {
    return {childList_.data() + childStart_[v],
            childList_.data() + childStart_[v + 1]};
  }

  /// Depth of node v (root has depth 0).
  [[nodiscard]] std::size_t depthOf(std::size_t v) const noexcept {
    return depth_[v];
  }

  /// Height of the tree: max node depth. Equals the broadcast time of the
  /// static adversary that repeats this tree forever.
  [[nodiscard]] std::size_t height() const noexcept { return height_; }

  /// Nodes without children, ascending. (For n == 1 the root is a leaf.)
  [[nodiscard]] std::vector<std::size_t> leaves() const;

  [[nodiscard]] std::size_t leafCount() const noexcept { return leafCount_; }

  /// Nodes with at least one child.
  [[nodiscard]] std::size_t innerCount() const noexcept {
    return size() - leafCount_;
  }

  /// Nodes in BFS order from the root (root first).
  [[nodiscard]] std::vector<std::size_t> bfsOrder() const;

  /// bfsOrder written into a caller-owned buffer, reusing its capacity —
  /// the simulator calls this every round and must not allocate on the
  /// hot path.
  void bfsOrderInto(std::vector<std::size_t>& out) const;

  /// Communication graph: tree edges + one self-loop per node. This is the
  /// G_t the adversary submits (a member of T_n).
  [[nodiscard]] BitMatrix toMatrix() const;

  /// "root=r parents=[…]" rendering for logs and test failures.
  [[nodiscard]] std::string toString() const;

  friend bool operator==(const RootedTree& a, const RootedTree& b) noexcept {
    return a.root_ == b.root_ && a.parent_ == b.parent_;
  }

 private:
  std::size_t root_ = 0;
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> childStart_;  ///< n + 1 offsets into childList_
  std::vector<std::size_t> childList_;   ///< n − 1 child ids, by parent
  std::vector<std::size_t> depth_;
  std::size_t height_ = 0;
  std::size_t leafCount_ = 0;
};

}  // namespace dynbcast

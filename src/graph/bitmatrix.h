// BitMatrix: a square boolean matrix with DynBitset rows.
//
// This is the paper's central object. Interpreted as a directed graph on
// [n], entry (x, y) == 1 means "x has an edge to y" — equivalently, after
// t rounds of composition, "y has heard of x by round t".
//
// The product (Definition 2.1 of the paper) is boolean matrix
// multiplication: (A ∘ B)(x, y) = 1 iff ∃z: A(x, z) ∧ B(z, y). BitMatrix
// has no general product: the library only ever multiplies the running
// product by one more round's graph, which BroadcastSim does in place —
// O(n²/64) words when that graph is a rooted tree (each node has in-degree
// ≤ 2 counting the self-loop). BroadcastSim::reachMatrix() returns the
// product as a BitMatrix.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/support/bitset.h"

namespace dynbcast {

class BitMatrix {
 public:
  /// Zero matrix of dimension 0.
  BitMatrix() = default;

  /// n×n zero matrix.
  explicit BitMatrix(std::size_t n);

  /// n×n identity (the product's neutral element; also G(0)).
  [[nodiscard]] static BitMatrix identity(std::size_t n);

  [[nodiscard]] std::size_t dim() const noexcept { return n_; }

  [[nodiscard]] bool get(std::size_t x, std::size_t y) const noexcept {
    return rows_[x].test(y);
  }
  void set(std::size_t x, std::size_t y) noexcept { rows_[x].set(y); }
  void reset(std::size_t x, std::size_t y) noexcept { rows_[x].reset(y); }

  /// Row x as a bitset: the out-neighborhood of x (who x reaches).
  [[nodiscard]] const DynBitset& row(std::size_t x) const noexcept {
    return rows_[x];
  }
  [[nodiscard]] DynBitset& row(std::size_t x) noexcept { return rows_[x]; }

  /// The transpose, built from 64×64 bit blocks: O(n²/64) word
  /// operations, all-zero blocks skipped.
  [[nodiscard]] BitMatrix transposed() const;

  /// Total number of 1 entries.
  [[nodiscard]] std::size_t countOnes() const noexcept;

  /// True when every diagonal entry is 1 (all self-loops present).
  [[nodiscard]] bool isReflexive() const noexcept;

  /// Rows x with row(x).all(): processes that have reached everyone.
  [[nodiscard]] std::vector<std::size_t> completeRows() const;

  /// The broadcasters of a product graph: nodes x whose row is full,
  /// i.e. x has an edge to every node, so everyone has heard of x. The
  /// same rows as completeRows().
  [[nodiscard]] std::vector<std::size_t> broadcasters() const;

  friend bool operator==(const BitMatrix& a, const BitMatrix& b) noexcept {
    return a.n_ == b.n_ && a.rows_ == b.rows_;
  }

  /// Multi-line "0/1" rendering, row per line.
  [[nodiscard]] std::string toString() const;

 private:
  std::size_t n_ = 0;
  std::vector<DynBitset> rows_;
};

std::ostream& operator<<(std::ostream& os, const BitMatrix& m);

}  // namespace dynbcast

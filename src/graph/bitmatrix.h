// BitMatrix: a square boolean matrix with DynBitset rows.
//
// This is the paper's central object. Interpreted as a directed graph on
// [n], entry (x, y) == 1 means "x has an edge to y" — equivalently, after
// t rounds of composition, "y has heard of x by round t".
//
// The product (Definition 2.1 of the paper) is boolean matrix
// multiplication: (A ∘ B)(x, y) = 1 iff ∃z: A(x, z) ∧ B(z, y). Using
// row-bitset representation the product costs O(n^2 · n/64) in general and
// O(n^2/64) when B is a rooted tree (each node has in-degree ≤ 2 counting
// the self-loop), which is what the simulator exploits.
#pragma once

#include <cstdint>
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

  /// n×n all-ones matrix (the absorbing state of gossip).
  [[nodiscard]] static BitMatrix full(std::size_t n);

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

  /// Column y materialized as a bitset: the in-neighborhood of y.
  [[nodiscard]] DynBitset column(std::size_t y) const;

  /// Boolean matrix product: this ∘ other (Definition 2.1). Dispatches to
  /// the blocked kernel below; the result is identical to the textbook
  /// row-gather loop.
  [[nodiscard]] BitMatrix product(const BitMatrix& other) const;

  /// Cache-blocked boolean product: `other`'s rows are consumed in blocks
  /// of 64 (one left-operand word per row), so each block stays hot in
  /// cache while all n output rows accumulate into it — the word-level
  /// analogue of tiling a dense matmul. Same result as product().
  [[nodiscard]] BitMatrix productBlocked(const BitMatrix& other) const;

  /// In-place union of entries.
  void orWith(const BitMatrix& other);

  /// The transpose, built from 64×64 bit blocks: O(n²/64) word
  /// operations, all-zero blocks skipped.
  [[nodiscard]] BitMatrix transposed() const;

  /// Total number of 1 entries.
  [[nodiscard]] std::size_t countOnes() const noexcept;

  /// True when every diagonal entry is 1 (all self-loops present).
  [[nodiscard]] bool isReflexive() const noexcept;

  /// True when every entry is 1.
  [[nodiscard]] bool isFull() const noexcept;

  /// Rows x with row(x).all(): processes that have reached everyone.
  [[nodiscard]] std::vector<std::size_t> completeRows() const;

  /// Set of x contained in every row? No — the broadcast test: nodes x
  /// such that column(x) is full, i.e. everyone has heard of x.
  [[nodiscard]] std::vector<std::size_t> broadcasters() const;

  /// True when some node has an out-edge to every node (broadcast done).
  [[nodiscard]] bool hasBroadcaster() const noexcept;

  friend bool operator==(const BitMatrix& a, const BitMatrix& b) noexcept {
    return a.n_ == b.n_ && a.rows_ == b.rows_;
  }

  /// 64-bit content hash (for memoized game search).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// Multi-line "0/1" rendering, row per line.
  [[nodiscard]] std::string toString() const;

 private:
  std::size_t n_ = 0;
  std::vector<DynBitset> rows_;
};

std::ostream& operator<<(std::ostream& os, const BitMatrix& m);

}  // namespace dynbcast

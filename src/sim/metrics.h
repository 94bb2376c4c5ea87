// Per-round measurements of the evolving heard-of state.
//
// These are the quantities the paper's matrix-evolution analysis reasons
// about: how many (x, y) pairs are connected in G(t), how close the
// best-known process is to full coverage, and how many rows/columns of
// the adjacency matrix are already complete.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/bitmatrix.h"

namespace dynbcast {

struct RoundMetrics {
  std::size_t round = 0;
  /// Total ones in G(t): |{(x, y) : y has heard of x}|. Grows by ≥ 1 per
  /// round until broadcast (the paper's trivial n² argument).
  std::size_t totalEdges = 0;
  /// min/avg/max over y of |Heard(y)|.
  std::size_t minHeard = 0;
  double avgHeard = 0.0;
  std::size_t maxHeard = 0;
  /// max over x of |{y : x ∈ Heard(y)}| — the best broadcaster's coverage.
  std::size_t maxCoverage = 0;
  /// Rows of G(t) that are already full (processes that reached everyone).
  std::size_t completeRows = 0;
  /// Columns of G(t) that are full (processes that heard from everyone).
  std::size_t completeCols = 0;

  [[nodiscard]] std::string toString() const;
  bool operator==(const RoundMetrics&) const = default;
};

/// Computes metrics from the reach matrix (row x = who x has reached).
[[nodiscard]] RoundMetrics computeMetrics(const BitMatrix& reach,
                                          std::size_t round);

}  // namespace dynbcast

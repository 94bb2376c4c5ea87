// Closed forms of every bound that appears in the paper (Figure 1 and
// Theorem 3.1), plus the related-work bounds the paper positions itself
// against (§4).
//
// Exact formulas are returned as integers. Asymptotic entries (Figure 1
// lists growth rates without constants) are returned as doubles with the
// constant conventions documented per function; benches print both the
// paper's stated form and our evaluated curve.
#pragma once

#include <cstdint>

namespace dynbcast::bounds {

/// Trivial upper bound t* ≤ n² (≥ 1 new product edge per round, §2).
[[nodiscard]] std::uint64_t trivialUpper(std::size_t n);

/// The n·log n upper bound implied by Charron-Bost & Schiper [2] +
/// Charron-Bost, Függer & Nowak [1]: broadcast on nonsplit graphs within
/// ⌈log₂ n⌉ rounds, times n−1 tree rounds per nonsplit round.
/// Evaluated as (n−1)·⌈log₂ n⌉.
[[nodiscard]] std::uint64_t nLogNUpper(std::size_t n);

/// Függer, Nowak & Winkler [9]: 2n·log log n + O(n). Evaluated as
/// 2n·log₂ log₂ n + 2n (documented choice for the O(n) term; the paper
/// states the bound only asymptotically). Returns 2n for n < 4 where
/// log log is degenerate.
[[nodiscard]] double nLogLogUpper(std::size_t n);

/// THE PAPER'S NEW BOUND (Theorem 3.1): t*(T_n) ≤ ⌈(1+√2)·n − 1⌉.
[[nodiscard]] std::uint64_t linearUpper(std::size_t n);

/// Lower bound of Zeiner, Schwarz & Schmid [14]: t*(T_n) ≥ ⌈(3n−1)/2⌉ − 2.
[[nodiscard]] std::uint64_t lowerBound(std::size_t n);

/// [14]: adversaries restricted to trees with k leaves are O(kn);
/// evaluated with constant 1 (k·n).
[[nodiscard]] std::uint64_t kLeafUpper(std::size_t n, std::size_t k);

/// [14]: adversaries restricted to trees with k inner nodes are O(kn);
/// evaluated with constant 1 (k·n).
[[nodiscard]] std::uint64_t kInnerUpper(std::size_t n, std::size_t k);

/// [2]: nonsplit-graph adversaries broadcast within ⌈log₂ n⌉ rounds.
[[nodiscard]] std::uint64_t nonsplitLogUpper(std::size_t n);

/// ⌈log₂ n⌉ helper shared by the formulas above.
[[nodiscard]] std::uint64_t ceilLog2(std::uint64_t n);

}  // namespace dynbcast::bounds

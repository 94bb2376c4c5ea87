#include "src/bounds/bounds.h"

#include <cmath>

#include "src/support/assert.h"

namespace dynbcast::bounds {

std::uint64_t trivialUpper(std::size_t n) {
  return static_cast<std::uint64_t>(n) * n;
}

std::uint64_t ceilLog2(std::uint64_t n) {
  DYNBCAST_ASSERT(n > 0);
  std::uint64_t bits = 0;
  std::uint64_t v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

std::uint64_t nLogNUpper(std::size_t n) {
  if (n <= 1) return 0;
  return (static_cast<std::uint64_t>(n) - 1) * ceilLog2(n);
}

double nLogLogUpper(std::size_t n) {
  const auto nd = static_cast<double>(n);
  if (n < 4) return 2.0 * nd;
  const double loglog = std::log2(std::log2(nd));
  return 2.0 * nd * loglog + 2.0 * nd;
}

std::uint64_t linearUpper(std::size_t n) {
  const double v = (1.0 + std::sqrt(2.0)) * static_cast<double>(n) - 1.0;
  return static_cast<std::uint64_t>(std::ceil(v - 1e-9));
}

std::uint64_t lowerBound(std::size_t n) {
  // ⌈(3n−1)/2⌉ − 2, floored at 0 for degenerate n.
  const std::uint64_t ceilHalf = (3 * static_cast<std::uint64_t>(n) - 1 + 1) / 2;
  return ceilHalf >= 2 ? ceilHalf - 2 : 0;
}

std::uint64_t kLeafUpper(std::size_t n, std::size_t k) {
  return static_cast<std::uint64_t>(k) * n;
}

std::uint64_t kInnerUpper(std::size_t n, std::size_t k) {
  return static_cast<std::uint64_t>(k) * n;
}

std::uint64_t nonsplitLogUpper(std::size_t n) { return ceilLog2(n); }

}  // namespace dynbcast::bounds

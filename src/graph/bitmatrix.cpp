#include "src/graph/bitmatrix.h"

#include <algorithm>
#include <ostream>

namespace dynbcast {

BitMatrix::BitMatrix(std::size_t n) : n_(n), rows_(n, DynBitset(n)) {}

BitMatrix BitMatrix::identity(std::size_t n) {
  BitMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i);
  return m;
}

namespace {

/// Transposes a 64×64 bit block in place, bit c of a[r] ↔ bit r of a[c]:
/// log₂ 64 rounds, each swapping the off-diagonal j×j sub-blocks of every
/// 2j×2j block with one masked shift-xor per row pair.
void transposeBlock(std::uint64_t (&a)[64]) noexcept {
  std::uint64_t m = 0x00000000ffffffffull;  // low j bits of every 2j
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; ++k) {
      if ((k & j) != 0) continue;
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k | j] ^= t;
      a[k] ^= t << j;
    }
  }
}

}  // namespace

BitMatrix BitMatrix::transposed() const {
  // 64×64 blocks: gather one word from each of 64 rows, transpose the
  // block in place, scatter it as one word of 64 output rows. All-zero
  // blocks (most of a tree's) are skipped.
  BitMatrix out(n_);
  constexpr std::size_t kB = DynBitset::kBits;
  const std::size_t nwords = (n_ + kB - 1) / kB;
  std::uint64_t block[kB] = {};
  for (std::size_t bx = 0; bx < nwords; ++bx) {
    const std::size_t x0 = bx * kB;
    const std::size_t xs = std::min(kB, n_ - x0);
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t any = 0;
      for (std::size_t r = 0; r < kB; ++r) {
        block[r] = r < xs ? rows_[x0 + r].wordData()[w] : 0;
        any |= block[r];
      }
      if (any == 0) continue;
      transposeBlock(block);
      const std::size_t y0 = w * kB;
      const std::size_t ys = std::min(kB, n_ - y0);
      for (std::size_t c = 0; c < ys; ++c) {
        out.rows_[y0 + c].wordData()[bx] = block[c];
      }
    }
  }
  return out;
}

std::size_t BitMatrix::countOnes() const noexcept {
  std::size_t c = 0;
  for (const auto& r : rows_) c += r.count();
  return c;
}

bool BitMatrix::isReflexive() const noexcept {
  for (std::size_t i = 0; i < n_; ++i) {
    if (!rows_[i].test(i)) return false;
  }
  return true;
}

std::string BitMatrix::toString() const {
  std::string s;
  s.reserve(n_ * (n_ + 1));
  for (const auto& r : rows_) {
    s += r.toString();
    s.push_back('\n');
  }
  return s;
}

std::ostream& operator<<(std::ostream& os, const BitMatrix& m) {
  return os << m.toString();
}

}  // namespace dynbcast

// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#include "src/support/bitset.h"

#include <bit>
#include <ostream>

namespace dynbcast {

void DynBitset::setAll() noexcept {
  for (auto& w : words_) w = ~static_cast<std::uint64_t>(0);
  const std::size_t tail = size_ % kBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (kOne << tail) - 1;
  }
}

std::size_t DynBitset::count() const noexcept {
  std::size_t c = 0;
  for (const auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

bool DynBitset::any() const noexcept {
  for (const auto w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool DynBitset::all() const noexcept {
  if (size_ == 0) return true;
  const std::size_t full = size_ / kBits;
  for (std::size_t i = 0; i < full; ++i) {
    if (words_[i] != ~static_cast<std::uint64_t>(0)) return false;
  }
  const std::size_t tail = size_ % kBits;
  if (tail != 0) {
    const std::uint64_t mask = (kOne << tail) - 1;
    if ((words_.back() & mask) != mask) return false;
  }
  return true;
}

void DynBitset::orWith(const DynBitset& other) noexcept {
  bitword::orAssign(words_.data(), other.words_.data(), words_.size());
}

std::size_t DynBitset::findNextClear(std::size_t from) const noexcept {
  // The zero tail bits past size read as clear, so the result is clamped
  // to size.
  if (from >= size_) return size_;
  std::size_t wi = from / kBits;
  std::uint64_t w = ~words_[wi] >> (from % kBits);
  if (w != 0) {
    const std::size_t r = from + static_cast<std::size_t>(std::countr_zero(w));
    return r < size_ ? r : size_;
  }
  for (++wi; wi < words_.size(); ++wi) {
    w = ~words_[wi];
    if (w != 0) {
      const std::size_t r =
          wi * kBits + static_cast<std::size_t>(std::countr_zero(w));
      return r < size_ ? r : size_;
    }
  }
  return size_;
}

std::string DynBitset::toString() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    s.push_back(test(i) ? '1' : '0');
  }
  return s;
}

std::uint64_t DynBitset::hash() const noexcept {
  // FNV-1a over words, then a final splitmix-style avalanche.
  std::uint64_t h = 14695981039346656037ull;
  for (const auto w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  h ^= size_;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

std::ostream& operator<<(std::ostream& os, const DynBitset& bs) {
  return os << bs.toString();
}

}  // namespace dynbcast

#include "src/support/rng.h"

#include <bit>

namespace dynbcast {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro256** must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  DYNBCAST_ASSERT(bound > 0);
  // Lemire's nearly-divisionless bounded generation with rejection: a
  // draw is rejected when the low word of x·bound is below 2^64 mod bound.
  // That threshold is below bound, so it is computed (one division) only
  // when the low word is; every other draw is accepted at once.
  auto m = static_cast<unsigned __int128>((*this)()) * bound;
  if (static_cast<std::uint64_t>(m) < bound) {
    const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<unsigned __int128>((*this)()) * bound;
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  DYNBCAST_ASSERT(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniformReal() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniformReal() < p;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

Rng Rng::split() noexcept { return Rng((*this)()); }

}  // namespace dynbcast

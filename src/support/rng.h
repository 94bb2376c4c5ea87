// Deterministic random number generation.
//
// All randomness in the library flows through an explicitly seeded Rng
// (xoshiro256** seeded via splitmix64). No global RNG state exists, so
// every simulation, adversary, and bench is reproducible from its seed.
#pragma once

#include <cstdint>
#include <vector>

#include "src/support/assert.h"

namespace dynbcast {

/// splitmix64 step; used for seeding and as a standalone mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator, so it
/// can also drive <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniformReal() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept;

  /// A uniformly random permutation of {0, …, n−1}.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Fisher–Yates shuffle of an existing vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator (for parallel components).
  [[nodiscard]] Rng split() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace dynbcast

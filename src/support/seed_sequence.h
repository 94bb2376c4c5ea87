// Position-based seed derivation for parallel experiments.
//
// A SeedSequence turns one master seed into an unbounded family of
// statistically independent child seeds, indexed by *position*. Because
// derivation is a pure function of (master, index) — never of call order
// or thread schedule — a sweep sharded across any number of workers
// assigns every task the same seed it would get in a serial run, which is
// what makes engine results bit-identical at any --jobs value.
//
// Contrast with Rng::split(), which advances the parent generator and is
// therefore order-sensitive: fine inside one task, wrong across tasks.
#pragma once

#include <cstdint>

#include "src/support/rng.h"

namespace dynbcast {

class SeedSequence {
 public:
  explicit SeedSequence(std::uint64_t master) noexcept : master_(master) {}

  [[nodiscard]] std::uint64_t master() const noexcept { return master_; }

  /// The child seed at `index`. Pure and stateless: at(i) is the same
  /// value no matter when, where, or how often it is called.
  [[nodiscard]] std::uint64_t at(std::uint64_t index) const noexcept;

 private:
  std::uint64_t master_;
};

}  // namespace dynbcast

// Shared driver for the bench binaries.
//
// Every sweep bench speaks the same CLI dialect — --sizes, --seed,
// --jobs, --csv — and fans its work out through one ExperimentEngine.
// This driver owns that common surface so each bench's main() shrinks to:
// declare defaults, describe the work, format the table. Flags:
//
//   --sizes=LO:HI:STEP | a,b,c   sweep sizes (step is multiplicative)
//   --seed=S                     master seed; per-task seeds are derived
//                                from it by position (SeedSequence), so
//                                output is identical at any --jobs value
//   --seeds=R                    independent seed replicates per size
//                                (sweep benches; default 1)
//   --jobs=J                     worker threads; 0 (default) = all cores
//   --csv=PATH                   also write the main table as CSV
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/experiment_engine.h"
#include "src/support/options.h"
#include "src/support/table.h"

namespace dynbcast {

class BenchDriver {
 public:
  /// Parses argv with the given per-bench defaults. Throws
  /// std::invalid_argument on malformed input (same as Options).
  BenchDriver(int argc, const char* const* argv,
              const std::string& defaultSizes, std::uint64_t defaultSeed = 1);

  /// Bench-specific extras (--beam-width etc.) stay available.
  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  [[nodiscard]] const std::vector<std::size_t>& sizes() const noexcept {
    return sizes_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Seed replicates per size (--seeds, default 1).
  [[nodiscard]] std::size_t seedsPerSize() const noexcept {
    return seedsPerSize_;
  }

  /// Resolved worker count (the --jobs=0 default maps to all cores).
  [[nodiscard]] std::size_t jobs() const noexcept {
    return engine_.jobCount();
  }

  /// The engine all of this bench's work runs through.
  [[nodiscard]] ExperimentEngine& engine() noexcept { return engine_; }

  /// One-line run banner: "<title> (seed=S, jobs=J)\n\n".
  void printHeader(const std::string& title) const;

  /// Prints the table; also writes it to --csv when the flag is present.
  void emit(const TextTable& table) const;

 private:
  Options opts_;
  std::vector<std::size_t> sizes_;
  std::uint64_t seed_;
  std::size_t seedsPerSize_;
  ExperimentEngine engine_;
};

}  // namespace dynbcast

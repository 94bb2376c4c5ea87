// The scale unlock the sparse backend exists for: an edge-markovian run
// at n = 2·10⁵ — whose dense heard-of matrix alone would be 5 GB — must
// complete through the t*-only frontier mode inside a 1 GB peak-RSS
// budget. (The n = 10⁶ sweep lives in CI as a CLI smoke step; this test
// keeps the property tier-1 at a size every dev machine can afford.)
#include <gtest/gtest.h>

#include <string>

#include "src/dynamics/registry.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

// Sanitizer shadow memory and redzones inflate RSS severalfold; the
// 1 GB bound is only meaningful for the uninstrumented binary.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DYNBCAST_SANITIZER_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DYNBCAST_SANITIZER_ACTIVE 1
#endif
#endif

namespace dynbcast {
namespace {

/// Peak RSS in bytes, or 0 where getrusage is unavailable.
[[nodiscard]] [[maybe_unused]] std::size_t peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

TEST(FrontierScaleTest, EdgeMarkovianTStarAtTwoHundredThousandNodes) {
  const std::size_t n = 200000;
  // Stationary edge density p/(p+q) ≈ 7.5e-5: mean degree ≈ 15, so
  // broadcast completes in a handful of rounds while the graph stays
  // far too large to ever materialize densely.
  const std::string spec = "edge-markovian:p=0.0000375,q=0.5";
  const auto model = DynamicsRegistry::instance().make(spec, n, 2024);
  ASSERT_TRUE(model->supportsSparseRounds());

  const BroadcastRun run =
      runFrontierDynamicsBroadcast(n, *model, /*maxRounds=*/60, /*seed=*/2024);
  EXPECT_TRUE(run.completed);
  EXPECT_GE(run.rounds, 2u);
  EXPECT_LT(run.rounds, 60u);

  // The run must replay: same model, same answer.
  const BroadcastRun again = runFrontierDynamicsBroadcast(n, *model, 60, 2024);
  EXPECT_EQ(run.rounds, again.rounds);
  EXPECT_EQ(run.completed, again.completed);

#if !defined(DYNBCAST_SANITIZER_ACTIVE)
  const std::size_t peak = peakRssBytes();
  if (peak != 0) {
    // The dense matrix alone would be n²/8 = 5 GB; the sparse run must
    // stay far below it. 1 GB leaves generous room for the round cache.
    EXPECT_LT(peak, std::size_t(1) << 30)
        << "peak RSS " << (peak >> 20) << " MiB";
  }
#endif
}

}  // namespace
}  // namespace dynbcast

// Trajectory pins for the adaptive adversaries and witness lines.
//
// The golden CSVs pin only aggregates (the portfolio maximum, the beam's
// round count), so a change to one candidate pool can alter the trees an
// adversary plays without moving any golden. This suite pins the trees
// themselves: every adversary below plays a BroadcastSim until broadcast
// at n ∈ {2, 3, 9, 17, 33, 70} under two seeds, and every parent array
// it plays is folded into one 64-bit digest per spec.
//
// On its own trajectory a one-round-greedy delayer often settles on the
// static path, which would leave most of its pool unpinned. So each
// adaptive spec is also played off its trajectory: every other round the
// sim takes a seeded random tree instead, and the adversary must answer
// states it did not steer towards.
//
// The digests must not depend on the SIMD tier: CI also runs this suite
// with DYNBCAST_FORCE_SCALAR=1. A digest changes only when some
// adversary plays a different tree; record the new value here and say
// why in the commit.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/adversary/registry.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {
namespace {

constexpr std::size_t kSizes[] = {2, 3, 9, 17, 33, 70};
constexpr std::uint64_t kSeeds[] = {1, 0x5eed2024ull};

/// FNV-1a over 64-bit words: local to the test so the pins do not move
/// when a production hash does.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;

  void fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xffu;
      value *= 0x100000001b3ull;
    }
  }

  void fold(const RootedTree& tree) {
    fold(tree.size());
    for (std::size_t y = 0; y < tree.size(); ++y) fold(tree.parent(y));
  }
};

std::string hex(std::uint64_t value) {
  char text[32];
  std::snprintf(text, sizeof text, "0x%016llxull",
                static_cast<unsigned long long>(value));
  return text;
}

/// Plays `spec` at every size and seed until broadcast, folding the
/// size, seed, each tree the adversary plays and the round count. With
/// `perturbed`, odd rounds apply a seeded random tree instead of asking
/// the adversary.
std::uint64_t trajectoryDigest(const std::string& spec, bool perturbed) {
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  Digest digest;
  for (const std::size_t n : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      const std::unique_ptr<Adversary> adversary =
          registry.make(spec, n, seed);
      Rng noise(seed ^ 0x7a11ull);
      BroadcastSim sim(n);
      digest.fold(n);
      digest.fold(seed);
      while (!sim.broadcastDone()) {
        if (sim.round() > n * n) {
          ADD_FAILURE() << spec << " n=" << n << " never finished";
          return 0;
        }
        if (perturbed && sim.round() % 2 == 1) {
          sim.applyTree(randomRootedTree(n, noise));
          continue;
        }
        const RootedTree tree = adversary->nextTree(sim);
        digest.fold(tree);
        sim.applyTree(tree);
      }
      digest.fold(sim.round());
    }
  }
  return digest.value;
}

struct Pin {
  const char* spec;
  std::uint64_t plain;
  /// 0: not played off its trajectory (the beam and the two-phase
  /// construction play fixed lines).
  std::uint64_t perturbed;
};

void PrintTo(const Pin& pin, std::ostream* os) { *os << pin.spec; }

constexpr Pin kPins[] = {
    {"freeze-path:depth=1", 0x540479d6ec0e0649ull, 0x518d27120156d6abull},
    {"freeze-path:depth=3", 0x53b9de4182ea0a01ull, 0x4ec7d07e6cc3b2faull},
    {"freeze-broom", 0x5e97c655e02a3f0dull, 0xf3707540264c0ad9ull},
    {"heard-asc-path", 0x96080d60e3d6f5ddull, 0xc69ca54e503a8ebdull},
    {"heard-desc-path", 0xcb50329e26d8794dull, 0x64bdd09af8793fd5ull},
    {"greedy-delay", 0x96080d60e3d6f5ddull, 0x0daa587175775d9aull},
    {"greedy-delay:damage-roots=5", 0x96080d60e3d6f5ddull,
     0xd204d65f982d8ad6ull},
    {"greedy-delay:damage-roots=0,freeze-max=0,rand-paths=0,rand-trees=0",
     0x96080d60e3d6f5ddull, 0x387fd8c660bb8baaull},
    {"local-search", 0xfe8aba01e0623135ull, 0x03abe605648d2a8cull},
    {"local-search:freeze-depth=3,rev-p=1", 0x1aa43e751dfe7b63ull,
     0x7e9b4de0c6e25d56ull},
    {"lookahead:depth=1", 0x96080d60e3d6f5ddull, 0x2623e63060e185aeull},
    {"lookahead:depth=2", 0x96080d60e3d6f5ddull, 0x8e930de7edce63fbull},
    {"lookahead:depth=3", 0x96080d60e3d6f5ddull, 0x718a77d4b0fad4f8ull},
    {"beam:width=8", 0x1a7f993a94d0ed3cull, 0},
    {"beam:noise=0,width=8", 0x96602efc223147c5ull, 0},
    {"two-phase", 0xcd4883c7753838d9ull, 0},
};

class AdversaryTrajectoryTest : public ::testing::TestWithParam<Pin> {};

TEST_P(AdversaryTrajectoryTest, PlaysThePinnedTrees) {
  const Pin& pin = GetParam();
  const std::uint64_t plain = trajectoryDigest(pin.spec, false);
  EXPECT_EQ(plain, pin.plain) << pin.spec << " now digests to " << hex(plain);
  if (pin.perturbed == 0) return;
  const std::uint64_t perturbed = trajectoryDigest(pin.spec, true);
  EXPECT_EQ(perturbed, pin.perturbed)
      << pin.spec << " off its trajectory now digests to " << hex(perturbed);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, AdversaryTrajectoryTest, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& param) {
      std::string name;
      for (const char* c = param.param.spec; *c != '\0'; ++c) {
        name += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace dynbcast

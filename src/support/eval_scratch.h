// EvalScratch: reusable buffers for candidate-tree evaluation.
//
// Search adversaries (beam, greedy-delay, lookahead, local search)
// evaluate thousands of candidate trees per round, and every evaluation
// writes an n-row post-round heard matrix plus a coverage vector.
// Allocating those per candidate dominated the profile; an EvalScratch
// owns them across evaluations, so steady-state evaluation never touches
// the allocator (the rows are sized on first use at a given n and then
// overwritten word by word).
//
// Recursive searches (lookahead) keep one EvalScratch per depth level:
// level d's buffers must stay alive while level d+1 evaluates its own
// candidates into the next slot.
//
// The same arena holds the damage-greedy tree builder's buffers
// (DamageTrees, src/adversary/adaptive.h): they are bound to one heard
// state at a time and are separate from `heard`/`coverage`, so building
// a state's trees and evaluating candidates can interleave freely.
// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/support/bitset.h"

namespace dynbcast {

struct EvalScratch {
  /// Post-move heard matrix of the last evaluation: evaluateCandidate
  /// leaves the candidate's round-(t+1) state here, so callers that keep
  /// a successor (beam, lookahead) read it without re-applying the tree.
  std::vector<DynBitset> heard;

  /// Post-move coverage of the last evaluation.
  std::vector<std::size_t> coverage;

  /// Bit-sliced column counters of the fresh bits of the last
  /// evaluation (⌈n/64⌉ × bit_width(n) words).
  std::vector<std::uint64_t> columnPlanes;

  /// Parent array of the path evaluatePath scores (parent[order[i]] =
  /// order[i − 1], the first id its own parent), refilled per call.
  std::vector<std::size_t> pathParent;

  /// Damage-greedy tree buffers for an n-process state (nwords = ⌈n/64⌉).
  struct DamageBuffers {
    /// Transposed complement of the bound heard matrix, nwords × n
    /// words (layout: bitword::DamageRelax::unaware).
    std::vector<std::uint64_t> unaware;
    /// Coverage weights of the bound state, and one tree's noisy copy.
    std::vector<double> weight;
    std::vector<double> noisyWeight;
    /// Prim state of the tree being built: unattached y (nwords words),
    /// and best attachment cost/parent per y (nwords × 64, padded so a
    /// 64-lane block never reads past the end).
    std::vector<std::uint64_t> open;
    std::vector<double> cost;
    std::vector<std::size_t> parent;

    /// Sizes every buffer for n processes; a no-op once they fit.
    void resize(std::size_t n) {
      const std::size_t nwords = (n + 63) / 64;
      unaware.resize(nwords * n);
      weight.resize(n);
      noisyWeight.resize(n);
      open.resize(nwords);
      cost.resize(nwords * 64);
      parent.resize(nwords * 64);
    }
  };
  DamageBuffers damage;

  /// The one sanctioned constructor: a scratch pre-sized for n-process
  /// evaluation, so even the FIRST evaluateCandidate call at this n is
  /// allocation-free. Every search adversary builds its scratch here.
  [[nodiscard]] static EvalScratch forProcessCount(std::size_t n) {
    EvalScratch scratch;
    scratch.heard.assign(n, DynBitset(n));
    scratch.coverage.assign(n, 0);
    scratch.pathParent.reserve(n);
    scratch.columnPlanes.reserve(((n + 63) / 64) * std::bit_width(n));
    scratch.damage.resize(n);
    return scratch;
  }
};

}  // namespace dynbcast

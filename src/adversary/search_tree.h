// Shared search-tree core for the witness searches.
//
// Two pieces the beam, lookahead, and exact layers all need:
//
//   SearchTreeArena — a preallocated, fixed-capacity node pool holding
//   the explored game tree. A node stores the producing move, its parent
//   index, its depth, and a refcount; freed slots are recycled through a
//   free list. Lineages share prefixes structurally: a frontier of B
//   states at depth d retains only the ancestor closure of the B live
//   leaves instead of every pruned state of every level (the per-level
//   vector-of-vectors history the beam used to keep). Releasing a leaf
//   cascades up the parent chain, so dead branches are reclaimed the
//   moment their last descendant dies.
//
//   TranspositionTable — an open-addressed hash-to-payload map in the
//   two-array cost+hash style: one flat array of 64-bit digests, one of
//   32-bit payloads, linear probing. A digest match is only a candidate:
//   the caller supplies an equality predicate over the payload and the
//   table verifies FULL state equality before treating the slot as the
//   same state. Digest-equal-but-state-distinct probes keep walking (and
//   are counted), which is the fix for the silent-collision merge the
//   beam's raw `unordered_set<uint64_t>` dedup used to perform.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/tree/rooted_tree.h"

namespace dynbcast {

class SearchTreeArena {
 public:
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// Preallocates `capacity` node slots. The arena grows past the
  /// initial capacity if a search needs more (counted in growEvents()),
  /// so sizing is a performance knob, not a correctness limit.
  explicit SearchTreeArena(std::size_t capacity);

  /// A depth-0 node with no producing move; refcount starts at 1 (the
  /// caller's reference).
  [[nodiscard]] std::uint32_t acquireRoot();

  /// A child of `parent` produced by `move`; refcount starts at 1 and
  /// the parent gains a reference (children pin their ancestors).
  [[nodiscard]] std::uint32_t acquireChild(std::uint32_t parent,
                                           RootedTree move);

  /// Drops one reference; a node reaching zero is recycled and the
  /// release cascades to its parent.
  void release(std::uint32_t id);

  [[nodiscard]] const RootedTree& move(std::uint32_t id) const;
  [[nodiscard]] std::uint32_t parent(std::uint32_t id) const;
  [[nodiscard]] std::size_t depth(std::uint32_t id) const;

  /// The move sequence from the root to `id` (root's pseudo-move
  /// excluded): exactly depth(id) trees, oldest first.
  [[nodiscard]] std::vector<RootedTree> lineage(std::uint32_t id) const;

  [[nodiscard]] std::size_t liveNodes() const noexcept { return live_; }
  [[nodiscard]] std::size_t peakLiveNodes() const noexcept { return peak_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t growEvents() const noexcept { return grows_; }

 private:
  struct Node {
    RootedTree move = RootedTree::trivial();
    std::uint32_t parent = kNoNode;
    std::uint32_t refcount = 0;
    std::uint32_t depth = 0;
  };

  [[nodiscard]] std::uint32_t allocate();

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> freeList_;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
  std::size_t grows_ = 0;
};

class TranspositionTable {
 public:
  static constexpr std::uint32_t kNoPayload = 0xffffffffu;

  /// Sized for `expectedEntries` insertions without rehash.
  explicit TranspositionTable(std::size_t expectedEntries = 0);

  struct InsertResult {
    /// The resident payload: the caller's on insertion, the verified
    /// existing one on a hit.
    std::uint32_t payload = kNoPayload;
    bool inserted = false;
  };

  /// Inserts `payload` under `hash` unless a slot with the same digest
  /// AND equalsExisting(slotPayload) == true already exists; in that
  /// case returns the existing payload. Digest collisions (same digest,
  /// predicate false) are counted and probing continues — distinct
  /// states are never merged.
  template <typename Eq>
  InsertResult insertOrFind(std::uint64_t hash, std::uint32_t payload,
                            Eq&& equalsExisting) {
    if ((count_ + 1) * 2 > hashes_.size()) grow();
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    while (payloads_[i] != kNoPayload) {
      if (hashes_[i] == hash) {
        if (equalsExisting(payloads_[i])) {
          ++verifiedHits_;
          return {payloads_[i], false};
        }
        ++hashCollisions_;
      }
      i = (i + 1) & mask_;
    }
    hashes_[i] = hash;
    payloads_[i] = payload;
    ++count_;
    return {payload, true};
  }

  /// Lookup without insertion; kNoPayload when absent.
  template <typename Eq>
  [[nodiscard]] std::uint32_t find(std::uint64_t hash,
                                   Eq&& equalsExisting) const {
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    while (payloads_[i] != kNoPayload) {
      if (hashes_[i] == hash && equalsExisting(payloads_[i])) {
        return payloads_[i];
      }
      i = (i + 1) & mask_;
    }
    return kNoPayload;
  }

  /// Empties the table, keeping its allocation (per-level reuse).
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t slots() const noexcept { return hashes_.size(); }
  [[nodiscard]] std::uint64_t verifiedHits() const noexcept {
    return verifiedHits_;
  }
  [[nodiscard]] std::uint64_t hashCollisions() const noexcept {
    return hashCollisions_;
  }

 private:
  void grow();

  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> payloads_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
  std::uint64_t verifiedHits_ = 0;
  std::uint64_t hashCollisions_ = 0;
};

}  // namespace dynbcast

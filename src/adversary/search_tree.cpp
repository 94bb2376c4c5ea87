// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#include "src/adversary/search_tree.h"

#include <algorithm>

#include "src/support/assert.h"

namespace dynbcast {

namespace {

std::size_t nextPowerOfTwo(std::size_t x) {
  std::size_t p = 16;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

SearchTreeArena::SearchTreeArena(std::size_t capacity) {
  nodes_.resize(std::max<std::size_t>(capacity, 1));
  freeList_.reserve(nodes_.size());
  // Populate the free list so slot 0 is handed out first.
  for (std::size_t i = nodes_.size(); i > 0; --i) {
    freeList_.push_back(static_cast<std::uint32_t>(i - 1));
  }
}

std::uint32_t SearchTreeArena::allocate() {
  if (freeList_.empty()) {
    // Capacity miss: fall back to growth rather than failing the search;
    // callers can watch growEvents() to size the arena better.
    ++grows_;
    nodes_.emplace_back();
    freeList_.push_back(static_cast<std::uint32_t>(nodes_.size() - 1));
  }
  const std::uint32_t id = freeList_.back();
  freeList_.pop_back();
  ++live_;
  peak_ = std::max(peak_, live_);
  return id;
}

std::uint32_t SearchTreeArena::acquireRoot() {
  const std::uint32_t id = allocate();
  Node& node = nodes_[id];
  node.parent = kNoNode;
  node.refcount = 1;
  node.depth = 0;
  return id;
}

std::uint32_t SearchTreeArena::acquireChild(std::uint32_t parent,
                                            RootedTree move) {
  DYNBCAST_ASSERT(parent < nodes_.size() && nodes_[parent].refcount > 0);
  const std::uint32_t id = allocate();
  Node& node = nodes_[id];
  node.move = std::move(move);
  node.parent = parent;
  node.refcount = 1;
  node.depth = nodes_[parent].depth + 1;
  ++nodes_[parent].refcount;
  return id;
}

void SearchTreeArena::release(std::uint32_t id) {
  while (id != kNoNode) {
    Node& node = nodes_[id];
    DYNBCAST_ASSERT(node.refcount > 0);
    if (--node.refcount > 0) return;
    const std::uint32_t parent = node.parent;
    // Recycle the slot; drop the (possibly large) move allocation now
    // instead of holding it until the slot is reused.
    node.move = RootedTree::trivial();
    node.parent = kNoNode;
    freeList_.push_back(id);
    --live_;
    id = parent;
  }
}

const RootedTree& SearchTreeArena::move(std::uint32_t id) const {
  DYNBCAST_ASSERT(id < nodes_.size() && nodes_[id].refcount > 0);
  return nodes_[id].move;
}

std::uint32_t SearchTreeArena::parent(std::uint32_t id) const {
  DYNBCAST_ASSERT(id < nodes_.size() && nodes_[id].refcount > 0);
  return nodes_[id].parent;
}

std::size_t SearchTreeArena::depth(std::uint32_t id) const {
  DYNBCAST_ASSERT(id < nodes_.size() && nodes_[id].refcount > 0);
  return nodes_[id].depth;
}

std::vector<RootedTree> SearchTreeArena::lineage(std::uint32_t id) const {
  DYNBCAST_ASSERT(id < nodes_.size() && nodes_[id].refcount > 0);
  // Witness reconstruction runs once per finished search, outside the
  // expansion loop.
  // dynbcast-lint: allow(hot-alloc) -- once per search, not per round
  std::vector<RootedTree> out;
  out.reserve(nodes_[id].depth);
  for (std::uint32_t v = id; nodes_[v].parent != kNoNode;
       v = nodes_[v].parent) {
    out.push_back(nodes_[v].move);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

TranspositionTable::TranspositionTable(std::size_t expectedEntries) {
  const std::size_t slots = nextPowerOfTwo(expectedEntries * 2 + 1);
  hashes_.assign(slots, 0);
  payloads_.assign(slots, kNoPayload);
  mask_ = slots - 1;
}

void TranspositionTable::clear() {
  std::fill(payloads_.begin(), payloads_.end(), kNoPayload);
  count_ = 0;
}

void TranspositionTable::grow() {
  std::vector<std::uint64_t> oldHashes = std::move(hashes_);
  std::vector<std::uint32_t> oldPayloads = std::move(payloads_);
  const std::size_t slots = oldHashes.size() * 2;
  hashes_.assign(slots, 0);
  payloads_.assign(slots, kNoPayload);
  mask_ = slots - 1;
  for (std::size_t i = 0; i < oldHashes.size(); ++i) {
    if (oldPayloads[i] == kNoPayload) continue;
    std::size_t j = static_cast<std::size_t>(oldHashes[i]) & mask_;
    while (payloads_[j] != kNoPayload) j = (j + 1) & mask_;
    hashes_[j] = oldHashes[i];
    payloads_[j] = oldPayloads[i];
  }
}

}  // namespace dynbcast

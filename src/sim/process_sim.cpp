#include "src/sim/process_sim.h"

#include <algorithm>

#include "src/support/assert.h"

namespace dynbcast {

ProcessSim::ProcessSim(std::size_t n) {
  DYNBCAST_ASSERT(n > 0);
  processes_.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    processes_.push_back(Process{id, {id}});
  }
}

void ProcessSim::applyTree(const RootedTree& tree) {
  DYNBCAST_ASSERT_MSG(tree.size() == processCount(), "tree size mismatch");
  // Send phase: every process addresses its knowledge to each of its
  // children in the adversary's tree. Messages snapshot start-of-round
  // knowledge, so composition order is irrelevant (synchronous rounds).
  std::vector<Message> network;
  for (const Process& p : processes_) {
    for (const std::size_t child : tree.childrenOf(p.id)) {
      network.push_back(Message{p.id, child, p.knowledge});
    }
  }
  // Delivery + merge phase.
  for (const Message& msg : network) {
    auto& knowledge = processes_[msg.receiver].knowledge;
    knowledge.insert(msg.payload.begin(), msg.payload.end());
  }
  totalMessages_ += network.size();
  delivered_ = std::move(network);
  ++round_;
}

void ProcessSim::applyGraph(const BitMatrix& g) {
  DYNBCAST_ASSERT_MSG(g.dim() == processCount(), "graph size mismatch");
  DYNBCAST_ASSERT_MSG(g.isReflexive(),
                      "model requires self-loops (no forgetting)");
  std::vector<Message> network;
  for (const Process& p : processes_) {
    g.row(p.id).forEachSet([&network, &p](std::size_t y) {
      if (y != p.id) network.push_back(Message{p.id, y, p.knowledge});
    });
  }
  for (const Message& msg : network) {
    auto& knowledge = processes_[msg.receiver].knowledge;
    knowledge.insert(msg.payload.begin(), msg.payload.end());
  }
  totalMessages_ += network.size();
  delivered_ = std::move(network);
  ++round_;
}

void ProcessSim::reset() {
  for (Process& p : processes_) p.knowledge = {p.id};
  delivered_.clear();
  totalMessages_ = 0;
  round_ = 0;
}

std::set<std::size_t> ProcessSim::knownToAll() const {
  std::set<std::size_t> common = processes_.front().knowledge;
  for (std::size_t id = 1; id < processes_.size() && !common.empty(); ++id) {
    const auto& k = processes_[id].knowledge;
    std::set<std::size_t> next;
    std::set_intersection(common.begin(), common.end(), k.begin(), k.end(),
                          std::inserter(next, next.begin()));
    common.swap(next);
  }
  return common;
}

bool ProcessSim::gossipDone() const {
  return std::all_of(processes_.begin(), processes_.end(),
                     [n = processCount()](const Process& p) {
                       return p.knowledge.size() == n;
                     });
}

}  // namespace dynbcast

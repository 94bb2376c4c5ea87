#include "src/tree/prufer.h"

#include <algorithm>

#include "src/support/assert.h"

namespace dynbcast {

UndirectedTree pruferDecode(const std::vector<std::size_t>& seq) {
  const std::size_t n = seq.size() + 2;
  std::vector<std::size_t> degree(n, 1);
  for (const std::size_t a : seq) {
    DYNBCAST_ASSERT_MSG(a < n, "Prüfer entry out of range");
    ++degree[a];
  }
  UndirectedTree edges;
  edges.reserve(n - 1);
  // `ptr` scans for the smallest leaf; `leaf` tracks the current one. The
  // classic O(n) construction (no priority queue needed).
  std::size_t ptr = 0;
  while (degree[ptr] != 1) ++ptr;
  std::size_t leaf = ptr;
  for (const std::size_t a : seq) {
    edges.emplace_back(leaf, a);
    if (--degree[a] == 1 && a < ptr) {
      leaf = a;  // `a` became the new smallest leaf
    } else {
      ++ptr;
      while (degree[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  edges.emplace_back(leaf, n - 1);
  return edges;
}

std::vector<std::size_t> pruferEncode(std::size_t n,
                                      const UndirectedTree& t) {
  DYNBCAST_ASSERT(n >= 2);
  DYNBCAST_ASSERT_MSG(t.size() == n - 1, "tree must have n-1 edges");
  std::vector<std::vector<std::size_t>> adj(n);
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [u, v] : t) {
    DYNBCAST_ASSERT(u < n && v < n && u != v);
    adj[u].push_back(v);
    adj[v].push_back(u);
    ++degree[u];
    ++degree[v];
  }
  std::vector<bool> removed(n, false);
  std::vector<std::size_t> seq;
  seq.reserve(n - 2);
  std::size_t ptr = 0;
  while (ptr < n && degree[ptr] != 1) ++ptr;
  std::size_t leaf = ptr;
  for (std::size_t step = 0; step + 2 < n; ++step) {
    removed[leaf] = true;
    std::size_t neighbor = n;
    for (const std::size_t w : adj[leaf]) {
      if (!removed[w]) {
        neighbor = w;
        break;
      }
    }
    DYNBCAST_ASSERT_MSG(neighbor < n, "input edges do not form a tree");
    seq.push_back(neighbor);
    if (--degree[neighbor] == 1 && neighbor < ptr) {
      leaf = neighbor;
    } else {
      ++ptr;
      while (ptr < n && (degree[ptr] != 1 || removed[ptr])) ++ptr;
      DYNBCAST_ASSERT_MSG(ptr < n, "input edges do not form a tree");
      leaf = ptr;
    }
  }
  return seq;
}

RootedTree orientTree(std::size_t n, const UndirectedTree& t,
                      std::size_t root) {
  DYNBCAST_ASSERT(root < n);
  DYNBCAST_ASSERT_MSG(t.size() + 1 == n, "tree must have n-1 edges");
  // CSR adjacency: the neighbours of u are adj[start[u] .. start[u + 1]),
  // in edge-list order, as a per-node push_back would list them.
  std::vector<std::size_t> start(n + 1, 0);
  for (const auto& [u, v] : t) {
    DYNBCAST_ASSERT_MSG(u < n && v < n, "edge endpoint out of range");
    ++start[u + 1];
    ++start[v + 1];
  }
  for (std::size_t u = 0; u < n; ++u) start[u + 1] += start[u];
  std::vector<std::size_t> adj(start[n]);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (const auto& [u, v] : t) {
    adj[fill[u]++] = v;
    adj[fill[v]++] = u;
  }
  std::vector<std::size_t> parent(n, n);
  parent[root] = root;
  std::vector<std::size_t> queue(n);
  queue[0] = root;
  std::size_t queued = 1;
  for (std::size_t qi = 0; qi < queued; ++qi) {
    const std::size_t u = queue[qi];
    for (std::size_t e = start[u]; e < start[u + 1]; ++e) {
      const std::size_t v = adj[e];
      if (parent[v] == n) {
        parent[v] = u;
        queue[queued++] = v;
      }
    }
  }
  DYNBCAST_ASSERT_MSG(queued == n, "edges do not connect all nodes");
  return RootedTree(root, std::move(parent));
}

RootedTree rootedFromPrufer(const std::vector<std::size_t>& seq,
                            std::size_t root) {
  const std::size_t n = seq.size() + 2;
  return orientTree(n, pruferDecode(seq), root);
}

}  // namespace dynbcast

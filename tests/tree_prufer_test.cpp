#include "src/tree/prufer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "src/support/assert.h"
#include "src/support/rng.h"

namespace dynbcast {
namespace {

using EdgeSet = std::set<std::pair<std::size_t, std::size_t>>;

EdgeSet normalize(const UndirectedTree& t) {
  EdgeSet out;
  for (auto [u, v] : t) {
    out.insert({std::min(u, v), std::max(u, v)});
  }
  return out;
}

TEST(PruferTest, DecodeN2) {
  const UndirectedTree t = pruferDecode({});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(normalize(t), (EdgeSet{{0, 1}}));
}

TEST(PruferTest, DecodeKnownSequence) {
  // Classic example: sequence (3, 3, 3, 4) on 6 nodes gives a tree where
  // 3 has degree 4 and 4 has degree 2.
  const UndirectedTree t = pruferDecode({3, 3, 3, 4});
  ASSERT_EQ(t.size(), 5u);
  std::vector<std::size_t> degree(6, 0);
  for (auto [u, v] : t) {
    ++degree[u];
    ++degree[v];
  }
  EXPECT_EQ(degree[3], 4u);
  EXPECT_EQ(degree[4], 2u);
  EXPECT_EQ(degree[0], 1u);
}

TEST(PruferTest, EncodeDecodeRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.uniform(20);
    std::vector<std::size_t> seq(n - 2);
    for (auto& a : seq) a = rng.uniform(n);
    const UndirectedTree tree = pruferDecode(seq);
    EXPECT_EQ(pruferEncode(n, tree), seq) << "n=" << n;
  }
}

TEST(PruferTest, DecodeEncodeRoundTripOnStar) {
  // Star centered at 4 on 5 nodes: sequence (4, 4, 4).
  const std::vector<std::size_t> seq{4, 4, 4};
  EXPECT_EQ(pruferEncode(5, pruferDecode(seq)), seq);
}

TEST(PruferTest, DecodeProducesSpanningTree) {
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.uniform(30);
    std::vector<std::size_t> seq(n >= 2 ? n - 2 : 0);
    for (auto& a : seq) a = rng.uniform(n);
    const UndirectedTree tree = pruferDecode(seq);
    EXPECT_EQ(tree.size(), n - 1);
    // Connectivity via union-find.
    std::vector<std::size_t> uf(n);
    for (std::size_t i = 0; i < n; ++i) uf[i] = i;
    const std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) -> std::size_t {
      return uf[x] == x ? x : uf[x] = find(uf[x]);
    };
    for (auto [u, v] : tree) uf[find(u)] = find(v);
    for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(find(0), find(i));
  }
}

TEST(PruferTest, DistinctSequencesGiveDistinctTrees) {
  // Bijectivity spot check on n = 5: all 125 sequences decode uniquely.
  std::set<EdgeSet> seen;
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = 0; b < 5; ++b) {
      for (std::size_t c = 0; c < 5; ++c) {
        seen.insert(normalize(pruferDecode({a, b, c})));
      }
    }
  }
  EXPECT_EQ(seen.size(), 125u);  // Cayley: 5^3 labeled trees on 5 nodes
}

TEST(OrientTest, OrientAtEachRootGivesValidTree) {
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.uniform(12);
    std::vector<std::size_t> seq(n - 2);
    for (auto& a : seq) a = rng.uniform(n);
    const UndirectedTree shape = pruferDecode(seq);
    for (std::size_t root = 0; root < n; ++root) {
      const RootedTree t = orientTree(n, shape, root);
      EXPECT_EQ(t.root(), root);
      EXPECT_EQ(t.size(), n);
      // Undirected projection must be the original edge set.
      UndirectedTree back;
      for (std::size_t v = 0; v < n; ++v) {
        if (v != root) back.emplace_back(t.parent(v), v);
      }
      EXPECT_EQ(normalize(back), normalize(shape));
    }
  }
}

TEST(OrientTest, RootedFromPruferMatchesManualPipeline) {
  const std::vector<std::size_t> seq{1, 1};
  const RootedTree direct = rootedFromPrufer(seq, 2);
  const RootedTree manual = orientTree(4, pruferDecode(seq), 2);
  EXPECT_EQ(direct, manual);
}

/// orientTree as first written: one std::vector of neighbours per node,
/// filled in edge-list order, then a BFS from the root.
std::vector<std::size_t> referenceOrientParents(std::size_t n,
                                                const UndirectedTree& t,
                                                std::size_t root) {
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [u, v] : t) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<std::size_t> parent(n, n);
  parent[root] = root;
  std::vector<std::size_t> queue{root};
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    for (const std::size_t v : adj[queue[qi]]) {
      if (parent[v] == n) {
        parent[v] = queue[qi];
        queue.push_back(v);
      }
    }
  }
  return parent;
}

TEST(OrientTest, MatchesAdjacencyListReference) {
  Rng rng(909);
  for (const std::size_t n : {2u, 3u, 5u, 63u, 64u, 65u, 257u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::size_t> seq(n - 2);
      for (auto& a : seq) a = rng.uniform(n);
      UndirectedTree shape = pruferDecode(seq);
      if (trial % 2 == 1) {  // any edge order and orientation
        rng.shuffle(shape);
        for (auto& e : shape) {
          if (rng.chance(0.5)) std::swap(e.first, e.second);
        }
      }
      const std::size_t root = rng.uniform(n);
      const RootedTree t = orientTree(n, shape, root);
      EXPECT_EQ(t.root(), root);
      EXPECT_EQ(t.parents(), referenceOrientParents(n, shape, root))
          << "n=" << n;
    }
  }
  EXPECT_EQ(orientTree(1, {}, 0), RootedTree::trivial());
}

TEST(OrientTest, RejectsEdgesThatDoNotSpan) {
  // n − 1 edges that close a cycle and leave node 3 unreachable.
  EXPECT_THROW((void)orientTree(4, {{0, 1}, {1, 2}, {2, 0}}, 0),
               AssertionError);
  EXPECT_THROW((void)orientTree(4, {{0, 1}, {1, 2}, {2, 0}}, 3),
               AssertionError);
  EXPECT_THROW((void)orientTree(3, {{0, 1}}, 0), AssertionError);
  EXPECT_THROW((void)orientTree(3, {{0, 1}, {1, 3}}, 0), AssertionError);
}

}  // namespace
}  // namespace dynbcast

// CsrGraph layout invariants and the adjacency↔CSR conversion contract
// (DESIGN.md §"Graph memory layout"): exact round-trips through both
// owning constructors (FromBipartite and the canonical edge-list builder),
// slot == EdgeId, O(1) endpoint lookups, degenerate shapes, and
// fingerprint equivalence between the two representations.
#include "graph/csr_graph.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_builder.h"
#include "service/graph_registry.h"

namespace ensemfdet {
namespace {

BipartiteGraph RandomGraph(int64_t users, int64_t merchants, int64_t edges,
                           uint64_t seed, bool weighted) {
  GraphBuilder b(users, merchants);
  Rng rng(seed);
  for (int64_t i = 0; i < edges; ++i) {
    const UserId u = static_cast<UserId>(rng.NextBounded(
        static_cast<uint64_t>(users)));
    const MerchantId v = static_cast<MerchantId>(rng.NextBounded(
        static_cast<uint64_t>(merchants)));
    b.AddEdge(u, v, weighted ? 1.0 + rng.NextDouble() : 1.0);
  }
  return b.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
}

// The edge-list constructor over the same canonical edges and weights.
CsrGraph FromEdges(const BipartiteGraph& g) {
  return CsrGraph::FromCanonicalEdges(g.num_users(), g.num_merchants(),
                                      g.edges(), g.weights());
}

void ExpectGraphsEqual(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_merchants(), b.num_merchants());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.has_weights(), b.has_weights());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e), b.edge(e)) << "edge " << e;
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e)) << "weight " << e;
  }
}

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph csr = CsrGraph::FromBipartite(BipartiteGraph());
  EXPECT_EQ(csr.num_users(), 0);
  EXPECT_EQ(csr.num_merchants(), 0);
  EXPECT_EQ(csr.num_edges(), 0);
  EXPECT_TRUE(csr.empty());
  BipartiteGraph back = csr.ToBipartite();
  EXPECT_EQ(back.num_edges(), 0);
}

TEST(CsrGraphTest, EdgelessNodesRoundTrip) {
  GraphBuilder b(7, 3);
  BipartiteGraph g = b.Build().ValueOrDie();
  CsrGraph csr = CsrGraph::FromBipartite(g);
  EXPECT_EQ(csr.num_users(), 7);
  EXPECT_EQ(csr.num_merchants(), 3);
  EXPECT_EQ(csr.num_edges(), 0);
  for (UserId u = 0; u < 7; ++u) {
    EXPECT_EQ(csr.user_degree(u), 0);
    EXPECT_TRUE(csr.user_neighbors(u).empty());
  }
  ExpectGraphsEqual(g, csr.ToBipartite());
}

TEST(CsrGraphTest, SingleEdge) {
  GraphBuilder b(2, 2);
  b.AddEdge(1, 0);
  BipartiteGraph g = b.Build().ValueOrDie();
  CsrGraph csr = CsrGraph::FromBipartite(g);
  EXPECT_EQ(csr.num_edges(), 1);
  EXPECT_EQ(csr.edge_user(0), 1u);
  EXPECT_EQ(csr.edge_merchant(0), 0u);
  EXPECT_EQ(csr.user_degree(0), 0);
  EXPECT_EQ(csr.user_degree(1), 1);
  EXPECT_EQ(csr.merchant_degree(0), 1);
  EXPECT_EQ(csr.merchant_degree(1), 0);
  EXPECT_EQ(csr.edge_weight(0), 1.0);
  EXPECT_FALSE(csr.has_weights());
}

TEST(CsrGraphTest, UserSlotIsEdgeId) {
  BipartiteGraph g = RandomGraph(40, 25, 300, 11, /*weighted=*/false);
  CsrGraph csr = CsrGraph::FromBipartite(g);
  // Walking user rows in order enumerates EdgeIds 0,1,2,... and the
  // neighbor at each slot is that edge's merchant endpoint.
  EdgeId next = 0;
  for (UserId u = 0; u < g.num_users(); ++u) {
    EXPECT_EQ(csr.user_edge_begin(u), next);
    for (MerchantId m : csr.user_neighbors(u)) {
      EXPECT_EQ(m, g.edge(next).merchant);
      EXPECT_EQ(csr.edge_user(next), g.edge(next).user);
      EXPECT_EQ(csr.edge_user(next), u);
      ++next;
    }
  }
  EXPECT_EQ(next, g.num_edges());
}

TEST(CsrGraphTest, MerchantRowsMatchAdjacency) {
  BipartiteGraph g = RandomGraph(30, 20, 200, 5, /*weighted=*/true);
  for (const CsrGraph& csr : {CsrGraph::FromBipartite(g), FromEdges(g)}) {
    for (MerchantId v = 0; v < g.num_merchants(); ++v) {
      auto edge_ids = csr.merchant_edge_ids(v);
      auto neighbors = csr.merchant_neighbors(v);
      auto expected = g.merchant_edges(v);
      ASSERT_EQ(edge_ids.size(), expected.size());
      ASSERT_EQ(static_cast<int64_t>(neighbors.size()),
                g.merchant_degree(v));
      for (size_t k = 0; k < edge_ids.size(); ++k) {
        EXPECT_EQ(edge_ids[k], expected[k]);
        EXPECT_EQ(neighbors[k], g.edge(expected[k]).user);
      }
    }
  }
}

TEST(CsrGraphTest, RoundTripUnweighted) {
  BipartiteGraph g = RandomGraph(60, 35, 500, 3, /*weighted=*/false);
  ExpectGraphsEqual(g, CsrGraph::FromBipartite(g).ToBipartite());
  ExpectGraphsEqual(g, FromEdges(g).ToBipartite());
}

TEST(CsrGraphTest, RoundTripWeighted) {
  BipartiteGraph g = RandomGraph(60, 35, 500, 4, /*weighted=*/true);
  for (const CsrGraph& csr : {CsrGraph::FromBipartite(g), FromEdges(g)}) {
    EXPECT_TRUE(csr.has_weights());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(csr.edge_weight(e), g.edge_weight(e));
    }
    ExpectGraphsEqual(g, csr.ToBipartite());
  }
}

TEST(CsrGraphTest, EmptyEdgeSpanOverNonEmptyUniverse) {
  CsrGraph csr = CsrGraph::FromCanonicalEdges(7, 3, {});
  EXPECT_EQ(csr.num_users(), 7);
  EXPECT_EQ(csr.num_merchants(), 3);
  EXPECT_EQ(csr.num_edges(), 0);
  EXPECT_FALSE(csr.has_weights());
  EXPECT_EQ(csr.user_offsets().size(), 8u);
  EXPECT_EQ(csr.merchant_offsets().size(), 4u);
  for (UserId u = 0; u < 7; ++u) EXPECT_EQ(csr.user_degree(u), 0);
  for (MerchantId v = 0; v < 3; ++v) EXPECT_EQ(csr.merchant_degree(v), 0);
  GraphBuilder b(7, 3);
  BipartiteGraph edgeless = b.Build().ValueOrDie();
  ExpectGraphsEqual(edgeless, csr.ToBipartite());
  EXPECT_EQ(FingerprintGraph(csr), FingerprintGraph(edgeless));
}

TEST(CsrGraphTest, FingerprintMatchesBipartiteForm) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (bool weighted : {false, true}) {
      BipartiteGraph g = RandomGraph(50, 30, 400, seed, weighted);
      EXPECT_EQ(FingerprintGraph(CsrGraph::FromBipartite(g)),
                FingerprintGraph(g))
          << "seed=" << seed << " weighted=" << weighted;
    }
  }
  // Degenerate shapes too: empty, edgeless.
  BipartiteGraph empty;
  EXPECT_EQ(FingerprintGraph(CsrGraph::FromBipartite(empty)),
            FingerprintGraph(empty));
  GraphBuilder b(4, 6);
  BipartiteGraph edgeless = b.Build().ValueOrDie();
  EXPECT_EQ(FingerprintGraph(CsrGraph::FromBipartite(edgeless)),
            FingerprintGraph(edgeless));
}

}  // namespace
}  // namespace ensemfdet

#include "referee/greedy_peeler.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

// A dense 8×4 fraud block embedded in 60×30 sparse background.
BipartiteGraph PlantedBlockGraph(uint64_t seed = 17) {
  GraphBuilder b(60, 30);
  for (UserId u = 0; u < 8; ++u) {
    for (MerchantId v = 0; v < 4; ++v) b.AddEdge(u, v);
  }
  Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    UserId u = static_cast<UserId>(8 + rng.NextBounded(52));
    MerchantId v = static_cast<MerchantId>(4 + rng.NextBounded(26));
    b.AddEdge(u, v);
  }
  return b.Build().ValueOrDie();
}

TEST(GreedyPeelerTest, EmptyGraphEmptyResult) {
  GraphBuilder b(0, 0);
  auto g = b.Build().ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_TRUE(r.users.empty());
  EXPECT_TRUE(r.merchants.empty());
  EXPECT_DOUBLE_EQ(r.score, 0.0);
}

TEST(GreedyPeelerTest, EdgelessGraphEmptyResult) {
  GraphBuilder b(5, 5);
  auto g = b.Build().ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_TRUE(r.users.empty());
  EXPECT_DOUBLE_EQ(r.score, 0.0);
}

TEST(GreedyPeelerTest, SingleEdgeGraph) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_EQ(r.users, std::vector<UserId>{0});
  EXPECT_EQ(r.merchants, std::vector<MerchantId>{0});
  EXPECT_NEAR(r.score, (1.0 / std::log(6.0)) / 2.0, 1e-12);
}

TEST(GreedyPeelerTest, CompleteBlockKeptWhole) {
  GraphBuilder b(6, 3);
  for (UserId u = 0; u < 6; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_EQ(r.users.size(), 6u);
  EXPECT_EQ(r.merchants.size(), 3u);
  EXPECT_NEAR(r.score, DensityScore(g, {}), 1e-12);
}

TEST(GreedyPeelerTest, IsolatedNodesPeeledAway) {
  GraphBuilder b(8, 5);  // users 4..7 and merchants 2..4 isolated
  for (UserId u = 0; u < 4; ++u) {
    for (MerchantId v = 0; v < 2; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_EQ(r.users, (std::vector<UserId>{0, 1, 2, 3}));
  EXPECT_EQ(r.merchants, (std::vector<MerchantId>{0, 1}));
}

TEST(GreedyPeelerTest, FindsPlantedBlock) {
  auto g = PlantedBlockGraph();
  PeelResult r = PeelDensestBlock(g, {});
  std::set<UserId> users(r.users.begin(), r.users.end());
  std::set<MerchantId> merchants(r.merchants.begin(), r.merchants.end());
  for (UserId u = 0; u < 8; ++u) {
    EXPECT_TRUE(users.count(u)) << "missing planted user " << u;
  }
  for (MerchantId v = 0; v < 4; ++v) {
    EXPECT_TRUE(merchants.count(v)) << "missing planted merchant " << v;
  }
}

TEST(GreedyPeelerTest, BlockScoreAtLeastWholeGraphScore) {
  auto g = PlantedBlockGraph();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_GE(r.score, DensityScore(g, {}) - 1e-12);
}

TEST(GreedyPeelerTest, TraceStartsAtWholeGraphScore) {
  auto g = PlantedBlockGraph();
  PeelResult r = PeelDensestBlock(g, {}, /*keep_trace=*/true);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_NEAR(r.trace[0], DensityScore(g, {}), 1e-12);
  EXPECT_EQ(static_cast<int64_t>(r.trace.size()), g.num_nodes());
}

TEST(GreedyPeelerTest, ScoreIsMaxOfTrace) {
  auto g = PlantedBlockGraph();
  PeelResult r = PeelDensestBlock(g, {}, /*keep_trace=*/true);
  double max_trace = 0.0;
  for (double phi : r.trace) max_trace = std::max(max_trace, phi);
  EXPECT_NEAR(r.score, max_trace, 1e-12);
}

TEST(GreedyPeelerTest, TraceNonNegative) {
  auto g = PlantedBlockGraph(23);
  PeelResult r = PeelDensestBlock(g, {}, /*keep_trace=*/true);
  for (double phi : r.trace) EXPECT_GE(phi, 0.0);
}

TEST(GreedyPeelerTest, RemovalOrderIsPermutationOfAllNodes) {
  auto g = PlantedBlockGraph();
  PeelResult r = PeelDensestBlock(g, {}, /*keep_trace=*/true);
  ASSERT_EQ(static_cast<int64_t>(r.removal_order.size()), g.num_nodes());
  std::set<int64_t> unique(r.removal_order.begin(), r.removal_order.end());
  EXPECT_EQ(static_cast<int64_t>(unique.size()), g.num_nodes());
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), g.num_nodes() - 1);
}

TEST(GreedyPeelerTest, Deterministic) {
  auto g = PlantedBlockGraph();
  PeelResult a = PeelDensestBlock(g, {});
  PeelResult b = PeelDensestBlock(g, {});
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.merchants, b.merchants);
  EXPECT_DOUBLE_EQ(a.score, b.score);
}

TEST(GreedyPeelerTest, OutputSortedAscending) {
  auto g = PlantedBlockGraph();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_TRUE(std::is_sorted(r.users.begin(), r.users.end()));
  EXPECT_TRUE(std::is_sorted(r.merchants.begin(), r.merchants.end()));
}

TEST(GreedyPeelerTest, WeightedEdgesRaiseBlockPriority) {
  // Two 3×2 blocks; the second carries weight-10 edges and must win.
  GraphBuilder b(6, 4);
  for (UserId u = 0; u < 3; ++u) {
    for (MerchantId v = 0; v < 2; ++v) b.AddEdge(u, v, 1.0);
  }
  for (UserId u = 3; u < 6; ++u) {
    for (MerchantId v = 2; v < 4; ++v) b.AddEdge(u, v, 10.0);
  }
  auto g = b.Build(DuplicatePolicy::kSumWeights).ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  for (UserId u : r.users) EXPECT_GE(u, 3u);
  for (MerchantId v : r.merchants) EXPECT_GE(v, 2u);
}

TEST(GreedyPeelerTest, CamouflageDoesNotHideBlock) {
  // Fraud block 6×3 where each fraud user also hits the popular merchant
  // 29 (degree ≈ 40): the popular merchant's column weight is tiny, so the
  // block should still be found and merchant 29 should NOT be in it once
  // peeling trims low-value attachments. (Weaker claim: block users found.)
  GraphBuilder b(60, 30);
  for (UserId u = 0; u < 6; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
    b.AddEdge(u, 29);  // camouflage
  }
  for (UserId u = 6; u < 46; ++u) b.AddEdge(u, 29);  // popular merchant
  auto g = b.Build().ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  std::set<UserId> users(r.users.begin(), r.users.end());
  for (UserId u = 0; u < 6; ++u) EXPECT_TRUE(users.count(u));
}

TEST(GreedyPeelerTest, GreedyOptimalOnTwoBlocksOfDifferentDensity) {
  // 5×5 complete (denser per node) vs 3×3 complete: peeler must return the
  // 5×5 one.
  GraphBuilder b(8, 8);
  for (UserId u = 0; u < 5; ++u) {
    for (MerchantId v = 0; v < 5; ++v) b.AddEdge(u, v);
  }
  for (UserId u = 5; u < 8; ++u) {
    for (MerchantId v = 5; v < 8; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  PeelResult r = PeelDensestBlock(g, {});
  EXPECT_EQ(r.users.size(), 5u);
  for (UserId u : r.users) EXPECT_LT(u, 5u);
}

}  // namespace
}  // namespace ensemfdet

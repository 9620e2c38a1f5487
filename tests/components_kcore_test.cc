// Tests for connected components and k-core decomposition.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_builder.h"
#include "referee/components.h"
#include "referee/kcore.h"

namespace ensemfdet {
namespace {

// --- Connected components ----------------------------------------------

TEST(ComponentsTest, EmptyGraph) {
  GraphBuilder b(0, 0);
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  EXPECT_EQ(cc.num_components(), 0);
  EXPECT_EQ(cc.LargestComponent(), -1);
}

TEST(ComponentsTest, IsolatedNodesAreSingletons) {
  GraphBuilder b(3, 2);
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  EXPECT_EQ(cc.num_components(), 5);
  for (const auto& stats : cc.components) {
    EXPECT_EQ(stats.num_users + stats.num_merchants, 1);
    EXPECT_EQ(stats.num_edges, 0);
  }
}

TEST(ComponentsTest, SingleEdgeOneComponent) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  EXPECT_EQ(cc.num_components(), 1);
  EXPECT_EQ(cc.components[0].num_users, 1);
  EXPECT_EQ(cc.components[0].num_merchants, 1);
  EXPECT_EQ(cc.components[0].num_edges, 1);
}

TEST(ComponentsTest, TwoSeparateBlocks) {
  GraphBuilder b(6, 4);
  for (UserId u = 0; u < 3; ++u) {
    for (MerchantId v = 0; v < 2; ++v) b.AddEdge(u, v);
  }
  for (UserId u = 3; u < 6; ++u) {
    for (MerchantId v = 2; v < 4; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  EXPECT_EQ(cc.num_components(), 2);
  // Same label within a block, different across blocks.
  EXPECT_EQ(cc.user_component[0], cc.user_component[2]);
  EXPECT_EQ(cc.user_component[0], cc.merchant_component[1]);
  EXPECT_NE(cc.user_component[0], cc.user_component[3]);
  // Stats per component.
  for (const auto& stats : cc.components) {
    EXPECT_EQ(stats.num_users, 3);
    EXPECT_EQ(stats.num_merchants, 2);
    EXPECT_EQ(stats.num_edges, 6);
  }
}

TEST(ComponentsTest, BridgeMergesComponents) {
  GraphBuilder b(6, 4);
  for (UserId u = 0; u < 3; ++u) {
    for (MerchantId v = 0; v < 2; ++v) b.AddEdge(u, v);
  }
  for (UserId u = 3; u < 6; ++u) {
    for (MerchantId v = 2; v < 4; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(0, 3);  // bridge
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  EXPECT_EQ(cc.num_components(), 1);
  EXPECT_EQ(cc.components[0].num_edges, 13);
}

TEST(ComponentsTest, LargestComponentByEdges) {
  GraphBuilder b(5, 5);
  b.AddEdge(0, 0);  // tiny component
  for (UserId u = 1; u < 4; ++u) {
    for (MerchantId v = 1; v < 4; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  const int32_t largest = cc.LargestComponent();
  ASSERT_GE(largest, 0);
  EXPECT_EQ(cc.components[static_cast<size_t>(largest)].num_edges, 9);
}

TEST(ComponentsTest, StatsSumToGraphTotals) {
  Rng rng(77);
  GraphBuilder b(60, 40);
  for (int i = 0; i < 100; ++i) {
    b.AddEdge(static_cast<UserId>(rng.NextBounded(60)),
              static_cast<MerchantId>(rng.NextBounded(40)));
  }
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  int64_t users = 0, merchants = 0, edges = 0;
  for (const auto& stats : cc.components) {
    users += stats.num_users;
    merchants += stats.num_merchants;
    edges += stats.num_edges;
  }
  EXPECT_EQ(users, g.num_users());
  EXPECT_EQ(merchants, g.num_merchants());
  EXPECT_EQ(edges, g.num_edges());
}

TEST(ComponentsTest, EveryNodeLabeled) {
  Rng rng(78);
  GraphBuilder b(30, 30);
  for (int i = 0; i < 25; ++i) {
    b.AddEdge(static_cast<UserId>(rng.NextBounded(30)),
              static_cast<MerchantId>(rng.NextBounded(30)));
  }
  auto g = b.Build().ValueOrDie();
  auto cc = FindConnectedComponents(g);
  for (int32_t label : cc.user_component) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, cc.num_components());
  }
  for (int32_t label : cc.merchant_component) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, cc.num_components());
  }
  // Endpoints of every edge share a label.
  for (const Edge& e : g.edges()) {
    EXPECT_EQ(cc.user_component[e.user], cc.merchant_component[e.merchant]);
  }
}

// --- k-cores -------------------------------------------------------------

TEST(KCoreTest, EmptyGraph) {
  GraphBuilder b(0, 0);
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  EXPECT_EQ(kc.degeneracy, 0);
}

TEST(KCoreTest, IsolatedNodesCoreZero) {
  GraphBuilder b(3, 3);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  EXPECT_EQ(kc.user_core[1], 0);
  EXPECT_EQ(kc.user_core[2], 0);
  EXPECT_EQ(kc.user_core[0], 1);
  EXPECT_EQ(kc.merchant_core[0], 1);
  EXPECT_EQ(kc.degeneracy, 1);
}

TEST(KCoreTest, StarIsOneCore) {
  GraphBuilder b(5, 1);
  for (UserId u = 0; u < 5; ++u) b.AddEdge(u, 0);
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  EXPECT_EQ(kc.degeneracy, 1);
  for (int32_t c : kc.user_core) EXPECT_EQ(c, 1);
  EXPECT_EQ(kc.merchant_core[0], 1);
}

TEST(KCoreTest, CompleteBipartiteCore) {
  // K_{4,3}: every node in the 3-core (min side degree 3).
  GraphBuilder b(4, 3);
  for (UserId u = 0; u < 4; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  EXPECT_EQ(kc.degeneracy, 3);
  for (int32_t c : kc.user_core) EXPECT_EQ(c, 3);
  for (int32_t c : kc.merchant_core) EXPECT_EQ(c, 3);
}

TEST(KCoreTest, PendantChainPeelsToDenseCore) {
  // A 3x3 complete block plus a chain of pendant users hanging off it.
  GraphBuilder b(6, 3);
  for (UserId u = 0; u < 3; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(3, 0);
  b.AddEdge(4, 1);
  b.AddEdge(5, 2);
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  EXPECT_EQ(kc.degeneracy, 3);
  for (UserId u = 0; u < 3; ++u) EXPECT_EQ(kc.user_core[u], 3);
  for (UserId u = 3; u < 6; ++u) EXPECT_EQ(kc.user_core[u], 1);
}

TEST(KCoreTest, CoreContainmentProperty) {
  // The k-core's induced subgraph has min degree >= k — the defining
  // property, checked on a random graph for every k up to degeneracy.
  Rng rng(91);
  GraphBuilder b(40, 25);
  std::set<std::pair<UserId, MerchantId>> seen;
  while (seen.size() < 180) {
    UserId u = static_cast<UserId>(rng.NextBounded(40));
    MerchantId v = static_cast<MerchantId>(rng.NextBounded(25));
    if (seen.insert({u, v}).second) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  ASSERT_GE(kc.degeneracy, 2);

  for (int32_t k = 1; k <= kc.degeneracy; ++k) {
    KCoreMembers members = MembersOfKCore(kc, k);
    std::set<UserId> users(members.users.begin(), members.users.end());
    std::set<MerchantId> merchants(members.merchants.begin(),
                                   members.merchants.end());
    EXPECT_FALSE(users.empty());
    // Degree within the core must be >= k for every member.
    for (UserId u : members.users) {
      int64_t internal = 0;
      for (EdgeId e : g.user_edges(u)) {
        internal += merchants.count(g.edge(e).merchant) > 0;
      }
      EXPECT_GE(internal, k) << "user " << u << " in " << k << "-core";
    }
    for (MerchantId v : members.merchants) {
      int64_t internal = 0;
      for (EdgeId e : g.merchant_edges(v)) {
        internal += users.count(g.edge(e).user) > 0;
      }
      EXPECT_GE(internal, k) << "merchant " << v << " in " << k << "-core";
    }
  }
}

TEST(KCoreTest, CoresNested) {
  Rng rng(92);
  GraphBuilder b(30, 30);
  for (int i = 0; i < 150; ++i) {
    b.AddEdge(static_cast<UserId>(rng.NextBounded(30)),
              static_cast<MerchantId>(rng.NextBounded(30)));
  }
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  for (int32_t k = 1; k < kc.degeneracy; ++k) {
    auto outer = MembersOfKCore(kc, k);
    auto inner = MembersOfKCore(kc, k + 1);
    EXPECT_TRUE(std::includes(outer.users.begin(), outer.users.end(),
                              inner.users.begin(), inner.users.end()));
    EXPECT_TRUE(std::includes(outer.merchants.begin(), outer.merchants.end(),
                              inner.merchants.begin(),
                              inner.merchants.end()));
  }
}

TEST(KCoreTest, FraudBlockHasHighestCore) {
  // 6x4 complete block (4-core... min(6,4) side: users degree 4, merchants
  // degree 6 → 4-core) in sparse noise: block members must hold the top
  // core number.
  GraphBuilder b(40, 30);
  for (UserId u = 0; u < 6; ++u) {
    for (MerchantId v = 0; v < 4; ++v) b.AddEdge(u, v);
  }
  Rng rng(93);
  for (int i = 0; i < 40; ++i) {
    b.AddEdge(static_cast<UserId>(6 + rng.NextBounded(34)),
              static_cast<MerchantId>(4 + rng.NextBounded(26)));
  }
  auto g = b.Build().ValueOrDie();
  auto kc = ComputeKCores(g);
  EXPECT_EQ(kc.degeneracy, 4);
  for (UserId u = 0; u < 6; ++u) EXPECT_EQ(kc.user_core[u], 4);
}

}  // namespace
}  // namespace ensemfdet

#include "sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

// 40 users × 20 merchants random-ish graph with 200 distinct edges.
BipartiteGraph MediumGraph(uint64_t seed = 5) {
  Rng rng(seed);
  GraphBuilder b(40, 20);
  std::set<std::pair<UserId, MerchantId>> seen;
  while (seen.size() < 200) {
    UserId u = static_cast<UserId>(rng.NextBounded(40));
    MerchantId v = static_cast<MerchantId>(rng.NextBounded(20));
    if (seen.insert({u, v}).second) b.AddEdge(u, v);
  }
  return b.Build().ValueOrDie();
}

TEST(SampleMethodTest, NamesRoundTrip) {
  for (SampleMethod m :
       {SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
        SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide}) {
    auto parsed = ParseSampleMethod(SampleMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
}

TEST(SampleMethodTest, UnknownNameFails) {
  auto parsed = ParseSampleMethod("bogus");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
}

TEST(MakeSamplerTest, RejectsBadRatio) {
  EXPECT_FALSE(MakeSampler(SampleMethod::kRandomEdge, 0.0).ok());
  EXPECT_FALSE(MakeSampler(SampleMethod::kRandomEdge, -0.1).ok());
  EXPECT_FALSE(MakeSampler(SampleMethod::kRandomEdge, 1.5).ok());
  EXPECT_TRUE(MakeSampler(SampleMethod::kRandomEdge, 1.0).ok());
}

TEST(MakeSamplerTest, ReportsMethodAndRatio) {
  for (SampleMethod m :
       {SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
        SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide}) {
    auto sampler = MakeSampler(m, 0.25).ValueOrDie();
    EXPECT_EQ(sampler->method(), m);
    EXPECT_DOUBLE_EQ(sampler->ratio(), 0.25);
  }
}

TEST(RandomEdgeSamplerTest, ExactEdgeCount) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kRandomEdge, 0.1).ValueOrDie();
  Rng rng(1);
  SubgraphView view = sampler->Sample(g, &rng);
  EXPECT_EQ(view.graph.num_edges(), 20);  // ⌊0.1 · 200⌋
}

TEST(RandomEdgeSamplerTest, TinyRatioStillSamplesOneEdge) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kRandomEdge, 1e-6).ValueOrDie();
  Rng rng(2);
  SubgraphView view = sampler->Sample(g, &rng);
  EXPECT_EQ(view.graph.num_edges(), 1);
}

TEST(RandomEdgeSamplerTest, FullRatioKeepsAllEdges) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kRandomEdge, 1.0).ValueOrDie();
  Rng rng(3);
  SubgraphView view = sampler->Sample(g, &rng);
  EXPECT_EQ(view.graph.num_edges(), g.num_edges());
}

TEST(RandomEdgeSamplerTest, SampledEdgesExistInParent) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kRandomEdge, 0.3).ValueOrDie();
  Rng rng(4);
  SubgraphView view = sampler->Sample(g, &rng);
  for (EdgeId e = 0; e < view.graph.num_edges(); ++e) {
    const Edge& local = view.graph.edge(e);
    EXPECT_TRUE(g.HasEdge(view.ToParentUser(local.user),
                          view.ToParentMerchant(local.merchant)));
  }
}

TEST(RandomEdgeSamplerTest, NoIsolatedNodesInSample) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kRandomEdge, 0.05).ValueOrDie();
  Rng rng(5);
  SubgraphView view = sampler->Sample(g, &rng);
  for (int64_t u = 0; u < view.graph.num_users(); ++u) {
    EXPECT_GT(view.graph.user_degree(static_cast<UserId>(u)), 0);
  }
  for (int64_t v = 0; v < view.graph.num_merchants(); ++v) {
    EXPECT_GT(view.graph.merchant_degree(static_cast<MerchantId>(v)), 0);
  }
}

TEST(RandomEdgeSamplerTest, ReweightScalesWeightsByInverseRatio) {
  auto g = MediumGraph();
  auto sampler =
      MakeSampler(SampleMethod::kRandomEdge, 0.25, /*reweight=*/true)
          .ValueOrDie();
  Rng rng(6);
  SubgraphView view = sampler->Sample(g, &rng);
  ASSERT_TRUE(view.graph.has_weights());
  for (EdgeId e = 0; e < view.graph.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(view.graph.edge_weight(e), 4.0);
  }
}

TEST(RandomEdgeSamplerTest, DistinctSeedsDistinctSamples) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kRandomEdge, 0.1).ValueOrDie();
  Rng r1(7), r2(8);
  SubgraphView a = sampler->Sample(g, &r1);
  SubgraphView b = sampler->Sample(g, &r2);
  EXPECT_TRUE(a.user_map != b.user_map || a.merchant_map != b.merchant_map);
}

TEST(RandomEdgeSamplerTest, SameSeedSameSample) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kRandomEdge, 0.1).ValueOrDie();
  Rng r1(9), r2(9);
  SubgraphView a = sampler->Sample(g, &r1);
  SubgraphView b = sampler->Sample(g, &r2);
  EXPECT_EQ(a.user_map, b.user_map);
  EXPECT_EQ(a.merchant_map, b.merchant_map);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
}

TEST(OneSideNodeSamplerTest, UserSideCountsAndRows) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kOneSideUser, 0.25).ValueOrDie();
  Rng rng(10);
  SubgraphView view = sampler->Sample(g, &rng);
  // ⌊0.25 · 40⌋ = 10 users drawn; isolated draws would shrink the count but
  // MediumGraph has no isolated users.
  EXPECT_EQ(view.graph.num_users(), 10);
  // Every sampled user keeps its full parent row.
  for (int64_t lu = 0; lu < view.graph.num_users(); ++lu) {
    UserId pu = view.user_map[static_cast<size_t>(lu)];
    EXPECT_EQ(view.graph.user_degree(static_cast<UserId>(lu)),
              g.user_degree(pu));
  }
}

TEST(OneSideNodeSamplerTest, MerchantSideKeepsColumns) {
  auto g = MediumGraph();
  auto sampler =
      MakeSampler(SampleMethod::kOneSideMerchant, 0.2).ValueOrDie();
  Rng rng(11);
  SubgraphView view = sampler->Sample(g, &rng);
  EXPECT_EQ(view.graph.num_merchants(), 4);  // ⌊0.2 · 20⌋
  for (int64_t lv = 0; lv < view.graph.num_merchants(); ++lv) {
    MerchantId pv = view.merchant_map[static_cast<size_t>(lv)];
    EXPECT_EQ(view.graph.merchant_degree(static_cast<MerchantId>(lv)),
              g.merchant_degree(pv));
  }
}

TEST(TwoSideNodeSamplerTest, BothSidesSampledCrossSectionOnly) {
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kTwoSide, 0.5).ValueOrDie();
  Rng rng(12);
  SubgraphView view = sampler->Sample(g, &rng);
  EXPECT_EQ(view.graph.num_users(), 20);      // ⌊0.5·40⌋
  EXPECT_EQ(view.graph.num_merchants(), 10);  // ⌊0.5·20⌋
  // Cross-section: subgraph edges are exactly the parent edges between the
  // selected sides.
  int64_t expected = 0;
  std::set<UserId> users(view.user_map.begin(), view.user_map.end());
  std::set<MerchantId> merchants(view.merchant_map.begin(),
                                 view.merchant_map.end());
  for (const Edge& e : g.edges()) {
    if (users.count(e.user) && merchants.count(e.merchant)) ++expected;
  }
  EXPECT_EQ(view.graph.num_edges(), expected);
}

TEST(TwoSideNodeSamplerTest, EdgeCountScalesAsRatioSquared) {
  // The paper's §IV-A4 point: TNS keeps ≈ S² of the edges.
  auto g = MediumGraph();
  auto sampler = MakeSampler(SampleMethod::kTwoSide, 0.5).ValueOrDie();
  double total = 0.0;
  constexpr int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(100 + static_cast<uint64_t>(t));
    total += static_cast<double>(sampler->Sample(g, &rng).graph.num_edges());
  }
  const double avg_fraction =
      total / kTrials / static_cast<double>(g.num_edges());
  EXPECT_NEAR(avg_fraction, 0.25, 0.06);  // S² = 0.25
}

// The mask samplers' draw: the set Rng::SampleWithoutReplacement draws,
// ascending, for exactly its rng consumption, on both sides of the
// dense/sparse split. One scratch serves every draw while the population
// shrinks and grows, so each dense draw starts from the bitmap the
// previous one re-zeroed.
template <typename T>
void ExpectDrawSortedMatchesRng(EdgeMaskScratch* scratch, uint64_t n,
                                uint64_t k, uint64_t seed) {
  SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
  Rng reference(seed);
  Rng rng(seed);
  std::vector<uint64_t> want = reference.SampleWithoutReplacement(n, k);
  std::sort(want.begin(), want.end());
  std::vector<T> got = {T{7}};  // stale content must be cleared
  scratch->DrawSorted(&rng, n, k, &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<uint64_t>(got[i]), want[i]) << "draw " << i;
  }
  EXPECT_EQ(rng.NextUint64(), reference.NextUint64()) << "rng stream moved";
  for (uint64_t word : scratch->draw_bits) ASSERT_EQ(word, 0u);
}

TEST(EdgeMaskScratchTest, DrawSortedIsTheRngDrawAscending) {
  EdgeMaskScratch scratch;
  uint64_t seed = 1;
  for (uint64_t n : {1, 2, 1000, 2, 1, 1000}) {
    // k = n/16 − 1 is the largest sparse draw, n/16 the smallest dense
    // one (for n < 16 every draw is dense and n/16 − 1 wraps: skipped).
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, n / 16 - 1, n / 16, n}) {
      if (k > n) continue;
      ExpectDrawSortedMatchesRng<uint32_t>(&scratch, n, k, seed++);
      ExpectDrawSortedMatchesRng<EdgeId>(&scratch, n, k, seed++);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SamplerTest, AllMethodsProduceValidSubgraphIds) {
  auto g = MediumGraph();
  for (SampleMethod m :
       {SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
        SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide}) {
    auto sampler = MakeSampler(m, 0.3).ValueOrDie();
    Rng rng(13);
    SubgraphView view = sampler->Sample(g, &rng);
    for (UserId pu : view.user_map) EXPECT_LT(pu, g.num_users());
    for (MerchantId pv : view.merchant_map) EXPECT_LT(pv, g.num_merchants());
    // Maps are strictly ascending (sorted unique).
    EXPECT_TRUE(std::is_sorted(view.user_map.begin(), view.user_map.end()));
    EXPECT_TRUE(std::adjacent_find(view.user_map.begin(),
                                   view.user_map.end()) ==
                view.user_map.end());
  }
}

}  // namespace
}  // namespace ensemfdet

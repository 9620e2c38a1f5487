#include "ensemble/ensemfdet.h"

#include <algorithm>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"

namespace ensemfdet {
namespace {

// A dense 12×5 planted block in a 200×80 sparse background.
BipartiteGraph PlantedGraph() {
  GraphBuilder b(200, 80);
  for (UserId u = 0; u < 12; ++u) {
    for (MerchantId v = 0; v < 5; ++v) b.AddEdge(u, v);
  }
  Rng rng(41);
  for (int i = 0; i < 400; ++i) {
    b.AddEdge(static_cast<UserId>(12 + rng.NextBounded(188)),
              static_cast<MerchantId>(5 + rng.NextBounded(75)));
  }
  return b.Build().ValueOrDie();
}

EnsemFDetConfig SmallConfig() {
  EnsemFDetConfig cfg;
  cfg.num_samples = 12;
  cfg.ratio = 0.3;
  cfg.seed = 77;
  cfg.fdet.max_blocks = 8;
  return cfg;
}

TEST(EnsemFDetConfigTest, RepetitionRate) {
  EnsemFDetConfig cfg;
  cfg.num_samples = 80;
  cfg.ratio = 0.1;
  EXPECT_DOUBLE_EQ(cfg.RepetitionRate(), 8.0);
}

TEST(EnsemFDetTest, RejectsBadConfig) {
  auto g = PlantedGraph();
  EnsemFDetConfig cfg = SmallConfig();
  cfg.num_samples = 0;
  EXPECT_FALSE(EnsemFDet(cfg).Run(g).ok());

  cfg = SmallConfig();
  cfg.ratio = 0.0;
  EXPECT_FALSE(EnsemFDet(cfg).Run(g).ok());

  cfg = SmallConfig();
  cfg.fdet.max_blocks = 0;
  EXPECT_FALSE(EnsemFDet(cfg).Run(g).ok());
}

TEST(EnsemFDetTest, ReportShape) {
  auto g = PlantedGraph();
  auto report = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  EXPECT_EQ(report.num_samples, 12);
  EXPECT_EQ(report.members.size(), 12u);
  EXPECT_EQ(report.votes.num_users(), g.num_users());
  EXPECT_EQ(report.votes.num_merchants(), g.num_merchants());
  EXPECT_GE(report.total_seconds, 0.0);
  for (const auto& m : report.members) {
    EXPECT_GT(m.sample_edges, 0);
    EXPECT_GE(m.num_blocks, 0);
  }
}

TEST(EnsemFDetTest, VotesBoundedByN) {
  auto g = PlantedGraph();
  auto report = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  for (int64_t u = 0; u < g.num_users(); ++u) {
    EXPECT_GE(report.votes.user_votes(static_cast<UserId>(u)), 0);
    EXPECT_LE(report.votes.user_votes(static_cast<UserId>(u)),
              report.num_samples);
  }
}

TEST(EnsemFDetTest, PlantedUsersOutvoteBackground) {
  auto g = PlantedGraph();
  auto report = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  double planted = 0.0, background = 0.0;
  for (UserId u = 0; u < 12; ++u) planted += report.votes.user_votes(u);
  for (int64_t u = 12; u < g.num_users(); ++u) {
    background += report.votes.user_votes(static_cast<UserId>(u));
  }
  planted /= 12.0;
  background /= static_cast<double>(g.num_users() - 12);
  EXPECT_GT(planted, 2.0 * background + 1.0)
      << "planted avg " << planted << " background avg " << background;
}

TEST(EnsemFDetTest, HighThresholdRecoversPlantedBlock) {
  auto g = PlantedGraph();
  EnsemFDetConfig cfg = SmallConfig();
  cfg.num_samples = 20;
  auto report = EnsemFDet(cfg).Run(g).ValueOrDie();
  // At a mid threshold most accepted users should be planted.
  const int32_t threshold = 8;
  auto accepted = report.AcceptedUsers(threshold);
  ASSERT_FALSE(accepted.empty());
  int64_t planted_hits = 0;
  for (UserId u : accepted) planted_hits += (u < 12);
  EXPECT_GE(static_cast<double>(planted_hits) /
                static_cast<double>(accepted.size()),
            0.7);
}

TEST(EnsemFDetTest, DeterministicAcrossRuns) {
  auto g = PlantedGraph();
  auto a = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  auto b = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  for (int64_t u = 0; u < g.num_users(); ++u) {
    EXPECT_EQ(a.votes.user_votes(static_cast<UserId>(u)),
              b.votes.user_votes(static_cast<UserId>(u)));
  }
}

TEST(EnsemFDetTest, ParallelMatchesSequential) {
  auto g = PlantedGraph();
  ThreadPool pool(4);
  auto seq = EnsemFDet(SmallConfig()).Run(g, nullptr).ValueOrDie();
  auto par = EnsemFDet(SmallConfig()).Run(g, &pool).ValueOrDie();
  for (int64_t u = 0; u < g.num_users(); ++u) {
    EXPECT_EQ(seq.votes.user_votes(static_cast<UserId>(u)),
              par.votes.user_votes(static_cast<UserId>(u)));
  }
  for (int64_t v = 0; v < g.num_merchants(); ++v) {
    EXPECT_EQ(seq.votes.merchant_votes(static_cast<MerchantId>(v)),
              par.votes.merchant_votes(static_cast<MerchantId>(v)));
  }
}

TEST(EnsemFDetTest, DifferentSeedsDifferentVotes) {
  auto g = PlantedGraph();
  EnsemFDetConfig cfg_a = SmallConfig();
  EnsemFDetConfig cfg_b = SmallConfig();
  cfg_b.seed = cfg_a.seed + 1;
  auto a = EnsemFDet(cfg_a).Run(g).ValueOrDie();
  auto b = EnsemFDet(cfg_b).Run(g).ValueOrDie();
  bool any_diff = false;
  for (int64_t u = 0; u < g.num_users(); ++u) {
    any_diff |= a.votes.user_votes(static_cast<UserId>(u)) !=
                b.votes.user_votes(static_cast<UserId>(u));
  }
  EXPECT_TRUE(any_diff);
}

TEST(EnsemFDetTest, AllSamplingMethodsRun) {
  auto g = PlantedGraph();
  for (SampleMethod m :
       {SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
        SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide}) {
    EnsemFDetConfig cfg = SmallConfig();
    cfg.method = m;
    cfg.num_samples = 4;
    auto report = EnsemFDet(cfg).Run(g);
    ASSERT_TRUE(report.ok()) << SampleMethodName(m);
    EXPECT_EQ(report->members.size(), 4u);
  }
}

TEST(EnsemFDetTest, SingleSampleWorks) {
  auto g = PlantedGraph();
  EnsemFDetConfig cfg = SmallConfig();
  cfg.num_samples = 1;
  cfg.ratio = 1.0;
  auto report = EnsemFDet(cfg).Run(g).ValueOrDie();
  EXPECT_EQ(report.votes.max_user_votes(), 1);
}

TEST(EnsemFDetTest, WeightedVotesConsistentWithPlainVotes) {
  auto g = PlantedGraph();
  auto report = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  ASSERT_EQ(static_cast<int64_t>(report.weighted_user_votes.size()),
            g.num_users());
  ASSERT_EQ(static_cast<int64_t>(report.weighted_merchant_votes.size()),
            g.num_merchants());
  for (int64_t u = 0; u < g.num_users(); ++u) {
    const UserId id = static_cast<UserId>(u);
    const double weighted = report.weighted_user_votes[static_cast<size_t>(u)];
    if (report.votes.user_votes(id) == 0) {
      EXPECT_DOUBLE_EQ(weighted, 0.0);
    } else {
      EXPECT_GT(weighted, 0.0);
    }
  }
}

TEST(EnsemFDetTest, WeightedVotesDeterministicAndThreadInvariant) {
  auto g = PlantedGraph();
  ThreadPool pool(4);
  auto seq = EnsemFDet(SmallConfig()).Run(g, nullptr).ValueOrDie();
  auto par = EnsemFDet(SmallConfig()).Run(g, &pool).ValueOrDie();
  for (int64_t u = 0; u < g.num_users(); ++u) {
    EXPECT_DOUBLE_EQ(seq.weighted_user_votes[static_cast<size_t>(u)],
                     par.weighted_user_votes[static_cast<size_t>(u)]);
  }
}

TEST(EnsemFDetTest, WeightedVotesFavorPlantedBlock) {
  auto g = PlantedGraph();
  auto report = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  double planted = 0.0, background = 0.0;
  for (UserId u = 0; u < 12; ++u) {
    planted += report.weighted_user_votes[u];
  }
  for (int64_t u = 12; u < g.num_users(); ++u) {
    background += report.weighted_user_votes[static_cast<size_t>(u)];
  }
  planted /= 12.0;
  background /= static_cast<double>(g.num_users() - 12);
  EXPECT_GT(planted, 2.0 * background);
}

TEST(EnsemFDetTest, MerchantVotesAlsoAccumulate) {
  auto g = PlantedGraph();
  auto report = EnsemFDet(SmallConfig()).Run(g).ValueOrDie();
  int64_t total_merchant_votes = 0;
  for (int64_t v = 0; v < g.num_merchants(); ++v) {
    total_merchant_votes +=
        report.votes.merchant_votes(static_cast<MerchantId>(v));
  }
  EXPECT_GT(total_merchant_votes, 0);
}

// The arena-bytes gauge counts a worker's arena while the worker lives
// and drops it when the worker's thread exits.
TEST(EnsemFDetTest, ArenaBytesGaugeFollowsLiveArenas) {
  if (!obs::kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "ensemfdet_detect_arena_bytes");
  const BipartiteGraph graph = PlantedGraph();
  const int64_t before = gauge->Value();
  int64_t during = 0;
  std::thread worker([&] {
    ASSERT_TRUE(EnsemFDet(SmallConfig()).Run(graph).ok());
    during = gauge->Value();
  });
  worker.join();
  EXPECT_GT(during, before);
  EXPECT_EQ(gauge->Value(), before);
}

}  // namespace
}  // namespace ensemfdet

// Umbrella-header smoke tests: everything a downstream user does through
// core/ensemfdet.h alone — generate, detect (batch, streaming), evaluate
// against every baseline, persist. If this compiles and passes, the
// public API surface is intact end to end. Components and k-cores are
// test-only referees (tests/referee/), included on their own.
#include "core/ensemfdet.h"

#include <gtest/gtest.h>

#include "referee/components.h"
#include "referee/kcore.h"

namespace ensemfdet {
namespace {

class CoreApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(
        GenerateJdPreset(JdPreset::kDataset1, 0.005, 77).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static const Dataset& data() { return *dataset_; }
  static Dataset* dataset_;
};

Dataset* CoreApiTest::dataset_ = nullptr;

TEST_F(CoreApiTest, FullBatchPipeline) {
  EnsemFDetConfig cfg;
  cfg.num_samples = 10;
  cfg.ratio = 0.2;
  cfg.seed = 1;
  auto report =
      EnsemFDet(cfg).Run(data().graph, &DefaultThreadPool()).ValueOrDie();
  auto points = VoteSweep(report.votes, data().blacklist, cfg.num_samples);
  EXPECT_FALSE(points.empty());
  EXPECT_GE(PrCurveArea(points), 0.0);
}

TEST_F(CoreApiTest, AllBaselinesRunViaUmbrella) {
  FraudarConfig fraudar_cfg;
  fraudar_cfg.num_blocks = 5;
  EXPECT_TRUE(RunFraudar(data().graph, fraudar_cfg).ok());
  SpokenConfig spoken_cfg;
  spoken_cfg.num_components = 5;
  EXPECT_TRUE(RunSpoken(data().graph, spoken_cfg).ok());
  FboxConfig fbox_cfg;
  fbox_cfg.num_components = 5;
  EXPECT_TRUE(RunFbox(data().graph, fbox_cfg).ok());
  EXPECT_TRUE(RunHits(data().graph).ok());
}

TEST_F(CoreApiTest, GraphUtilitiesAvailable) {
  auto cc = FindConnectedComponents(data().graph);
  EXPECT_GT(cc.num_components(), 0);
  auto kc = ComputeKCores(data().graph);
  EXPECT_GT(kc.degeneracy, 0);
  auto stats = ComputeDegreeStats(data().graph, Side::kMerchant);
  EXPECT_GT(stats.avg_degree, 0.0);
}

TEST_F(CoreApiTest, StreamingPipelineViaUmbrella) {
  StreamTimelineConfig timeline;
  timeline.horizon = 10000;
  timeline.burst_duration = 800;
  auto events = BuildTransactionStream(data(), timeline).ValueOrDie();
  ASSERT_FALSE(events.empty());

  WindowedDetectorConfig wd;
  wd.num_users = data().graph.num_users();
  wd.num_merchants = data().graph.num_merchants();
  wd.window = 2000;
  wd.detection_interval = 2000;
  wd.ensemble.num_samples = 4;
  wd.ensemble.ratio = 0.5;
  WindowedDetector detector(wd);
  for (const Transaction& tx : events) {
    ASSERT_TRUE(detector.Ingest(tx).ok());
  }
  EXPECT_TRUE(detector.DetectNow().ok());
}

TEST_F(CoreApiTest, PersistenceRoundTripViaUmbrella) {
  const std::string graph_path = testing::TempDir() + "/api_graph.tsv";
  ASSERT_TRUE(SaveEdgeListTsv(data().graph, graph_path).ok());
  auto loaded = LoadEdgeListTsv(graph_path).ValueOrDie();
  EXPECT_EQ(loaded.num_edges(), data().graph.num_edges());

  EnsemFDetConfig cfg;
  cfg.num_samples = 4;
  cfg.ratio = 0.3;
  auto report = EnsemFDet(cfg).Run(loaded).ValueOrDie();
  const std::string votes_path = testing::TempDir() + "/api_votes.csv";
  ASSERT_TRUE(SaveVotesCsv(report, votes_path).ok());
  EXPECT_TRUE(LoadVotesCsv(votes_path).ok());
}

TEST_F(CoreApiTest, RocAndPrTooling) {
  SpokenConfig cfg;
  cfg.num_components = 5;
  auto spoken = RunSpoken(data().graph, cfg).ValueOrDie();
  auto roc = RocCurve(spoken.user_scores, data().blacklist);
  const double auc = RocAuc(roc);
  EXPECT_GT(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

}  // namespace
}  // namespace ensemfdet

// The incremental-ingest acceptance property: dirty-scoped streaming
// re-detection is *bit-exact* against a full-window rerun — votes,
// weighted votes, and per-member structural stats — across seeds, all
// four sampling methods, cache evictions, and thread-pool widths
// (wall-clock `seconds` and `arena_grow_events` are the only fields
// allowed to differ; they measure the run, not the result). A serial
// referee built from pieces outside the detector (ReferenceDetect below)
// pins what the detector computes, not just that it agrees with itself.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "datagen/generator.h"
#include "datagen/transaction_stream.h"
#include "detect/fdet.h"
#include "ensemble/ensemfdet.h"
#include "ensemble/vote_table.h"
#include "graph/csr_graph.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "ingest/dynamic_graph_store.h"
#include "ingest/streaming_detector.h"
#include "obs/metrics.h"
#include "referee/components.h"

namespace ensemfdet {
namespace {

// Bit-exact report comparison (see file comment for the two exclusions).
void ExpectReportsIdentical(const EnsemFDetReport& a,
                            const EnsemFDetReport& b, const char* what) {
  ASSERT_EQ(a.num_samples, b.num_samples) << what;
  ASSERT_EQ(a.votes.num_users(), b.votes.num_users()) << what;
  ASSERT_EQ(a.votes.num_merchants(), b.votes.num_merchants()) << what;
  for (UserId u = 0; u < a.votes.num_users(); ++u) {
    ASSERT_EQ(a.votes.user_votes(u), b.votes.user_votes(u))
        << what << " user " << u;
  }
  for (MerchantId v = 0; v < a.votes.num_merchants(); ++v) {
    ASSERT_EQ(a.votes.merchant_votes(v), b.votes.merchant_votes(v))
        << what << " merchant " << v;
  }
  // Weighted votes must be identical *bits*, not approximately equal —
  // both paths accumulate in the same order by construction.
  ASSERT_EQ(a.weighted_user_votes, b.weighted_user_votes) << what;
  ASSERT_EQ(a.weighted_merchant_votes, b.weighted_merchant_votes) << what;
  ASSERT_EQ(a.members.size(), b.members.size()) << what;
  for (size_t i = 0; i < a.members.size(); ++i) {
    ASSERT_EQ(a.members[i].sample_users, b.members[i].sample_users)
        << what << " member " << i;
    ASSERT_EQ(a.members[i].sample_merchants, b.members[i].sample_merchants)
        << what << " member " << i;
    ASSERT_EQ(a.members[i].sample_edges, b.members[i].sample_edges)
        << what << " member " << i;
    ASSERT_EQ(a.members[i].num_blocks, b.members[i].num_blocks)
        << what << " member " << i;
  }
}

// The live edge set as an adjacency graph, built from the merged iteration
// through GraphBuilder rather than the detector's CollectLiveEdges.
BipartiteGraph LiveGraph(const GraphVersion& version) {
  GraphBuilder builder(version.num_users(), version.num_merchants());
  version.ForEachEdge([&](UserId u, MerchantId v) { builder.AddEdge(u, v); });
  return builder.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
}

// The referee: StreamingDetector::Detect re-derived serially from pieces
// the detector does not use. Components come from LiveGraph plus
// FindConnectedComponents (tests/referee/components.h),
// whose smallest-packed-id order (edgeless singletons dropped) is the
// detector's component order. Each component's member blocks come from
// the ensemble's per-member entry point, which ensemble_parity_test pins
// against RunEnsembleReference (tests/referee/ensemble_reference.h). The
// aggregation is a plain copy of the serial merge, truncate and
// epoch-stamped vote loop. Seeds follow the detector's documented rule,
// HashCombine(seed, fingerprint of the component's canonical edges).
uint64_t ReferenceComponentFingerprint(const std::vector<Edge>& edges) {
  uint64_t h = HashValue<uint64_t>(0x636f6d70u);  // domain tag "comp"
  h = HashCombine(h, HashValue(static_cast<int64_t>(edges.size())));
  h = HashCombine(h, Hash64(edges.data(), edges.size() * sizeof(Edge)));
  return h;
}

// One component's local graph (ids are ranks among its global ids) and
// ensemble config: fixed-k exploration, seeded by the documented rule.
struct ReferenceComponent {
  std::vector<UserId> users;
  std::vector<MerchantId> merchants;
  CsrGraph csr;
  EnsemFDetConfig ensemble;
};

ReferenceComponent BuildReferenceComponent(
    const std::vector<Edge>& edges, const StreamingDetectorConfig& config) {
  ReferenceComponent c;
  for (const Edge& e : edges) {
    c.users.push_back(e.user);
    c.merchants.push_back(e.merchant);
  }
  std::sort(c.users.begin(), c.users.end());
  c.users.erase(std::unique(c.users.begin(), c.users.end()), c.users.end());
  std::sort(c.merchants.begin(), c.merchants.end());
  c.merchants.erase(std::unique(c.merchants.begin(), c.merchants.end()),
                    c.merchants.end());
  GraphBuilder builder(static_cast<int64_t>(c.users.size()),
                       static_cast<int64_t>(c.merchants.size()));
  for (const Edge& e : edges) {
    builder.AddEdge(
        static_cast<UserId>(
            std::lower_bound(c.users.begin(), c.users.end(), e.user) -
            c.users.begin()),
        static_cast<MerchantId>(
            std::lower_bound(c.merchants.begin(), c.merchants.end(),
                             e.merchant) -
            c.merchants.begin()));
  }
  c.csr = CsrGraph::FromBipartite(
      builder.Build(DuplicatePolicy::kKeepFirst).ValueOrDie());

  c.ensemble = config.ensemble;
  c.ensemble.seed = HashCombine(config.ensemble.seed,
                                ReferenceComponentFingerprint(edges));
  c.ensemble.fdet.policy = TruncationPolicy::kFixedK;
  c.ensemble.fdet.fixed_k = config.ensemble.fdet.max_blocks;
  return c;
}

// One component's N members, block nodes in global ids.
std::vector<EnsembleMemberBlocks> ReferenceComponentMembers(
    const std::vector<Edge>& edges, const StreamingDetectorConfig& config) {
  const ReferenceComponent c = BuildReferenceComponent(edges, config);
  const EnsemFDet ensemble(c.ensemble);
  std::vector<EnsembleMemberBlocks> members;
  for (int i = 0; i < c.ensemble.num_samples; ++i) {
    EnsembleMemberBlocks member = ensemble.RunMember(c.csr, i).ValueOrDie();
    for (DetectedBlock& block : member.blocks) {
      for (UserId& u : block.users) u = c.users[u];
      for (MerchantId& v : block.merchants) v = c.merchants[v];
    }
    members.push_back(std::move(member));
  }
  return members;
}

// The eligible components' canonical edge lists, in the detector's
// component order.
std::vector<std::vector<Edge>> ReferenceComponentEdges(
    const GraphVersion& version, const StreamingDetectorConfig& config) {
  const BipartiteGraph graph = LiveGraph(version);
  const ConnectedComponents cc = FindConnectedComponents(graph);
  std::vector<std::vector<Edge>> comp_edges(
      static_cast<size_t>(cc.num_components()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    comp_edges[static_cast<size_t>(cc.user_component[edge.user])].push_back(
        edge);
  }
  std::vector<std::vector<Edge>> eligible;
  for (std::vector<Edge>& edges : comp_edges) {
    if (edges.empty() ||
        static_cast<int64_t>(edges.size()) < config.min_component_edges) {
      continue;
    }
    eligible.push_back(std::move(edges));
  }
  return eligible;
}

EnsemFDetReport ReferenceDetect(const GraphVersion& version,
                                const StreamingDetectorConfig& config) {
  std::vector<std::vector<EnsembleMemberBlocks>> components;
  for (const std::vector<Edge>& edges :
       ReferenceComponentEdges(version, config)) {
    components.push_back(ReferenceComponentMembers(edges, config));
  }

  const int64_t num_users = version.num_users();
  const int64_t num_merchants = version.num_merchants();
  const int n = config.ensemble.num_samples;
  EnsemFDetReport report;
  report.num_samples = n;
  report.votes = VoteTable(num_users, num_merchants);
  report.weighted_user_votes.assign(static_cast<size_t>(num_users), 0.0);
  report.weighted_merchant_votes.assign(static_cast<size_t>(num_merchants),
                                        0.0);
  report.members.resize(static_cast<size_t>(n));
  std::vector<double> user_weight(static_cast<size_t>(num_users), 0.0);
  std::vector<double> merchant_weight(static_cast<size_t>(num_merchants),
                                      0.0);
  std::vector<uint32_t> user_seen(static_cast<size_t>(num_users), 0);
  std::vector<uint32_t> merchant_seen(static_cast<size_t>(num_merchants), 0);
  uint32_t epoch = 0;
  for (int i = 0; i < n; ++i) {
    std::vector<const DetectedBlock*> merged;
    EnsemFDetReport::MemberStats agg;
    for (const auto& members : components) {
      const EnsembleMemberBlocks& member = members[static_cast<size_t>(i)];
      agg.sample_users += member.stats.sample_users;
      agg.sample_merchants += member.stats.sample_merchants;
      agg.sample_edges += member.stats.sample_edges;
      for (const DetectedBlock& block : member.blocks) merged.push_back(&block);
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const DetectedBlock* a, const DetectedBlock* b) {
                       return a->score > b->score;
                     });
    std::vector<double> scores;
    for (const DetectedBlock* block : merged) scores.push_back(block->score);
    const int keep =
        config.ensemble.fdet.policy == TruncationPolicy::kFixedK
            ? std::min<int>(config.ensemble.fdet.fixed_k,
                            static_cast<int>(merged.size()))
            : AutoTruncationIndex(scores);
    agg.num_blocks = keep;
    report.members[static_cast<size_t>(i)] = agg;

    ++epoch;
    std::vector<UserId> member_users;
    std::vector<MerchantId> member_merchants;
    for (int k = 0; k < keep; ++k) {
      const DetectedBlock& block = *merged[static_cast<size_t>(k)];
      for (UserId u : block.users) {
        if (user_seen[u] != epoch) {
          user_seen[u] = epoch;
          user_weight[u] = block.score;
          member_users.push_back(u);
        } else {
          user_weight[u] = std::max(user_weight[u], block.score);
        }
      }
      for (MerchantId v : block.merchants) {
        if (merchant_seen[v] != epoch) {
          merchant_seen[v] = epoch;
          merchant_weight[v] = block.score;
          member_merchants.push_back(v);
        } else {
          merchant_weight[v] = std::max(merchant_weight[v], block.score);
        }
      }
    }
    report.votes.AddVotes(member_users, member_merchants);
    for (UserId u : member_users) {
      report.weighted_user_votes[u] += user_weight[u];
    }
    for (MerchantId v : member_merchants) {
      report.weighted_merchant_votes[v] += merchant_weight[v];
    }
  }
  return report;
}

// A fragmented campaign-day stream: sparse background (many small
// components) plus dense fraud bursts, so window slides leave plenty of
// clean components for the incremental path to reuse.
std::vector<Transaction> ParityStream(uint64_t seed) {
  DataGenConfig config;
  config.num_users = 500;
  config.num_merchants = 300;
  config.num_edges = 900;
  FraudGroupSpec group;
  group.num_users = 16;
  group.num_merchants = 6;
  group.edges_per_user = 4.0;
  group.camouflage_per_user = 0.0;
  config.fraud_groups.push_back(group);
  config.fraud_groups.push_back(group);
  config.seed = seed;
  Dataset dataset = GenerateDataset(config).ValueOrDie();

  StreamTimelineConfig timeline;
  timeline.horizon = 20000;
  timeline.burst_duration = 1500;
  timeline.seed = seed + 17;
  return BuildTransactionStream(dataset, timeline).ValueOrDie();
}

StreamingDetectorConfig DetectorConfig(SampleMethod method, uint64_t seed) {
  StreamingDetectorConfig config;
  config.ensemble.method = method;
  config.ensemble.num_samples = 5;
  config.ensemble.ratio = 0.35;
  config.ensemble.seed = seed;
  config.ensemble.fdet.max_blocks = 8;
  return config;
}

// Drives one (seed, method) combination: a warm incremental detector vs a
// from-scratch rerun at every interval.
void RunParityCase(SampleMethod method, uint64_t seed, double reweight_ratio,
                   ThreadPool* pool) {
  const std::vector<Transaction> events = ParityStream(seed);

  DynamicGraphStoreConfig store_config;
  store_config.num_users = 500;
  store_config.num_merchants = 300;
  store_config.window = 6000;
  store_config.min_compaction_delta = 64;  // exercise compaction mid-run
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();

  StreamingDetectorConfig detector_config = DetectorConfig(method, seed);
  detector_config.ensemble.reweight_edges = reweight_ratio > 0;
  auto warm = StreamingDetector::Create(detector_config).ValueOrDie();

  int64_t reused_total = 0;
  int64_t intervals = 0;
  size_t next = 0;
  const size_t interval_events = events.size() / 7;
  while (next < events.size()) {
    IngestBatch batch;
    const size_t end = std::min(events.size(), next + interval_events);
    batch.transactions.assign(events.begin() + next, events.begin() + end);
    next = end;
    ASSERT_TRUE(store.Apply(batch).ok());

    GraphVersion version = store.Publish();
    StreamingReport incremental = warm.Detect(version, pool).ValueOrDie();
    // The comparator: an identically configured detector with an empty
    // cache — every component recomputed from scratch.
    auto fresh = StreamingDetector::Create(detector_config).ValueOrDie();
    StreamingReport full = fresh.Detect(version, pool).ValueOrDie();

    ExpectReportsIdentical(incremental.report, full.report,
                           SampleMethodName(method));
    ASSERT_EQ(incremental.fingerprint, full.fingerprint);
    ASSERT_EQ(incremental.stats.components_eligible,
              full.stats.components_eligible);
    ASSERT_EQ(full.stats.components_reused, 0);
    reused_total += incremental.stats.components_reused;
    ++intervals;
  }
  ASSERT_GE(intervals, 5);
  // The incremental path must have actually reused work, or this test
  // proves nothing about dirty scoping.
  EXPECT_GT(reused_total, 0) << SampleMethodName(method);
}

TEST(IngestParityTest, RandomEdgeAcrossSeeds) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    RunParityCase(SampleMethod::kRandomEdge, seed, 0.0, nullptr);
  }
}

TEST(IngestParityTest, OneSideUserAcrossSeeds) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    RunParityCase(SampleMethod::kOneSideUser, seed, 0.0, nullptr);
  }
}

TEST(IngestParityTest, OneSideMerchantAcrossSeeds) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    RunParityCase(SampleMethod::kOneSideMerchant, seed, 0.0, nullptr);
  }
}

TEST(IngestParityTest, TwoSideAcrossSeeds) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    RunParityCase(SampleMethod::kTwoSide, seed, 0.0, nullptr);
  }
}

TEST(IngestParityTest, ReweightedResOnPool) {
  ThreadPool pool(4);
  RunParityCase(SampleMethod::kRandomEdge, 21u, 1.0, &pool);
}

TEST(IngestParityTest, PoolWidthDoesNotChangeResults) {
  const std::vector<Transaction> events = ParityStream(31);
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 500;
  store_config.num_merchants = 300;
  store_config.window = 6000;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
  IngestBatch batch;
  batch.transactions = events;
  ASSERT_TRUE(store.Apply(batch).ok());
  GraphVersion version = store.Publish();

  StreamingDetectorConfig config =
      DetectorConfig(SampleMethod::kRandomEdge, 31);
  auto sequential = StreamingDetector::Create(config).ValueOrDie();
  StreamingReport a = sequential.Detect(version, nullptr).ValueOrDie();
  ThreadPool pool(4);
  auto parallel = StreamingDetector::Create(config).ValueOrDie();
  StreamingReport b = parallel.Detect(version, &pool).ValueOrDie();
  ExpectReportsIdentical(a.report, b.report, "pool width");
}

TEST(IngestParityTest, CacheEvictionNeverChangesResults) {
  // Capacity 1: almost every component is evicted between detections;
  // results must not move.
  const std::vector<Transaction> events = ParityStream(41);
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 500;
  store_config.num_merchants = 300;
  store_config.window = 6000;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();

  StreamingDetectorConfig config =
      DetectorConfig(SampleMethod::kTwoSide, 41);
  StreamingDetectorConfig tiny = config;
  tiny.component_cache_capacity = 1;
  auto warm = StreamingDetector::Create(tiny).ValueOrDie();

  size_t next = 0;
  const size_t step = events.size() / 4;
  while (next < events.size()) {
    IngestBatch batch;
    const size_t end = std::min(events.size(), next + step);
    batch.transactions.assign(events.begin() + next, events.begin() + end);
    next = end;
    ASSERT_TRUE(store.Apply(batch).ok());
    GraphVersion version = store.Publish();
    StreamingReport incremental = warm.Detect(version, nullptr).ValueOrDie();
    auto fresh = StreamingDetector::Create(config).ValueOrDie();
    StreamingReport full = fresh.Detect(version, nullptr).ValueOrDie();
    ExpectReportsIdentical(incremental.report, full.report, "evicting");
  }
  EXPECT_GT(warm.cache_stats().evictions, 0);
}

// Every report of a warm detector equals the serial referee's: all four
// sampling methods plus reweighted RES (with debris pruning), at pool
// widths 1 and 4, with a roomy cache and with a one-entry cache.
TEST(IngestParityTest, MatchesSerialReferee) {
  struct Case {
    SampleMethod method;
    bool reweight;
    int64_t min_component_edges;
  };
  const Case cases[] = {{SampleMethod::kRandomEdge, false, 1},
                        {SampleMethod::kOneSideUser, false, 1},
                        {SampleMethod::kOneSideMerchant, false, 1},
                        {SampleMethod::kTwoSide, false, 1},
                        {SampleMethod::kRandomEdge, true, 3}};
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const std::vector<Transaction> events = ParityStream(51);
  for (const Case& c : cases) {
    for (size_t capacity : {size_t{4096}, size_t{1}}) {
      for (ThreadPool* pool : {&pool1, &pool4}) {
        SCOPED_TRACE(std::string(SampleMethodName(c.method)) +
                     (c.reweight ? " reweighted" : "") +
                     " capacity=" + std::to_string(capacity) +
                     " threads=" + std::to_string(pool->num_threads()));
        DynamicGraphStoreConfig store_config;
        store_config.num_users = 500;
        store_config.num_merchants = 300;
        store_config.window = 6000;
        store_config.min_compaction_delta = 64;
        auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
        StreamingDetectorConfig config = DetectorConfig(c.method, 51);
        config.ensemble.reweight_edges = c.reweight;
        config.min_component_edges = c.min_component_edges;
        config.component_cache_capacity = capacity;
        auto detector = StreamingDetector::Create(config).ValueOrDie();

        size_t next = 0;
        const size_t step = events.size() / 5;
        while (next < events.size()) {
          IngestBatch batch;
          const size_t end = std::min(events.size(), next + step);
          batch.transactions.assign(events.begin() + next,
                                    events.begin() + end);
          next = end;
          ASSERT_TRUE(store.Apply(batch).ok());
          GraphVersion version = store.Publish();
          StreamingReport got = detector.Detect(version, pool).ValueOrDie();
          ExpectReportsIdentical(got.report, ReferenceDetect(version, config),
                                 "referee");
        }
      }
    }
  }
}

// A component whose live edges are fewer than 1/S draws the same
// one-edge sample for most of its members (SampleTargetCount clamps to
// one). Each distinct (component, sample) is peeled once and shared by
// the members that drew it; `components` lists each component's edges
// (global ids). For every sampling method at pool widths 1 and 4, a cold
// detector runs exactly one member peel per distinct sample, counts the
// rest as shared, and still equals the serial referee, which peels every
// member.
void ExpectDistinctSamplesPeeledOnce(
    const std::vector<std::vector<Edge>>& components,
    std::vector<int64_t>* distinct_per_method) {
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 64;
  store_config.num_merchants = 64;
  store_config.window = 1000;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
  IngestBatch batch;
  int64_t t = 0;
  for (const std::vector<Edge>& edges : components) {
    for (const Edge& e : edges) {
      batch.transactions.push_back({t++, e.user, e.merchant});
    }
  }
  ASSERT_TRUE(store.Apply(batch).ok());
  const GraphVersion version = store.Publish();

  obs::Histogram* peels = obs::MetricsRegistry::Global().GetHistogram(
      "ensemfdet_detect_member_peel_seconds");
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (SampleMethod method :
       {SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
        SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide}) {
    StreamingDetectorConfig config = DetectorConfig(method, 71);
    config.ensemble.num_samples = 16;
    config.ensemble.ratio = 0.1;
    const int n = config.ensemble.num_samples;

    // The distinct samples, from each component's member draws.
    const std::vector<std::vector<Edge>> eligible =
        ReferenceComponentEdges(version, config);
    ASSERT_EQ(eligible.size(), components.size());
    int64_t distinct = 0;
    for (const std::vector<Edge>& edges : eligible) {
      const ReferenceComponent c = BuildReferenceComponent(edges, config);
      const EnsemFDet ensemble(c.ensemble);
      std::vector<std::vector<EdgeId>> masks;
      for (int i = 0; i < n; ++i) {
        MemberSample draw =
            ensemble.DrawMember(c.csr, c.ensemble.seed, i).ValueOrDie();
        if (std::find(masks.begin(), masks.end(), draw.mask) == masks.end()) {
          masks.push_back(std::move(draw.mask));
        }
      }
      distinct += static_cast<int64_t>(masks.size());
    }
    distinct_per_method->push_back(distinct);
    const auto num_components = static_cast<int64_t>(components.size());
    const EnsemFDetReport expected = ReferenceDetect(version, config);

    for (ThreadPool* pool : {&pool1, &pool4}) {
      SCOPED_TRACE(std::string(SampleMethodName(method)) +
                   " threads=" + std::to_string(pool->num_threads()));
      auto detector = StreamingDetector::Create(config).ValueOrDie();
      const int64_t peels_before = peels->Count();
      StreamingReport got = detector.Detect(version, pool).ValueOrDie();
      ASSERT_EQ(got.stats.components_recomputed, num_components);
      EXPECT_EQ(got.stats.members_shared, num_components * n - distinct);
      if (obs::kMetricsCompiledIn) {
        EXPECT_EQ(peels->Count() - peels_before, distinct);
      }
      ExpectReportsIdentical(got.report, expected, "shared samples");
    }
  }
}

TEST(IngestParityTest, OneEdgeComponentsPeelOnce) {
  std::vector<std::vector<Edge>> components;
  for (uint32_t k = 0; k < 12; ++k) {
    components.push_back({{k, 2 * k + 1}});
  }
  std::vector<int64_t> distinct;
  ExpectDistinctSamplesPeeledOnce(components, &distinct);
  for (int64_t d : distinct) EXPECT_EQ(d, 12) << "one sample per component";
}

TEST(IngestParityTest, SmallComponentsPeelEachDistinctSampleOnce) {
  // Components of 2, 3, 5, 8, 12 and 19 edges (stars from either side and
  // complete blocks), plus two single edges; users and merchants ascend
  // with the component.
  std::vector<std::vector<Edge>> components;
  components.push_back({{0, 0}, {0, 1}});
  components.push_back({{1, 2}, {2, 2}, {3, 2}});
  std::vector<Edge> star5;
  for (uint32_t v = 3; v < 8; ++v) star5.push_back({4, v});
  components.push_back(star5);
  std::vector<Edge> block8;
  for (uint32_t u = 5; u < 7; ++u) {
    for (uint32_t v = 8; v < 12; ++v) block8.push_back({u, v});
  }
  components.push_back(block8);
  std::vector<Edge> block12;
  for (uint32_t u = 7; u < 10; ++u) {
    for (uint32_t v = 12; v < 16; ++v) block12.push_back({u, v});
  }
  components.push_back(block12);
  std::vector<Edge> star19;
  for (uint32_t v = 16; v < 35; ++v) star19.push_back({10, v});
  components.push_back(star19);
  components.push_back({{11, 35}});
  components.push_back({{12, 36}});
  std::vector<int64_t> distinct;
  ExpectDistinctSamplesPeeledOnce(components, &distinct);
  // Some components draw several samples, and some members share one.
  const auto num_components = static_cast<int64_t>(components.size());
  for (int64_t d : distinct) {
    EXPECT_GT(d, num_components);
    EXPECT_LT(d, 16 * num_components);
  }
}

// A detection looks every eligible component up before it inserts any
// recomputed one, so an insert can only evict entries the same detection
// does not replay. Ten cached two-edge components fill a ten-entry
// cache; one new component that sorts before them all must cost one
// recompute, not a cascade of evictions through the ten.
TEST(IngestParityTest, InsertsNeverEvictWhatTheSameDetectionReplays) {
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 64;
  store_config.num_merchants = 64;
  store_config.window = 1000;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
  IngestBatch batch;
  int64_t t = 0;
  for (int k = 0; k < 10; ++k) {
    const auto u = static_cast<UserId>(10 + k);
    batch.transactions.push_back({t++, u, static_cast<MerchantId>(2 * k)});
    batch.transactions.push_back(
        {t++, u, static_cast<MerchantId>(2 * k + 1)});
  }
  ASSERT_TRUE(store.Apply(batch).ok());
  GraphVersion first = store.Publish();

  StreamingDetectorConfig config =
      DetectorConfig(SampleMethod::kRandomEdge, 5);
  config.component_cache_capacity = 10;
  auto detector = StreamingDetector::Create(config).ValueOrDie();
  StreamingReport r1 = detector.Detect(first, nullptr).ValueOrDie();
  ASSERT_EQ(r1.stats.components_recomputed, 10);
  ASSERT_EQ(detector.cache_size(), 10u);

  IngestBatch extra;
  extra.transactions.push_back({t++, 0, 40});
  extra.transactions.push_back({t++, 0, 41});
  ASSERT_TRUE(store.Apply(extra).ok());
  GraphVersion second = store.Publish();
  StreamingReport r2 = detector.Detect(second, nullptr).ValueOrDie();
  EXPECT_EQ(r2.stats.components_eligible, 11);
  EXPECT_EQ(r2.stats.components_reused, 10);
  EXPECT_EQ(r2.stats.components_recomputed, 1);
  EXPECT_EQ(detector.cache_size(), 10u);

  auto fresh = StreamingDetector::Create(config).ValueOrDie();
  ExpectReportsIdentical(r2.report,
                         fresh.Detect(second, nullptr).ValueOrDie().report,
                         "eviction order");
}

// A report's fingerprint is its version's content identity, taken from
// the labelling pass's walk: it equals the ContentFingerprint() of an
// un-memoized copy of the version (a fresh one rebuilt from its parts) and
// the fingerprint of the live graph built through GraphBuilder, on
// delta-carrying and compacted versions alike.
TEST(IngestParityTest, ReportFingerprintIsTheVersionContent) {
  const std::vector<Transaction> events = ParityStream(61);
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 500;
  store_config.num_merchants = 300;
  store_config.window = 6000;
  store_config.min_compaction_delta = 64;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
  auto detector =
      StreamingDetector::Create(DetectorConfig(SampleMethod::kRandomEdge, 61))
          .ValueOrDie();

  bool saw_delta = false;
  bool saw_compacted = false;
  size_t next = 0;
  const size_t step = events.size() / 6;
  while (next < events.size()) {
    IngestBatch batch;
    const size_t end = std::min(events.size(), next + step);
    batch.transactions.assign(events.begin() + next, events.begin() + end);
    next = end;
    ASSERT_TRUE(store.Apply(batch).ok());
    const GraphVersion version = store.Publish();
    saw_delta = saw_delta || !version.delta_adds().empty() ||
                !version.delta_dead().empty();
    saw_compacted = saw_compacted || version.compacted();
    const StreamingReport report =
        detector.Detect(version, nullptr).ValueOrDie();

    const GraphVersion copy = GraphVersion::FromSnapshotParts(
        version.epoch(), version.num_users(), version.num_merchants(),
        version.compacted(), std::make_shared<const CsrGraph>(version.base()),
        {version.delta_adds().begin(), version.delta_adds().end()},
        {version.delta_dead().begin(), version.delta_dead().end()}, {}, {});
    EXPECT_EQ(report.fingerprint, copy.ContentFingerprint())
        << "epoch " << version.epoch();
    EXPECT_EQ(report.fingerprint, FingerprintGraph(LiveGraph(copy)))
        << "epoch " << version.epoch();
  }
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(saw_compacted);
}

TEST(IngestParityTest, EmptyAndDegenerateVersions) {
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 10;
  store_config.num_merchants = 10;
  store_config.window = 100;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
  StreamingDetectorConfig config =
      DetectorConfig(SampleMethod::kRandomEdge, 7);
  auto detector = StreamingDetector::Create(config).ValueOrDie();

  // Empty window.
  GraphVersion empty = store.Publish();
  StreamingReport r0 = detector.Detect(empty, nullptr).ValueOrDie();
  EXPECT_EQ(r0.report.num_samples, config.ensemble.num_samples);
  EXPECT_EQ(r0.stats.components_total, 0);
  EXPECT_EQ(r0.report.votes.max_user_votes(), 0);

  // Single edge.
  IngestBatch one;
  one.transactions.push_back({0, 3, 4});
  ASSERT_TRUE(store.Apply(one).ok());
  GraphVersion single = store.Publish();
  StreamingReport r1 = detector.Detect(single, nullptr).ValueOrDie();
  EXPECT_EQ(r1.stats.components_total, 1);
  EXPECT_GT(r1.report.votes.user_votes(3), 0);
}

TEST(IngestParityTest, MinComponentEdgesPrunesDebris) {
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 50;
  store_config.num_merchants = 50;
  store_config.window = 1000;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
  IngestBatch batch;
  // One dense 4x3 block + three singleton edges.
  int64_t t = 0;
  for (UserId u = 0; u < 4; ++u) {
    for (MerchantId v = 0; v < 3; ++v) {
      batch.transactions.push_back({t++, u, v});
    }
  }
  for (int i = 0; i < 3; ++i) {
    batch.transactions.push_back({t++, static_cast<UserId>(20 + i),
                                  static_cast<MerchantId>(20 + i)});
  }
  ASSERT_TRUE(store.Apply(batch).ok());
  GraphVersion version = store.Publish();

  StreamingDetectorConfig config =
      DetectorConfig(SampleMethod::kRandomEdge, 9);
  config.min_component_edges = 2;
  auto detector = StreamingDetector::Create(config).ValueOrDie();
  StreamingReport report = detector.Detect(version, nullptr).ValueOrDie();
  EXPECT_EQ(report.stats.components_total, 4);
  EXPECT_EQ(report.stats.components_eligible, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(report.report.votes.user_votes(20 + i), 0)
        << "pruned debris component must not vote";
  }
}

// The narration contract the CLI relies on: Detect mirrors its
// StreamingDetectionStats into the global ensemfdet_stream_* counters en
// bloc, so the counter delta taken across one Detect call equals that
// report's stats exactly — stream-replay prints its per-report lines from
// registry deltas and they stay bit-identical to the report snapshot.
TEST(IngestParityTest, RegistryDeltaMirrorsReportStats) {
  if (!obs::kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  const std::vector<Transaction> events = ParityStream(41);
  DynamicGraphStoreConfig store_config;
  store_config.num_users = 500;
  store_config.num_merchants = 300;
  store_config.window = 6000;
  auto store = DynamicGraphStore::Create(store_config).ValueOrDie();
  auto detector =
      StreamingDetector::Create(DetectorConfig(SampleMethod::kRandomEdge, 41))
          .ValueOrDie();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const char* names[] = {
      "ensemfdet_stream_reports_total",
      "ensemfdet_stream_components_total",
      "ensemfdet_stream_components_eligible_total",
      "ensemfdet_stream_components_reused_total",
      "ensemfdet_stream_components_recomputed_total",
      "ensemfdet_stream_components_touched_total",
      "ensemfdet_stream_edges_total",
      "ensemfdet_stream_edges_recomputed_total",
      "ensemfdet_stream_members_shared_total",
  };
  size_t next = 0;
  const size_t interval_events = events.size() / 4;
  while (next < events.size()) {
    IngestBatch batch;
    const size_t end = std::min(events.size(), next + interval_events);
    batch.transactions.assign(events.begin() + next, events.begin() + end);
    next = end;
    ASSERT_TRUE(store.Apply(batch).ok());
    GraphVersion version = store.Publish();

    std::vector<int64_t> before;
    for (const char* name : names) {
      before.push_back(reg.GetCounter(name)->Value());
    }
    StreamingReport out = detector.Detect(version, nullptr).ValueOrDie();
    const StreamingDetectionStats& s = out.stats;
    const int64_t expected[] = {1,
                                s.components_total,
                                s.components_eligible,
                                s.components_reused,
                                s.components_recomputed,
                                s.components_touched,
                                s.edges_total,
                                s.edges_recomputed,
                                s.members_shared};
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(reg.GetCounter(names[i])->Value() - before[i], expected[i])
          << names[i];
    }
  }
}

}  // namespace
}  // namespace ensemfdet

// Tests for the incremental ingest store: window/multiplicity semantics,
// delta-log + compaction invariants, version immutability, and the
// representation-independent fingerprint contract.
#include "ingest/dynamic_graph_store.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

DynamicGraphStoreConfig SmallConfig() {
  DynamicGraphStoreConfig config;
  config.num_users = 64;
  config.num_merchants = 32;
  config.window = 100;
  config.min_compaction_delta = 1 << 30;  // effectively never compact
  return config;
}

IngestBatch Batch(std::initializer_list<Transaction> txs) {
  IngestBatch batch;
  batch.transactions.assign(txs.begin(), txs.end());
  return batch;
}

// The live edge set as an adjacency graph, built from the merged iteration
// through GraphBuilder (independent of CsrGraph::FromCanonicalEdges).
BipartiteGraph LiveGraph(const GraphVersion& version) {
  GraphBuilder builder(version.num_users(), version.num_merchants());
  version.ForEachEdge([&](UserId u, MerchantId v) { builder.AddEdge(u, v); });
  return builder.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
}

TEST(DynamicGraphStoreTest, CreateValidatesConfig) {
  DynamicGraphStoreConfig config = SmallConfig();
  config.num_users = 0;
  EXPECT_FALSE(DynamicGraphStore::Create(config).ok());
  config = SmallConfig();
  config.compaction_factor = 0.0;
  EXPECT_FALSE(DynamicGraphStore::Create(config).ok());
  config = SmallConfig();
  config.min_compaction_delta = 0;
  EXPECT_FALSE(DynamicGraphStore::Create(config).ok());
  EXPECT_TRUE(DynamicGraphStore::Create(SmallConfig()).ok());
}

TEST(DynamicGraphStoreTest, RejectsOutOfRangeAndOutOfOrder) {
  auto store = DynamicGraphStore::Create(SmallConfig()).ValueOrDie();
  EXPECT_FALSE(store.Apply(Batch({{0, 100, 0}})).ok());
  EXPECT_FALSE(store.Apply(Batch({{0, 0, 100}})).ok());
  ASSERT_TRUE(store.Apply(Batch({{10, 1, 1}})).ok());
  auto regressed = store.Apply(Batch({{5, 2, 2}}));
  ASSERT_FALSE(regressed.ok());
  EXPECT_EQ(regressed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DynamicGraphStoreTest, DuplicateTransactionsCollapseOntoOneEdge) {
  auto store = DynamicGraphStore::Create(SmallConfig()).ValueOrDie();
  auto stats =
      store.Apply(Batch({{0, 3, 4}, {1, 3, 4}, {2, 3, 4}})).ValueOrDie();
  EXPECT_EQ(stats.events_ingested, 3);
  EXPECT_EQ(stats.edges_added, 1);
  EXPECT_EQ(store.live_edges(), 1);
  EXPECT_EQ(store.window_events(), 3);

  // Evicting two of the three occurrences keeps the edge alive…
  stats = store.Apply(Batch({{102, 9, 9}})).ValueOrDie();  // cutoff = 2
  EXPECT_EQ(stats.events_evicted, 2);
  EXPECT_EQ(stats.edges_removed, 0);
  EXPECT_EQ(store.live_edges(), 2);
  // …and only the last occurrence's expiry kills it (here the slide also
  // expires (9,9), so two edges die).
  stats = store.Apply(Batch({{203, 9, 8}})).ValueOrDie();
  EXPECT_EQ(stats.edges_removed, 2);
  EXPECT_EQ(store.live_edges(), 1);  // (9,8)
}

TEST(DynamicGraphStoreTest, PublishedVersionIsImmutable) {
  auto store = DynamicGraphStore::Create(SmallConfig()).ValueOrDie();
  ASSERT_TRUE(store.Apply(Batch({{0, 1, 1}, {0, 2, 2}})).ok());
  GraphVersion v1 = store.Publish();
  EXPECT_EQ(v1.epoch(), 1u);
  EXPECT_EQ(v1.num_edges(), 2);
  const uint64_t fp1 = v1.ContentFingerprint();

  // Mutate the store heavily: new edges, eviction of the originals.
  ASSERT_TRUE(store.Apply(Batch({{150, 5, 5}, {151, 6, 6}})).ok());
  GraphVersion v2 = store.Publish();
  EXPECT_EQ(v2.epoch(), 2u);

  EXPECT_EQ(v1.num_edges(), 2);
  EXPECT_EQ(v1.ContentFingerprint(), fp1);
  std::vector<Edge> v1_edges;
  v1.ForEachEdge([&](UserId u, MerchantId m) { v1_edges.push_back({u, m}); });
  EXPECT_EQ(v1_edges, (std::vector<Edge>{{1, 1}, {2, 2}}));
  EXPECT_NE(v2.ContentFingerprint(), fp1);
}

TEST(DynamicGraphStoreTest, FingerprintMatchesMaterializedForms) {
  auto store = DynamicGraphStore::Create(SmallConfig()).ValueOrDie();
  ASSERT_TRUE(
      store.Apply(Batch({{0, 1, 2}, {1, 4, 3}, {2, 1, 3}, {3, 0, 0}})).ok());
  GraphVersion version = store.Publish();
  BipartiteGraph graph = LiveGraph(version);
  EXPECT_EQ(version.ContentFingerprint(), FingerprintGraph(graph));
  EXPECT_EQ(version.ContentFingerprint(),
            FingerprintGraph(*version.MaterializeCsr()));
  // Same content assembled directly through GraphBuilder fingerprints
  // identically (representation independence).
  GraphBuilder builder(64, 32);
  builder.AddEdge(1, 2);
  builder.AddEdge(4, 3);
  builder.AddEdge(1, 3);
  builder.AddEdge(0, 0);
  EXPECT_EQ(version.ContentFingerprint(),
            FingerprintGraph(builder.Build().ValueOrDie()));
}

TEST(DynamicGraphStoreTest, CompactionPreservesContentAndEmptiesDelta) {
  DynamicGraphStoreConfig config = SmallConfig();
  config.min_compaction_delta = 4;  // trip early
  config.compaction_factor = 0.01;
  auto store = DynamicGraphStore::Create(config).ValueOrDie();

  ASSERT_TRUE(store.Apply(Batch({{0, 1, 1}, {0, 2, 2}})).ok());
  GraphVersion v1 = store.Publish();  // delta=2 < 4 → not compacted
  EXPECT_FALSE(v1.compacted());
  EXPECT_EQ(v1.delta_adds().size(), 2u);

  ASSERT_TRUE(store.Apply(Batch({{1, 3, 3}, {1, 4, 4}, {1, 5, 5}})).ok());
  const uint64_t fp_before = [&] {
    GraphBuilder b(64, 32);
    for (UserId u : {1, 2, 3, 4, 5}) {
      b.AddEdge(u, static_cast<MerchantId>(u));
    }
    return FingerprintGraph(b.Build().ValueOrDie());
  }();
  GraphVersion v2 = store.Publish();  // delta=5 ≥ 4 → compacted
  EXPECT_TRUE(v2.compacted());
  EXPECT_TRUE(v2.delta_adds().empty());
  EXPECT_TRUE(v2.delta_dead().empty());
  EXPECT_EQ(v2.num_edges(), 5);
  EXPECT_EQ(v2.ContentFingerprint(), fp_before);
  EXPECT_EQ(store.stats().compactions, 1);
  // Compacted version's CSR is the base itself (no rebuild).
  EXPECT_EQ(v2.MaterializeCsr().get(), &v2.base());

  // Dead base edges + re-adds after compaction keep the contract.
  ASSERT_TRUE(store.Apply(Batch({{200, 9, 9}})).ok());  // evicts everything
  GraphVersion v3 = store.Publish();
  EXPECT_EQ(v3.num_edges(), 1);
  EXPECT_EQ(v3.ContentFingerprint(), FingerprintGraph(LiveGraph(v3)));
}

// ForEachEdge walks base edge ids and merges the adds in; these pin the
// merge's boundaries on hand-built versions (an 8×8 universe, the base
// below, explicit delta-logs). Every reader of the live set must agree
// with the expected canonical list: ForEachEdge, CollectLiveEdges, the
// fingerprint and MaterializeCsr.
const std::vector<Edge> kBase = {{2, 1}, {2, 3}, {4, 0}, {5, 5}};

void ExpectLiveEdges(std::vector<Edge> base, std::vector<Edge> adds,
                     std::vector<EdgeId> dead,
                     const std::vector<Edge>& expected) {
  const GraphVersion version = GraphVersion::FromSnapshotParts(
      1, 8, 8, /*compacted=*/false,
      std::make_shared<const CsrGraph>(
          CsrGraph::FromCanonicalEdges(8, 8, base)),
      std::move(adds), std::move(dead), {}, {});
  ASSERT_EQ(version.num_edges(), static_cast<int64_t>(expected.size()));
  std::vector<Edge> walked;
  version.ForEachEdge(
      [&](UserId u, MerchantId v) { walked.push_back({u, v}); });
  EXPECT_EQ(walked, expected);
  std::vector<Edge> collected = {{7, 7}};  // replaced, not appended to
  EXPECT_EQ(version.CollectLiveEdges(&collected),
            FingerprintEdges(8, 8, expected));
  EXPECT_EQ(collected, expected);
  EXPECT_EQ(version.ContentFingerprint(), FingerprintEdges(8, 8, expected));
  const std::shared_ptr<const CsrGraph> csr = version.MaterializeCsr();
  ASSERT_EQ(csr->num_edges(), static_cast<int64_t>(expected.size()));
  for (size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(csr->edge_user(static_cast<EdgeId>(e)), expected[e].user);
    EXPECT_EQ(csr->edge_merchant(static_cast<EdgeId>(e)),
              expected[e].merchant);
  }
}

TEST(GraphVersionMergeTest, AddsBeforeFirstAndAfterLastLiveBaseEdge) {
  // (2, 2) sorts between the dead first base edge and the first live one;
  // (5, 6) and (7, 0) sort after the last base edge.
  ExpectLiveEdges(kBase, {{1, 4}, {2, 2}, {5, 6}, {7, 0}}, {0},
                  {{1, 4}, {2, 2}, {2, 3}, {4, 0}, {5, 5}, {5, 6}, {7, 0}});
  ExpectLiveEdges(kBase, {{0, 0}, {6, 1}}, {},
                  {{0, 0}, {2, 1}, {2, 3}, {4, 0}, {5, 5}, {6, 1}});
}

TEST(GraphVersionMergeTest, FirstAndLastBaseEdgeDead) {
  ExpectLiveEdges(kBase, {}, {0, 3}, {{2, 3}, {4, 0}});
  ExpectLiveEdges(kBase, {{2, 0}, {5, 4}}, {0, 3},
                  {{2, 0}, {2, 3}, {4, 0}, {5, 4}});
}

TEST(GraphVersionMergeTest, EveryBaseEdgeDead) {
  ExpectLiveEdges(kBase, {}, {0, 1, 2, 3}, {});
  ExpectLiveEdges(kBase, {{0, 7}, {3, 3}, {7, 7}}, {0, 1, 2, 3},
                  {{0, 7}, {3, 3}, {7, 7}});
}

TEST(GraphVersionMergeTest, EmptyBaseWithAdds) {
  ExpectLiveEdges({}, {{0, 1}, {3, 2}, {3, 6}, {7, 7}}, {},
                  {{0, 1}, {3, 2}, {3, 6}, {7, 7}});
  ExpectLiveEdges({}, {}, {}, {});
}

TEST(DynamicGraphStoreTest, TouchedFrontierTracksStructuralChangesOnly) {
  auto store = DynamicGraphStore::Create(SmallConfig()).ValueOrDie();
  ASSERT_TRUE(store.Apply(Batch({{0, 1, 1}, {1, 1, 1}, {2, 7, 3}})).ok());
  GraphVersion v1 = store.Publish();
  EXPECT_EQ(std::vector<UserId>(v1.touched_users().begin(),
                                v1.touched_users().end()),
            (std::vector<UserId>{1, 7}));
  EXPECT_EQ(std::vector<MerchantId>(v1.touched_merchants().begin(),
                                    v1.touched_merchants().end()),
            (std::vector<MerchantId>{1, 3}));

  // A duplicate of a live edge is not a structural change.
  ASSERT_TRUE(store.Apply(Batch({{3, 1, 1}})).ok());
  GraphVersion v2 = store.Publish();
  EXPECT_TRUE(v2.touched_users().empty());
  EXPECT_TRUE(v2.touched_merchants().empty());

  // Eviction is: (7,3)'s only occurrence at t=2 expires at cutoff 3.
  ASSERT_TRUE(store.Apply(Batch({{103, 2, 2}})).ok());
  GraphVersion v3 = store.Publish();
  EXPECT_TRUE(std::binary_search(v3.touched_users().begin(),
                                 v3.touched_users().end(), 7u));
}

// Randomized cross-check against a naive deque-rebuild reference: after
// every batch the published version must equal the graph rebuilt from the
// raw window, edge for edge and fingerprint for fingerprint — across
// compactions, duplicate collapses, resurrections, and evictions.
TEST(DynamicGraphStoreTest, RandomizedParityWithNaiveWindowRebuild) {
  DynamicGraphStoreConfig config;
  config.num_users = 40;
  config.num_merchants = 20;
  config.window = 50;
  config.min_compaction_delta = 16;  // exercise compaction often
  config.compaction_factor = 0.2;
  auto store = DynamicGraphStore::Create(config).ValueOrDie();

  Rng rng(1234);
  std::vector<Transaction> window_ref;  // the naive window
  int64_t t = 0;
  int64_t publishes_with_delta = 0;
  for (int round = 0; round < 60; ++round) {
    IngestBatch batch;
    const int batch_size = 1 + static_cast<int>(rng.NextBounded(12));
    for (int i = 0; i < batch_size; ++i) {
      t += static_cast<int64_t>(rng.NextBounded(4));
      batch.transactions.push_back(
          {t, static_cast<UserId>(rng.NextBounded(40)),
           static_cast<MerchantId>(rng.NextBounded(20))});
    }
    ASSERT_TRUE(store.Apply(batch).ok());
    // Naive reference: append then drop expired.
    window_ref.insert(window_ref.end(), batch.transactions.begin(),
                      batch.transactions.end());
    window_ref.erase(
        std::remove_if(window_ref.begin(), window_ref.end(),
                       [&](const Transaction& tx) {
                         return tx.timestamp < t - config.window;
                       }),
        window_ref.end());

    GraphVersion version = store.Publish();
    if (!version.delta_adds().empty() || !version.delta_dead().empty()) {
      ++publishes_with_delta;
    }
    GraphBuilder builder(config.num_users, config.num_merchants);
    for (const Transaction& tx : window_ref) {
      builder.AddEdge(tx.user, tx.merchant);
    }
    BipartiteGraph expected =
        builder.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
    ASSERT_EQ(version.num_edges(), expected.num_edges()) << "round " << round;
    ASSERT_EQ(version.ContentFingerprint(), FingerprintGraph(expected))
        << "round " << round;

    // Merged iteration agrees with the materialized graph (exercises
    // dead-skipping and the adds merge).
    std::vector<Edge> via_iter;
    version.ForEachEdge(
        [&](UserId u, MerchantId v) { via_iter.push_back({u, v}); });
    ASSERT_EQ(via_iter.size(), static_cast<size_t>(expected.num_edges()));
    for (EdgeId e = 0; e < expected.num_edges(); ++e) {
      ASSERT_TRUE(via_iter[static_cast<size_t>(e)] == expected.edge(e));
    }
  }
  EXPECT_GT(publishes_with_delta, 0) << "test never exercised the delta path";
  EXPECT_GT(store.stats().compactions, 0)
      << "test never exercised compaction";
}

TEST(DynamicGraphStoreTest, SnapshotCostIsDeltaScoped) {
  // Not a timing test: assert the *structural* O(|delta|) property — a
  // publish after a small change carries a small delta against a large
  // base, instead of rebuilding the window.
  DynamicGraphStoreConfig config;
  config.num_users = 600;
  config.num_merchants = 400;
  config.window = 1 << 20;
  config.min_compaction_delta = 8;  // first publish compacts the bulk load
  auto store = DynamicGraphStore::Create(config).ValueOrDie();

  IngestBatch big;
  for (int i = 0; i < 5000; ++i) {
    big.transactions.push_back({i, static_cast<UserId>(i % 600),
                                static_cast<MerchantId>((i * 7) % 400)});
  }
  ASSERT_TRUE(store.Apply(big).ok());
  GraphVersion v1 = store.Publish();
  ASSERT_TRUE(v1.compacted());
  ASSERT_GT(v1.num_edges(), 1000);

  ASSERT_TRUE(store.Apply(Batch({{6000, 5, 5}})).ok());
  GraphVersion v2 = store.Publish();
  EXPECT_FALSE(v2.compacted());
  EXPECT_LE(static_cast<int64_t>(v2.delta_adds().size() +
                                 v2.delta_dead().size()),
            2);
  EXPECT_EQ(&v2.base(), &v1.base())
      << "publish below the threshold must share the frozen base, not "
         "rebuild it";
}

}  // namespace
}  // namespace ensemfdet

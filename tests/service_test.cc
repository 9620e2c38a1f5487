#include "service/detection_service.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fbox.h"
#include "baselines/fraudar.h"
#include "baselines/hits.h"
#include "baselines/spoken.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/transaction_stream.h"
#include "graph/graph_builder.h"
#include "service/graph_registry.h"
#include "service/result_cache.h"

namespace ensemfdet {
namespace {

// A dense 10×4 planted block inside sparse background traffic.
BipartiteGraph PlantedGraph(uint64_t seed = 3) {
  GraphBuilder b(120, 60);
  for (UserId u = 0; u < 10; ++u) {
    for (MerchantId v = 0; v < 4; ++v) b.AddEdge(u, v);
  }
  Rng rng(seed);
  for (int i = 0; i < 220; ++i) {
    b.AddEdge(static_cast<UserId>(10 + rng.NextBounded(110)),
              static_cast<MerchantId>(4 + rng.NextBounded(56)));
  }
  return b.Build().ValueOrDie();
}

EnsemFDetConfig SmallConfig(uint64_t seed = 11) {
  EnsemFDetConfig config;
  config.num_samples = 12;
  config.ratio = 0.3;
  config.seed = seed;
  config.fdet.max_blocks = 8;
  return config;
}

// ---------------------------------------------------------------------------
// Hash utility
// ---------------------------------------------------------------------------

TEST(Hash64Test, StableAndSensitive) {
  // Pinned value: the hash is a persistence-grade contract (cache keys).
  EXPECT_EQ(Hash64("", 0), Hash64("", 0));
  const uint64_t h = Hash64("ensemfdet");
  EXPECT_EQ(h, Hash64("ensemfdet"));
  EXPECT_NE(h, Hash64("ensemfdeT"));
  EXPECT_NE(h, Hash64("ensemfdet", /*seed=*/1));
  EXPECT_NE(Hash64("a"), Hash64("b"));
  // Length folding: a zero byte is not a no-op.
  EXPECT_NE(Hash64(std::string_view("\0", 1)), Hash64(std::string_view()));
}

TEST(Hash64Test, CombineIsOrderSensitive) {
  const uint64_t a = Hash64("a"), b = Hash64("b");
  EXPECT_NE(HashCombine(a, b), HashCombine(b, a));
  EXPECT_NE(HashCombine(a, b), a);
}

TEST(Hash64Test, HashValueNormalizesZero) {
  EXPECT_EQ(HashValue(0.0), HashValue(-0.0));
  EXPECT_NE(HashValue(0.0), HashValue(1.0));
}

// ---------------------------------------------------------------------------
// GraphRegistry
// ---------------------------------------------------------------------------

TEST(GraphRegistryTest, PublishGetRemove) {
  GraphRegistry registry;
  auto snap = registry.Publish("g", PlantedGraph());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->version, 1u);
  EXPECT_NE(snap->fingerprint, 0u);

  auto got = registry.Get("g");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->fingerprint, snap->fingerprint);
  EXPECT_EQ(got->csr.get(), snap->csr.get());

  EXPECT_EQ(registry.Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Remove("g").ok());
  EXPECT_EQ(registry.Remove("g").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 0);
}

TEST(GraphRegistryTest, RejectsEmptyName) {
  GraphRegistry registry;
  EXPECT_EQ(registry.Publish("", PlantedGraph()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphRegistryTest, RepublishBumpsVersionAndIsolatesSnapshots) {
  GraphRegistry registry;
  auto v1 = registry.Publish("g", PlantedGraph(3)).ValueOrDie();
  // Holders of the old snapshot keep a valid, unchanged graph after a
  // re-publish (snapshot isolation).
  std::shared_ptr<const CsrGraph> held = v1.csr;
  const int64_t held_edges = held->num_edges();

  auto v2 = registry.Publish("g", PlantedGraph(4)).ValueOrDie();
  EXPECT_EQ(v2.version, 2u);
  EXPECT_NE(v2.fingerprint, v1.fingerprint);
  EXPECT_NE(v2.csr.get(), held.get());
  EXPECT_EQ(held->num_edges(), held_edges);
  EXPECT_EQ(registry.Get("g").ValueOrDie().version, 2u);
}

TEST(GraphRegistryTest, FingerprintIsContentBased) {
  // Same content, independently built → same fingerprint.
  EXPECT_EQ(FingerprintGraph(PlantedGraph(3)),
            FingerprintGraph(PlantedGraph(3)));
  // One extra edge → different fingerprint.
  EXPECT_NE(FingerprintGraph(PlantedGraph(3)),
            FingerprintGraph(PlantedGraph(4)));
}

TEST(GraphRegistryTest, FingerprintSeesWeightsAndShape) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0);
  b.AddEdge(1, 1);
  BipartiteGraph unweighted = b.Build().ValueOrDie();

  b.AddEdge(0, 0, 2.0);
  b.AddEdge(1, 1);
  BipartiteGraph weighted = b.Build().ValueOrDie();
  EXPECT_NE(FingerprintGraph(unweighted), FingerprintGraph(weighted));

  // Isolated nodes change the shape even with identical edges.
  GraphBuilder wide(2, 3);
  wide.AddEdge(0, 0);
  wide.AddEdge(1, 1);
  EXPECT_NE(FingerprintGraph(unweighted),
            FingerprintGraph(wide.Build().ValueOrDie()));
}

TEST(GraphRegistryTest, ConcurrentPublishAndGet) {
  GraphRegistry registry;
  registry.Publish("g", PlantedGraph(0)).ValueOrDie();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= 20; ++i) {
      registry.Publish("g", PlantedGraph(i)).ValueOrDie();
    }
    stop.store(true);
  });
  // Readers must always see a complete snapshot.
  while (!stop.load()) {
    auto snap = registry.Get("g").ValueOrDie();
    EXPECT_EQ(snap.fingerprint, FingerprintGraph(*snap.csr));
  }
  writer.join();
  EXPECT_EQ(registry.Get("g").ValueOrDie().version, 21u);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

std::shared_ptr<const EnsemFDetReport> FakeReport(int num_samples) {
  auto report = std::make_shared<EnsemFDetReport>();
  report->num_samples = num_samples;
  return report;
}

TEST(ResultCacheTest, HitMissAndStats) {
  ResultCache cache(4);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  cache.Insert(1, 1, FakeReport(5));
  auto hit = cache.Lookup(1, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->num_samples, 5);
  // Different config or different graph → miss.
  EXPECT_EQ(cache.Lookup(1, 2), nullptr);
  EXPECT_EQ(cache.Lookup(2, 1), nullptr);

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.lookups(), 4);
}

TEST(ResultCacheTest, LruEviction) {
  ResultCache cache(2);
  cache.Insert(1, 0, FakeReport(1));
  cache.Insert(2, 0, FakeReport(2));
  ASSERT_NE(cache.Lookup(1, 0), nullptr);  // 1 is now most-recent
  cache.Insert(3, 0, FakeReport(3));       // evicts 2
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, ConfigHashCoversEveryDetectionField) {
  EnsemFDetConfig base = SmallConfig();
  const uint64_t h = HashEnsemFDetConfig(base);
  EXPECT_EQ(h, HashEnsemFDetConfig(base));  // stable

  auto differs = [&](auto mutate) {
    EnsemFDetConfig c = base;
    mutate(c);
    return HashEnsemFDetConfig(c) != h;
  };
  EXPECT_TRUE(differs([](auto& c) { c.method = SampleMethod::kTwoSide; }));
  EXPECT_TRUE(differs([](auto& c) { c.num_samples += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.ratio += 0.01; }));
  EXPECT_TRUE(differs([](auto& c) { c.reweight_edges = true; }));
  EXPECT_TRUE(differs([](auto& c) { c.seed += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.fdet.max_blocks += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.fdet.fixed_k += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.fdet.elbow_patience += 1; }));
  EXPECT_TRUE(differs([](auto& c) {
    c.fdet.policy = TruncationPolicy::kFixedK;
  }));
  EXPECT_TRUE(differs([](auto& c) { c.fdet.density.log_offset += 1.0; }));
  EXPECT_TRUE(differs([](auto& c) { c.fdet.min_block_score = 1e-6; }));
}

// ---------------------------------------------------------------------------
// DetectionService
// ---------------------------------------------------------------------------

TEST(DetectionServiceTest, SubmitPollWaitLifecycle) {
  GraphRegistry registry;
  ThreadPool pool(2);
  DetectionService service(&registry, &pool);
  registry.Publish("g", PlantedGraph()).ValueOrDie();

  JobRequest request;
  request.graph_name = "g";
  request.ensemble = SmallConfig();
  auto id = service.Submit(request);
  ASSERT_TRUE(id.ok());

  auto result = service.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(service.Poll(*id).ValueOrDie(), JobState::kDone);
  EXPECT_EQ((*result)->id, *id);
  EXPECT_EQ((*result)->graph_name, "g");
  EXPECT_FALSE((*result)->cache_hit);
  ASSERT_NE((*result)->report, nullptr);
  EXPECT_EQ((*result)->report->num_samples, 12);
  // The planted ring should be detected by most members.
  EXPECT_FALSE((*result)->report->AcceptedUsers(6).empty());

  EXPECT_EQ(service.Poll(99999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.pending_jobs(), 0);
}

TEST(DetectionServiceTest, UnknownGraphIsRejectedAtSubmit) {
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  JobRequest request;
  request.graph_name = "nope";
  EXPECT_EQ(service.Submit(request).status().code(), StatusCode::kNotFound);
}

TEST(DetectionServiceTest, InvalidConfigIsRejectedAtSubmit) {
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  registry.Publish("g", PlantedGraph()).ValueOrDie();
  JobRequest request;
  request.graph_name = "g";
  request.ensemble.num_samples = 0;
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kInvalidArgument);
  request.ensemble.num_samples = 4;
  request.ensemble.ratio = 1.5;
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DetectionServiceTest, CacheHitOnRepeatMissOnChange) {
  GraphRegistry registry;
  ThreadPool pool(4);
  DetectionService service(&registry, &pool);
  registry.Publish("g", PlantedGraph(3)).ValueOrDie();

  JobRequest request;
  request.graph_name = "g";
  request.ensemble = SmallConfig();

  auto first = service.Detect(request).ValueOrDie();
  EXPECT_FALSE(first->cache_hit);

  // Identical request → served from cache, same report object.
  auto second = service.Detect(request).ValueOrDie();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->report.get(), first->report.get());
  EXPECT_EQ(second->config_hash, first->config_hash);

  // Config change → miss.
  JobRequest changed = request;
  changed.ensemble.num_samples += 2;
  auto third = service.Detect(changed).ValueOrDie();
  EXPECT_FALSE(third->cache_hit);

  // Graph change (re-publish) → new fingerprint → miss.
  registry.Publish("g", PlantedGraph(4)).ValueOrDie();
  auto fourth = service.Detect(request).ValueOrDie();
  EXPECT_FALSE(fourth->cache_hit);
  EXPECT_NE(fourth->graph_fingerprint, first->graph_fingerprint);

  // Original graph re-published → fingerprint matches → hit again.
  registry.Publish("g", PlantedGraph(3)).ValueOrDie();
  auto fifth = service.Detect(request).ValueOrDie();
  EXPECT_TRUE(fifth->cache_hit);

  ResultCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.insertions, 3);
}

TEST(DetectionServiceTest, UseCacheFalseBypassesCache) {
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  registry.Publish("g", PlantedGraph()).ValueOrDie();

  JobRequest request;
  request.graph_name = "g";
  request.ensemble = SmallConfig();
  request.use_cache = false;
  auto first = service.Detect(request).ValueOrDie();
  auto second = service.Detect(request).ValueOrDie();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(service.cache_stats().lookups(), 0);
}

TEST(DetectionServiceTest, ConcurrentSubmitDeterminism) {
  // The same (graph, config) submitted from many client threads onto pools
  // of different widths must yield bit-identical vote tables.
  const BipartiteGraph graph = PlantedGraph();
  const EnsemFDetConfig config = SmallConfig(77);

  std::vector<std::vector<int32_t>> vote_tables;
  for (int num_threads : {1, 2, 5}) {
    GraphRegistry registry;
    ThreadPool pool(num_threads);
    DetectionService::Options options;
    options.max_pending_jobs = 64;
    DetectionService service(&registry, &pool, options);
    registry.Publish("g", graph).ValueOrDie();

    // Hammer the service from several submitter threads. Disable the
    // cache so every job really recomputes.
    constexpr int kClients = 4, kJobsPerClient = 3;
    std::vector<std::thread> clients;
    std::vector<JobId> ids(kClients * kJobsPerClient);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int j = 0; j < kJobsPerClient; ++j) {
          JobRequest request;
          request.graph_name = "g";
          request.ensemble = config;
          request.use_cache = false;
          ids[c * kJobsPerClient + j] =
              service.Submit(request).ValueOrDie();
        }
      });
    }
    for (auto& t : clients) t.join();

    for (JobId id : ids) {
      auto result = service.Wait(id).ValueOrDie();
      std::vector<int32_t> votes(
          result->report->votes.all_user_votes().begin(),
          result->report->votes.all_user_votes().end());
      vote_tables.push_back(std::move(votes));
    }
  }
  for (size_t i = 1; i < vote_tables.size(); ++i) {
    ASSERT_EQ(vote_tables[i], vote_tables[0])
        << "vote table " << i << " diverged";
  }
}

TEST(DetectionServiceTest, QueueBackpressure) {
  GraphRegistry registry;
  ThreadPool pool(1);
  DetectionService::Options options;
  options.max_pending_jobs = 2;
  DetectionService service(&registry, &pool, options);
  registry.Publish("g", PlantedGraph()).ValueOrDie();

  JobRequest request;
  request.graph_name = "g";
  request.ensemble = SmallConfig();
  request.use_cache = false;

  // Saturate the bound: submit until rejected; the bound guarantees at
  // most 2 in flight, so by the 3rd un-drained submit we must see
  // ResourceExhausted at least once.
  std::vector<JobId> accepted;
  bool saw_backpressure = false;
  for (int i = 0; i < 16 && !saw_backpressure; ++i) {
    auto id = service.Submit(request);
    if (id.ok()) {
      accepted.push_back(*id);
      EXPECT_LE(service.pending_jobs(), 2);
    } else {
      EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      saw_backpressure = true;
    }
  }
  EXPECT_TRUE(saw_backpressure);

  // Draining the accepted jobs frees capacity again.
  for (JobId id : accepted) {
    auto result = service.Wait(id);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(service.pending_jobs(), 0);
  EXPECT_TRUE(service.Submit(request).ok());
}

TEST(DetectionServiceTest, CancelQueuedJob) {
  GraphRegistry registry;
  // No pool: run jobs inline, so a *second* submission never starts
  // until we let it — instead test Cancel's state rules directly.
  DetectionService service(&registry, nullptr);
  registry.Publish("g", PlantedGraph()).ValueOrDie();

  JobRequest request;
  request.graph_name = "g";
  request.ensemble = SmallConfig();
  auto id = service.Submit(request).ValueOrDie();
  // Inline execution: the job is already done, so Cancel must refuse.
  EXPECT_EQ(service.Cancel(id).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Cancel(424242).code(), StatusCode::kNotFound);
  EXPECT_TRUE(service.Wait(id).ok());
}

TEST(DetectionServiceTest, CancelBeforeRunYieldsCancelledState) {
  GraphRegistry registry;
  // A 1-thread pool running a long job keeps later jobs queued long
  // enough to cancel them deterministically.
  ThreadPool pool(1);
  DetectionService::Options options;
  options.max_pending_jobs = 8;
  DetectionService service(&registry, &pool, options);
  registry.Publish("g", PlantedGraph()).ValueOrDie();

  JobRequest slow;
  slow.graph_name = "g";
  slow.ensemble = SmallConfig();
  slow.ensemble.num_samples = 40;
  slow.use_cache = false;
  auto running = service.Submit(slow).ValueOrDie();

  auto queued = service.Submit(slow).ValueOrDie();
  Status cancel = service.Cancel(queued);
  if (cancel.ok()) {  // won the race against the worker picking it up
    EXPECT_EQ(service.Poll(queued).ValueOrDie(), JobState::kCancelled);
    auto waited = service.Wait(queued);
    EXPECT_EQ(waited.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(service.Wait(running).ok());
}

// Bit patterns, so score comparisons are exact (no -0.0 == 0.0 slack).
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// What a baseline job must report: the direct library call on the
// adjacency graph, with FRAUDAR's blocks scored as the φ of the densest
// block containing each user.
std::vector<double> DirectBaselineScores(DetectorKind kind,
                                         const BipartiteGraph& graph) {
  switch (kind) {
    case DetectorKind::kFraudar: {
      FraudarResult fraudar = RunFraudar(graph, FraudarConfig{}).ValueOrDie();
      std::vector<double> scores(static_cast<size_t>(graph.num_users()), 0.0);
      for (const DetectedBlock& block : fraudar.blocks) {
        for (UserId u : block.users) {
          scores[u] = std::max(scores[u], block.score);
        }
      }
      return scores;
    }
    case DetectorKind::kHits:
      return RunHits(graph, {}).ValueOrDie().user_hub_scores;
    case DetectorKind::kSpoken:
      return RunSpoken(graph, {}).ValueOrDie().user_scores;
    case DetectorKind::kFbox:
      return RunFbox(graph, {}).ValueOrDie().user_scores;
    case DetectorKind::kEnsemFDet:
      break;
  }
  ADD_FAILURE() << "not a baseline detector";
  return {};
}

TEST(DetectionServiceTest, BaselineJobsProduceScores) {
  GraphRegistry registry;
  ThreadPool pool(2);
  DetectionService service(&registry, &pool);
  const BipartiteGraph graph = PlantedGraph();
  registry.Publish("g", graph).ValueOrDie();
  // The same graph served off an .efg mapping.
  const std::string path = (std::filesystem::temp_directory_path() /
                            "ensemfdet_service_test_baselines.efg")
                               .string();
  ASSERT_TRUE(registry.SaveSnapshot("g", path).ok());
  auto loaded = registry.LoadSnapshot("g_efg", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->csr->is_view());

  for (const char* name : {"g", "g_efg"}) {
    for (DetectorKind kind : {DetectorKind::kFraudar, DetectorKind::kHits,
                              DetectorKind::kSpoken, DetectorKind::kFbox}) {
      JobRequest request;
      request.graph_name = name;
      request.detector = kind;
      auto result = service.Detect(request);
      ASSERT_TRUE(result.ok()) << name << "/" << DetectorKindName(kind)
                               << ": " << result.status().ToString();
      EXPECT_EQ((*result)->detector, kind);
      ASSERT_EQ(static_cast<int64_t>((*result)->user_scores.size()),
                graph.num_users())
          << name << "/" << DetectorKindName(kind);
      EXPECT_EQ(Bits((*result)->user_scores),
                Bits(DirectBaselineScores(kind, graph)))
          << name << "/" << DetectorKindName(kind);
      EXPECT_EQ((*result)->report, nullptr);
    }
  }
  std::filesystem::remove(path);
  // Baseline jobs never touch the ensemble result cache.
  EXPECT_EQ(service.cache_stats().lookups(), 0);
}

TEST(DetectionServiceTest, DetectSurvivesFinishedJobEviction) {
  // With retention of a single finished job, concurrent Detect() calls
  // evict each other's entries from the id table — but Detect waits on
  // the job handle, so every caller still gets its own result.
  GraphRegistry registry;
  ThreadPool pool(3);
  DetectionService::Options options;
  options.max_finished_jobs = 1;
  DetectionService service(&registry, &pool, options);
  registry.Publish("g", PlantedGraph()).ValueOrDie();

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<Status> statuses(kClients, Status::OK());
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 3; ++i) {
        JobRequest request;
        request.graph_name = "g";
        request.ensemble = SmallConfig(static_cast<uint64_t>(c * 17 + i));
        request.use_cache = false;
        auto result = service.Detect(request);
        if (!result.ok()) {
          statuses[c] = result.status();
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(statuses[c].ok()) << "client " << c << ": "
                                  << statuses[c].ToString();
  }
}

// ---------------------------------------------------------------------------
// Streaming sessions (OpenStream / IngestBatch / PollReport)
// ---------------------------------------------------------------------------

StreamSessionConfig SmallStreamSession(uint64_t seed = 17) {
  StreamSessionConfig config;
  config.detector.num_users = 120;
  config.detector.num_merchants = 60;
  config.detector.window = 400;
  config.detector.detection_interval = 100;
  config.detector.ensemble = SmallConfig(seed);
  config.detector.ensemble.num_samples = 6;
  return config;
}

// A timestamped stream over the planted graph: one event per edge, dense
// block first (a burst), then background.
std::vector<Transaction> PlantedStream() {
  BipartiteGraph graph = PlantedGraph();
  std::vector<Transaction> events;
  int64_t t = 0;
  for (const Edge& e : graph.edges()) {
    events.push_back({t++, e.user, e.merchant});
  }
  return events;
}

TEST(StreamSessionTest, OpenStreamValidatesConfig) {
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  StreamSessionConfig bad = SmallStreamSession();
  bad.detector.window = 0;
  EXPECT_FALSE(service.OpenStream(bad).ok());
  bad = SmallStreamSession();
  bad.detector.ensemble.ratio = 1.5;
  EXPECT_FALSE(service.OpenStream(bad).ok());
  bad = SmallStreamSession();
  bad.max_queued_batches = 0;
  EXPECT_FALSE(service.OpenStream(bad).ok());
  bad = SmallStreamSession();
  bad.detector.max_out_of_order = -3;
  EXPECT_FALSE(service.OpenStream(bad).ok());
  // Store knobs must fail synchronously here, not as a sticky session
  // error on the first batch (the detector builds its store lazily).
  bad = SmallStreamSession();
  bad.detector.compaction_factor = 0.0;
  EXPECT_FALSE(service.OpenStream(bad).ok());
  bad = SmallStreamSession();
  bad.detector.min_compaction_delta = 0;
  EXPECT_FALSE(service.OpenStream(bad).ok());
  EXPECT_TRUE(service.OpenStream(SmallStreamSession()).ok());
}

TEST(StreamSessionTest, IngestPollFinishLifecycle) {
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);  // inline execution
  StreamSessionConfig config = SmallStreamSession();
  config.publish_name = "live";
  StreamId id = service.OpenStream(config).ValueOrDie();
  EXPECT_EQ(service.open_streams(), 1);

  auto batches = SliceIntoBatches(PlantedStream(), 50).ValueOrDie();
  for (const IngestBatch& batch : batches) {
    ASSERT_TRUE(service.IngestBatch(id, batch).ok());
  }
  StreamState state = service.PollReport(id).ValueOrDie();
  EXPECT_TRUE(state.error.ok());
  EXPECT_EQ(state.events_ingested,
            static_cast<int64_t>(PlantedStream().size()));
  EXPECT_GT(state.reports_generated, 0u);
  ASSERT_NE(state.report, nullptr);
  EXPECT_EQ(state.report->num_samples, 6);
  EXPECT_GT(state.report_stats.components_total, 0);

  // Every fired detection registered its version under "live".
  GraphSnapshot snapshot = registry.Get("live").ValueOrDie();
  EXPECT_EQ(snapshot.fingerprint, state.report_fingerprint);
  EXPECT_EQ(snapshot.version, state.reports_generated);

  // Finish: final forced detection, session removed.
  StreamState final_state = service.FinishStream(id).ValueOrDie();
  EXPECT_TRUE(final_state.error.ok());
  EXPECT_EQ(final_state.reports_generated, state.reports_generated + 1);
  ASSERT_NE(final_state.report, nullptr);
  EXPECT_EQ(service.open_streams(), 0);
  EXPECT_FALSE(service.PollReport(id).ok());
  EXPECT_FALSE(service.IngestBatch(id, {}).ok());

  // The dense planted block out-votes background in the final report.
  const EnsemFDetReport& report = *final_state.report;
  double block = 0, background = 0;
  for (UserId u = 0; u < 10; ++u) block += report.votes.user_votes(u);
  for (UserId u = 10; u < 120; ++u) background += report.votes.user_votes(u);
  EXPECT_GT(block / 10.0, background / 110.0);
}

TEST(StreamSessionTest, StreamedReportsLandInResultCacheByContentKey) {
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  StreamSessionConfig config = SmallStreamSession();
  StreamId id = service.OpenStream(config).ValueOrDie();
  IngestBatch all;
  all.transactions = PlantedStream();
  ASSERT_TRUE(service.IngestBatch(id, all).ok());
  StreamState state = service.FinishStream(id).ValueOrDie();
  ASSERT_TRUE(state.error.ok());
  ASSERT_NE(state.report, nullptr);

  // The latest report is retrievable from the shared ResultCache under
  // (content fingerprint, streaming-salted config hash)…
  auto cached = service.cache().Lookup(
      state.report_fingerprint, HashStreamingConfig(config.detector));
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), state.report.get());
  // …and the streaming salt keeps it disjoint from batch-job keys over
  // the very same graph+ensemble config.
  EXPECT_NE(HashStreamingConfig(config.detector),
            HashEnsemFDetConfig(config.detector.ensemble));
}

TEST(StreamSessionTest, RegisteredVersionIsRepresentationIndependent) {
  GraphRegistry registry;
  ThreadPool pool(2);
  DetectionService service(&registry, &pool);
  StreamSessionConfig config = SmallStreamSession();
  config.publish_name = "live";
  StreamId id = service.OpenStream(config).ValueOrDie();
  IngestBatch all;
  all.transactions = PlantedStream();
  ASSERT_TRUE(service.IngestBatch(id, all).ok());
  StreamState state = service.FinishStream(id).ValueOrDie();
  ASSERT_TRUE(state.error.ok());

  // A batch ensemble job over the streamed-then-registered graph…
  JobRequest request;
  request.graph_name = "live";
  request.ensemble = SmallConfig(23);
  auto first = service.Detect(request).ValueOrDie();
  EXPECT_FALSE(first->cache_hit);

  // …shares cache entries with the same content published from a plain
  // BipartiteGraph (the window held every event, so the live graph is
  // exactly PlantedGraph).
  GraphSnapshot republished =
      registry.Publish("copy", PlantedGraph()).ValueOrDie();
  EXPECT_EQ(republished.fingerprint, state.report_fingerprint);
  request.graph_name = "copy";
  auto second = service.Detect(request).ValueOrDie();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->report.get(), first->report.get());
}

TEST(StreamSessionTest, StickyErrorSurfacesAndDropsLaterBatches) {
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  StreamId id = service.OpenStream(SmallStreamSession()).ValueOrDie();
  IngestBatch good;
  good.transactions.push_back({100, 1, 1});
  ASSERT_TRUE(service.IngestBatch(id, good).ok());
  IngestBatch regressing;
  regressing.transactions.push_back({5, 2, 2});  // far beyond slack 0
  ASSERT_TRUE(service.IngestBatch(id, regressing).ok());  // fails async

  StreamState state = service.WaitReport(id, /*min_reports=*/0).ValueOrDie();
  EXPECT_FALSE(state.error.ok());
  EXPECT_EQ(state.error.code(), StatusCode::kFailedPrecondition);
  // Subsequent ingests surface the sticky error immediately.
  EXPECT_FALSE(service.IngestBatch(id, good).ok());
  // Finish still works: it reports the error state and removes the
  // session.
  StreamState final_state = service.FinishStream(id).ValueOrDie();
  EXPECT_FALSE(final_state.error.ok());
  EXPECT_EQ(service.open_streams(), 0);
}

TEST(StreamSessionTest, ParallelSessionsAreIsolated) {
  GraphRegistry registry;
  ThreadPool pool(4);
  DetectionService service(&registry, &pool);
  StreamSessionConfig a_config = SmallStreamSession(100);
  StreamSessionConfig b_config = SmallStreamSession(200);
  StreamId a = service.OpenStream(a_config).ValueOrDie();
  StreamId b = service.OpenStream(b_config).ValueOrDie();

  auto batches = SliceIntoBatches(PlantedStream(), 30).ValueOrDie();
  for (const IngestBatch& batch : batches) {
    ASSERT_TRUE(service.IngestBatch(a, batch).ok());
    ASSERT_TRUE(service.IngestBatch(b, batch).ok());
  }
  StreamState sa = service.FinishStream(a).ValueOrDie();
  StreamState sb = service.FinishStream(b).ValueOrDie();
  ASSERT_TRUE(sa.error.ok());
  ASSERT_TRUE(sb.error.ok());
  // Same content, same universe → same fingerprint; independent seeds →
  // independent reports, but both detected the planted block.
  EXPECT_EQ(sa.report_fingerprint, sb.report_fingerprint);
  EXPECT_EQ(sa.events_ingested, sb.events_ingested);
  ASSERT_NE(sa.report, nullptr);
  ASSERT_NE(sb.report, nullptr);
}

TEST(StreamSessionTest, CloseStreamDrainsAndRemoves) {
  GraphRegistry registry;
  ThreadPool pool(2);
  DetectionService service(&registry, &pool);
  StreamId id = service.OpenStream(SmallStreamSession()).ValueOrDie();
  auto batches = SliceIntoBatches(PlantedStream(), 40).ValueOrDie();
  for (const IngestBatch& batch : batches) {
    ASSERT_TRUE(service.IngestBatch(id, batch).ok());
  }
  ASSERT_TRUE(service.CloseStream(id).ok());
  EXPECT_EQ(service.open_streams(), 0);
  EXPECT_FALSE(service.PollReport(id).ok());
}

TEST(StreamSessionTest, DestructorDrainsActiveSessions) {
  GraphRegistry registry;
  ThreadPool pool(2);
  {
    DetectionService service(&registry, &pool);
    StreamId id = service.OpenStream(SmallStreamSession()).ValueOrDie();
    auto batches = SliceIntoBatches(PlantedStream(), 60).ValueOrDie();
    for (const IngestBatch& batch : batches) {
      ASSERT_TRUE(service.IngestBatch(id, batch).ok());
    }
    // ~DetectionService must block until the drainer finishes; otherwise
    // the session worker would touch freed service state.
  }
  SUCCEED();
}

TEST(DetectionServiceTest, DestructorDrainsInFlightJobs) {
  GraphRegistry registry;
  ThreadPool pool(2);
  std::vector<JobId> ids;
  {
    DetectionService service(&registry, &pool);
    registry.Publish("g", PlantedGraph()).ValueOrDie();
    JobRequest request;
    request.graph_name = "g";
    request.ensemble = SmallConfig();
    request.use_cache = false;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(service.Submit(request).ValueOrDie());
    }
    // ~DetectionService must block until all six jobs drained; if it
    // doesn't, the pool tasks would touch freed memory and crash.
  }
  EXPECT_EQ(ids.size(), 6u);
}

}  // namespace
}  // namespace ensemfdet

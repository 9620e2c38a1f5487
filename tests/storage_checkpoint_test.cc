// Checkpoint/restore contracts of the snapshot subsystem above the raw
// format: DynamicGraphStore state round-trips exactly, a resumed
// WindowedDetector fires bit-identical reports to an uninterrupted run
// (including through the reorder buffer), GraphVersion snapshots reload
// fingerprint-verified, and GraphRegistry SaveSnapshot/LoadSnapshot keeps
// cache keys representation-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "datagen/transaction_stream.h"
#include "graph/fingerprint.h"
#include "ingest/dynamic_graph_store.h"
#include "service/detection_service.h"
#include "service/graph_registry.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/wal_reader.h"
#include "stream/windowed_detector.h"

namespace ensemfdet {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ensemfdet_ckpt_test_" + name))
      .string();
}

/// A deterministic fragmented stream over small universes.
std::vector<Transaction> MakeStream(int64_t count, uint64_t seed) {
  std::vector<Transaction> events;
  events.reserve(static_cast<size_t>(count));
  uint64_t state = seed * 2654435761u + 1;
  int64_t ts = 0;
  for (int64_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    ts += static_cast<int64_t>(state >> 61);  // 0..7 time step
    const UserId u = static_cast<UserId>((state >> 33) % 50);
    const MerchantId v = static_cast<MerchantId>((state >> 13) % 30);
    events.push_back({ts, u, v});
  }
  return events;
}

void ExpectReportsEqual(const EnsemFDetReport& a, const EnsemFDetReport& b,
                        const std::string& what) {
  ASSERT_EQ(a.votes.all_user_votes().size(),
            b.votes.all_user_votes().size())
      << what;
  EXPECT_TRUE(std::equal(a.votes.all_user_votes().begin(),
                         a.votes.all_user_votes().end(),
                         b.votes.all_user_votes().begin()))
      << what;
  EXPECT_TRUE(std::equal(a.votes.all_merchant_votes().begin(),
                         a.votes.all_merchant_votes().end(),
                         b.votes.all_merchant_votes().begin()))
      << what;
  EXPECT_EQ(a.weighted_user_votes, b.weighted_user_votes) << what;
}

TEST(StoreCheckpoint, RoundTripsEveryObservableField) {
  DynamicGraphStoreConfig config;
  config.num_users = 50;
  config.num_merchants = 30;
  config.window = 200;
  auto store = DynamicGraphStore::Create(config);
  ASSERT_TRUE(store.ok());
  const std::vector<Transaction> events = MakeStream(600, 3);
  IngestBatch batch;
  for (size_t i = 0; i < events.size(); ++i) {
    batch.transactions.push_back(events[i]);
    if (batch.transactions.size() == 64) {
      ASSERT_TRUE(store->Apply(batch).ok());
      batch.transactions.clear();
      // A mid-stream publish so the delta-log and epoch are non-trivial.
      if (i == 255) store->Publish();
    }
  }
  const std::string path = TempPath("store.efg");
  ASSERT_TRUE(store->SaveCheckpoint(path).ok());

  auto restored = DynamicGraphStore::RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->live_edges(), store->live_edges());
  EXPECT_EQ(restored->window_events(), store->window_events());
  EXPECT_EQ(restored->newest_timestamp(), store->newest_timestamp());
  EXPECT_EQ(restored->epoch(), store->epoch());
  EXPECT_EQ(restored->pending_delta(), store->pending_delta());
  EXPECT_EQ(restored->stats().events_ingested,
            store->stats().events_ingested);
  EXPECT_EQ(restored->stats().edges_removed, store->stats().edges_removed);

  // Published versions must be content-identical (same fingerprint, same
  // epoch, same dirty frontier), and the stores must stay in lockstep
  // through further ingest + eviction.
  GraphVersion a = store->Publish();
  GraphVersion b = restored->Publish();
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
  ASSERT_EQ(a.touched_users().size(), b.touched_users().size());
  EXPECT_TRUE(std::equal(a.touched_users().begin(), a.touched_users().end(),
                         b.touched_users().begin()));
  IngestBatch more;
  for (const Transaction& tx : MakeStream(300, 9)) {
    Transaction shifted = tx;
    shifted.timestamp += store->newest_timestamp();
    more.transactions.push_back(shifted);
  }
  ASSERT_TRUE(store->Apply(more).ok());
  ASSERT_TRUE(restored->Apply(more).ok());
  EXPECT_EQ(store->Publish().ContentFingerprint(),
            restored->Publish().ContentFingerprint());
  std::filesystem::remove(path);
}

TEST(StoreCheckpoint, TamperedWindowFailsCleanly) {
  DynamicGraphStoreConfig config;
  config.num_users = 50;
  config.num_merchants = 30;
  config.window = 500;
  auto store = DynamicGraphStore::Create(config);
  ASSERT_TRUE(store.ok());
  IngestBatch batch;
  batch.transactions = MakeStream(200, 5);
  ASSERT_TRUE(store->Apply(batch).ok());
  const std::string path = TempPath("tampered.efg");
  ASSERT_TRUE(store->SaveCheckpoint(path).ok());

  // Drop one window event: the rebuilt multiset no longer matches the
  // base/delta live set, which must surface as IOError, not a CHECK.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  in.close();
  storage::SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    storage::SectionEntry entry;
    char* slot = bytes.data() + sizeof(header) + i * sizeof(entry);
    std::memcpy(&entry, slot, sizeof(entry));
    if (entry.id ==
        static_cast<uint32_t>(storage::SectionId::kWindowEvents)) {
      entry.byte_size -= sizeof(storage::SnapshotTransaction);
      std::memcpy(slot, &entry, sizeof(entry));
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto restored = DynamicGraphStore::RestoreCheckpoint(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kIOError);
  std::filesystem::remove(path);
}

TEST(GraphVersionSnapshot, RoundTripsContentAndDelta) {
  DynamicGraphStoreConfig config;
  config.num_users = 50;
  config.num_merchants = 30;
  config.window = 300;
  auto store = DynamicGraphStore::Create(config);
  ASSERT_TRUE(store.ok());
  IngestBatch batch;
  batch.transactions = MakeStream(400, 11);
  ASSERT_TRUE(store->Apply(batch).ok());
  store->Publish();
  IngestBatch more;
  more.transactions = MakeStream(100, 13);
  for (Transaction& tx : more.transactions) tx.timestamp += 2000;
  ASSERT_TRUE(store->Apply(more).ok());
  const GraphVersion version = store->Publish();

  const std::string path = TempPath("version.efg");
  ASSERT_TRUE(version.SaveSnapshot(path).ok());
  auto loaded = LoadGraphVersionSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch(), version.epoch());
  EXPECT_EQ(loaded->num_edges(), version.num_edges());
  EXPECT_EQ(loaded->ContentFingerprint(), version.ContentFingerprint());
  EXPECT_EQ(loaded->delta_adds().size(), version.delta_adds().size());
  EXPECT_EQ(loaded->delta_dead().size(), version.delta_dead().size());
  // Edge iteration order is part of the contract.
  std::vector<Edge> expect, got;
  version.ForEachEdge(
      [&](UserId u, MerchantId v) { expect.push_back({u, v}); });
  loaded->ForEachEdge([&](UserId u, MerchantId v) { got.push_back({u, v}); });
  EXPECT_EQ(expect, got);
  std::filesystem::remove(path);
}

// --------------------------------------------------------------------------
// WindowedDetector resume: the ISSUE-5 "streaming session survives a
// restart" contract, bit-exact because randomness is content-derived.
// --------------------------------------------------------------------------

struct ReplayResult {
  std::vector<EnsemFDetReport> reports;
  EnsemFDetReport final;
};

WindowedDetectorConfig DetectorConfig(int64_t slack) {
  WindowedDetectorConfig config;
  config.num_users = 50;
  config.num_merchants = 30;
  config.window = 400;
  config.detection_interval = 120;
  config.ensemble.num_samples = 6;
  config.ensemble.ratio = 0.3;
  config.ensemble.seed = 17;
  config.max_out_of_order = slack;
  return config;
}

ReplayResult Replay(WindowedDetector& detector,
                    const std::vector<Transaction>& events, size_t begin,
                    size_t end) {
  ReplayResult result;
  for (size_t i = begin; i < end; ++i) {
    auto fired = detector.Ingest(events[i]);
    EXPECT_TRUE(fired.ok()) << fired.status().ToString();
    if (fired.ok() && fired->has_value()) {
      result.reports.push_back(std::move(**fired));
    }
  }
  result.final = detector.DetectNow().ValueOrDie();
  return result;
}

TEST(WindowedDetectorCheckpoint, ResumedRunIsBitExact) {
  for (int64_t slack : {int64_t{0}, int64_t{40}}) {
    std::vector<Transaction> events = MakeStream(900, 21);
    if (slack > 0) {
      // Nudge some events late (within slack) so the reorder buffer is
      // genuinely exercised — including across the checkpoint boundary.
      for (size_t i = 5; i + 3 < events.size(); i += 7) {
        std::swap(events[i], events[i + 3]);
      }
    }
    WindowedDetector uninterrupted(DetectorConfig(slack));
    ReplayResult full = Replay(uninterrupted, events, 0, events.size());

    // Replay the prefix without a DetectNow (it would flush the reorder
    // buffer) and checkpoint mid-stream.
    const size_t cut = events.size() / 2;
    WindowedDetector to_checkpoint(DetectorConfig(slack));
    size_t head_reports = 0;
    for (size_t i = 0; i < cut; ++i) {
      auto fired = to_checkpoint.Ingest(events[i]);
      ASSERT_TRUE(fired.ok());
      if (fired->has_value()) ++head_reports;
    }
    const std::string path = TempPath("detector.efg");
    ASSERT_TRUE(to_checkpoint.SaveCheckpoint(path).ok());
    if (slack > 0) {
      EXPECT_GT(to_checkpoint.reorder_buffered(), 0)
          << "workload failed to exercise the reorder buffer";
    }

    WindowedDetector resumed(DetectorConfig(slack));
    ASSERT_TRUE(resumed.ResumeFromCheckpoint(path).ok());
    EXPECT_EQ(resumed.window_size(), to_checkpoint.window_size());
    EXPECT_EQ(resumed.reorder_buffered(), to_checkpoint.reorder_buffered());
    ReplayResult tail = Replay(resumed, events, cut, events.size());

    ASSERT_EQ(head_reports + tail.reports.size(), full.reports.size())
        << "slack " << slack;
    for (size_t i = 0; i < tail.reports.size(); ++i) {
      ExpectReportsEqual(full.reports[head_reports + i], tail.reports[i],
                         "report " + std::to_string(i));
    }
    ExpectReportsEqual(full.final, tail.final, "final detection");
    std::filesystem::remove(path);
  }
}

TEST(WindowedDetectorCheckpoint, ConfigMismatchRejected) {
  WindowedDetector source(DetectorConfig(0));
  ASSERT_TRUE(source.Ingest({1, 2, 3}).ok());
  const std::string path = TempPath("mismatch.efg");
  ASSERT_TRUE(source.SaveCheckpoint(path).ok());

  WindowedDetectorConfig other = DetectorConfig(0);
  other.window = 999;
  WindowedDetector wrong(other);
  Status st = wrong.ResumeFromCheckpoint(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  WindowedDetector used(DetectorConfig(0));
  ASSERT_TRUE(used.Ingest({1, 2, 3}).ok());
  st = used.ResumeFromCheckpoint(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

// --------------------------------------------------------------------------
// Service integration: registry snapshots and streaming-session
// checkpoints through DetectionService.
// --------------------------------------------------------------------------

TEST(RegistrySnapshot, SaveLoadKeepsFingerprintAndCacheKeys) {
  auto dataset = GenerateJdPreset(JdPreset::kDataset1, 0.004, 7);
  ASSERT_TRUE(dataset.ok());
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  auto published = registry.Publish("tsv", dataset->graph);
  ASSERT_TRUE(published.ok());

  const std::string path = TempPath("registry.efg");
  ASSERT_TRUE(registry.SaveSnapshot("tsv", path).ok());
  EXPECT_EQ(registry.SaveSnapshot("absent", path).code(),
            StatusCode::kNotFound);

  auto loaded = registry.LoadSnapshot("binary", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, published->fingerprint);
  EXPECT_TRUE(loaded->csr->is_view());  // zero-copy off the mapping
  EXPECT_EQ(FingerprintGraph(*loaded->csr), loaded->fingerprint);

  // Representation independence end to end: a job over the mmap-loaded
  // graph must cache-hit against the TSV-published one.
  JobRequest request;
  request.graph_name = "tsv";
  request.ensemble.num_samples = 6;
  request.ensemble.ratio = 0.2;
  auto first = service.Detect(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE((*first)->cache_hit);
  request.graph_name = "binary";
  auto second = service.Detect(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)->cache_hit);
  EXPECT_EQ((*second)->report.get(), (*first)->report.get());
  std::filesystem::remove(path);
}

TEST(ServiceStreamCheckpoint, SessionResumesBitExactly) {
  auto dataset = GenerateJdPreset(JdPreset::kDataset1, 0.004, 7);
  ASSERT_TRUE(dataset.ok());
  StreamTimelineConfig timeline;
  timeline.horizon = 4000;
  timeline.burst_duration = 400;
  timeline.seed = 8;
  auto events = BuildTransactionStream(*dataset, timeline);
  ASSERT_TRUE(events.ok());
  auto batches = SliceIntoBatches(*events, 64);
  ASSERT_TRUE(batches.ok());

  StreamSessionConfig session;
  session.detector.num_users = dataset->graph.num_users();
  session.detector.num_merchants = dataset->graph.num_merchants();
  session.detector.window = 1500;
  session.detector.detection_interval = 300;
  session.detector.ensemble.num_samples = 6;
  session.detector.ensemble.ratio = 0.25;
  session.publish_name.clear();
  session.max_queued_batches =
      static_cast<int64_t>(batches->size()) + 8;

  GraphRegistry registry;
  DetectionService service(&registry, nullptr);

  // Uninterrupted session.
  auto full_stream = service.OpenStream(session);
  ASSERT_TRUE(full_stream.ok());
  for (const IngestBatch& batch : *batches) {
    ASSERT_TRUE(service.IngestBatch(*full_stream, batch).ok());
  }
  auto full = service.FinishStream(*full_stream);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->error.ok());

  // Checkpointed at the midpoint, resumed in a second session.
  const size_t cut = batches->size() / 2;
  const std::string path = TempPath("session.efg");
  auto head = service.OpenStream(session);
  ASSERT_TRUE(head.ok());
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(service.IngestBatch(*head, (*batches)[i]).ok());
  }
  ASSERT_TRUE(service.SaveStreamCheckpoint(*head, path).ok());
  ASSERT_TRUE(service.CloseStream(*head).ok());

  StreamSessionConfig resume_config = session;
  resume_config.resume_checkpoint = path;
  auto tail = service.OpenStream(resume_config);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  for (size_t i = cut; i < batches->size(); ++i) {
    ASSERT_TRUE(service.IngestBatch(*tail, (*batches)[i]).ok());
  }
  auto resumed = service.FinishStream(*tail);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->error.ok());

  EXPECT_EQ(resumed->report_fingerprint, full->report_fingerprint);
  ASSERT_NE(resumed->report, nullptr);
  ASSERT_NE(full->report, nullptr);
  ExpectReportsEqual(*full->report, *resumed->report, "final report");

  // A corrupt/missing checkpoint must fail OpenStream synchronously.
  resume_config.resume_checkpoint = TempPath("no_such_checkpoint.efg");
  auto bad = service.OpenStream(resume_config);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIOError);
  std::filesystem::remove(path);
}

// The checkpoint/WAL lockstep invariant (DESIGN.md §"Durable ingest"):
// SaveStreamCheckpoint writes the checkpoint — WAL position embedded —
// durably to disk BEFORE TruncateThrough removes the covered segments,
// so a crash between the two steps can never strand a record that
// recovery still needs. Exercised through the real sequence:
// checkpoint → append more → (truncation already happened) → recover,
// with a parity check against the uninterrupted run, plus the
// adversarial converse: a log *actually* truncated past its checkpoint
// must fail recovery loudly instead of silently dropping records.
TEST(ServiceStreamCheckpoint, WalTruncationNeverDropsUnreplayedRecords) {
  std::vector<Transaction> events = MakeStream(600, 31);
  std::vector<IngestBatch> batches(20);
  for (size_t i = 0; i < events.size(); ++i) {
    batches[i * batches.size() / events.size()].transactions.push_back(
        events[i]);
  }

  StreamSessionConfig session;
  session.detector = DetectorConfig(0);
  session.wal.segment_bytes = 256;  // many small segments: truncation bites

  // Uninterrupted baseline (no WAL).
  GraphRegistry registry;
  DetectionService service(&registry, nullptr);
  auto full_stream = service.OpenStream(session);
  ASSERT_TRUE(full_stream.ok());
  for (const IngestBatch& batch : batches) {
    ASSERT_TRUE(service.IngestBatch(*full_stream, batch).ok());
  }
  auto full = service.FinishStream(*full_stream);
  ASSERT_TRUE(full.ok());
  ASSERT_NE(full->report, nullptr);

  // Durable session: checkpoint mid-stream (embeds WAL position 12 and
  // truncates the covered segments), then append past it and "crash".
  const std::string wal_dir = TempPath("lockstep_wal");
  std::filesystem::remove_all(wal_dir);
  const std::string ckpt = TempPath("lockstep.efg");
  StreamSessionConfig durable = session;
  durable.wal.dir = wal_dir;
  {
    auto head = service.OpenStream(durable);
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    for (size_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(service.IngestBatch(*head, batches[i]).ok());
    }
    ASSERT_TRUE(service.SaveStreamCheckpoint(*head, ckpt).ok());
    for (size_t i = 12; i < 16; ++i) {
      ASSERT_TRUE(service.IngestBatch(*head, batches[i]).ok());
    }
    ASSERT_TRUE(service.CloseStream(*head).ok());
  }
  // Truncation actually removed covered history: the log no longer
  // starts at seq 1 — yet everything past the checkpoint survives.
  auto scanned = storage::ScanWalDir(wal_dir);
  ASSERT_TRUE(scanned.ok());
  ASSERT_FALSE(scanned->segments.empty());
  EXPECT_GT(scanned->segments.front().first_seq, 1u);
  EXPECT_LE(scanned->segments.front().first_seq, 13u);

  // Recover from checkpoint + WAL suffix, resend the rest: bit-exact.
  StreamSessionConfig resume = durable;
  resume.resume_checkpoint = ckpt;
  resume.wal.recover = true;
  auto tail = service.OpenStream(resume);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  auto opened = service.PollReport(*tail);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->wal_records_recovered, 4u);  // exactly 13..16
  for (uint64_t i = opened->wal_last_seq; i < batches.size(); ++i) {
    ASSERT_TRUE(
        service.IngestBatch(*tail, batches[static_cast<size_t>(i)]).ok());
  }
  auto resumed = service.FinishStream(*tail);
  ASSERT_TRUE(resumed.ok());
  ASSERT_NE(resumed->report, nullptr);
  ExpectReportsEqual(*full->report, *resumed->report, "lockstep parity");

  // Adversarial converse: delete the segments holding the unreplayed
  // suffix (13..16). Recovery must refuse — those records were acked and
  // are gone — rather than resume with a silent hole.
  auto survivors = storage::ScanWalDir(wal_dir);
  ASSERT_TRUE(survivors.ok());
  for (const auto& segment : survivors->segments) {
    std::filesystem::remove(segment.path);
  }
  auto hole = service.OpenStream(resume);
  ASSERT_FALSE(hole.ok());

  std::filesystem::remove_all(wal_dir);
  std::filesystem::remove(ckpt);
}

}  // namespace
}  // namespace ensemfdet

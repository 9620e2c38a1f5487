#include "ingest/dynamic_graph_store.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/snapshot_writer.h"

namespace ensemfdet {

namespace {

// Ingest-layer instruments; counters mirror DynamicGraphStoreStats
// process-wide (per-batch deltas bumped at the end of Apply).
struct IngestMetrics {
  obs::Counter* events_ingested_total;
  obs::Counter* events_evicted_total;
  obs::Counter* edges_added_total;
  obs::Counter* edges_removed_total;
  obs::Counter* publishes_total;
  obs::Counter* compactions_total;
  obs::Histogram* publish_seconds;
  obs::Histogram* compact_seconds;
};

IngestMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static IngestMetrics m{
      reg.GetCounter("ensemfdet_ingest_events_ingested_total"),
      reg.GetCounter("ensemfdet_ingest_events_evicted_total"),
      reg.GetCounter("ensemfdet_ingest_edges_added_total"),
      reg.GetCounter("ensemfdet_ingest_edges_removed_total"),
      reg.GetCounter("ensemfdet_ingest_publishes_total"),
      reg.GetCounter("ensemfdet_ingest_compactions_total"),
      reg.GetHistogram("ensemfdet_ingest_publish_seconds"),
      reg.GetHistogram("ensemfdet_ingest_compact_seconds"),
  };
  return m;
}

std::shared_ptr<const CsrGraph> EmptyBase(int64_t num_users,
                                          int64_t num_merchants) {
  return std::make_shared<const CsrGraph>(
      CsrGraph::FromCanonicalEdges(num_users, num_merchants, {}));
}

}  // namespace

DynamicGraphStore::DynamicGraphStore(DynamicGraphStoreConfig config)
    : config_(config),
      newest_(std::numeric_limits<int64_t>::min()),
      base_(EmptyBase(config.num_users, config.num_merchants)) {}

Result<DynamicGraphStore> DynamicGraphStore::Create(
    DynamicGraphStoreConfig config) {
  if (config.num_users < 1 || config.num_merchants < 1) {
    return Status::InvalidArgument(
        "store universes must be non-empty (num_users=" +
        std::to_string(config.num_users) +
        ", num_merchants=" + std::to_string(config.num_merchants) + ")");
  }
  if (!(config.compaction_factor > 0.0)) {
    return Status::InvalidArgument("compaction_factor must be positive");
  }
  if (config.min_compaction_delta < 1) {
    return Status::InvalidArgument("min_compaction_delta must be >= 1");
  }
  return DynamicGraphStore(config);
}

EdgeId DynamicGraphStore::FindBaseEdge(UserId u, MerchantId v) const {
  if (u >= base_->num_users()) return -1;
  std::span<const MerchantId> row = base_->user_neighbors(u);
  auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return -1;
  // User-side slot index IS the EdgeId (CSR canonical-order invariant).
  return base_->user_edge_begin(u) +
         static_cast<EdgeId>(it - row.begin());
}

void DynamicGraphStore::AddLiveEdge(UserId u, MerchantId v,
                                    IngestStats* stats) {
  int32_t& mult = multiplicity_[PackEdge(u, v)];
  if (++mult != 1) return;  // duplicate inside the window: no graph change
  ++stats->edges_added;
  ++stats_.edges_added;
  const EdgeId base_edge = FindBaseEdge(u, v);
  if (base_edge >= 0) {
    // Resurrecting an evicted base edge: it must be in the dead set,
    // otherwise it would still be live and multiplicity could not be 0.
    const size_t erased = dead_.erase(base_edge);
    ENSEMFDET_CHECK(erased == 1) << "live base edge re-added";
  } else {
    added_.insert(PackEdge(u, v));
  }
  touched_users_.insert(u);
  touched_merchants_.insert(v);
}

void DynamicGraphStore::EvictExpired(IngestStats* stats) {
  if (config_.window <= 0) return;
  const int64_t cutoff = newest_ - config_.window;
  while (!window_.empty() && window_.front().timestamp < cutoff) {
    const Transaction tx = window_.front();
    window_.pop_front();
    ++stats->events_evicted;
    ++stats_.events_evicted;
    auto it = multiplicity_.find(PackEdge(tx.user, tx.merchant));
    ENSEMFDET_CHECK(it != multiplicity_.end());
    if (--it->second > 0) continue;  // another occurrence keeps it live
    multiplicity_.erase(it);
    ++stats->edges_removed;
    ++stats_.edges_removed;
    const EdgeId base_edge = FindBaseEdge(tx.user, tx.merchant);
    if (base_edge >= 0) {
      dead_.insert(base_edge);
    } else {
      added_.erase(PackEdge(tx.user, tx.merchant));
    }
    touched_users_.insert(tx.user);
    touched_merchants_.insert(tx.merchant);
  }
}

Result<IngestStats> DynamicGraphStore::Apply(const IngestBatch& batch) {
  IngestStats stats;
  for (const Transaction& tx : batch.transactions) {
    if (tx.user >= config_.num_users) {
      return Status::InvalidArgument("user id " + std::to_string(tx.user) +
                                     " outside configured universe");
    }
    if (tx.merchant >= config_.num_merchants) {
      return Status::InvalidArgument(
          "merchant id " + std::to_string(tx.merchant) +
          " outside configured universe");
    }
    if (newest_ != std::numeric_limits<int64_t>::min() &&
        tx.timestamp < newest_) {
      return Status::FailedPrecondition(
          "out-of-order timestamp " + std::to_string(tx.timestamp) +
          " after " + std::to_string(newest_));
    }
    newest_ = tx.timestamp;
    window_.push_back(tx);
    ++stats.events_ingested;
    ++stats_.events_ingested;
    AddLiveEdge(tx.user, tx.merchant, &stats);
  }
  // One eviction pass per batch: the deque is in arrival (non-decreasing
  // timestamp) order, so popping from the front against the final cutoff
  // evicts exactly the events a per-transaction pass would have.
  EvictExpired(&stats);
  IngestMetrics& metrics = Metrics();
  metrics.events_ingested_total->Increment(stats.events_ingested);
  metrics.events_evicted_total->Increment(stats.events_evicted);
  metrics.edges_added_total->Increment(stats.edges_added);
  metrics.edges_removed_total->Increment(stats.edges_removed);
  return stats;
}

void DynamicGraphStore::Compact(SortedDelta* delta) {
  obs::TraceSpan span(Metrics().compact_seconds, "store_compact");
  // The version merge of the old base with the sorted delta-log yields
  // the live set in canonical order: distinct edges, ids validated at
  // ingest — FromCanonicalEdges' precondition, with nothing to sort.
  std::vector<Edge> edges;
  edges.reserve(multiplicity_.size());
  GraphVersion::ForEachLiveEdge(
      *base_, delta->dead, delta->adds,
      [&edges](UserId u, MerchantId v) { edges.push_back({u, v}); });
  base_ = std::make_shared<const CsrGraph>(CsrGraph::FromCanonicalEdges(
      config_.num_users, config_.num_merchants, edges));
  added_.clear();
  dead_.clear();
  delta->adds.clear();
  delta->dead.clear();
  ++stats_.compactions;
  Metrics().compactions_total->Increment();
}

DynamicGraphStore::SortedDelta DynamicGraphStore::BuildSortedDelta() const {
  SortedDelta delta;
  delta.adds.reserve(added_.size());
  // Packed keys sort as canonical (user, merchant) pairs, and std::set
  // iterates them ascending.
  for (uint64_t key : added_) {
    delta.adds.push_back({static_cast<UserId>(key >> 32),
                          static_cast<MerchantId>(key & 0xffffffffu)});
  }
  delta.dead.assign(dead_.begin(), dead_.end());
  std::sort(delta.dead.begin(), delta.dead.end());
  delta.touched_users.assign(touched_users_.begin(), touched_users_.end());
  std::sort(delta.touched_users.begin(), delta.touched_users.end());
  delta.touched_merchants.assign(touched_merchants_.begin(),
                                 touched_merchants_.end());
  std::sort(delta.touched_merchants.begin(),
            delta.touched_merchants.end());
  return delta;
}

GraphVersion DynamicGraphStore::Publish() {
  obs::TraceSpan span(Metrics().publish_seconds, "store_publish");
  const int64_t threshold =
      std::max(config_.min_compaction_delta,
               static_cast<int64_t>(config_.compaction_factor *
                                    static_cast<double>(base_->num_edges())));
  const bool compact_now = pending_delta() >= threshold;
  SortedDelta delta = BuildSortedDelta();
  if (compact_now) Compact(&delta);

  auto rep = std::make_shared<GraphVersion::Rep>();
  rep->epoch = ++epoch_;
  rep->num_users = config_.num_users;
  rep->num_merchants = config_.num_merchants;
  rep->compacted = compact_now;
  rep->base = base_;
  rep->adds = std::move(delta.adds);
  rep->dead = std::move(delta.dead);
  rep->touched_users = std::move(delta.touched_users);
  rep->touched_merchants = std::move(delta.touched_merchants);
  touched_users_.clear();
  touched_merchants_.clear();

  ++stats_.publishes;
  Metrics().publishes_total->Increment();
  return GraphVersion(std::move(rep));
}

Status DynamicGraphStore::SaveCheckpoint(
    const std::string& path, const storage::DetectorClockRecord* clock,
    std::span<const storage::ReorderEventRecord> reorder,
    const storage::WalPositionRecord* wal) const {
  const SortedDelta delta = BuildSortedDelta();

  // The header fingerprint covers the live set (base − dead + adds); a
  // transient version over shared state computes it with the one shared
  // merge + hash recipe.
  const uint64_t fingerprint =
      GraphVersion::FromSnapshotParts(epoch_, config_.num_users,
                                      config_.num_merchants,
                                      /*compacted=*/false, base_,
                                      delta.adds, delta.dead, {}, {})
          .ContentFingerprint();

  storage::SnapshotWriter writer(storage::PayloadKind::kStoreCheckpoint,
                                 config_.num_users, config_.num_merchants,
                                 live_edges(), fingerprint);
  storage::AddCsrGraphSections(&writer, *base_);
  storage::VersionScalarsRecord scalars;
  scalars.epoch = epoch_;
  writer.AddSection(storage::SectionId::kVersionScalars, &scalars,
                    sizeof(scalars));
  writer.AddSection(storage::SectionId::kDeltaAdds, delta.adds.data(),
                    delta.adds.size() * sizeof(Edge));
  writer.AddSection(storage::SectionId::kDeltaDead, delta.dead.data(),
                    delta.dead.size() * sizeof(EdgeId));
  writer.AddSection(storage::SectionId::kTouchedUsers,
                    delta.touched_users.data(),
                    delta.touched_users.size() * sizeof(UserId));
  writer.AddSection(storage::SectionId::kTouchedMerchants,
                    delta.touched_merchants.data(),
                    delta.touched_merchants.size() * sizeof(MerchantId));

  storage::StoreStateRecord state;
  state.cfg_num_users = config_.num_users;
  state.cfg_num_merchants = config_.num_merchants;
  state.cfg_window = config_.window;
  state.cfg_compaction_factor = config_.compaction_factor;
  state.cfg_min_compaction_delta = config_.min_compaction_delta;
  state.newest_timestamp = newest_;
  state.epoch = epoch_;
  state.events_ingested = stats_.events_ingested;
  state.events_evicted = stats_.events_evicted;
  state.edges_added = stats_.edges_added;
  state.edges_removed = stats_.edges_removed;
  state.publishes = stats_.publishes;
  state.compactions = stats_.compactions;
  writer.AddSection(storage::SectionId::kStoreState, &state, sizeof(state));

  std::vector<storage::SnapshotTransaction> window;
  window.reserve(window_.size());
  for (const Transaction& tx : window_) {
    window.push_back({tx.timestamp, tx.user, tx.merchant});
  }
  writer.AddSection(storage::SectionId::kWindowEvents, window.data(),
                    window.size() * sizeof(storage::SnapshotTransaction));

  if (clock != nullptr) {
    writer.AddSection(storage::SectionId::kDetectorClock, clock,
                      sizeof(*clock));
    writer.AddSection(
        storage::SectionId::kReorderEvents, reorder.data(),
        reorder.size() * sizeof(storage::ReorderEventRecord));
  }
  if (wal != nullptr) {
    writer.AddSection(storage::SectionId::kWalPosition, wal, sizeof(*wal));
  }
  return writer.Write(path);
}

Result<DynamicGraphStore> DynamicGraphStore::FromCheckpoint(
    storage::StoreCheckpointParts parts) {
  DynamicGraphStoreConfig config;
  config.num_users = parts.state.cfg_num_users;
  config.num_merchants = parts.state.cfg_num_merchants;
  config.window = parts.state.cfg_window;
  config.compaction_factor = parts.state.cfg_compaction_factor;
  config.min_compaction_delta = parts.state.cfg_min_compaction_delta;
  ENSEMFDET_ASSIGN_OR_RETURN(DynamicGraphStore store,
                             DynamicGraphStore::Create(config));

  store.base_ =
      std::make_shared<const CsrGraph>(std::move(parts.version.base));
  store.epoch_ = parts.state.epoch;
  store.newest_ = parts.state.newest_timestamp;
  store.stats_.events_ingested = parts.state.events_ingested;
  store.stats_.events_evicted = parts.state.events_evicted;
  store.stats_.edges_added = parts.state.edges_added;
  store.stats_.edges_removed = parts.state.edges_removed;
  store.stats_.publishes = parts.state.publishes;
  store.stats_.compactions = parts.state.compactions;
  for (const Edge& e : parts.version.adds) {
    store.added_.insert(PackEdge(e.user, e.merchant));
  }
  store.dead_.insert(parts.version.dead.begin(), parts.version.dead.end());
  store.touched_users_.insert(parts.version.touched_users.begin(),
                              parts.version.touched_users.end());
  store.touched_merchants_.insert(parts.version.touched_merchants.begin(),
                                  parts.version.touched_merchants.end());
  for (const storage::SnapshotTransaction& tx : parts.window) {
    store.window_.push_back({tx.timestamp, tx.user, tx.merchant});
    ++store.multiplicity_[PackEdge(tx.user, tx.merchant)];
  }

  // The reader proved per-section invariants; what remains is the
  // cross-section consistency the store's CHECKed invariants depend on —
  // a checkpoint whose window disagrees with its base/delta must fail
  // here as a Status, not abort (or corrupt) later.
  const int64_t live = store.base_->num_edges() -
                       static_cast<int64_t>(store.dead_.size()) +
                       static_cast<int64_t>(store.added_.size());
  if (static_cast<int64_t>(store.multiplicity_.size()) != live) {
    return Status::IOError(
        "corrupt checkpoint: window events disagree with base/delta live "
        "set (" +
        std::to_string(store.multiplicity_.size()) + " distinct vs " +
        std::to_string(live) + " live)");
  }
  for (const auto& [key, mult] : store.multiplicity_) {
    const UserId u = static_cast<UserId>(key >> 32);
    const MerchantId v = static_cast<MerchantId>(key & 0xffffffffu);
    const EdgeId base_edge = store.FindBaseEdge(u, v);
    const bool live_here = base_edge >= 0 ? store.dead_.count(base_edge) == 0
                                          : store.added_.count(key) == 1;
    if (!live_here) {
      return Status::IOError(
          "corrupt checkpoint: window edge (" + std::to_string(u) + ", " +
          std::to_string(v) + ") is not live in base/delta");
    }
    if (base_edge >= 0 && store.added_.count(key) != 0) {
      return Status::IOError(
          "corrupt checkpoint: base edge also present in delta adds");
    }
  }
  if (!store.window_.empty() &&
      store.newest_ < store.window_.back().timestamp) {
    return Status::IOError(
        "corrupt checkpoint: newest timestamp behind the window");
  }

  // End-to-end integrity gate: the restored live set must hash to the
  // writer's fingerprint.
  std::vector<EdgeId> dead(store.dead_.begin(), store.dead_.end());
  std::sort(dead.begin(), dead.end());
  const uint64_t fingerprint =
      GraphVersion::FromSnapshotParts(store.epoch_, config.num_users,
                                      config.num_merchants,
                                      /*compacted=*/false, store.base_,
                                      parts.version.adds, std::move(dead),
                                      {}, {})
          .ContentFingerprint();
  if (fingerprint != parts.version.content_fingerprint) {
    return Status::IOError(
        "corrupt checkpoint: restored live set does not hash to the "
        "writer's content fingerprint");
  }
  return store;
}

Result<DynamicGraphStore> DynamicGraphStore::RestoreCheckpoint(
    const std::string& path) {
  ENSEMFDET_ASSIGN_OR_RETURN(storage::StoreCheckpointParts parts,
                             storage::ReadStoreCheckpoint(path));
  return FromCheckpoint(std::move(parts));
}

}  // namespace ensemfdet

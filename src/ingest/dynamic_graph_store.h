// DynamicGraphStore: the mutable heart of the incremental ingest
// subsystem. It accepts timestamped edge batches, maintains a sliding
// window over them (eviction by timestamp), and publishes immutable
// epoch-versioned GraphVersion snapshots in O(|delta|) — never O(|window|)
// — by keeping the live edge set as
//
//     base CSR  (frozen at the last compaction)
//   + delta-log (edges added since / base edges evicted since)
//   + per-(user, merchant) multiplicity (duplicate purchases inside the
//     window collapse onto one live edge; the edge dies only when the last
//     occurrence expires).
//
// When the delta-log outgrows `compaction_factor · |base|` (but at least
// `min_compaction_delta`), the next Publish() compacts: the live edge set
// is rebuilt into a fresh CsrGraph, the delta-log resets to empty, and the
// published version is marked `compacted()`. Versions published earlier
// keep their own frozen base/delta and stay bit-stable forever.
//
// The store also tracks the *dirty frontier*: every node whose incident
// live-edge set changed since the last Publish() is reported on the next
// version (`touched_users` / `touched_merchants`) — what the dirty-scoped
// streaming detector scores its component-reuse statistics against.
//
// Thread-safety: NOT thread-safe; callers (WindowedDetector, the service's
// streaming sessions) serialize access per store. Published GraphVersions
// are immutable and freely shared across threads.
#ifndef ENSEMFDET_INGEST_DYNAMIC_GRAPH_STORE_H_
#define ENSEMFDET_INGEST_DYNAMIC_GRAPH_STORE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "ingest/graph_version.h"
#include "ingest/ingest_batch.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"

namespace ensemfdet {

struct DynamicGraphStoreConfig {
  /// Node universes (ids arriving outside them are rejected).
  int64_t num_users = 0;
  int64_t num_merchants = 0;
  /// Window length in timestamp units; events older than newest − window
  /// are evicted. ≤ 0 disables eviction (append-only store).
  int64_t window = 0;
  /// Compaction trips when the delta-log exceeds this fraction of the
  /// base's edge count …
  double compaction_factor = 0.25;
  /// … but never before it holds this many entries (tiny bases would
  /// otherwise compact on every publish).
  int64_t min_compaction_delta = 1024;
};

/// Lifetime counters (monotonic; never reset).
struct DynamicGraphStoreStats {
  int64_t events_ingested = 0;
  int64_t events_evicted = 0;
  int64_t edges_added = 0;    ///< structural 0→1 transitions
  int64_t edges_removed = 0;  ///< structural 1→0 transitions
  int64_t publishes = 0;
  int64_t compactions = 0;
};

class DynamicGraphStore {
 public:
  /// Validates the config. InvalidArgument on empty universes, a
  /// non-positive compaction factor, or min_compaction_delta < 1.
  static Result<DynamicGraphStore> Create(DynamicGraphStoreConfig config);

  /// Applies one batch: every transaction is validated (ids in range,
  /// timestamps non-decreasing within the batch and against everything
  /// already applied), appended to the window, and the live edge multiset
  /// updated; expired events are then evicted. On error nothing before the
  /// offending transaction is rolled back — feed through a reorder buffer
  /// (WindowedDetector's `max_out_of_order`) when the source can regress.
  /// O(|batch| + |evicted|) expected.
  Result<IngestStats> Apply(const IngestBatch& batch);

  /// Snapshots the current live edge set as an immutable GraphVersion,
  /// compacting first if the delta threshold tripped. Cost is
  /// O(|delta| log |delta|) (plus the amortized O(|window|) compaction).
  /// Bumps the epoch; clears the dirty frontier.
  GraphVersion Publish();

  /// Serializes the store's complete state — base CSR, delta-log, window
  /// events (the future-eviction clock), dirty frontier, epoch, counters
  /// — as a kStoreCheckpoint .efg snapshot, so FromCheckpoint() resumes
  /// byte-for-byte where this store stands. Read-only: no epoch bump, no
  /// frontier clear, the store is untouched. `clock`/`reorder` piggyback
  /// WindowedDetector state (null/empty for a bare store checkpoint).
  /// O(|window| + |base| + |delta|).
  /// `wal` piggybacks the durable-ingest WAL position the same way
  /// (null when the ingest path is not WAL-backed).
  Status SaveCheckpoint(
      const std::string& path,
      const storage::DetectorClockRecord* clock = nullptr,
      std::span<const storage::ReorderEventRecord> reorder = {},
      const storage::WalPositionRecord* wal = nullptr) const;

  /// Rebuilds a store from deserialized checkpoint parts
  /// (storage::ReadStoreCheckpoint). Re-derives the live multiset from
  /// the window events, cross-checks it against base − dead + adds, and
  /// re-verifies the live-set content fingerprint — an inconsistent or
  /// tampered checkpoint fails with IOError, never corrupts a store.
  static Result<DynamicGraphStore> FromCheckpoint(
      storage::StoreCheckpointParts parts);

  /// Convenience: ReadStoreCheckpoint + FromCheckpoint (detector clock
  /// sections, if present, are ignored — WindowedDetector::
  /// ResumeFromCheckpoint consumes those).
  static Result<DynamicGraphStore> RestoreCheckpoint(
      const std::string& path);

  /// Distinct live (user, merchant) edges in the window.
  int64_t live_edges() const {
    return static_cast<int64_t>(multiplicity_.size());
  }
  /// Transactions currently inside the window (duplicates included).
  int64_t window_events() const {
    return static_cast<int64_t>(window_.size());
  }
  /// Timestamp of the newest applied event (INT64_MIN before any).
  int64_t newest_timestamp() const { return newest_; }
  /// Epoch of the most recently published version (0 before any Publish).
  uint64_t epoch() const { return epoch_; }
  /// Current delta-log size (adds + dead) against the base.
  int64_t pending_delta() const {
    return static_cast<int64_t>(added_.size() + dead_.size());
  }

  const DynamicGraphStoreConfig& config() const { return config_; }
  const DynamicGraphStoreStats& stats() const { return stats_; }

 private:
  explicit DynamicGraphStore(DynamicGraphStoreConfig config);

  static uint64_t PackEdge(UserId u, MerchantId v) {
    return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
  }

  /// Base EdgeId of (u, v), or -1 when the pair is not a base edge.
  EdgeId FindBaseEdge(UserId u, MerchantId v) const;

  /// The delta-log + dirty frontier in the canonical sorted orders the
  /// GraphVersion invariants (and the snapshot reader) demand. One
  /// producer shared by Publish() and SaveCheckpoint() so the ordering
  /// contract can never diverge between live versions and checkpoints.
  struct SortedDelta {
    std::vector<Edge> adds;                     ///< ascending (user, merchant)
    std::vector<EdgeId> dead;                   ///< ascending
    std::vector<UserId> touched_users;          ///< ascending
    std::vector<MerchantId> touched_merchants;  ///< ascending
  };
  SortedDelta BuildSortedDelta() const;

  void AddLiveEdge(UserId u, MerchantId v, IngestStats* stats);
  void EvictExpired(IngestStats* stats);
  /// Rebuilds base_ from the live set (base_ merged with `delta`'s adds
  /// and dead ids) and empties the delta-log, `delta` included.
  void Compact(SortedDelta* delta);

  DynamicGraphStoreConfig config_;
  DynamicGraphStoreStats stats_;

  std::deque<Transaction> window_;
  int64_t newest_;
  uint64_t epoch_ = 0;

  /// Live multiset: packed (user, merchant) → occurrences in the window.
  std::unordered_map<uint64_t, int32_t> multiplicity_;

  std::shared_ptr<const CsrGraph> base_;
  /// Live edges absent from base, as packed keys. std::set: packed-key
  /// order IS canonical (user, merchant) order, so Publish() reads the
  /// adds pre-sorted.
  std::set<uint64_t> added_;
  /// Base edges currently dead (evicted); sorted at Publish().
  std::unordered_set<EdgeId> dead_;

  /// Dirty frontier accumulated since the last Publish().
  std::unordered_set<UserId> touched_users_;
  std::unordered_set<MerchantId> touched_merchants_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_INGEST_DYNAMIC_GRAPH_STORE_H_

// StreamingDetector: dirty-scoped ensemble re-detection over published
// GraphVersions.
//
// Dense blocks never span connected components, so the detector decomposes
// the live graph into components and runs one ENSEMFDET ensemble *per
// component*, with every source of randomness derived from the component's
// own content fingerprint:
//
//     seed(C) = HashCombine(config.ensemble.seed, fingerprint(C))
//
// A component whose live edge set did not change between two detections
// has the same fingerprint, hence the same seed, hence — ensemble members
// being pure functions of (subgraph, seed) — bit-identical member outputs.
// The detector therefore caches each component's raw block lists
// (EnsembleMemberBlocks, translated to global ids), one per distinct
// member sample with a member → sample index, keyed by the component
// fingerprint, and on the next detection *replays* clean components from
// the cache while re-running only the dirty ones. Window
// slides that merge, split, or grow a component change its fingerprint and
// naturally invalidate it.
//
// Cross-component aggregation works per ensemble member index i: every
// component explores up to `max_blocks` blocks per member (fixed-k, no
// per-component elbow), then member i's blocks from all components are
// merged in (descending φ, ties stable by component order) and truncated
// once, globally, by the configured policy.
// Member i's votes are the nodes of its globally-kept blocks. This keeps
// tiny debris components from voting themselves dense in isolation, and —
// because the merge consumes only content-determined inputs in a
// content-determined order — makes incremental detection *bit-exact*
// against a full-window rerun: Detect(V) on a warm detector equals
// Detect(V) on a fresh one, vote for vote, weighted vote for weighted
// vote, member stat for member stat (wall-clock `seconds` and
// `arena_grow_events` excepted). tests/ingest_parity_test.cc pins this
// across seeds and all four sampling methods; the stream bench refuses to
// emit BENCH_stream.json if it ever breaks.
//
// One Detect() runs in four stages (DESIGN.md "Dirty-scoped detection"):
// label components by union-find over the live edges; resolve every
// eligible component against the cache; recompute the dirty components
// (build their local graphs, draw every (component, member) mask in one
// work-stealing pass over the pool, map each member to the lowest member
// with an equal mask, and run FDET once per distinct (component, sample)
// in a second pass — a small component's members mostly draw the same
// few edges); and aggregate the members in parallel before adding their
// votes in member order.
//
// Thread-safety: a StreamingDetector instance is NOT thread-safe (one
// mutable component cache + scratch); callers serialize Detect() per
// instance. The ThreadPool argument parallelizes the work *within* the
// call, which does not affect results.
#ifndef ENSEMFDET_INGEST_STREAMING_DETECTOR_H_
#define ENSEMFDET_INGEST_STREAMING_DETECTOR_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ensemble/ensemfdet.h"
#include "ingest/graph_version.h"

namespace ensemfdet {

struct StreamingDetectorConfig {
  /// Per-component ensemble configuration. `fdet.policy` / `fixed_k` apply
  /// to the *global* cross-component truncation; per-component exploration
  /// always keeps up to `fdet.max_blocks` blocks.
  EnsemFDetConfig ensemble;
  /// Components with fewer live edges are skipped outright (they vote in
  /// neither the incremental nor the full-rerun path). 1 = detect
  /// everything with an edge.
  int64_t min_component_edges = 1;
  /// Component-report cache entries (LRU). Eviction never affects
  /// results — an evicted clean component is simply recomputed. Within one
  /// Detect() every eligible component is looked up before any recomputed
  /// one is inserted (inserts go in component order), so an insert can
  /// only evict entries that this detection does not replay.
  size_t component_cache_capacity = 4096;
};

/// What one Detect() did, beyond the report itself.
struct StreamingDetectionStats {
  int64_t components_total = 0;       ///< components with ≥ 1 live edge
  int64_t components_eligible = 0;    ///< ≥ min_component_edges
  int64_t components_reused = 0;      ///< replayed from the cache
  int64_t components_recomputed = 0;  ///< ensembles actually run
  int64_t edges_total = 0;            ///< live edges in the version
  int64_t edges_recomputed = 0;       ///< live edges inside recomputed comps
  /// Components containing a node of the version's dirty frontier
  /// (touched_users/merchants). Every *touched* eligible component is
  /// necessarily recomputed; recomputed − touched = cold-cache or
  /// LRU-evicted components.
  int64_t components_touched = 0;
  /// Recomputed (component, member) pairs answered by an identical
  /// sample's FDET run: N per recomputed component, less its distinct
  /// samples.
  int64_t members_shared = 0;
};

struct StreamingCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
};

struct StreamingReport {
  /// Full-window aggregate, same shape batch EnsemFDet::Run produces:
  /// vote table over the store universes, weighted votes, N per-member
  /// stats (summed across components, num_blocks = globally kept blocks).
  EnsemFDetReport report;
  uint64_t epoch = 0;
  /// GraphVersion::ContentFingerprint() of the detected version.
  uint64_t fingerprint = 0;
  StreamingDetectionStats stats;
};

class StreamingDetector {
 public:
  /// Validates the config: num_samples ≥ 1, ratio ∈ (0, 1],
  /// min_component_edges ≥ 1, cache capacity ≥ 1.
  static Result<StreamingDetector> Create(StreamingDetectorConfig config);

  /// Detects over one published version (see file comment). Deterministic
  /// in (version content, config) — independent of pool width, of prior
  /// Detect() calls, and of cache state.
  Result<StreamingReport> Detect(const GraphVersion& version,
                                 ThreadPool* pool = nullptr);

  /// Drops every cached component report; the next Detect() is a full
  /// rerun (the bit-exactness comparator the parity tests and the stream
  /// bench use).
  void ResetCache();

  StreamingCacheStats cache_stats() const { return cache_stats_; }
  size_t cache_size() const { return lru_.size(); }
  const StreamingDetectorConfig& config() const { return config_; }

 private:
  explicit StreamingDetector(StreamingDetectorConfig config);

  /// Per-component cached artifact: the raw blocks of each distinct member
  /// sample in *global* ids (block edge lists dropped — aggregation only
  /// needs nodes + φ), which sample each of the N members drew, and the
  /// component's live edge count for the stats.
  struct ComponentEntry {
    /// Member i's blocks and structural stats are those of
    /// samples[members[i].sample]; its cost is its own draw, plus the
    /// FDET run for the lowest member of each sample, so summed member
    /// time is work actually done.
    struct Member {
      size_t sample = 0;
      double seconds = 0.0;
      int64_t arena_grow_events = 0;
    };
    std::vector<EnsembleMemberBlocks> samples;
    std::vector<Member> members;
    int64_t num_edges = 0;
  };

  std::shared_ptr<const ComponentEntry> LookupCache(uint64_t fingerprint);
  void InsertCache(uint64_t fingerprint,
                   std::shared_ptr<const ComponentEntry> entry);

  /// Collects the live edges (GraphVersion::CollectLiveEdges, which also
  /// sets `*fingerprint`), labels their connected components (union-find)
  /// and partitions the edges by component into comp_edges_ /
  /// comp_offsets_, canonical order within each. Returns the number of
  /// components containing a dirty-frontier node.
  int64_t LabelComponents(const GraphVersion& version, uint64_t* fingerprint);

  StreamingDetectorConfig config_;
  // Draws and peels every component's members (ComponentEnsembleConfig),
  // so the sampler is built once per detector.
  EnsemFDet component_ensemble_;

  // LRU cache: front = most recent.
  struct LruEntry {
    uint64_t fingerprint;
    std::shared_ptr<const ComponentEntry> entry;
  };
  std::list<LruEntry> lru_;
  std::unordered_map<uint64_t, std::list<LruEntry>::iterator> cache_index_;
  StreamingCacheStats cache_stats_;

  // Labelling scratch, reused across calls. Indexed by packed node id
  // (user u → u, merchant v → |U| + v; label_ by user only); an entry is
  // valid only while node_stamp_ holds this call's stamp_, so no call
  // clears them across the universe.
  std::vector<uint32_t> parent_;
  std::vector<int32_t> label_;
  std::vector<uint32_t> node_stamp_;
  uint32_t stamp_ = 0;
  std::vector<Edge> edges_;           // live edges, canonical order
  std::vector<int32_t> edge_comp_;    // component of edges_[k]
  std::vector<Edge> comp_edges_;      // edges grouped by component
  std::vector<int64_t> comp_offsets_;  // component c: [c, c + 1)
  // Global merchant → component-local id while a dirty component's local
  // graph is built; all-unset between calls (see PrepareComponent).
  std::vector<MerchantId> merchant_local_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_INGEST_STREAMING_DETECTOR_H_

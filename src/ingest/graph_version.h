// GraphVersion: one immutable, epoch-versioned snapshot of a
// DynamicGraphStore's live edge set, represented as
//
//     live(V) = (base \ dead) ∪ adds
//
// where `base` is the CSR graph frozen at the last compaction, `dead` is
// the sorted list of base EdgeIds evicted since, and `adds` is the
// canonical-sorted list of edges inserted since that are not in `base`.
// Publishing a version therefore costs O(|delta| log |delta|) — the store
// never rescans the window to snapshot it — and a version stays valid (and
// bit-stable) forever, however the store mutates afterwards.
//
// Delta-log invariants (established by DynamicGraphStore::Publish, pinned
// by tests/ingest_store_test.cc):
//
//  * `adds` is ascending (user, merchant), duplicate-free, and disjoint
//    from base's edge set.
//  * `dead` is ascending, duplicate-free, and every entry is a valid base
//    EdgeId. An edge is never in `adds` and resurrected from `dead` at
//    once — re-adding an evicted base edge clears it from `dead` instead.
//  * Walking the base edge ids ascending (they are canonical), skipping
//    the dead ones, and merging the adds in by (user, merchant) yields the
//    live edge set in canonical (user, merchant) order — the edge-id order
//    of any built graph over the same edges, which is what makes
//    ContentFingerprint() representation-independent. That merge
//    (ForEachEdge) is the one way to read the live edges; it costs
//    O(|E_base| + |adds|), independent of the node universe.
//
// Thread-safety: a GraphVersion is an immutable value (cheap shared-state
// copies); any number of threads may iterate one concurrently. The lazy
// fingerprint memo is internally synchronized.
#ifndef ENSEMFDET_INGEST_GRAPH_VERSION_H_
#define ENSEMFDET_INGEST_GRAPH_VERSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

class DynamicGraphStore;

class GraphVersion {
 public:
  /// An empty version: epoch 0 over a 0×0 graph.
  GraphVersion();

  /// Monotonically increasing per store, bumped on every Publish().
  uint64_t epoch() const { return rep_->epoch; }
  int64_t num_users() const { return rep_->num_users; }
  int64_t num_merchants() const { return rep_->num_merchants; }
  /// Live (distinct) edges: base − dead + adds.
  int64_t num_edges() const {
    return rep_->base->num_edges() -
           static_cast<int64_t>(rep_->dead.size()) +
           static_cast<int64_t>(rep_->adds.size());
  }
  bool empty() const { return num_edges() == 0; }

  /// True iff this Publish() rebuilt the base (delta threshold tripped);
  /// a compacted version has an empty delta-log.
  bool compacted() const { return rep_->compacted; }

  /// The frozen base CSR and the delta-log against it.
  const CsrGraph& base() const { return *rep_->base; }
  std::span<const Edge> delta_adds() const { return rep_->adds; }
  std::span<const EdgeId> delta_dead() const { return rep_->dead; }

  /// Nodes whose incident live-edge set changed since the *previous*
  /// published version (sorted, duplicate-free) — the dirty frontier the
  /// streaming detector's reuse statistics are scored against.
  std::span<const UserId> touched_users() const {
    return rep_->touched_users;
  }
  std::span<const MerchantId> touched_merchants() const {
    return rep_->touched_merchants;
  }

  /// Visits every live edge in canonical (user, merchant) order — a linear
  /// two-cursor merge of the base edge ids (skipping dead ones) with the
  /// adds. O(|E_base| + |adds|): the node universe is never scanned.
  /// `fn(UserId, MerchantId)`.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    ForEachLiveEdge(*rep_->base, rep_->dead, rep_->adds, fn);
  }

  /// Replaces `*edges` with the live edge set in canonical order (one
  /// ForEachEdge walk) and returns ContentFingerprint(), hashing the
  /// collected edges and memoizing the result unless it is memoized
  /// already — the streaming detector's one pass over the live edges per
  /// detection yields both its component input and the report identity.
  uint64_t CollectLiveEdges(std::vector<Edge>* edges) const;

  /// Stable content hash of the live edge set — FingerprintGraph of any
  /// built graph over the same edges (both funnel through
  /// graph/fingerprint.h's FingerprintEdges), so cache keys built from a
  /// version, its adjacency form, or its CSR form are interchangeable
  /// however the base/delta split happens to fall. Computed once per
  /// version (by CollectLiveEdges, O(num_edges)), then memoized.
  uint64_t ContentFingerprint() const;

  /// CSR form of the live edge set. When the delta-log is empty the base
  /// itself is returned (zero cost); otherwise it is rebuilt from one
  /// CollectLiveEdges walk through CsrGraph::FromCanonicalEdges on every
  /// call, O(|U| + |V| + num_edges) — hashing nothing once the fingerprint
  /// is memoized (a detection over this version memoizes it).
  std::shared_ptr<const CsrGraph> MaterializeCsr() const;

  /// Serializes this version (base + delta-log + epoch) as a
  /// kGraphVersion .efg snapshot (storage/snapshot_format.h). The header
  /// fingerprint is ContentFingerprint(), which LoadGraphVersionSnapshot
  /// re-verifies.
  Status SaveSnapshot(const std::string& path) const;

  /// Reassembles a version from validated snapshot parts (the ingest-side
  /// glue over storage::ReadGraphVersionSnapshot; prefer
  /// LoadGraphVersionSnapshot below). The parts must satisfy the delta-log
  /// invariants in the file comment — the snapshot reader proves them.
  static GraphVersion FromSnapshotParts(
      uint64_t epoch, int64_t num_users, int64_t num_merchants,
      bool compacted, std::shared_ptr<const CsrGraph> base,
      std::vector<Edge> adds, std::vector<EdgeId> dead,
      std::vector<UserId> touched_users,
      std::vector<MerchantId> touched_merchants);

 private:
  friend class DynamicGraphStore;

  struct Rep {
    uint64_t epoch = 0;
    int64_t num_users = 0;
    int64_t num_merchants = 0;
    bool compacted = false;
    std::shared_ptr<const CsrGraph> base;
    std::vector<Edge> adds;    // sorted (user, merchant)
    std::vector<EdgeId> dead;  // sorted base edge ids
    std::vector<UserId> touched_users;
    std::vector<MerchantId> touched_merchants;

    // Lazy memo (synchronized; Rep is otherwise immutable post-publish).
    mutable std::mutex memo_mu;
    mutable bool memo_fingerprint_set = false;
    mutable uint64_t memo_fingerprint = 0;
  };

  explicit GraphVersion(std::shared_ptr<const Rep> rep)
      : rep_(std::move(rep)) {}

  /// The merge behind ForEachEdge over explicit parts (`dead` and `adds`
  /// satisfying the delta-log invariants): DynamicGraphStore compacts
  /// from its own delta-log through it.
  template <typename Fn>
  static void ForEachLiveEdge(const CsrGraph& base,
                              std::span<const EdgeId> dead,
                              std::span<const Edge> adds, Fn&& fn) {
    const int64_t num_base = base.num_edges();
    size_t dead_cursor = 0;
    size_t add_cursor = 0;
    for (EdgeId e = 0; e < num_base; ++e) {
      if (dead_cursor < dead.size() && dead[dead_cursor] == e) {
        ++dead_cursor;
        continue;
      }
      const UserId u = base.edge_user(e);
      const MerchantId v = base.edge_merchant(e);
      // Adds are disjoint from base, so no add equals (u, v).
      while (add_cursor < adds.size() &&
             (adds[add_cursor].user < u ||
              (adds[add_cursor].user == u && adds[add_cursor].merchant < v))) {
        fn(adds[add_cursor].user, adds[add_cursor].merchant);
        ++add_cursor;
      }
      fn(u, v);
    }
    for (; add_cursor < adds.size(); ++add_cursor) {
      fn(adds[add_cursor].user, adds[add_cursor].merchant);
    }
  }

  std::shared_ptr<const Rep> rep_;
};

/// Loads a kGraphVersion snapshot written by GraphVersion::SaveSnapshot
/// (or embedded in a store checkpoint), re-verifying the live-set content
/// fingerprint against the header — a version restored from disk is
/// interchangeable with the original (same ContentFingerprint, so the
/// streaming detector's content-derived ensembles reproduce bit-exactly).
Result<GraphVersion> LoadGraphVersionSnapshot(const std::string& path);

}  // namespace ensemfdet

#endif  // ENSEMFDET_INGEST_GRAPH_VERSION_H_

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
//  * Iterating users ascending and, per user, merging the base row with
//    the adds row yields the live edge set in canonical (user, merchant)
//    order — exactly the edge-id order GraphBuilder::Build would assign,
//    which is what makes ContentFingerprint() representation-independent.
//    That merge (ForEachEdge) is the one way to read the live edges.
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
  /// two-cursor merge of the base rows (skipping dead slots) with the adds
  /// rows. O(num_edges + |dead|). `fn(UserId, MerchantId)`.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    const Rep& rep = *rep_;
    const CsrGraph& base = *rep.base;
    size_t dead_cursor = 0;  // base user-side slots are EdgeIds, ascending
    size_t add_cursor = 0;
    for (UserId u = 0; u < base.num_users(); ++u) {
      std::span<const MerchantId> row = base.user_neighbors(u);
      EdgeId id = base.user_edge_begin(u);
      size_t k = 0;
      // Merge: base row and adds row are both ascending in merchant id.
      while (true) {
        // Skip dead base slots first so the merge only sees live edges.
        while (k < row.size() && dead_cursor < rep.dead.size() &&
               rep.dead[dead_cursor] == id + static_cast<EdgeId>(k)) {
          ++dead_cursor;
          ++k;
        }
        const bool base_left = k < row.size();
        const bool add_left = add_cursor < rep.adds.size() &&
                              rep.adds[add_cursor].user == u;
        if (!base_left && !add_left) break;
        if (!add_left ||
            (base_left && row[k] < rep.adds[add_cursor].merchant)) {
          fn(u, row[k]);
          ++k;
        } else {
          fn(u, rep.adds[add_cursor].merchant);
          ++add_cursor;
        }
      }
    }
    // Adds reference only users < num_users; merchants beyond base's node
    // range cannot occur (store universes are fixed at construction).
  }

  /// Stable content hash of the live edge set —
  /// `FingerprintGraph(Materialize())` by construction (both funnel
  /// through graph/fingerprint.h's FingerprintEdges), so cache keys built
  /// from a version, its materialized adjacency form, or its CSR form are
  /// interchangeable however the base/delta split happens to fall.
  /// Lazily computed once per version (O(num_edges)), then memoized.
  uint64_t ContentFingerprint() const;

  /// Rebuilds the live edge set as an adjacency-list graph. O(num_edges).
  BipartiteGraph Materialize() const;

  /// CSR form of the live edge set. When the delta-log is empty the base
  /// itself is returned (zero cost); otherwise it is rebuilt through
  /// Materialize() on every call, O(num_edges).
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

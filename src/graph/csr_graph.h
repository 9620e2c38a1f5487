// CsrGraph: the flat compressed-sparse-row form of a bipartite graph —
// the memory layout the detection hot path runs on.
//
// BipartiteGraph (bipartite_graph.h) stores incidence lists of EdgeIds
// plus a separate endpoint-pair array, so walking a neighborhood costs one
// extra indirection per edge (adj slot → EdgeId → Edge struct → endpoint).
// CsrGraph flattens both orientations into offset/neighbor arrays so k-core
// peeling and greedy density peeling iterate neighbor ids directly at
// memory bandwidth (see DESIGN.md §"Graph memory layout" and Ban & Duan's
// linear-time dense-subgraph peeling, PAPERS.md).
//
// Layout invariants (checked in debug builds, pinned by
// tests/csr_graph_test.cc):
//
//  * Edges keep BipartiteGraph's canonical id order: ascending
//    (user, merchant). Because user rows are stored contiguously in user
//    order with neighbors ascending, **the user-side slot index IS the
//    EdgeId** — `user_neighbors_[e]` is edge e's merchant endpoint.
//  * Merchant rows are sorted by user id; `merchant_edge_ids(v)[k]` maps
//    the k-th slot of v's row back to its EdgeId.
//  * `edge_user(e)` / `edge_merchant(e)` / `edge_weight(e)` are O(1) flat
//    array loads (no binary search, no Edge struct).
//
// Storage model (since the snapshot subsystem, DESIGN.md §"Snapshot
// format"): every accessor reads through spans, and a graph either *owns*
// its arrays (FromCanonicalEdges, FromBipartite — the spans alias internal
// vectors) or is a *view* over externally owned memory (WrapExternal —
// e.g. a read-only file mapping kept alive by `backing`). Copying an
// owning graph deep-copies; copying a view is O(1) and shares the backing
// handle. Either way the copy/move machinery keeps the spans pointing at
// storage the destination object owns, so value semantics are preserved.
//
// FromCanonicalEdges is the one place a CSR is assembled from an edge
// list: FromBipartite forwards to it, and the ingest store, its published
// versions and the streaming detector's component graphs call it directly
// with edges they already hold in canonical order.
//
// Thread-safety: a CsrGraph is immutable after construction; any number of
// threads may read one concurrently without synchronization. Per-job code
// converts once (FromBipartite) and shares the instance across ThreadPool
// workers by const reference / shared_ptr.
#ifndef ENSEMFDET_GRAPH_CSR_GRAPH_H_
#define ENSEMFDET_GRAPH_CSR_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"

namespace ensemfdet {

class CsrGraph {
 public:
  /// Empty graph (0 nodes / 0 edges).
  CsrGraph() { BindOwned(); }

  CsrGraph(const CsrGraph& other);
  CsrGraph& operator=(const CsrGraph& other);
  CsrGraph(CsrGraph&& other) noexcept;
  CsrGraph& operator=(CsrGraph&& other) noexcept;

  /// Builds a CSR from an edge list that is already canonical: strictly
  /// ascending (user, merchant), so duplicate-free, with every id inside
  /// the node counts (both checked in debug builds). Edge k of the list
  /// becomes EdgeId k. `weights` is empty for an unweighted graph, else
  /// one weight per edge in the same order.
  /// Cost: O(|U| + |V| + |E|), two passes over the edge list.
  static CsrGraph FromCanonicalEdges(int64_t num_users, int64_t num_merchants,
                                     std::span<const Edge> edges,
                                     std::span<const double> weights = {});

  /// Converts an adjacency-list graph to CSR form (FromCanonicalEdges over
  /// its edge and weight arrays).
  ///
  /// @pre `graph`'s edge ids are canonical — ascending (user, merchant) —
  ///      which every GraphBuilder-built graph satisfies (checked in debug
  ///      builds).
  /// @post `ToBipartite()` of the result reproduces `graph` exactly
  ///       (nodes, edge set, edge id order, weights).
  static CsrGraph FromBipartite(const BipartiteGraph& graph);

  /// Wraps externally owned CSR arrays as a zero-copy view. `backing`
  /// keeps the memory alive (e.g. a storage::MappedFile); the arrays must
  /// satisfy every layout invariant in the file comment — callers that get
  /// the arrays from an untrusted source (a snapshot file) must validate
  /// them first (storage/snapshot_reader.h does; only basic shape is
  /// DCHECKed here). `weights` is empty for an unweighted graph.
  ///
  /// @post The view (and every copy of it) holds `backing` until
  ///       destroyed; the arrays are never freed or modified through it.
  static CsrGraph WrapExternal(int64_t num_users, int64_t num_merchants,
                               std::span<const int64_t> user_offsets,
                               std::span<const MerchantId> user_neighbors,
                               std::span<const UserId> edge_users,
                               std::span<const int64_t> merchant_offsets,
                               std::span<const UserId> merchant_neighbors,
                               std::span<const EdgeId> merchant_edge_ids,
                               std::span<const double> weights,
                               std::shared_ptr<const void> backing);

  /// Adopts pre-built CSR arrays as an owning graph (the streaming
  /// snapshot reader's constructor). Same invariant contract as
  /// WrapExternal: callers validate untrusted arrays first.
  static CsrGraph FromRawArrays(int64_t num_users, int64_t num_merchants,
                                std::vector<int64_t> user_offsets,
                                std::vector<MerchantId> user_neighbors,
                                std::vector<UserId> edge_users,
                                std::vector<int64_t> merchant_offsets,
                                std::vector<UserId> merchant_neighbors,
                                std::vector<EdgeId> merchant_edge_ids,
                                std::vector<double> weights);

  /// True iff this graph aliases externally owned memory (WrapExternal).
  bool is_view() const { return backing_ != nullptr; }

  /// Converts back to the adjacency-list form (exact round-trip: same node
  /// counts, edges in the same canonical order, same weights).
  BipartiteGraph ToBipartite() const;

  int64_t num_users() const { return num_users_; }
  int64_t num_merchants() const { return num_merchants_; }
  int64_t num_nodes() const { return num_users_ + num_merchants_; }
  int64_t num_edges() const {
    return static_cast<int64_t>(user_neighbors_.size());
  }
  bool empty() const { return user_neighbors_.empty(); }

  /// O(1) degrees.
  int64_t user_degree(UserId u) const {
    return user_offsets_[u + 1] - user_offsets_[u];
  }
  int64_t merchant_degree(MerchantId v) const {
    return merchant_offsets_[v + 1] - merchant_offsets_[v];
  }

  /// Merchant endpoints of user u's edges, ascending. The slot index of
  /// entry k within the whole array is u's k-th EdgeId:
  /// `user_edge_begin(u) + k`.
  std::span<const MerchantId> user_neighbors(UserId u) const {
    return user_neighbors_.subspan(
        static_cast<size_t>(user_offsets_[u]),
        static_cast<size_t>(user_offsets_[u + 1] - user_offsets_[u]));
  }
  /// First EdgeId of user u's row (== user-side CSR offset; the row covers
  /// EdgeIds [user_edge_begin(u), user_edge_begin(u) + user_degree(u))).
  EdgeId user_edge_begin(UserId u) const { return user_offsets_[u]; }

  /// User endpoints of merchant v's edges, ascending.
  std::span<const UserId> merchant_neighbors(MerchantId v) const {
    return merchant_neighbors_.subspan(
        static_cast<size_t>(merchant_offsets_[v]),
        static_cast<size_t>(merchant_offsets_[v + 1] -
                            merchant_offsets_[v]));
  }
  /// EdgeIds of merchant v's edges, parallel to merchant_neighbors(v).
  std::span<const EdgeId> merchant_edge_ids(MerchantId v) const {
    return merchant_edge_ids_.subspan(
        static_cast<size_t>(merchant_offsets_[v]),
        static_cast<size_t>(merchant_offsets_[v + 1] -
                            merchant_offsets_[v]));
  }

  /// O(1) endpoint lookups by EdgeId.
  UserId edge_user(EdgeId e) const {
    return edge_users_[static_cast<size_t>(e)];
  }
  MerchantId edge_merchant(EdgeId e) const {
    return user_neighbors_[static_cast<size_t>(e)];  // slot == EdgeId
  }

  /// Weight of edge e (1.0 unless the source graph carried weights).
  double edge_weight(EdgeId e) const {
    return weights_.empty() ? 1.0 : weights_[static_cast<size_t>(e)];
  }
  bool has_weights() const { return !weights_.empty(); }
  /// Raw weight array (empty when unweighted); indexed by EdgeId.
  std::span<const double> weights() const { return weights_; }

  /// Raw flat arrays (what the snapshot writer serializes).
  std::span<const int64_t> user_offsets() const { return user_offsets_; }
  std::span<const MerchantId> user_neighbors_flat() const {
    return user_neighbors_;
  }
  std::span<const UserId> edge_users_flat() const { return edge_users_; }
  std::span<const int64_t> merchant_offsets() const {
    return merchant_offsets_;
  }
  std::span<const UserId> merchant_neighbors_flat() const {
    return merchant_neighbors_;
  }
  std::span<const EdgeId> merchant_edge_ids_flat() const {
    return merchant_edge_ids_;
  }

 private:
  /// Points every accessor span at the owned vectors.
  void BindOwned();

  int64_t num_users_ = 0;
  int64_t num_merchants_ = 0;

  // Accessor views: alias `owned_` (owning graphs) or external memory kept
  // alive by `backing_` (views). Never dangling: copy/move rebind them.
  std::span<const int64_t> user_offsets_;
  std::span<const MerchantId> user_neighbors_;  // slot == EdgeId
  std::span<const UserId> edge_users_;          // EdgeId → user endpoint
  std::span<const int64_t> merchant_offsets_;
  std::span<const UserId> merchant_neighbors_;
  std::span<const EdgeId> merchant_edge_ids_;   // merchant slot → EdgeId
  std::span<const double> weights_;             // empty == all 1.0

  // Owned storage. Offsets hold num_users_+1 / num_merchants_+1 entries
  // ({0} when empty) so the degree arithmetic needs no special cases.
  struct Owned {
    std::vector<int64_t> user_offsets = {0};
    std::vector<MerchantId> user_neighbors;
    std::vector<UserId> edge_users;
    std::vector<int64_t> merchant_offsets = {0};
    std::vector<UserId> merchant_neighbors;
    std::vector<EdgeId> merchant_edge_ids;
    std::vector<double> weights;
  };
  Owned owned_;
  // Non-null iff this graph is a view over external memory.
  std::shared_ptr<const void> backing_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_GRAPH_CSR_GRAPH_H_

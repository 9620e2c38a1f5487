// Immutable bipartite graph in compressed-sparse-row form, the central data
// structure of the library: the paper's "who buy-from where" graph
// G = (U ∪ V, E) with users (PINs) on one side and merchants on the other.
//
// Both orientations are materialized (user→edges and merchant→edges) so the
// greedy peeler can walk either side's incidence list in O(degree). Edges
// are identified by dense EdgeId in [0, num_edges); an optional per-edge
// weight array supports Theorem 1's 1/p reweighting of sampled subgraphs.
//
// Construction goes through GraphBuilder (graph_builder.h), which
// deduplicates parallel edges and validates ids; BipartiteGraph itself is
// immutable after construction, safe to share across threads.
#ifndef ENSEMFDET_GRAPH_BIPARTITE_GRAPH_H_
#define ENSEMFDET_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ensemfdet {

/// Dense id of a user (PIN) node, in [0, num_users).
using UserId = uint32_t;
/// Dense id of a merchant node, in [0, num_merchants).
using MerchantId = uint32_t;
/// Dense id of an edge, in [0, num_edges).
using EdgeId = int64_t;

/// One endpoint pair; the unit the edge samplers draw.
struct Edge {
  UserId user;
  MerchantId merchant;

  bool operator==(const Edge& other) const = default;
};

/// Immutable adjacency-list bipartite graph (see file comment).
///
/// @note Thread-safety: immutable after GraphBuilder::Build(); any number
///       of threads may read one instance concurrently without
///       synchronization. For the flat peeling layout the detection hot
///       path uses, convert once with CsrGraph::FromBipartite
///       (graph/csr_graph.h).
/// @note Edge ids are canonical: ascending (user, merchant). Many
///       consumers (fingerprinting, CSR conversion, samplers) rely on
///       this postcondition of GraphBuilder::Build().
class BipartiteGraph {
 public:
  /// Empty graph (0 nodes / 0 edges).
  BipartiteGraph() = default;

  int64_t num_users() const { return num_users_; }
  int64_t num_merchants() const { return num_merchants_; }
  int64_t num_nodes() const { return num_users_ + num_merchants_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  bool empty() const { return edges_.empty(); }

  /// The e-th edge's endpoints.
  const Edge& edge(EdgeId e) const { return edges_[static_cast<size_t>(e)]; }
  /// All edges in id order.
  std::span<const Edge> edges() const { return edges_; }

  /// Weight of edge e (1.0 unless the graph was built with weights, e.g.
  /// the 1/p reweighting of Theorem 1).
  double edge_weight(EdgeId e) const {
    return weights_.empty() ? 1.0 : weights_[static_cast<size_t>(e)];
  }
  bool has_weights() const { return !weights_.empty(); }
  /// Raw weight array (empty when unweighted); indexed by EdgeId.
  std::span<const double> weights() const { return weights_; }

  /// Ids of edges incident to user u, ascending by merchant id.
  /// @pre u < num_users(). The span stays valid for the graph's lifetime.
  std::span<const EdgeId> user_edges(UserId u) const {
    return {user_adj_.data() + user_offsets_[u],
            user_adj_.data() + user_offsets_[u + 1]};
  }

  /// Ids of edges incident to merchant v, ascending by user id.
  /// @pre v < num_merchants(). The span stays valid for the graph's
  /// lifetime.
  std::span<const EdgeId> merchant_edges(MerchantId v) const {
    return {merchant_adj_.data() + merchant_offsets_[v],
            merchant_adj_.data() + merchant_offsets_[v + 1]};
  }

  int64_t user_degree(UserId u) const {
    return user_offsets_[u + 1] - user_offsets_[u];
  }
  int64_t merchant_degree(MerchantId v) const {
    return merchant_offsets_[v + 1] - merchant_offsets_[v];
  }

  /// Weighted degree: sum of incident edge weights (== degree when the
  /// graph is unweighted).
  double user_weighted_degree(UserId u) const;
  double merchant_weighted_degree(MerchantId v) const;

  /// True iff the (user, merchant) edge exists; O(log degree).
  bool HasEdge(UserId u, MerchantId v) const;

 private:
  friend class GraphBuilder;

  int64_t num_users_ = 0;
  int64_t num_merchants_ = 0;
  std::vector<Edge> edges_;       // endpoint pairs, indexed by EdgeId
  std::vector<double> weights_;   // empty == all 1.0
  // CSR incidence lists: offsets have num_users_+1 / num_merchants_+1
  // entries; adj holds EdgeIds.
  std::vector<int64_t> user_offsets_;
  std::vector<EdgeId> user_adj_;
  std::vector<int64_t> merchant_offsets_;
  std::vector<EdgeId> merchant_adj_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_GRAPH_BIPARTITE_GRAPH_H_

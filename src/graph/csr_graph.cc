#include "graph/csr_graph.h"

#include <utility>

#include "common/logging.h"
#include "graph/graph_builder.h"

namespace ensemfdet {

void CsrGraph::BindOwned() {
  user_offsets_ = owned_.user_offsets;
  user_neighbors_ = owned_.user_neighbors;
  edge_users_ = owned_.edge_users;
  merchant_offsets_ = owned_.merchant_offsets;
  merchant_neighbors_ = owned_.merchant_neighbors;
  merchant_edge_ids_ = owned_.merchant_edge_ids;
  weights_ = owned_.weights;
}

CsrGraph::CsrGraph(const CsrGraph& other)
    : num_users_(other.num_users_), num_merchants_(other.num_merchants_) {
  if (other.backing_ != nullptr) {
    // View: share the backing handle and alias the same external arrays —
    // O(1), the idiom for passing an mmap-served graph around by value.
    user_offsets_ = other.user_offsets_;
    user_neighbors_ = other.user_neighbors_;
    edge_users_ = other.edge_users_;
    merchant_offsets_ = other.merchant_offsets_;
    merchant_neighbors_ = other.merchant_neighbors_;
    merchant_edge_ids_ = other.merchant_edge_ids_;
    weights_ = other.weights_;
    backing_ = other.backing_;
  } else {
    owned_ = other.owned_;
    BindOwned();
  }
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this != &other) *this = CsrGraph(other);  // copy, then move-assign
  return *this;
}

CsrGraph::CsrGraph(CsrGraph&& other) noexcept
    : num_users_(other.num_users_),
      num_merchants_(other.num_merchants_),
      // Vector moves transfer the heap buffers, so spans into `owned_`
      // stay valid when copied before/after the move; external spans stay
      // valid because `backing_` transfers.
      user_offsets_(other.user_offsets_),
      user_neighbors_(other.user_neighbors_),
      edge_users_(other.edge_users_),
      merchant_offsets_(other.merchant_offsets_),
      merchant_neighbors_(other.merchant_neighbors_),
      merchant_edge_ids_(other.merchant_edge_ids_),
      weights_(other.weights_),
      owned_(std::move(other.owned_)),
      backing_(std::move(other.backing_)) {
  // Leave the source a valid empty graph (its spans must not dangle into
  // buffers it no longer owns).
  other.num_users_ = 0;
  other.num_merchants_ = 0;
  other.owned_ = Owned{};
  other.backing_.reset();
  other.BindOwned();
}

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  if (this != &other) {
    num_users_ = other.num_users_;
    num_merchants_ = other.num_merchants_;
    user_offsets_ = other.user_offsets_;
    user_neighbors_ = other.user_neighbors_;
    edge_users_ = other.edge_users_;
    merchant_offsets_ = other.merchant_offsets_;
    merchant_neighbors_ = other.merchant_neighbors_;
    merchant_edge_ids_ = other.merchant_edge_ids_;
    weights_ = other.weights_;
    owned_ = std::move(other.owned_);
    backing_ = std::move(other.backing_);
    other.num_users_ = 0;
    other.num_merchants_ = 0;
    other.owned_ = Owned{};
    other.backing_.reset();
    other.BindOwned();
  }
  return *this;
}

CsrGraph CsrGraph::FromCanonicalEdges(int64_t num_users,
                                      int64_t num_merchants,
                                      std::span<const Edge> edges,
                                      std::span<const double> weights) {
  ENSEMFDET_DCHECK(num_users >= 0 && num_merchants >= 0);
  ENSEMFDET_DCHECK(weights.empty() || weights.size() == edges.size());
  CsrGraph g;
  g.num_users_ = num_users;
  g.num_merchants_ = num_merchants;
  const size_t num_edges = edges.size();
  Owned& o = g.owned_;

  // User side: canonical edges are grouped by user in ascending merchant
  // order, so the neighbor array is the merchant column of the edge list
  // and slot == EdgeId. The same pass counts the merchant degrees.
  o.user_offsets.assign(static_cast<size_t>(num_users) + 1, 0);
  o.merchant_offsets.assign(static_cast<size_t>(num_merchants) + 1, 0);
  o.user_neighbors.resize(num_edges);
  o.edge_users.resize(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    const Edge& edge = edges[e];
    ENSEMFDET_DCHECK(edge.user < num_users && edge.merchant < num_merchants)
        << "edge (" << edge.user << ", " << edge.merchant
        << ") outside the node counts";
    ENSEMFDET_DCHECK(e == 0 || edges[e - 1].user < edge.user ||
                     (edges[e - 1].user == edge.user &&
                      edges[e - 1].merchant < edge.merchant))
        << "edges are not in strictly ascending (user, merchant) order";
    ++o.user_offsets[edge.user + 1];
    ++o.merchant_offsets[edge.merchant + 1];
    o.user_neighbors[e] = edge.merchant;
    o.edge_users[e] = edge.user;
  }
  for (int64_t u = 0; u < num_users; ++u) {
    o.user_offsets[static_cast<size_t>(u) + 1] +=
        o.user_offsets[static_cast<size_t>(u)];
  }
  for (int64_t v = 0; v < num_merchants; ++v) {
    o.merchant_offsets[static_cast<size_t>(v) + 1] +=
        o.merchant_offsets[static_cast<size_t>(v)];
  }

  // Merchant side: counting sort by merchant; within a merchant, edge ids
  // arrive ascending, which is ascending user order.
  o.merchant_neighbors.resize(num_edges);
  o.merchant_edge_ids.resize(num_edges);
  {
    std::vector<int64_t> cursor(o.merchant_offsets.begin(),
                                o.merchant_offsets.end() - 1);
    for (size_t e = 0; e < num_edges; ++e) {
      const Edge& edge = edges[e];
      const int64_t slot = cursor[edge.merchant]++;
      o.merchant_neighbors[static_cast<size_t>(slot)] = edge.user;
      o.merchant_edge_ids[static_cast<size_t>(slot)] =
          static_cast<EdgeId>(e);
    }
  }

  o.weights.assign(weights.begin(), weights.end());
  g.BindOwned();
  return g;
}

CsrGraph CsrGraph::FromBipartite(const BipartiteGraph& graph) {
  return FromCanonicalEdges(graph.num_users(), graph.num_merchants(),
                            graph.edges(), graph.weights());
}

CsrGraph CsrGraph::WrapExternal(
    int64_t num_users, int64_t num_merchants,
    std::span<const int64_t> user_offsets,
    std::span<const MerchantId> user_neighbors,
    std::span<const UserId> edge_users,
    std::span<const int64_t> merchant_offsets,
    std::span<const UserId> merchant_neighbors,
    std::span<const EdgeId> merchant_edge_ids,
    std::span<const double> weights, std::shared_ptr<const void> backing) {
  ENSEMFDET_DCHECK(backing != nullptr) << "view needs a lifetime anchor";
  ENSEMFDET_DCHECK(num_users >= 0 && num_merchants >= 0);
  ENSEMFDET_DCHECK(user_offsets.size() ==
                   static_cast<size_t>(num_users) + 1);
  ENSEMFDET_DCHECK(merchant_offsets.size() ==
                   static_cast<size_t>(num_merchants) + 1);
  ENSEMFDET_DCHECK(user_neighbors.size() == edge_users.size());
  ENSEMFDET_DCHECK(merchant_neighbors.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(merchant_edge_ids.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(weights.empty() ||
                   weights.size() == user_neighbors.size());
  CsrGraph g;
  g.num_users_ = num_users;
  g.num_merchants_ = num_merchants;
  g.user_offsets_ = user_offsets;
  g.user_neighbors_ = user_neighbors;
  g.edge_users_ = edge_users;
  g.merchant_offsets_ = merchant_offsets;
  g.merchant_neighbors_ = merchant_neighbors;
  g.merchant_edge_ids_ = merchant_edge_ids;
  g.weights_ = weights;
  g.backing_ = std::move(backing);
  return g;
}

CsrGraph CsrGraph::FromRawArrays(
    int64_t num_users, int64_t num_merchants,
    std::vector<int64_t> user_offsets,
    std::vector<MerchantId> user_neighbors, std::vector<UserId> edge_users,
    std::vector<int64_t> merchant_offsets,
    std::vector<UserId> merchant_neighbors,
    std::vector<EdgeId> merchant_edge_ids, std::vector<double> weights) {
  ENSEMFDET_DCHECK(user_offsets.size() ==
                   static_cast<size_t>(num_users) + 1);
  ENSEMFDET_DCHECK(merchant_offsets.size() ==
                   static_cast<size_t>(num_merchants) + 1);
  ENSEMFDET_DCHECK(user_neighbors.size() == edge_users.size());
  ENSEMFDET_DCHECK(merchant_neighbors.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(merchant_edge_ids.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(weights.empty() ||
                   weights.size() == user_neighbors.size());
  CsrGraph g;
  g.num_users_ = num_users;
  g.num_merchants_ = num_merchants;
  g.owned_.user_offsets = std::move(user_offsets);
  g.owned_.user_neighbors = std::move(user_neighbors);
  g.owned_.edge_users = std::move(edge_users);
  g.owned_.merchant_offsets = std::move(merchant_offsets);
  g.owned_.merchant_neighbors = std::move(merchant_neighbors);
  g.owned_.merchant_edge_ids = std::move(merchant_edge_ids);
  g.owned_.weights = std::move(weights);
  g.BindOwned();
  return g;
}

BipartiteGraph CsrGraph::ToBipartite() const {
  GraphBuilder builder(num_users_, num_merchants_);
  builder.Reserve(num_edges());
  for (EdgeId e = 0; e < num_edges(); ++e) {
    builder.AddEdge(edge_user(e), edge_merchant(e), edge_weight(e));
  }
  // Edges are unique (they came from a built graph), so the policy is
  // irrelevant; the builder just re-canonicalizes the already-canonical
  // order.
  return std::move(builder.Build(DuplicatePolicy::kKeepFirst)).value();
}

}  // namespace ensemfdet

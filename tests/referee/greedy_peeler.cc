#include "referee/greedy_peeler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "graph/subgraph.h"
#include "referee/indexed_heap.h"

namespace ensemfdet {

PeelResult PeelDensestBlock(const BipartiteGraph& graph,
                            const DensityConfig& config, bool keep_trace) {
  PeelResult result;
  const int64_t num_users = graph.num_users();
  const int64_t num_merchants = graph.num_merchants();
  const int64_t total_nodes = num_users + num_merchants;
  if (total_nodes == 0 || graph.num_edges() == 0) return result;

  // Merchant column weights from entry-time degrees (FRAUDAR semantics).
  std::vector<double> col_weight(static_cast<size_t>(num_merchants));
  for (int64_t v = 0; v < num_merchants; ++v) {
    col_weight[static_cast<size_t>(v)] = MerchantColumnWeight(
        static_cast<double>(graph.merchant_degree(static_cast<MerchantId>(v))),
        config);
  }
  auto edge_mass = [&](EdgeId e) {
    return graph.edge_weight(e) *
           col_weight[graph.edge(e).merchant];
  };

  // Node priorities = each node's share of the suspiciousness mass: the
  // cost of deleting it right now.
  std::vector<double> priority(static_cast<size_t>(total_nodes), 0.0);
  double mass = 0.0;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    const double w = edge_mass(e);
    priority[edge.user] += w;
    priority[static_cast<size_t>(num_users) + edge.merchant] += w;
    mass += w;
  }

  IndexedMinHeap heap(total_nodes);
  for (int64_t id = 0; id < total_nodes; ++id) {
    heap.Push(id, priority[static_cast<size_t>(id)]);
  }

  std::vector<bool> removed(static_cast<size_t>(total_nodes), false);
  std::vector<int64_t> removal_order;
  removal_order.reserve(static_cast<size_t>(total_nodes));
  if (keep_trace) result.trace.reserve(static_cast<size_t>(total_nodes));

  double best_phi = -1.0;
  int64_t best_prefix = 0;  // number of removals before the best state
  int64_t alive = total_nodes;

  for (int64_t t = 0; t < total_nodes; ++t) {
    const double phi =
        alive > 0 ? std::max(0.0, mass) / static_cast<double>(alive) : 0.0;
    if (keep_trace) result.trace.push_back(phi);
    if (phi > best_phi) {
      best_phi = phi;
      best_prefix = t;
    }

    const int64_t victim = heap.PopMin();
    removed[static_cast<size_t>(victim)] = true;
    --alive;
    removal_order.push_back(victim);

    if (victim < num_users) {
      const UserId u = static_cast<UserId>(victim);
      for (EdgeId e : graph.user_edges(u)) {
        const MerchantId v = graph.edge(e).merchant;
        const int64_t other = num_users + v;
        if (removed[static_cast<size_t>(other)]) continue;  // edge dead
        const double w = edge_mass(e);
        mass -= w;
        heap.AddToKey(other, -w);
      }
    } else {
      const MerchantId v = static_cast<MerchantId>(victim - num_users);
      for (EdgeId e : graph.merchant_edges(v)) {
        const UserId u = graph.edge(e).user;
        if (removed[u]) continue;
        const double w = edge_mass(e);
        mass -= w;
        heap.AddToKey(u, -w);
      }
    }
  }

  // The best block is everything not removed in the first `best_prefix`
  // deletions.
  std::vector<bool> gone(static_cast<size_t>(total_nodes), false);
  for (int64_t t = 0; t < best_prefix; ++t) {
    gone[static_cast<size_t>(removal_order[static_cast<size_t>(t)])] = true;
  }
  for (int64_t u = 0; u < num_users; ++u) {
    if (!gone[static_cast<size_t>(u)]) {
      result.users.push_back(static_cast<UserId>(u));
    }
  }
  for (int64_t v = 0; v < num_merchants; ++v) {
    if (!gone[static_cast<size_t>(num_users + v)]) {
      result.merchants.push_back(static_cast<MerchantId>(v));
    }
  }
  result.score = best_phi;
  if (keep_trace) result.removal_order = std::move(removal_order);
  return result;
}

PeelResult PeelIncidentSubgraph(const BipartiteGraph& graph,
                                const DensityConfig& config,
                                bool keep_trace) {
  std::vector<EdgeId> all(static_cast<size_t>(graph.num_edges()));
  std::iota(all.begin(), all.end(), EdgeId{0});
  const SubgraphView view = SubgraphFromEdges(graph, all);
  PeelResult result = PeelDensestBlock(view.graph, config, keep_trace);
  for (UserId& u : result.users) u = view.ToParentUser(u);
  for (MerchantId& v : result.merchants) v = view.ToParentMerchant(v);
  const int64_t local_users = view.graph.num_users();
  for (int64_t& id : result.removal_order) {
    id = id < local_users
             ? static_cast<int64_t>(view.ToParentUser(static_cast<UserId>(id)))
             : graph.num_users() +
                   static_cast<int64_t>(view.ToParentMerchant(
                       static_cast<MerchantId>(id - local_users)));
  }
  return result;
}

}  // namespace ensemfdet

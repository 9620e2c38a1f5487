#include "referee/components.h"

#include <deque>

namespace ensemfdet {

int32_t ConnectedComponents::LargestComponent() const {
  int32_t best = -1;
  int64_t best_edges = -1;
  for (size_t c = 0; c < components.size(); ++c) {
    if (components[c].num_edges > best_edges) {
      best_edges = components[c].num_edges;
      best = static_cast<int32_t>(c);
    }
  }
  return best;
}

ConnectedComponents FindConnectedComponents(const BipartiteGraph& graph) {
  const int64_t num_users = graph.num_users();
  const int64_t num_merchants = graph.num_merchants();
  ConnectedComponents result;
  result.user_component.assign(static_cast<size_t>(num_users), -1);
  result.merchant_component.assign(static_cast<size_t>(num_merchants), -1);

  // BFS over packed node ids: users are [0, |U|), merchants [|U|, |U|+|V|).
  std::deque<int64_t> frontier;
  for (int64_t start = 0; start < num_users + num_merchants; ++start) {
    const bool is_user = start < num_users;
    int32_t& start_label =
        is_user ? result.user_component[static_cast<size_t>(start)]
                : result.merchant_component[static_cast<size_t>(
                      start - num_users)];
    if (start_label != -1) continue;

    const int32_t label = static_cast<int32_t>(result.components.size());
    result.components.emplace_back();
    ConnectedComponents::ComponentStats& stats = result.components.back();
    start_label = label;
    frontier.push_back(start);

    while (!frontier.empty()) {
      const int64_t node = frontier.front();
      frontier.pop_front();
      if (node < num_users) {
        const UserId u = static_cast<UserId>(node);
        ++stats.num_users;
        for (EdgeId e : graph.user_edges(u)) {
          ++stats.num_edges;  // counted once: from the user side only
          const MerchantId v = graph.edge(e).merchant;
          int32_t& other = result.merchant_component[v];
          if (other == -1) {
            other = label;
            frontier.push_back(num_users + v);
          }
        }
      } else {
        const MerchantId v = static_cast<MerchantId>(node - num_users);
        ++stats.num_merchants;
        for (EdgeId e : graph.merchant_edges(v)) {
          const UserId u = graph.edge(e).user;
          int32_t& other = result.user_component[u];
          if (other == -1) {
            other = label;
            frontier.push_back(u);
          }
        }
      }
    }
  }
  return result;
}

}  // namespace ensemfdet

#include "referee/kcore.h"

#include <algorithm>

namespace ensemfdet {

// Bucket peeling (Matula-Beck / Batagelj-Zaveršnik) over packed node ids:
// users [0, |U|), merchants [|U|, |U| + |V|).
KCoreDecomposition ComputeKCores(const BipartiteGraph& graph) {
  const int64_t num_users = graph.num_users();
  const int64_t total = graph.num_nodes();
  KCoreDecomposition result;
  result.user_core.assign(static_cast<size_t>(num_users), 0);
  result.merchant_core.assign(static_cast<size_t>(graph.num_merchants()), 0);
  if (total == 0) return result;

  // Packed node ids: users [0, |U|), merchants [|U|, total).
  std::vector<int64_t> degree(static_cast<size_t>(total), 0);
  int64_t max_degree = 0;
  for (int64_t u = 0; u < num_users; ++u) {
    degree[static_cast<size_t>(u)] =
        graph.user_degree(static_cast<UserId>(u));
    max_degree = std::max(max_degree, degree[static_cast<size_t>(u)]);
  }
  for (int64_t v = 0; v < graph.num_merchants(); ++v) {
    degree[static_cast<size_t>(num_users + v)] =
        graph.merchant_degree(static_cast<MerchantId>(v));
    max_degree =
        std::max(max_degree, degree[static_cast<size_t>(num_users + v)]);
  }

  // Bucket sort nodes by degree (Matula-Beck / Batagelj-Zaveršnik layout).
  std::vector<int64_t> bucket_start(static_cast<size_t>(max_degree) + 2, 0);
  for (int64_t d : degree) ++bucket_start[static_cast<size_t>(d) + 1];
  for (size_t b = 1; b < bucket_start.size(); ++b) {
    bucket_start[b] += bucket_start[b - 1];
  }
  std::vector<int64_t> order(static_cast<size_t>(total));   // sorted nodes
  std::vector<int64_t> position(static_cast<size_t>(total));  // node → slot
  {
    std::vector<int64_t> cursor(bucket_start.begin(),
                                bucket_start.end() - 1);
    for (int64_t node = 0; node < total; ++node) {
      const int64_t slot = cursor[static_cast<size_t>(
          degree[static_cast<size_t>(node)])]++;
      order[static_cast<size_t>(slot)] = node;
      position[static_cast<size_t>(node)] = slot;
    }
  }

  auto lower_degree = [&](int64_t node) {
    // Move `node` one bucket down by swapping it with the first element of
    // its current bucket, then shrinking the bucket boundary.
    const int64_t d = degree[static_cast<size_t>(node)];
    const int64_t first_slot = bucket_start[static_cast<size_t>(d)];
    const int64_t node_slot = position[static_cast<size_t>(node)];
    const int64_t first_node = order[static_cast<size_t>(first_slot)];
    std::swap(order[static_cast<size_t>(first_slot)],
              order[static_cast<size_t>(node_slot)]);
    position[static_cast<size_t>(node)] = first_slot;
    position[static_cast<size_t>(first_node)] = node_slot;
    ++bucket_start[static_cast<size_t>(d)];
    --degree[static_cast<size_t>(node)];
  };

  std::vector<bool> removed(static_cast<size_t>(total), false);
  int32_t current_core = 0;
  for (int64_t i = 0; i < total; ++i) {
    const int64_t node = order[static_cast<size_t>(i)];
    removed[static_cast<size_t>(node)] = true;
    const int64_t degree_at_removal = degree[static_cast<size_t>(node)];
    current_core =
        std::max(current_core, static_cast<int32_t>(degree_at_removal));
    // Batagelj-Zaveršnik: decrement only neighbors with degree above the
    // current minimum — keeps the bucket order valid (no node ever moves
    // into the processed prefix).
    auto visit_neighbor = [&](int64_t other) {
      if (!removed[static_cast<size_t>(other)] &&
          degree[static_cast<size_t>(other)] > degree_at_removal) {
        lower_degree(other);
      }
    };
    if (node < num_users) {
      result.user_core[static_cast<size_t>(node)] = current_core;
      for (EdgeId e : graph.user_edges(static_cast<UserId>(node))) {
        visit_neighbor(num_users + graph.edge(e).merchant);
      }
    } else {
      const MerchantId v = static_cast<MerchantId>(node - num_users);
      result.merchant_core[v] = current_core;
      for (EdgeId e : graph.merchant_edges(v)) {
        visit_neighbor(graph.edge(e).user);
      }
    }
  }
  result.degeneracy = current_core;
  return result;
}

KCoreMembers MembersOfKCore(const KCoreDecomposition& decomposition,
                            int32_t k) {
  KCoreMembers members;
  for (size_t u = 0; u < decomposition.user_core.size(); ++u) {
    if (decomposition.user_core[u] >= k) {
      members.users.push_back(static_cast<UserId>(u));
    }
  }
  for (size_t v = 0; v < decomposition.merchant_core.size(); ++v) {
    if (decomposition.merchant_core[v] >= k) {
      members.merchants.push_back(static_cast<MerchantId>(v));
    }
  }
  return members;
}

}  // namespace ensemfdet

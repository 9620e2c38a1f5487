// Connected components of a bipartite graph.
//
// Real transaction graphs decompose into one giant component plus debris;
// fraud groups are dense pockets that may even be whole components of
// their own.
//
// Test-only: a plain BFS labelling, kept as the referee for the streaming
// detector's union-find labelling over live edges
// (tests/ingest_parity_test.cc's serial ReferenceDetect).
#ifndef ENSEMFDET_TESTS_REFEREE_COMPONENTS_H_
#define ENSEMFDET_TESTS_REFEREE_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"

namespace ensemfdet {

/// Component labelling of every node. Isolated nodes each get their own
/// singleton component. Component ids are dense, ordered by the smallest
/// packed node id they contain (users pack as u, merchants as |U|+v).
struct ConnectedComponents {
  /// component id per user, indexed by UserId.
  std::vector<int32_t> user_component;
  /// component id per merchant, indexed by MerchantId.
  std::vector<int32_t> merchant_component;
  /// per-component (num_users, num_merchants, num_edges), by component id.
  struct ComponentStats {
    int64_t num_users = 0;
    int64_t num_merchants = 0;
    int64_t num_edges = 0;
  };
  std::vector<ComponentStats> components;

  int32_t num_components() const {
    return static_cast<int32_t>(components.size());
  }

  /// Id of the component with the most edges (-1 for an empty graph).
  int32_t LargestComponent() const;
};

/// BFS labelling; O(|U| + |V| + |E|).
ConnectedComponents FindConnectedComponents(const BipartiteGraph& graph);

}  // namespace ensemfdet

#endif  // ENSEMFDET_TESTS_REFEREE_COMPONENTS_H_

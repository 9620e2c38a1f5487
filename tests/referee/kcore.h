// k-core decomposition of a bipartite graph.
//
// The k-core (maximal subgraph with every node degree ≥ k) is the
// unweighted cousin of the paper's density peeling: fraud blocks live in
// high cores, and core numbers give a cheap per-node suspiciousness prior.
// The implementation is the classic O(|E|) bucket peeling (Matula/Beck),
// which doubles as an independent cross-check of the greedy peeler's
// degeneracy ordering machinery.
//
// Test-only: the oracle of property_test's KCorePeelerPropertyTest (a
// peeled densest block lives in high cores).
#ifndef ENSEMFDET_TESTS_REFEREE_KCORE_H_
#define ENSEMFDET_TESTS_REFEREE_KCORE_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"

namespace ensemfdet {

/// Core numbers for every node.
struct KCoreDecomposition {
  /// core[u]: largest k such that user u belongs to the k-core.
  std::vector<int32_t> user_core;
  /// core[v]: likewise for merchants.
  std::vector<int32_t> merchant_core;
  /// Maximum core number in the graph (the degeneracy); 0 if edgeless.
  int32_t degeneracy = 0;
};

/// Bucket-peeling core decomposition; O(|U| + |V| + |E|).
///
/// @post user_core/merchant_core are sized |U| / |V|; degeneracy equals
///       the maximum entry (0 for an edgeless graph).
/// @note Thread-safety: pure function of an immutable graph — safe to call
///       concurrently on the same graph from any number of threads.
KCoreDecomposition ComputeKCores(const BipartiteGraph& graph);

/// Nodes of the k-core: users and merchants with core number ≥ k,
/// ascending ids. (Convenience over the decomposition.)
struct KCoreMembers {
  std::vector<UserId> users;
  std::vector<MerchantId> merchants;
};
KCoreMembers MembersOfKCore(const KCoreDecomposition& decomposition,
                            int32_t k);

}  // namespace ensemfdet

#endif  // ENSEMFDET_TESTS_REFEREE_KCORE_H_

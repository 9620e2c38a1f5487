// Greedy densest-block peeling (inner loop of paper Algorithm 1, lines
// 3-8; the FRAUDAR [13] greedy with the min-heap speedup).
//
// Starting from the whole graph H_n, repeatedly delete the node whose
// removal costs the least suspiciousness mass (the min-priority node),
// recording φ(H_i) for every prefix; the returned block is the prefix with
// maximum φ. Merchant column weights 1/log(c + d_j) are fixed from the
// input graph's degrees at entry, matching FRAUDAR.
//
// Complexity: O((|U| + |V| + |E|) · log(|U| + |V|)).
//
// Test-only: this is the seed adjacency-list peeler, kept as the referee
// the production CSR peeler (detect/csr_peeler.h) is pinned bit-exact
// against. It returns the production PeelResult so both outputs compare
// field for field.
#ifndef ENSEMFDET_TESTS_REFEREE_GREEDY_PEELER_H_
#define ENSEMFDET_TESTS_REFEREE_GREEDY_PEELER_H_

#include "detect/csr_peeler.h"
#include "detect/density.h"
#include "graph/bipartite_graph.h"

namespace ensemfdet {

/// Peels `graph` once and returns the best block. An empty graph (or one
/// with no edges) yields an empty block with score 0.
/// If `keep_trace` is false the trace/removal_order vectors stay empty
/// (saves memory on large graphs).
///
/// @post result.users / result.merchants are ascending graph-local ids;
///       result.score equals max_t trace[t] when the trace is kept.
/// @note Thread-safety: pure function of an immutable graph — safe to
///       call concurrently on the same graph. Deterministic: equal-
///       priority ties break toward the smaller packed node id.
PeelResult PeelDensestBlock(const BipartiteGraph& graph,
                            const DensityConfig& config,
                            bool keep_trace = false);

/// PeelDensestBlock over the subgraph of `graph`'s edges (isolated nodes
/// dropped, as FDET's compacted residuals drop them), with block ids and
/// the removal order mapped back to `graph`'s own — the seed referee for
/// PeelDensestBlockCsr.
PeelResult PeelIncidentSubgraph(const BipartiteGraph& graph,
                                const DensityConfig& config,
                                bool keep_trace = false);

}  // namespace ensemfdet

#endif  // ENSEMFDET_TESTS_REFEREE_GREEDY_PEELER_H_

// The seed FDET loop (paper Algorithm 1): rebuild a compacted subgraph of
// the residual edges per block iteration, peel it with the seed
// PeelDensestBlock, map the block back and remove its induced edges.
//
// Test-only: the referee that tests/csr_parity_test.cc pins the production
// FDET drivers (RunFdet / RunFdetCsr / RunFdetCsrMasked, detect/fdet.h)
// against, bit for bit.
#ifndef ENSEMFDET_TESTS_REFEREE_FDET_REFERENCE_H_
#define ENSEMFDET_TESTS_REFEREE_FDET_REFERENCE_H_

#include "common/status.h"
#include "detect/fdet.h"
#include "graph/bipartite_graph.h"

namespace ensemfdet {

/// FDET over `graph` the seed way. Validates `config` on its own, with the
/// same rules as the production entry points, and truncates with
/// AutoTruncationIndex (or the fixed k).
Result<FdetResult> RunFdetReference(const BipartiteGraph& graph,
                                    const FdetConfig& config);

}  // namespace ensemfdet

#endif  // ENSEMFDET_TESTS_REFEREE_FDET_REFERENCE_H_

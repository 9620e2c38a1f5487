// FRAUDAR baseline (Hooi et al., KDD 2016 [13]) — the strongest heuristic
// comparator in the paper's evaluation (§V-B2, Figs 3-4, Table III).
//
// FRAUDAR greedily peels the single densest block under the same
// log-weighted density score φ; the "K blocks" variant used in the paper's
// experiments (K fixed at 30) repeats detection after removing each found
// block's edges. Unlike FDET it has no truncation strategy — the number of
// blocks is a manual parameter — and its detections are all-or-nothing
// blocks, which is what produces the discrete zigzag operating points the
// paper criticizes (reproduce with eval::BlockSweep).
//
// The greedy engine is shared with FDET (detect/csr_peeler.h): the
// algorithms coincide per peel; ENSEMFDET's contribution is what is
// wrapped around the peel (sampling, ensemble voting, auto-truncation).
#ifndef ENSEMFDET_BASELINES_FRAUDAR_H_
#define ENSEMFDET_BASELINES_FRAUDAR_H_

#include <vector>

#include "common/status.h"
#include "detect/fdet.h"
#include "graph/bipartite_graph.h"

namespace ensemfdet {

struct FraudarConfig {
  DensityConfig density;
  /// Number of dense blocks to extract (the paper fixes 30).
  int num_blocks = 30;
};

struct FraudarResult {
  /// Detected blocks in detection order (descending φ), possibly fewer
  /// than requested if the graph runs out of edges.
  std::vector<DetectedBlock> blocks;

  /// Per-block user lists in detection order, ready for eval::BlockSweep.
  std::vector<std::vector<UserId>> UserBlocks() const;
  /// Union of all block users.
  std::vector<UserId> DetectedUsers() const;
};

/// Runs FRAUDAR on the full graph (no sampling, no truncation).
Result<FraudarResult> RunFraudar(const BipartiteGraph& graph,
                                 const FraudarConfig& config);

/// CSR overload: identical results over an already-converted graph (the
/// service layer passes the snapshot's shared CsrGraph so baseline jobs
/// skip the per-job conversion).
Result<FraudarResult> RunFraudar(const CsrGraph& graph,
                                 const FraudarConfig& config);

}  // namespace ensemfdet

#endif  // ENSEMFDET_BASELINES_FRAUDAR_H_

// FDET (paper Algorithm 1): detect the top-k̂ disjoint fraud blocks of a
// bipartite graph by iterated greedy peeling.
//
// Loop: peel the densest block from the current graph; remove that block's
// induced edges; repeat. The block count k̂ is chosen automatically at the
// elbow of the per-block φ series via the second-order finite difference
// (Definition 3, Truncating Point): k̂ = argmin_i Δ²φ(G(S_i)), i.e. the
// block after which the density score "suddenly decreases". A fixed-k
// policy implements the ENSEMFDET-FIX-K ablation of §V-C3.
#ifndef ENSEMFDET_DETECT_FDET_H_
#define ENSEMFDET_DETECT_FDET_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "detect/csr_peeler.h"
#include "detect/density.h"
#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

/// How FDET decides the number of blocks to keep.
enum class TruncationPolicy {
  kAutoElbow,  ///< Definition 3: k̂ = argmin Δ²φ
  kFixedK,     ///< keep exactly min(fixed_k, #found) blocks (FIX-K ablation)
};

struct FdetConfig {
  DensityConfig density;
  TruncationPolicy policy = TruncationPolicy::kAutoElbow;
  /// Upper bound on blocks explored before truncation ("few to few tens"
  /// per the paper; also the k for kFixedK).
  int max_blocks = 40;
  /// Fixed k for TruncationPolicy::kFixedK.
  int fixed_k = 30;
  /// Online stopping for kAutoElbow (Algorithm 1's "until argmin Δ²φ"):
  /// exploration stops once the elbow has been confirmed by this many
  /// blocks of flat tail beyond it — the cost saving of truncation the
  /// paper credits for FDET doing "less than half" of FIX-K's work.
  int elbow_patience = 3;
  /// Detection stops early if a block's φ falls to or below this.
  double min_block_score = 1e-12;
};

/// One detected dense block: node ids are in the id space of the graph
/// FDET ran on (a sampled subgraph's local ids, unless run on the parent).
struct DetectedBlock {
  std::vector<UserId> users;
  std::vector<MerchantId> merchants;
  /// φ of the block at detection time (entry-time column weights of the
  /// then-current residual graph).
  double score = 0.0;
  /// The residual edges this block consumed — the E_i removed in Algorithm
  /// 1 line 11, as ids into the graph FDET ran on. Pairwise disjoint
  /// across blocks and nonempty for every detected block.
  std::vector<EdgeId> edges;
};

struct FdetResult {
  /// Blocks 1..k̂ after truncation, in detection (descending-φ) order.
  std::vector<DetectedBlock> blocks;
  /// φ series of *all* explored blocks, pre-truncation (the Fig 1 curve).
  std::vector<double> all_scores;
  /// k̂ — equals blocks.size().
  int truncation_index = 0;

  /// Union of the truncated blocks' nodes: FDET's S_d = (U_d ∪ V_d).
  std::vector<UserId> DetectedUsers() const;
  std::vector<MerchantId> DetectedMerchants() const;
};

/// Definition 3 on a φ series: returns the k̂ minimizing the second-order
/// finite difference Δ²φ(i) = φ(i+1) − 2φ(i) + φ(i−1) over interior points
/// (1-indexed i ∈ [2, len−1]), i.e. the last block before density falls
/// off hardest. Series of length ≤ 2 have no interior point and keep every
/// block; an empty series yields 0. FDET explores past the real structure
/// into background noise, so the cliff is interior in practice.
int AutoTruncationIndex(const std::vector<double>& scores);

/// Runs FDET on `graph`. Fails with InvalidArgument on nonsensical
/// configuration (max_blocks < 1, fixed_k < 1, log_offset ≤ 1).
///
/// Internally converts once to CSR form and runs RunFdetCsr — one O(|E|)
/// conversion per call, then in-place peeling with no per-block subgraph
/// rebuilds.
///
/// @post Result blocks are in detection order with pairwise-disjoint,
///       nonempty `edges` lists (ids into `graph`); block node lists are
///       ascending. Output is bit-identical to the seed FDET loop (the
///       test referee in tests/referee/fdet_reference.h).
/// @note Thread-safety: pure function of an immutable graph — safe to run
///       concurrently on the same graph from many threads (each call owns
///       its scratch).
Result<FdetResult> RunFdet(const BipartiteGraph& graph,
                           const FdetConfig& config);

/// CSR-native FDET over the whole graph: RunFdetCsrMasked over every edge
/// with weight_scale 1 and a private arena. No subgraph is ever
/// materialized; node/edge ids in the result are `graph`'s own. Fails
/// with OutOfRange above kMaxViewEdges (2^30 − 1) edges.
///
/// @pre `graph` came from CsrGraph::FromBipartite (canonical edge order).
/// @post Bit-identical results to the seed FDET loop on the equivalent
///       adjacency-list graph (pinned by tests/csr_parity_test.cc).
/// @note Thread-safety: `graph` is only read; concurrent calls are safe.
Result<FdetResult> RunFdetCsr(const CsrGraph& graph,
                              const FdetConfig& config);

/// Zero-materialization FDET over a *residual edge subset* of a shared
/// immutable parent graph — the one FDET driver: Algorithm 1 starting
/// from `initial_residual`, scaling every edge weight by `weight_scale`
/// on the fly (Theorem 1's 1/p reweighting without a reweighted copy),
/// and drawing every buffer from `scratch`, sized by the residual and its
/// incident nodes, so repeated calls against a warm arena allocate
/// nothing but the result.
///
/// Bit-exactness: for a sampled edge set, the output blocks/scores/counts
/// are identical — under the order-isomorphic id relabeling — to
/// materializing the child subgraph over those edges (weights
/// pre-scaled) and running the seed FDET loop on it; node and edge ids in
/// the result are the *parent's* own, so no remapping step exists.
/// tests/ensemble_parity_test.cc pins this end to end. Fails with
/// InvalidArgument like RunFdet or for `weight_scale` ≤ 0, and with
/// OutOfRange above kMaxViewEdges residual edges.
///
/// @pre `graph` came from CsrGraph::FromBipartite (canonical edge order);
///      `initial_residual` is ascending and duplicate-free;
///      `weight_scale` > 0; `scratch` != nullptr.
/// @note Thread-safety: `graph` is only read; `scratch` is mutable — one
///       arena per thread.
Result<FdetResult> RunFdetCsrMasked(const CsrGraph& graph,
                                    std::span<const EdgeId> initial_residual,
                                    double weight_scale,
                                    const FdetConfig& config,
                                    PeelScratch* scratch);

}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_FDET_H_

// ENSEMFDET (paper Algorithm 2): the full ensemble fraud detector.
//
//   1. Draw N sampled subgraphs of G with ratio S (RES / ONS / TNS).
//   2. Run FDET on every sample — in parallel over a thread pool.
//   3. Aggregate the per-sample suspicious node sets by majority voting;
//      accept nodes with ≥ T votes (threshold chosen downstream, so the
//      report keeps the full vote table and T can be swept for free).
//
// Hot path (DESIGN.md §"Ensemble hot loop"): every member runs directly on
// the shared parent CsrGraph with **zero per-member graph
// materialization** — samplers emit residual edge masks in parent edge-id
// space (Sampler::SampleEdgeMask), FDET peels those masks in place
// (RunFdetCsrMasked), and each worker thread reuses one arena (sampling
// buffers + edge mask + PeelScratch, sized by the largest member) across
// all its members, so a warm run performs no arena allocations at all. The
// seed materializing path (a SubgraphView child per member, FDET on it,
// an id remap) survives only as the test referee RunEnsembleReference
// (tests/referee/ensemble_reference.h), which tests/ensemble_parity_test.cc
// pins this path against bit for bit.
//
// Determinism: ensemble member i draws all randomness from
// Rng(seed).Split(i), and votes are accumulated in member order after the
// parallel section, so results are bit-identical at any thread count.
#ifndef ENSEMFDET_ENSEMBLE_ENSEMFDET_H_
#define ENSEMFDET_ENSEMBLE_ENSEMFDET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "detect/fdet.h"
#include "ensemble/vote_table.h"
#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"
#include "sampling/sampler.h"

namespace ensemfdet {

struct EnsemFDetConfig {
  /// Sampling method M (paper Table II).
  SampleMethod method = SampleMethod::kRandomEdge;
  /// Number of sampled graphs N.
  int num_samples = 80;
  /// Sample ratio S.
  double ratio = 0.1;
  /// Apply Theorem 1's 1/p edge reweighting (RES only).
  bool reweight_edges = false;
  /// Per-sample FDET configuration.
  FdetConfig fdet;
  /// Root seed; member i uses Rng(seed).Split(i).
  uint64_t seed = 42;

  /// Repetition rate R = S · N (paper Table II) — expected number of times
  /// each edge/node is covered across the ensemble.
  double RepetitionRate() const { return ratio * num_samples; }
};

/// Everything ENSEMFDET produced, threshold-free: apply MVA by querying
/// AcceptedUsers(T) / sweeping T.
struct EnsemFDetReport {
  VoteTable votes;
  int num_samples = 0;

  /// Score-weighted votes — the flexible-aggregation hook of Definition
  /// 4's closing remark ("aggregation methods ... can be set as the one
  /// suitable for the specific requirement"): member i contributes, for
  /// each node it flags, the φ of the densest detected block containing
  /// that node instead of a flat 1. Feed these to eval::ScoreSweep for a
  /// density-aware operating curve; `votes` remains plain MVA.
  std::vector<double> weighted_user_votes;
  std::vector<double> weighted_merchant_votes;

  /// Per-member diagnostics, in member order.
  struct MemberStats {
    int64_t sample_users = 0;
    int64_t sample_merchants = 0;
    int64_t sample_edges = 0;
    int num_blocks = 0;       ///< k̂ for this member
    double seconds = 0.0;     ///< sample + FDET wall time of this member
    /// Worker-arena buffer growths while this member ran (zero-mat path
    /// only; 0 once the worker's arena is warm — the reuse counter
    /// EnsembleParityTest.ArenaIsWarmAfterFirstMembers pins).
    int64_t arena_grow_events = 0;
  };
  std::vector<MemberStats> members;

  /// Wall-clock of the whole Run() including aggregation.
  double total_seconds = 0.0;

  /// MVA (Definition 4) at threshold T: users with ≥ T votes.
  std::vector<UserId> AcceptedUsers(int32_t threshold) const {
    return votes.AcceptedUsers(threshold);
  }
  std::vector<MerchantId> AcceptedMerchants(int32_t threshold) const {
    return votes.AcceptedMerchants(threshold);
  }
};

/// One ensemble member's raw FDET output — the pre-aggregation form the
/// incremental streaming detector caches per connected component so clean
/// components can replay their contribution into a later global
/// merge+truncation without re-running the ensemble (ingest/
/// streaming_detector.h). Node/edge ids are in the id space of the graph
/// the ensemble ran on.
struct EnsembleMemberBlocks {
  /// Blocks in detection order (k̂ per the member's FDET config).
  std::vector<DetectedBlock> blocks;
  EnsemFDetReport::MemberStats stats;
};

/// One ensemble member's drawn sample (EnsemFDet::DrawMember): the
/// ascending mask of the graph's edge ids the member peels, what the
/// sampler reported with it, and what the draw cost. Equal masks of one
/// graph and sampler carry equal `info` (node counts and weight scale
/// follow from the mask), so they are one FDET input.
struct MemberSample {
  std::vector<EdgeId> mask;
  EdgeMaskInfo info;
  double seconds = 0.0;           ///< the draw's wall time
  int64_t arena_grow_events = 0;  ///< worker-arena growths in the draw
};

class EnsemFDet {
 public:
  /// Builds the sampler every member of every call draws from. A bad
  /// N or S fails each call below with InvalidArgument.
  explicit EnsemFDet(EnsemFDetConfig config);

  const EnsemFDetConfig& config() const { return config_; }

  /// Runs the ensemble on `graph`'s shared CSR form — the
  /// zero-materialization hot path; members peel residual edge masks of
  /// `graph` in place and never build a child graph. `pool` supplies the
  /// parallelism; pass nullptr to run sequentially on the calling thread
  /// (useful for determinism tests — output is identical either way).
  /// Fails with InvalidArgument on bad N / S / FDET configuration.
  ///
  /// @note Worker arenas are thread_local caches sized to the largest
  ///       graph each thread has served; they persist across runs (that
  ///       is the point) and hold O(|U| + |V| + |E|) ints/doubles per
  ///       thread.
  Result<EnsemFDetReport> Run(const CsrGraph& graph,
                              ThreadPool* pool = nullptr) const;

  /// Adjacency-list convenience overload: converts once
  /// (CsrGraph::FromBipartite, O(|U| + |V| + |E|) amortized over all N
  /// members) and runs the hot path above. Output is bit-identical to the
  /// CSR overload.
  Result<EnsemFDetReport> Run(const BipartiteGraph& graph,
                              ThreadPool* pool = nullptr) const;

  /// Runs member `member` (in [0, N)) of Run() alone, on the calling
  /// thread: RunMemberOnSample(graph, DrawMember(graph, config().seed,
  /// member)) — the same sampling randomness, per-member FDET and worker
  /// arena as Run()'s member, but returning the raw block list instead of
  /// votes. `stats.seconds` and `stats.arena_grow_events` sum both halves.
  /// Fails with InvalidArgument on a bad config or member index.
  Result<EnsembleMemberBlocks> RunMember(const CsrGraph& graph,
                                         int member) const;

  /// RunMember's draw half: member `member`'s sample of `graph`, drawn
  /// with Rng(seed).Split(member) into the calling thread's worker arena
  /// (the `member_sample` span and histogram) and copied out. `seed`
  /// stands in for config().seed, so one ensemble, and one sampler, can
  /// draw for many seeded sub-ensembles: the streaming detector draws
  /// every component's members through one EnsemFDet, then peels each
  /// distinct sample once (ingest/streaming_detector.h).
  /// Fails with InvalidArgument on a bad config or member index.
  Result<MemberSample> DrawMember(const CsrGraph& graph, uint64_t seed,
                                  int member) const;

  /// RunMember's FDET half: masked FDET over `sample` in the calling
  /// thread's worker arena (the `member_peel` span and histogram). A pure
  /// function of (graph, sample.mask, sample.info, config().fdet), so
  /// members whose masks are equal may share one call. `stats` carries
  /// the sample's node and edge counts, k̂, and this call's own wall time
  /// and arena growth.
  /// @pre `sample` was drawn from `graph` by this ensemble's sampler.
  Result<EnsembleMemberBlocks> RunMemberOnSample(
      const CsrGraph& graph, const MemberSample& sample) const;

 private:
  EnsemFDetConfig config_;
  // Shared so EnsemFDet stays copyable; samplers are stateless.
  Result<std::shared_ptr<const Sampler>> sampler_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_ENSEMBLE_ENSEMFDET_H_

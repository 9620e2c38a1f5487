// Structural sampling of bipartite graphs (paper §IV-A).
//
// A Sampler draws a subgraph G_s^i from G; ENSEMFDET draws N of them and
// runs FDET on each. Three methods are provided, matching the paper:
//
//   RES  Random Edge Sampling      — S·|E| edges uniformly w/o replacement
//   ONS  One-side Node Sampling    — S·|side| nodes of one side, keeping
//                                    every incident edge (full matrix rows)
//   TNS  Two-sides Node Sampling   — S·|U| users AND S·|V| merchants,
//                                    keeping the cross-section (≈S² edges)
//
// Each method has two faces with identical randomness:
//
//  * Sample() materializes a child BipartiteGraph with local→parent id
//    maps (SubgraphView) — the reference path and what non-ensemble
//    callers use.
//  * SampleEdgeMask() emits the same sample as a sorted subset of the
//    *parent's* edge ids over its shared CsrGraph — no child graph, no id
//    remapping; node samplers select vertices then expand to incident
//    edges via the CSR offsets. The ensemble hot loop feeds these masks
//    straight into RunFdetCsrMasked (DESIGN.md §"Ensemble hot loop").
//
// Both faces consume the identical Rng draw sequence, so for the same
// generator state they denote the same sample.
#ifndef ENSEMFDET_SAMPLING_SAMPLER_H_
#define ENSEMFDET_SAMPLING_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"
#include "graph/subgraph.h"

namespace ensemfdet {

/// Which of the paper's sampling methods to apply.
enum class SampleMethod {
  kRandomEdge,       ///< RES
  kOneSideUser,      ///< ONS sampling the user (PIN) side
  kOneSideMerchant,  ///< ONS sampling the merchant side
  kTwoSide,          ///< TNS
};

/// Stable lower_snake name ("random_edge", "one_side_user", ...).
const char* SampleMethodName(SampleMethod method);

/// Inverse of SampleMethodName; NotFound for unknown names.
Result<SampleMethod> ParseSampleMethod(const std::string& name);

/// ⌊ratio·population⌋ clamped up to 1 on a nonempty population — the one
/// target-size rule every sampling method (both faces) shares; an empty
/// sample would make an ensemble member a silent no-op.
int64_t SampleTargetCount(double ratio, int64_t population);

/// Per-worker scratch for SampleEdgeMask: draw buffers, selected-node
/// lists, and epoch-stamped membership marks (indexed by parent id), all
/// reused across calls so a warm ensemble worker samples with zero arena
/// allocations. `grow_events` counts growths of the draw buffers, the
/// marks and the draw's output (flat once warm; summed into each
/// member's `arena_grow_events`, ensemble/ensemfdet.h).
///
/// Invariant between calls: `draw_bits` is all-zero.
///
/// @note Thread-safety: mutable state — one instance per thread.
struct EdgeMaskScratch {
  std::vector<uint64_t> drawn;           ///< sparse draws, selection order
  std::vector<uint32_t> fy_perm;         ///< Fisher-Yates index buffer
  std::vector<uint64_t> draw_bits;       ///< dense draws as a bitmap
  std::vector<uint32_t> selected;        ///< sorted node ids (first side)
  std::vector<uint32_t> selected_other;  ///< sorted node ids (TNS 2nd side)
  std::vector<uint32_t> user_mark;       ///< stamp == epoch ⇔ marked
  std::vector<uint32_t> merchant_mark;
  uint32_t epoch = 0;
  int64_t grow_events = 0;

  /// Advances the stamp epoch; on wraparound both mark arrays are zeroed
  /// so a stale stamp can never collide with a live epoch.
  uint32_t NextEpoch();
  /// Grows a mark array to `n` entries (zero-filled), counting the event.
  void EnsureMark(std::vector<uint32_t>* mark, int64_t n);
  /// Draws `k` distinct values uniformly from [0, n) into `*out`
  /// (cleared first), ascending — the set Rng::SampleWithoutReplacement
  /// draws, for exactly the same rng consumption. Dense draws
  /// (k ≥ n/16, n ≤ UINT32_MAX) run a real Fisher-Yates prefix over the
  /// arena-cached `fy_perm` (refreshed to the identity, one sequential
  /// O(n) pass), mark each draw in `draw_bits` and emit them in one scan
  /// of ⌈n/64⌉ words, no sort (buffers bounded by 16k entries).
  /// Sparse draws and larger populations run Rng's O(k)
  /// hash-displacement variant and sort its k draws, so huge populations
  /// cost O(k log k). `T` is uint32_t (node ids) or EdgeId.
  template <typename T>
  void DrawSorted(Rng* rng, uint64_t n, uint64_t k, std::vector<T>* out);
  /// Bytes of buffer capacity the scratch holds.
  int64_t CapacityBytes() const;
};

/// What SampleEdgeMask reports alongside the edge subset: the node counts
/// of the *equivalent materialized child* (so ensemble MemberStats are
/// identical across both faces — for ONS that excludes selected nodes with
/// no incident edge, for TNS it counts every selected node, isolated ones
/// included) and the Theorem-1 weight scale to apply per edge (1/p for
/// reweighted RES, otherwise 1.0).
struct EdgeMaskInfo {
  int64_t sample_users = 0;
  int64_t sample_merchants = 0;
  double weight_scale = 1.0;
};

/// Strategy interface: draws one sampled subgraph per call. Implementations
/// are stateless w.r.t. the graph; all randomness comes from `rng`, so
/// distinct Rng::Split streams give independent ensemble members.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// The sample ratio S in (0, 1].
  virtual double ratio() const = 0;
  virtual SampleMethod method() const = 0;

  /// Draws a subgraph of `graph` using randomness from `rng`.
  virtual SubgraphView Sample(const BipartiteGraph& graph, Rng* rng) const = 0;

  /// Draws the same sample as Sample() (identical rng consumption) as an
  /// ascending, duplicate-free subset of `graph`'s own edge ids, appended
  /// into `*out_edges` (cleared first, capacity reused). No child graph is
  /// built; feed the mask to RunFdetCsrMasked with the returned
  /// weight_scale.
  ///
  /// @pre `graph` came from CsrGraph::FromBipartite (canonical edge
  ///      order); scratch/out_edges non-null.
  virtual EdgeMaskInfo SampleEdgeMask(const CsrGraph& graph, Rng* rng,
                                      EdgeMaskScratch* scratch,
                                      std::vector<EdgeId>* out_edges)
      const = 0;
};

/// Factory covering all paper methods.
/// `ratio` must be in (0, 1]. `reweight_edges` applies Theorem 1's 1/p
/// edge-weight scaling for RES so that φ of the sample estimates φ of the
/// parent (only meaningful for kRandomEdge; ignored otherwise).
Result<std::unique_ptr<Sampler>> MakeSampler(SampleMethod method, double ratio,
                                             bool reweight_edges = false);

}  // namespace ensemfdet

#endif  // ENSEMFDET_SAMPLING_SAMPLER_H_

#include "sampling/random_edge_sampler.h"

#include <vector>

#include "common/logging.h"

namespace ensemfdet {

SubgraphView RandomEdgeSampler::Sample(const BipartiteGraph& graph,
                                       Rng* rng) const {
  // ⌊S·|E|⌋, but never 0 on a nonempty graph — an empty sample would make
  // the ensemble member a silent no-op.
  const int64_t target = SampleTargetCount(ratio_, graph.num_edges());

  std::vector<uint64_t> drawn = rng->SampleWithoutReplacement(
      static_cast<uint64_t>(graph.num_edges()), static_cast<uint64_t>(target));
  std::vector<EdgeId> edges(drawn.begin(), drawn.end());

  const double scale = reweight_ ? 1.0 / ratio_ : 1.0;
  return SubgraphFromEdges(graph, edges, scale);
}

EdgeMaskInfo RandomEdgeSampler::SampleEdgeMask(
    const CsrGraph& graph, Rng* rng, EdgeMaskScratch* scratch,
    std::vector<EdgeId>* out_edges) const {
  EdgeMaskInfo info;
  info.weight_scale = reweight_ ? 1.0 / ratio_ : 1.0;
  const int64_t num_edges = graph.num_edges();
  const int64_t target = SampleTargetCount(ratio_, num_edges);
  scratch->DrawSorted(rng, static_cast<uint64_t>(num_edges),
                      static_cast<uint64_t>(target), out_edges);

  // Node counts of the equivalent child: distinct endpoint users fall out
  // of a boundary scan (edge_user is nondecreasing over the canonical edge
  // order); distinct merchants need one epoch-stamped pass.
  const uint32_t ep = scratch->NextEpoch();
  scratch->EnsureMark(&scratch->merchant_mark, graph.num_merchants());
  UserId prev_user = 0;
  bool first = true;
  for (EdgeId e : *out_edges) {
    const UserId u = graph.edge_user(e);
    ENSEMFDET_DCHECK(first || u >= prev_user);
    if (first || u != prev_user) ++info.sample_users;
    prev_user = u;
    first = false;
    const MerchantId v = graph.edge_merchant(e);
    if (scratch->merchant_mark[v] != ep) {
      scratch->merchant_mark[v] = ep;
      ++info.sample_merchants;
    }
  }
  return info;
}

}  // namespace ensemfdet

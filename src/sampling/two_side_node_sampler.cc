#include "sampling/two_side_node_sampler.h"

#include <vector>

namespace ensemfdet {

SubgraphView TwoSideNodeSampler::Sample(const BipartiteGraph& graph,
                                        Rng* rng) const {
  auto draw = [&](int64_t population) {
    return rng->SampleWithoutReplacement(
        static_cast<uint64_t>(population),
        static_cast<uint64_t>(SampleTargetCount(ratio_, population)));
  };
  std::vector<uint64_t> users64 = draw(graph.num_users());
  std::vector<uint64_t> merchants64 = draw(graph.num_merchants());
  std::vector<UserId> users(users64.begin(), users64.end());
  std::vector<MerchantId> merchants(merchants64.begin(), merchants64.end());
  return InducedSubgraph(graph, users, merchants);
}

EdgeMaskInfo TwoSideNodeSampler::SampleEdgeMask(
    const CsrGraph& graph, Rng* rng, EdgeMaskScratch* scratch,
    std::vector<EdgeId>* out_edges) const {
  EdgeMaskInfo info;
  // Draw order (users first, then merchants) must match Sample() so both
  // faces consume the identical rng stream.
  scratch->DrawSorted(
      rng, static_cast<uint64_t>(graph.num_users()),
      static_cast<uint64_t>(SampleTargetCount(ratio_, graph.num_users())),
      &scratch->selected);
  scratch->DrawSorted(
      rng, static_cast<uint64_t>(graph.num_merchants()),
      static_cast<uint64_t>(SampleTargetCount(ratio_, graph.num_merchants())),
      &scratch->selected_other);

  // TNS keeps every selected node (isolated or not) in the child, so the
  // counts are simply the draw sizes (draws are duplicate-free).
  info.sample_users = static_cast<int64_t>(scratch->selected.size());
  info.sample_merchants = static_cast<int64_t>(scratch->selected_other.size());

  const uint32_t ep = scratch->NextEpoch();
  scratch->EnsureMark(&scratch->merchant_mark, graph.num_merchants());
  for (uint32_t v : scratch->selected_other) scratch->merchant_mark[v] = ep;

  const size_t cap_before = out_edges->capacity();
  out_edges->clear();
  for (uint32_t u : scratch->selected) {
    const auto neighbors = graph.user_neighbors(u);
    const EdgeId row_begin = graph.user_edge_begin(u);
    for (size_t k = 0; k < neighbors.size(); ++k) {
      if (scratch->merchant_mark[neighbors[k]] == ep) {
        out_edges->push_back(row_begin + static_cast<EdgeId>(k));
      }
    }
  }
  if (out_edges->capacity() != cap_before) ++scratch->grow_events;
  return info;
}

}  // namespace ensemfdet

#include "sampling/one_side_node_sampler.h"

#include <algorithm>
#include <vector>

namespace ensemfdet {

SubgraphView OneSideNodeSampler::Sample(const BipartiteGraph& graph,
                                        Rng* rng) const {
  const int64_t population =
      side_ == Side::kUser ? graph.num_users() : graph.num_merchants();
  const int64_t target = SampleTargetCount(ratio_, population);

  std::vector<uint64_t> drawn = rng->SampleWithoutReplacement(
      static_cast<uint64_t>(population), static_cast<uint64_t>(target));
  std::vector<uint32_t> nodes(drawn.begin(), drawn.end());
  return OneSideInducedSubgraph(graph, side_, nodes);
}

EdgeMaskInfo OneSideNodeSampler::SampleEdgeMask(
    const CsrGraph& graph, Rng* rng, EdgeMaskScratch* scratch,
    std::vector<EdgeId>* out_edges) const {
  EdgeMaskInfo info;
  const int64_t population =
      side_ == Side::kUser ? graph.num_users() : graph.num_merchants();
  const int64_t target = SampleTargetCount(ratio_, population);
  scratch->DrawSorted(rng, static_cast<uint64_t>(population),
                      static_cast<uint64_t>(target), &scratch->selected);

  const size_t cap_before = out_edges->capacity();
  out_edges->clear();
  const uint32_t ep = scratch->NextEpoch();
  if (side_ == Side::kUser) {
    // Ascending users × contiguous ascending rows ⇒ the mask comes out
    // sorted with no extra pass.
    scratch->EnsureMark(&scratch->merchant_mark, graph.num_merchants());
    for (uint32_t u : scratch->selected) {
      const auto neighbors = graph.user_neighbors(u);
      if (!neighbors.empty()) ++info.sample_users;
      const EdgeId row_begin = graph.user_edge_begin(u);
      for (size_t k = 0; k < neighbors.size(); ++k) {
        out_edges->push_back(row_begin + static_cast<EdgeId>(k));
        const MerchantId v = neighbors[k];
        if (scratch->merchant_mark[v] != ep) {
          scratch->merchant_mark[v] = ep;
          ++info.sample_merchants;
        }
      }
    }
  } else {
    scratch->EnsureMark(&scratch->user_mark, graph.num_users());
    for (uint32_t v : scratch->selected) {
      const auto edge_ids = graph.merchant_edge_ids(v);
      if (!edge_ids.empty()) ++info.sample_merchants;
      out_edges->insert(out_edges->end(), edge_ids.begin(), edge_ids.end());
      for (UserId u : graph.merchant_neighbors(v)) {
        if (scratch->user_mark[u] != ep) {
          scratch->user_mark[u] = ep;
          ++info.sample_users;
        }
      }
    }
    // Distinct merchants' rows interleave in edge-id space; one sort
    // restores the ascending-mask contract (rows are disjoint, so no
    // duplicates to strip).
    std::sort(out_edges->begin(), out_edges->end());
  }
  if (out_edges->capacity() != cap_before) ++scratch->grow_events;
  return info;
}

}  // namespace ensemfdet

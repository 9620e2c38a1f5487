#include "detect/partitioned_fdet.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "graph/components.h"
#include "graph/subgraph.h"

namespace ensemfdet {

namespace {

// Parent edge id of (user, merchant); the pair must exist.
EdgeId ParentEdgeId(const BipartiteGraph& parent, UserId user,
                    MerchantId merchant) {
  auto span = parent.user_edges(user);
  auto it = std::lower_bound(span.begin(), span.end(), merchant,
                             [&parent](EdgeId e, MerchantId m) {
                               return parent.edge(e).merchant < m;
                             });
  ENSEMFDET_CHECK(it != span.end() && parent.edge(*it).merchant == merchant)
      << "component edge missing from parent";
  return *it;
}

}  // namespace

Result<FdetResult> RunPartitionedFdet(const BipartiteGraph& graph,
                                      const PartitionedFdetConfig& config,
                                      ThreadPool* pool) {
  if (config.min_component_edges < 1) {
    return Status::InvalidArgument("min_component_edges must be >= 1");
  }

  const ConnectedComponents cc = FindConnectedComponents(graph);

  // Partition edge ids by component (components are edge-disjoint).
  std::vector<std::vector<EdgeId>> component_edges(
      static_cast<size_t>(cc.num_components()));
  for (size_t c = 0; c < component_edges.size(); ++c) {
    component_edges[c].reserve(
        static_cast<size_t>(cc.components[c].num_edges));
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    component_edges[static_cast<size_t>(
                        cc.user_component[graph.edge(e).user])]
        .push_back(e);
  }

  // Keep only components worth searching.
  std::vector<int32_t> eligible;
  for (int32_t c = 0; c < cc.num_components(); ++c) {
    if (cc.components[static_cast<size_t>(c)].num_edges >=
        config.min_component_edges) {
      eligible.push_back(c);
    }
  }

  // Per-component exploration keeps every block (fixed-k = max_blocks);
  // truncation happens globally after the merge.
  FdetConfig explore = config.fdet;
  explore.policy = TruncationPolicy::kFixedK;
  explore.fixed_k = config.fdet.max_blocks;

  std::vector<DetectedBlock> merged;
  if (eligible.size() == 1 &&
      component_edges[static_cast<size_t>(eligible[0])].size() ==
          static_cast<size_t>(graph.num_edges())) {
    // One component spans every edge: skip the per-component subgraph
    // rebuild entirely and run FDET on the parent (node and edge ids are
    // already parent-space; the compacted subgraph would have been a pure
    // relabeling).
    ENSEMFDET_ASSIGN_OR_RETURN(FdetResult whole, RunFdet(graph, explore));
    merged = std::move(whole.blocks);
  } else {
    std::vector<Result<FdetResult>> outputs(
        eligible.size(), Result<FdetResult>(FdetResult{}));
    std::vector<SubgraphView> views(eligible.size());
    // Each worker converts its component to CSR once (inside RunFdet) and
    // peels in place; the parent graph is shared read-only.
    auto run_component = [&](int64_t i) {
      const int32_t c = eligible[static_cast<size_t>(i)];
      views[static_cast<size_t>(i)] =
          SubgraphFromEdges(graph, component_edges[static_cast<size_t>(c)]);
      outputs[static_cast<size_t>(i)] =
          RunFdet(views[static_cast<size_t>(i)].graph, explore);
    };
    // Component sizes follow a heavy-tailed distribution; stealing keeps
    // the pool saturated when one giant component dominates.
    ForEachOnPool(pool, static_cast<int64_t>(eligible.size()), run_component);

    // Merge: translate ids to the parent space, then order by descending φ
    // (ties: stable by component order) — the order a global FDET would
    // detect them in.
    for (size_t i = 0; i < outputs.size(); ++i) {
      ENSEMFDET_RETURN_NOT_OK(outputs[i].status());
      const SubgraphView& view = views[i];
      for (DetectedBlock& block : outputs[i]->blocks) {
        DetectedBlock translated;
        translated.score = block.score;
        translated.users.reserve(block.users.size());
        for (UserId lu : block.users) {
          translated.users.push_back(view.user_map[lu]);
        }
        translated.merchants.reserve(block.merchants.size());
        for (MerchantId lv : block.merchants) {
          translated.merchants.push_back(view.merchant_map[lv]);
        }
        translated.edges.reserve(block.edges.size());
        for (EdgeId le : block.edges) {
          const Edge& local = view.graph.edge(le);
          translated.edges.push_back(
              ParentEdgeId(graph, view.user_map[local.user],
                           view.merchant_map[local.merchant]));
        }
        merged.push_back(std::move(translated));
      }
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const DetectedBlock& a, const DetectedBlock& b) {
                     return a.score > b.score;
                   });

  FdetResult result;
  result.all_scores.reserve(merged.size());
  for (const DetectedBlock& b : merged) result.all_scores.push_back(b.score);

  int keep;
  if (config.fdet.policy == TruncationPolicy::kFixedK) {
    keep = std::min<int>(config.fdet.fixed_k,
                         static_cast<int>(merged.size()));
  } else {
    keep = AutoTruncationIndex(result.all_scores);
  }
  merged.resize(static_cast<size_t>(keep));
  result.blocks = std::move(merged);
  result.truncation_index = keep;
  return result;
}

}  // namespace ensemfdet

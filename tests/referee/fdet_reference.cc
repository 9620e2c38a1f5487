#include "referee/fdet_reference.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "graph/subgraph.h"
#include "referee/greedy_peeler.h"

namespace ensemfdet {

namespace {

// Sorted-vector membership test; block node lists come out of the peeler
// sorted ascending.
template <typename T>
bool SortedContains(const std::vector<T>& sorted, T value) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  return it != sorted.end() && *it == value;
}

Status ValidateConfig(const FdetConfig& config) {
  if (config.max_blocks < 1) {
    return Status::InvalidArgument("max_blocks must be >= 1, got " +
                                   std::to_string(config.max_blocks));
  }
  if (config.policy == TruncationPolicy::kFixedK && config.fixed_k < 1) {
    return Status::InvalidArgument("fixed_k must be >= 1, got " +
                                   std::to_string(config.fixed_k));
  }
  if (config.elbow_patience < 1) {
    return Status::InvalidArgument("elbow_patience must be >= 1, got " +
                                   std::to_string(config.elbow_patience));
  }
  if (config.density.weight_kind == ColumnWeightKind::kLogarithmic &&
      config.density.log_offset <= 1.0) {
    return Status::InvalidArgument(
        "density log_offset must be > 1 for logarithmic weights");
  }
  if (config.density.weight_kind == ColumnWeightKind::kInverse &&
      config.density.log_offset <= 0.0) {
    return Status::InvalidArgument(
        "density log_offset must be > 0 for inverse weights");
  }
  return Status::OK();
}

}  // namespace

Result<FdetResult> RunFdetReference(const BipartiteGraph& graph,
                                    const FdetConfig& config) {
  ENSEMFDET_RETURN_NOT_OK(ValidateConfig(config));

  const int explore_limit = config.policy == TruncationPolicy::kFixedK
                                ? std::max(config.max_blocks, config.fixed_k)
                                : config.max_blocks;

  std::vector<DetectedBlock> explored;
  std::vector<double> scores_so_far;

  // The residual graph after removing previously detected blocks' edges,
  // kept as an edge subset of `graph` with id maps back to it.
  std::vector<EdgeId> remaining;
  remaining.reserve(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) remaining.push_back(e);

  while (static_cast<int>(explored.size()) < explore_limit &&
         !remaining.empty()) {
    SubgraphView view = SubgraphFromEdges(graph, remaining);
    PeelResult peel = PeelDensestBlock(view.graph, config.density);
    if (peel.score <= config.min_block_score ||
        (peel.users.empty() && peel.merchants.empty())) {
      break;
    }

    DetectedBlock block;
    block.score = peel.score;
    block.users.reserve(peel.users.size());
    for (UserId lu : peel.users) block.users.push_back(view.user_map[lu]);
    block.merchants.reserve(peel.merchants.size());
    for (MerchantId lv : peel.merchants) {
      block.merchants.push_back(view.merchant_map[lv]);
    }
    // Peeler emits ascending local ids; id maps are ascending, so parent
    // ids stay sorted — required by SortedContains below.
    explored.push_back(std::move(block));
    const DetectedBlock& added = explored.back();

    // Remove E_i: residual edges induced by the block's vertex set, and
    // record them on the block for diagnostics/invariant checking.
    std::vector<EdgeId> next;
    next.reserve(remaining.size());
    for (EdgeId e : remaining) {
      const Edge& edge = graph.edge(e);
      const bool inside = SortedContains(added.users, edge.user) &&
                          SortedContains(added.merchants, edge.merchant);
      if (inside) {
        explored.back().edges.push_back(e);
      } else {
        next.push_back(e);
      }
    }
    // The peeled block always contains at least one residual edge, so the
    // loop strictly shrinks `remaining` and must terminate.
    ENSEMFDET_CHECK(next.size() < remaining.size())
        << "detected block removed no edges";
    remaining = std::move(next);

    // Online truncation (Algorithm 1's stop condition): once the elbow is
    // `elbow_patience` blocks behind the frontier, further exploration
    // cannot move it — later blocks only extend the flat tail.
    scores_so_far.push_back(added.score);
    if (config.policy == TruncationPolicy::kAutoElbow &&
        static_cast<int>(scores_so_far.size()) >=
            AutoTruncationIndex(scores_so_far) + config.elbow_patience) {
      break;
    }
  }

  // Keep blocks 1..k̂ of the explored series (every explored block's
  // score went into scores_so_far).
  FdetResult result;
  result.all_scores = std::move(scores_so_far);
  const int keep =
      config.policy == TruncationPolicy::kFixedK
          ? std::min<int>(config.fixed_k, static_cast<int>(explored.size()))
          : AutoTruncationIndex(result.all_scores);
  explored.resize(static_cast<size_t>(keep));
  result.blocks = std::move(explored);
  result.truncation_index = keep;
  return result;
}

}  // namespace ensemfdet

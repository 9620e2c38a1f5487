#include "detect/fdet.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"
#include "detect/csr_peeler.h"
#include "obs/metrics.h"

namespace ensemfdet {

namespace {

// Shared front-door validation for every FDET entry point.
Status ValidateFdetConfig(const FdetConfig& config) {
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

// Truncation: keep blocks 1..k̂ of `explored`.
FdetResult TruncateExplored(std::vector<DetectedBlock> explored,
                            const FdetConfig& config) {
  FdetResult result;
  result.all_scores.reserve(explored.size());
  for (const DetectedBlock& b : explored) result.all_scores.push_back(b.score);

  int keep;
  if (config.policy == TruncationPolicy::kFixedK) {
    keep = std::min<int>(config.fixed_k, static_cast<int>(explored.size()));
  } else {
    keep = AutoTruncationIndex(result.all_scores);
  }
  explored.resize(static_cast<size_t>(keep));
  result.blocks = std::move(explored);
  result.truncation_index = keep;
  return result;
}

}  // namespace

std::vector<UserId> FdetResult::DetectedUsers() const {
  std::vector<UserId> out;
  for (const DetectedBlock& b : blocks) {
    out.insert(out.end(), b.users.begin(), b.users.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<MerchantId> FdetResult::DetectedMerchants() const {
  std::vector<MerchantId> out;
  for (const DetectedBlock& b : blocks) {
    out.insert(out.end(), b.merchants.begin(), b.merchants.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int AutoTruncationIndex(const std::vector<double>& scores) {
  const int len = static_cast<int>(scores.size());
  if (len <= 2) return len;
  // Δ²φ(i) = φ(i+1) − 2φ(i) + φ(i−1) over interior points (Definition 3);
  // the most negative value marks the last block before density falls off
  // a cliff — keep blocks 1..k̂. FDET always explores past the planted
  // structure into background noise (up to max_blocks), so the cliff is an
  // interior point of the series in practice.
  int best_i = 1;  // 0-indexed interior position
  double best_value = std::numeric_limits<double>::infinity();
  for (int i = 1; i + 1 < len; ++i) {
    const double d2 = scores[static_cast<size_t>(i) + 1] -
                      2.0 * scores[static_cast<size_t>(i)] +
                      scores[static_cast<size_t>(i) - 1];
    if (d2 < best_value) {
      best_value = d2;
      best_i = i;
    }
  }
  return best_i + 1;  // convert to 1-indexed block count
}

Result<FdetResult> RunFdet(const BipartiteGraph& graph,
                           const FdetConfig& config) {
  // Validate before the O(|U|+|V|+|E|) CSR conversion so a bad config
  // fails as cheaply as it did in the seed implementation.
  ENSEMFDET_RETURN_NOT_OK(ValidateFdetConfig(config));
  return RunFdetCsr(CsrGraph::FromBipartite(graph), config);
}

namespace {

// True when the Algorithm 1 loop may stop exploring: online truncation —
// once the elbow is `elbow_patience` blocks behind the frontier, further
// exploration cannot move it; later blocks only extend the flat tail.
bool ElbowConfirmed(const std::vector<double>& scores_so_far,
                    const FdetConfig& config) {
  return config.policy == TruncationPolicy::kAutoElbow &&
         static_cast<int>(scores_so_far.size()) >=
             AutoTruncationIndex(scores_so_far) + config.elbow_patience;
}

// Algorithm 1 over a residual edge set of a shared parent — a sampled
// member's mask, or every edge for whole-graph FDET. The mask is cached
// once as a member-dense residual view (SetResidualView) and the
// per-iteration residual is just the `view_alive` bitmap over its slots:
// every iteration streams residual-sized compact arrays with no
// parent-array gathers and no work-list rebuild. Each iteration's alive
// slots are that iteration's residual, ascending, and the member-dense
// ids translate monotonically back to parent ids, so every block matches
// the seed's compacted-subgraph loop (the test referee in
// tests/referee/fdet_reference.h).
FdetResult RunFdetInView(const CsrGraph& graph,
                         std::span<const EdgeId> initial_residual,
                         double weight_scale, const FdetConfig& config,
                         PeelScratch* scratch) {
  const int explore_limit = config.policy == TruncationPolicy::kFixedK
                                ? std::max(config.max_blocks, config.fixed_k)
                                : config.max_blocks;

  std::vector<DetectedBlock> explored;
  std::vector<double> scores_so_far;

  CsrPeeler peeler(graph, scratch);
  PeelScratch& s = *scratch;
  peeler.SetResidualView(initial_residual);

  const int32_t member_users = static_cast<int32_t>(s.member_user_count);
  int64_t alive_edges = static_cast<int64_t>(initial_residual.size());

  while (static_cast<int>(explored.size()) < explore_limit &&
         alive_edges > 0) {
    // Member-space peel; `peel.users` / `peel.merchants` are member ids.
    PeelResult peel = peeler.PeelAliveInView(config.density, weight_scale);
    if (peel.score <= config.min_block_score ||
        (peel.users.empty() && peel.merchants.empty())) {
      break;
    }

    DetectedBlock block;
    block.score = peel.score;
    // Member ids are ascending and monotone in parent id, so the
    // translated lists stay ascending.
    block.users.reserve(peel.users.size());
    for (UserId mu : peel.users) block.users.push_back(s.member_users[mu]);
    block.merchants.reserve(peel.merchants.size());
    for (MerchantId mj : peel.merchants) {
      block.merchants.push_back(s.member_merchants[mj]);
    }
    explored.push_back(std::move(block));
    DetectedBlock& added = explored.back();

    // Remove E_i by walking only the block users' rows: users ascend and
    // each row's slots ascend, so the recorded block edges come out in
    // mask order, ascending, for O(block rows) work instead of a scan of
    // the whole mask. Merchant flags live in member id space — compact.
    for (MerchantId mj : peel.merchants) s.in_block_merchant[mj] = 1;
    int64_t removed_edges = 0;
    for (UserId mu : peel.users) {
      for (uint32_t i = s.member_user_offsets[mu];
           i < s.member_user_offsets[mu + 1]; ++i) {
        if (!s.view_alive[i]) continue;
        const int32_t mj = s.view_merchant_dense[i] - member_users;
        if (s.in_block_merchant[static_cast<size_t>(mj)]) {
          added.edges.push_back(initial_residual[i]);
          s.view_alive[i] = 0;
          s.view_alive_m[s.view_merchant_slot[i]] = 0;
          ++removed_edges;
        }
      }
    }
    for (MerchantId mj : peel.merchants) s.in_block_merchant[mj] = 0;
    // The peeled block always contains at least one residual edge, so the
    // loop strictly shrinks the residual and must terminate.
    ENSEMFDET_CHECK(removed_edges > 0) << "detected block removed no edges";
    alive_edges -= removed_edges;

    scores_so_far.push_back(added.score);
    if (ElbowConfirmed(scores_so_far, config)) break;
  }

  return TruncateExplored(std::move(explored), config);
}

// Moves the arena's accumulated peel-queue pop counts into the registry —
// once per FDET call, never per pop or per peel: streaming detection runs
// thousands of microsecond-scale component peels.
void FlushPeelCounters(PeelScratch* scratch) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* const pops = reg.GetCounter(
      "ensemfdet_detect_peel_pops_total",
      "Peel-queue pops: one per node a densest-block peel removes.");
  static obs::Counter* const sorted_pops = reg.GetCounter(
      "ensemfdet_detect_peel_sorted_pops_total",
      "Peel-queue pops served from the sorted run: nodes whose key never "
      "changed after the queue was built.");
  pops->Increment(scratch->peel_pops);
  sorted_pops->Increment(scratch->peel_sorted_pops);
  scratch->peel_pops = 0;
  scratch->peel_sorted_pops = 0;
}

}  // namespace

Result<FdetResult> RunFdetCsr(const CsrGraph& graph,
                              const FdetConfig& config) {
  std::vector<EdgeId> all(static_cast<size_t>(graph.num_edges()));
  std::iota(all.begin(), all.end(), EdgeId{0});
  PeelScratch scratch;
  return RunFdetCsrMasked(graph, all, /*weight_scale=*/1.0, config, &scratch);
}

Result<FdetResult> RunFdetCsrMasked(const CsrGraph& graph,
                                    std::span<const EdgeId> initial_residual,
                                    double weight_scale,
                                    const FdetConfig& config,
                                    PeelScratch* scratch) {
  ENSEMFDET_RETURN_NOT_OK(ValidateFdetConfig(config));
  if (!(weight_scale > 0.0)) {
    return Status::InvalidArgument("weight_scale must be > 0");
  }
  if (static_cast<int64_t>(initial_residual.size()) > kMaxViewEdges) {
    return Status::OutOfRange("residual of " +
                              std::to_string(initial_residual.size()) +
                              " edges exceeds the residual-view limit");
  }
  ENSEMFDET_CHECK(scratch != nullptr);
  FdetResult result =
      RunFdetInView(graph, initial_residual, weight_scale, config, scratch);
  FlushPeelCounters(scratch);
  return result;
}

}  // namespace ensemfdet

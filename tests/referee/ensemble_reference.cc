#include "referee/ensemble_reference.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/timer.h"
#include "graph/subgraph.h"
#include "sampling/sampler.h"

namespace ensemfdet {

EnsemFDetReport EmptyEnsembleReport(int num_samples, int64_t num_users,
                                    int64_t num_merchants) {
  EnsemFDetReport report;
  report.num_samples = num_samples;
  report.votes = VoteTable(num_users, num_merchants);
  report.weighted_user_votes.assign(static_cast<size_t>(num_users), 0.0);
  report.weighted_merchant_votes.assign(static_cast<size_t>(num_merchants),
                                        0.0);
  return report;
}

void AddMemberVotes(const std::vector<DetectedBlock>& blocks,
                    const EnsemFDetReport::MemberStats& stats,
                    EnsemFDetReport* report) {
  std::map<UserId, double> users;
  std::map<MerchantId, double> merchants;
  for (const DetectedBlock& block : blocks) {
    for (UserId u : block.users) {
      auto [it, fresh] = users.emplace(u, block.score);
      if (!fresh) it->second = std::max(it->second, block.score);
    }
    for (MerchantId v : block.merchants) {
      auto [it, fresh] = merchants.emplace(v, block.score);
      if (!fresh) it->second = std::max(it->second, block.score);
    }
  }
  std::vector<UserId> user_ids;
  std::vector<MerchantId> merchant_ids;
  for (const auto& [u, w] : users) {
    user_ids.push_back(u);
    report->weighted_user_votes[u] += w;
  }
  for (const auto& [v, w] : merchants) {
    merchant_ids.push_back(v);
    report->weighted_merchant_votes[v] += w;
  }
  report->votes.AddVotes(user_ids, merchant_ids);
  report->members.push_back(stats);
}

Result<EnsemFDetReport> RunEnsembleReference(const EnsemFDetConfig& config,
                                             const BipartiteGraph& graph) {
  if (config.num_samples < 1) {
    return Status::InvalidArgument("num_samples (N) must be >= 1, got " +
                                   std::to_string(config.num_samples));
  }
  ENSEMFDET_ASSIGN_OR_RETURN(
      std::unique_ptr<Sampler> sampler,
      MakeSampler(config.method, config.ratio, config.reweight_edges));

  WallTimer total_timer;
  EnsemFDetReport report = EmptyEnsembleReport(
      config.num_samples, graph.num_users(), graph.num_merchants());
  const Rng root(config.seed);
  for (int i = 0; i < config.num_samples; ++i) {
    WallTimer timer;
    Rng rng = root.Split(static_cast<uint64_t>(i));
    const SubgraphView view = sampler->Sample(graph, &rng);
    ENSEMFDET_ASSIGN_OR_RETURN(FdetResult fdet,
                               RunFdet(view.graph, config.fdet));

    // Child ids back to parent ids (the maps are ascending, so block node
    // lists stay ascending).
    for (DetectedBlock& block : fdet.blocks) {
      for (UserId& u : block.users) u = view.ToParentUser(u);
      for (MerchantId& v : block.merchants) v = view.ToParentMerchant(v);
    }
    EnsemFDetReport::MemberStats stats;
    stats.sample_users = view.graph.num_users();
    stats.sample_merchants = view.graph.num_merchants();
    stats.sample_edges = view.graph.num_edges();
    stats.num_blocks = fdet.truncation_index;
    stats.seconds = timer.ElapsedSeconds();
    AddMemberVotes(fdet.blocks, stats, &report);
  }
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

}  // namespace ensemfdet

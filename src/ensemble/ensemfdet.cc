#include "ensemble/ensemfdet.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "detect/csr_peeler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ensemfdet {

namespace {

// Pipeline-stage instruments (DESIGN.md "Observability"): stage spans at
// member granularity — a member is ~ms of work, so two clock pairs and
// two histogram records per member stay far inside the 2% overhead
// budget that BENCH_obs.json gates.
struct DetectMetrics {
  obs::Counter* runs_total;
  obs::Counter* members_total;
  obs::Histogram* member_sample_seconds;
  obs::Histogram* member_peel_seconds;
  obs::Histogram* aggregate_seconds;
  obs::Histogram* run_seconds;
  obs::Gauge* arena_bytes;
};

DetectMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static DetectMetrics m{
      reg.GetCounter("ensemfdet_detect_runs_total"),
      reg.GetCounter("ensemfdet_detect_members_total"),
      reg.GetHistogram("ensemfdet_detect_member_sample_seconds"),
      reg.GetHistogram("ensemfdet_detect_member_peel_seconds"),
      reg.GetHistogram("ensemfdet_detect_aggregate_seconds"),
      reg.GetHistogram("ensemfdet_detect_run_seconds"),
      reg.GetGauge("ensemfdet_detect_arena_bytes",
                   "Buffer capacity, in bytes, held by all live ensemble "
                   "member arenas (sampler scratch, peel arrays, view "
                   "rows)."),
  };
  return m;
}

// One ensemble member's contribution, in parent-graph id space.
// weight[i] is the φ of the densest detected block containing node i —
// the per-member input to the score-weighted aggregation variant. Node
// lists are duplicate-free and ascending (aggregation increments
// independent per-node slots, so order could not affect it anyway).
struct MemberOutput {
  std::vector<UserId> users;
  std::vector<double> user_weights;
  std::vector<MerchantId> merchants;
  std::vector<double> merchant_weights;
  EnsemFDetReport::MemberStats stats;
  Status status;
};

// Per-worker arena for the zero-materialization member path: sampling
// scratch, the member's edge mask and the FDET peel arena, all sized by
// the largest member served, save the sampler's parent-id marks and the
// peel's parent-merchant map. thread_local, so it persists across
// members, runs, and graphs served by the same worker; growth events
// count arena reuse misses (zero once warm). The arena's capacity is
// mirrored into the arena-bytes gauge whenever it changes and withdrawn
// when the worker exits.
struct MemberArena {
  EdgeMaskScratch sample;
  std::vector<EdgeId> mask;
  PeelScratch peel;
  int64_t gauge_bytes = 0;  // this arena's share of the gauge

  MemberArena() = default;
  MemberArena(const MemberArena&) = delete;
  MemberArena& operator=(const MemberArena&) = delete;
  ~MemberArena() { Metrics().arena_bytes->Add(-gauge_bytes); }

  int64_t TotalGrowEvents() const {
    return sample.grow_events + peel.grow_events;
  }

  void UpdateGauge() {
    const int64_t bytes =
        sample.CapacityBytes() + peel.CapacityBytes() +
        static_cast<int64_t>(mask.capacity() * sizeof(EdgeId));
    if (bytes != gauge_bytes) {
      Metrics().arena_bytes->Add(bytes - gauge_bytes);
      gauge_bytes = bytes;
    }
  }
};

thread_local MemberArena t_member_arena;

// What a legal config is and which sampler its members draw from.
Result<std::shared_ptr<const Sampler>> ValidatedSampler(
    const EnsemFDetConfig& config) {
  if (config.num_samples < 1) {
    return Status::InvalidArgument("num_samples (N) must be >= 1, got " +
                                   std::to_string(config.num_samples));
  }
  ENSEMFDET_ASSIGN_OR_RETURN(
      std::unique_ptr<Sampler> sampler,
      MakeSampler(config.method, config.ratio, config.reweight_edges));
  return std::shared_ptr<const Sampler>(std::move(sampler));
}

// The zero-materialization member core, in two halves shared by every
// entry point (Run's members, RunMember, DrawMember, RunMemberOnSample):
// sample an edge mask of the shared parent into the worker arena, then run
// masked FDET over a mask in place. Everything is in parent ids from the
// start — no SubgraphView, no ToParentUser remap. Keeping each half
// single-sourced is what makes every entry point's members identical by
// construction (the streaming parity contract rests on it).
EdgeMaskInfo DrawMemberMask(const CsrGraph& graph, const Sampler& sampler,
                            Rng rng, MemberArena* arena) {
  DetectMetrics& metrics = Metrics();
  metrics.members_total->Increment();
  EdgeMaskInfo info;
  {
    obs::TraceSpan span(metrics.member_sample_seconds, "member_sample");
    info = sampler.SampleEdgeMask(graph, &rng, &arena->sample, &arena->mask);
  }
  arena->UpdateGauge();
  return info;
}

Result<FdetResult> PeelMemberMask(const CsrGraph& graph,
                                  std::span<const EdgeId> mask,
                                  const EdgeMaskInfo& info,
                                  const FdetConfig& fdet_config,
                                  MemberArena* arena,
                                  EnsemFDetReport::MemberStats* stats) {
  stats->sample_users = info.sample_users;
  stats->sample_merchants = info.sample_merchants;
  stats->sample_edges = static_cast<int64_t>(mask.size());
  obs::TraceSpan span(Metrics().member_peel_seconds, "member_peel");
  Result<FdetResult> fdet = RunFdetCsrMasked(graph, mask, info.weight_scale,
                                             fdet_config, &arena->peel);
  arena->UpdateGauge();
  if (fdet.ok()) stats->num_blocks = fdet->truncation_index;
  return fdet;
}

// Run()'s member: both halves over the arena's own mask, then vote
// flattening — each detected node once, with the max φ over the blocks
// containing it (nodes can sit in several blocks: blocks are
// edge-disjoint, not vertex-disjoint).
MemberOutput RunMemberCsr(const CsrGraph& graph, const Sampler& sampler,
                          const FdetConfig& fdet_config, Rng member_rng) {
  MemberArena& arena = t_member_arena;
  MemberOutput out;
  WallTimer timer;
  const int64_t grow_before = arena.TotalGrowEvents();

  const EdgeMaskInfo info = DrawMemberMask(graph, sampler, member_rng, &arena);
  Result<FdetResult> fdet = PeelMemberMask(graph, arena.mask, info,
                                           fdet_config, &arena, &out.stats);
  if (!fdet.ok()) {
    out.status = fdet.status();
    return out;
  }

  std::vector<std::pair<UserId, double>> user_pairs;
  std::vector<std::pair<MerchantId, double>> merchant_pairs;
  for (const DetectedBlock& block : fdet->blocks) {
    for (UserId u : block.users) user_pairs.push_back({u, block.score});
    for (MerchantId v : block.merchants) {
      merchant_pairs.push_back({v, block.score});
    }
  }
  ReduceMaxWeights(&user_pairs, &out.users, &out.user_weights);
  ReduceMaxWeights(&merchant_pairs, &out.merchants, &out.merchant_weights);

  out.stats.arena_grow_events = arena.TotalGrowEvents() - grow_before;
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

// Strict member-order aggregation → deterministic at any thread count.
Result<EnsemFDetReport> Aggregate(std::vector<MemberOutput> outputs,
                                  int64_t num_users, int64_t num_merchants,
                                  const WallTimer& total_timer) {
  obs::TraceSpan span(Metrics().aggregate_seconds, "aggregate");
  EnsemFDetReport report;
  report.num_samples = static_cast<int>(outputs.size());
  report.votes = VoteTable(num_users, num_merchants);
  report.weighted_user_votes.assign(static_cast<size_t>(num_users), 0.0);
  report.weighted_merchant_votes.assign(static_cast<size_t>(num_merchants),
                                        0.0);
  report.members.reserve(outputs.size());
  for (MemberOutput& out : outputs) {
    ENSEMFDET_RETURN_NOT_OK(out.status);
    report.votes.AddVotes(out.users, out.merchants);
    for (size_t i = 0; i < out.users.size(); ++i) {
      report.weighted_user_votes[out.users[i]] += out.user_weights[i];
    }
    for (size_t i = 0; i < out.merchants.size(); ++i) {
      report.weighted_merchant_votes[out.merchants[i]] +=
          out.merchant_weights[i];
    }
    report.members.push_back(out.stats);
  }
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

}  // namespace

EnsemFDet::EnsemFDet(EnsemFDetConfig config)
    : config_(std::move(config)), sampler_(ValidatedSampler(config_)) {}

Result<EnsemFDetReport> EnsemFDet::Run(const CsrGraph& graph,
                                       ThreadPool* pool) const {
  if (!sampler_.ok()) return sampler_.status();
  const Sampler& sampler = **sampler_;

  DetectMetrics& metrics = Metrics();
  metrics.runs_total->Increment();
  obs::TraceSpan run_span(metrics.run_seconds, "ensemble_run");
  WallTimer total_timer;
  const int n = config_.num_samples;
  Rng root(config_.seed);

  // Outputs are indexed by member, so results are identical at any pool
  // width. Member costs are skewed (sampled residuals differ wildly in
  // size), so wide pools use the work-stealing split.
  std::vector<MemberOutput> outputs(static_cast<size_t>(n));
  ForEachOnPool(pool, n, [&](int64_t i) {
    outputs[static_cast<size_t>(i)] = RunMemberCsr(
        graph, sampler, config_.fdet, root.Split(static_cast<uint64_t>(i)));
  });

  return Aggregate(std::move(outputs), graph.num_users(),
                   graph.num_merchants(), total_timer);
}

Result<EnsemFDetReport> EnsemFDet::Run(const BipartiteGraph& graph,
                                       ThreadPool* pool) const {
  return Run(CsrGraph::FromBipartite(graph), pool);
}

Result<EnsembleMemberBlocks> EnsemFDet::RunMember(const CsrGraph& graph,
                                                  int member) const {
  ENSEMFDET_ASSIGN_OR_RETURN(MemberSample sample,
                             DrawMember(graph, config_.seed, member));
  ENSEMFDET_ASSIGN_OR_RETURN(EnsembleMemberBlocks out,
                             RunMemberOnSample(graph, sample));
  out.stats.seconds += sample.seconds;
  out.stats.arena_grow_events += sample.arena_grow_events;
  return out;
}

Result<MemberSample> EnsemFDet::DrawMember(const CsrGraph& graph,
                                           uint64_t seed, int member) const {
  if (!sampler_.ok()) return sampler_.status();
  if (member < 0 || member >= config_.num_samples) {
    return Status::InvalidArgument(
        "member index " + std::to_string(member) + " outside [0, " +
        std::to_string(config_.num_samples) + ")");
  }
  MemberArena& arena = t_member_arena;
  MemberSample out;
  WallTimer timer;
  const int64_t grow_before = arena.TotalGrowEvents();
  out.info = DrawMemberMask(graph, **sampler_,
                            Rng(seed).Split(static_cast<uint64_t>(member)),
                            &arena);
  out.mask.assign(arena.mask.begin(), arena.mask.end());
  out.arena_grow_events = arena.TotalGrowEvents() - grow_before;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<EnsembleMemberBlocks> EnsemFDet::RunMemberOnSample(
    const CsrGraph& graph, const MemberSample& sample) const {
  if (!sampler_.ok()) return sampler_.status();
  MemberArena& arena = t_member_arena;
  EnsembleMemberBlocks out;
  WallTimer timer;
  const int64_t grow_before = arena.TotalGrowEvents();
  ENSEMFDET_ASSIGN_OR_RETURN(
      FdetResult fdet, PeelMemberMask(graph, sample.mask, sample.info,
                                      config_.fdet, &arena, &out.stats));
  out.blocks = std::move(fdet.blocks);
  out.stats.arena_grow_events = arena.TotalGrowEvents() - grow_before;
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace ensemfdet

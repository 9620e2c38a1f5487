#include "ingest/streaming_detector.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"
#include "detect/fdet.h"
#include "ensemble/vote_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ensemfdet {

namespace {

// Stream-layer instruments. The reuse/clean-edge counters are bumped
// en bloc at the end of Detect() by exactly the amounts reported in
// StreamingDetectionStats, so a registry delta taken across one report
// equals that report's stats — stream-replay's narration reads the
// registry and still prints bit-identical lines. One span + histogram
// per Detect() stage attributes a report's time (four spans a report),
// plus one for the local-graph pass nested in the members stage.
struct StreamMetrics {
  obs::Counter* reports_total;
  obs::Counter* components_total;
  obs::Counter* components_eligible_total;
  obs::Counter* components_reused_total;
  obs::Counter* components_recomputed_total;
  obs::Counter* components_touched_total;
  obs::Counter* edges_total;
  obs::Counter* edges_recomputed_total;
  obs::Counter* members_shared_total;
  obs::Counter* cache_hits_total;
  obs::Counter* cache_misses_total;
  obs::Counter* cache_insertions_total;
  obs::Counter* cache_evictions_total;
  obs::Histogram* detect_seconds;
  obs::Histogram* label_seconds;
  obs::Histogram* resolve_seconds;
  obs::Histogram* members_seconds;
  obs::Histogram* prepare_seconds;
  obs::Histogram* aggregate_seconds;
};

StreamMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static StreamMetrics m{
      reg.GetCounter("ensemfdet_stream_reports_total"),
      reg.GetCounter("ensemfdet_stream_components_total"),
      reg.GetCounter("ensemfdet_stream_components_eligible_total"),
      reg.GetCounter("ensemfdet_stream_components_reused_total"),
      reg.GetCounter("ensemfdet_stream_components_recomputed_total"),
      reg.GetCounter("ensemfdet_stream_components_touched_total"),
      reg.GetCounter("ensemfdet_stream_edges_total"),
      reg.GetCounter("ensemfdet_stream_edges_recomputed_total"),
      reg.GetCounter("ensemfdet_stream_members_shared_total",
                     "Recomputed (component, member) pairs whose sample "
                     "equalled a lower member's and reused its FDET run."),
      reg.GetCounter("ensemfdet_stream_cache_hits_total"),
      reg.GetCounter("ensemfdet_stream_cache_misses_total"),
      reg.GetCounter("ensemfdet_stream_cache_insertions_total"),
      reg.GetCounter("ensemfdet_stream_cache_evictions_total"),
      reg.GetHistogram("ensemfdet_stream_detect_seconds"),
      reg.GetHistogram("ensemfdet_stream_label_seconds"),
      reg.GetHistogram("ensemfdet_stream_resolve_seconds"),
      reg.GetHistogram("ensemfdet_stream_members_seconds"),
      reg.GetHistogram("ensemfdet_stream_prepare_seconds"),
      reg.GetHistogram("ensemfdet_stream_aggregate_seconds"),
  };
  return m;
}

// Content fingerprint of one connected component: its live edges in
// canonical order, *global* ids. Global ids make structurally isomorphic
// components at different node ids fingerprint differently — votes are
// replayed onto specific nodes, so identity matters.
uint64_t ComponentFingerprint(std::span<const Edge> edges) {
  static_assert(sizeof(Edge) == 2 * sizeof(uint32_t));
  uint64_t h = HashValue<uint64_t>(0x636f6d70u);  // domain tag "comp"
  h = HashCombine(h, HashValue(static_cast<int64_t>(edges.size())));
  h = HashCombine(h, Hash64(edges.data(), edges.size() * sizeof(Edge)));
  return h;
}

// Unset entry of the detector's merchant → local id map.
constexpr MerchantId kNoLocal = std::numeric_limits<MerchantId>::max();

// Every component's ensemble: the base config with fixed-k exploration
// (up to max_blocks blocks per member), since the configured truncation
// applies once, globally, after the merge. Components differ only in the
// seed their members draw from.
EnsemFDetConfig ComponentEnsembleConfig(EnsemFDetConfig base) {
  base.fdet.policy = TruncationPolicy::kFixedK;
  base.fdet.fixed_k = base.fdet.max_blocks;
  return base;
}

// One dirty component's share of the member passes: its dense local
// graph, every member's draw, and one FDET output per distinct sample.
struct DirtyComponent {
  int32_t component = 0;
  uint64_t fingerprint = 0;
  uint64_t seed = 0;
  std::span<const Edge> edges;  // global ids, canonical order
  std::vector<UserId> users;          // local id → global id
  std::vector<MerchantId> merchants;  // local id → global id
  CsrGraph csr;
  std::vector<MemberSample> draws;  // member i's draw
  // Member i → index of its distinct sample; sample s was first drawn
  // by member first_member[s], whose draw the peel pass runs.
  std::vector<size_t> sample_of;
  std::vector<size_t> first_member;
  std::vector<EnsembleMemberBlocks> samples;  // global ids
  std::vector<Status> status;  // member i's draw, then its sample's FDET
};

// Readies a dirty component for the member passes in O(component edges).
// All randomness is content-derived — same component content + same base
// seed → same member outputs, whenever and wherever computed. Local ids
// are ranks among the component's global ids: the edges arrive in
// canonical (user, merchant) order, so a user's rank is its run index; a
// merchant's comes from `merchant_local`, a universe-sized map (kNoLocal
// everywhere between calls) that only this component's distinct
// merchants touch, sorted once. Components are merchant-disjoint, so
// concurrent calls write disjoint entries. Both relabelings are monotone,
// so the local edge list is canonical too.
void PrepareComponent(uint64_t base_seed, int num_samples,
                      MerchantId* merchant_local, DirtyComponent* d) {
  d->seed = HashCombine(base_seed, d->fingerprint);
  d->draws.resize(static_cast<size_t>(num_samples));
  d->status.assign(static_cast<size_t>(num_samples), Status::OK());

  std::vector<Edge> local;  // local user id, global merchant id for now
  local.reserve(d->edges.size());
  for (const Edge& e : d->edges) {
    if (d->users.empty() || d->users.back() != e.user) {
      d->users.push_back(e.user);
    }
    if (merchant_local[e.merchant] == kNoLocal) {
      merchant_local[e.merchant] = 0;  // seen; ranked below
      d->merchants.push_back(e.merchant);
    }
    local.push_back({static_cast<UserId>(d->users.size() - 1), e.merchant});
  }
  std::sort(d->merchants.begin(), d->merchants.end());
  for (size_t k = 0; k < d->merchants.size(); ++k) {
    merchant_local[d->merchants[k]] = static_cast<MerchantId>(k);
  }
  for (Edge& e : local) e.merchant = merchant_local[e.merchant];
  for (MerchantId v : d->merchants) merchant_local[v] = kNoLocal;
  d->csr = CsrGraph::FromCanonicalEdges(
      static_cast<int64_t>(d->users.size()),
      static_cast<int64_t>(d->merchants.size()), local);
}

// Maps every member of a drawn component to the lowest-index member whose
// mask equals its own. A masked FDET run is a pure function of (graph,
// mask, weight scale, config), and equal masks carry equal sampler info,
// so every member of a group gets the first member's blocks bit for bit.
// Masks of distinct samples almost always differ within their first
// entries, so a comparison costs O(1) unless the masks are equal.
void GroupSamples(DirtyComponent* d) {
  const size_t n = d->draws.size();
  d->sample_of.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const MemberSample& draw = d->draws[i];
    size_t s = 0;
    while (s < d->first_member.size() &&
           d->draws[d->first_member[s]].mask != draw.mask) {
      ++s;
    }
    if (s == d->first_member.size()) {
      d->first_member.push_back(i);
    } else {
      const EdgeMaskInfo& first = d->draws[d->first_member[s]].info;
      ENSEMFDET_DCHECK(first.sample_users == draw.info.sample_users &&
                       first.sample_merchants == draw.info.sample_merchants &&
                       first.weight_scale == draw.info.weight_scale);
    }
    d->sample_of[i] = s;
  }
  d->samples.resize(d->first_member.size());
}

// Runs FDET on distinct sample `s` of a dirty component and translates its
// block nodes to global ids, dropping the (component-local) edge lists —
// aggregation only consumes nodes and φ.
void PeelSample(const EnsemFDet& ensemble, DirtyComponent* d, size_t s) {
  const size_t first = d->first_member[s];
  Result<EnsembleMemberBlocks> sample =
      ensemble.RunMemberOnSample(d->csr, d->draws[first]);
  if (!sample.ok()) {
    d->status[first] = sample.status();
    return;
  }
  for (DetectedBlock& block : sample->blocks) {
    for (UserId& u : block.users) u = d->users[u];
    for (MerchantId& v : block.merchants) v = d->merchants[v];
    block.edges.clear();
    block.edges.shrink_to_fit();
  }
  d->samples[s] = *std::move(sample);
}

// One member's share of the report in global ids: the distinct nodes of
// its globally kept blocks, ascending, each with the max φ over the kept
// blocks containing it.
struct MemberVotes {
  std::vector<UserId> users;
  std::vector<double> user_weights;
  std::vector<MerchantId> merchants;
  std::vector<double> merchant_weights;
  EnsemFDetReport::MemberStats stats;
};

}  // namespace

StreamingDetector::StreamingDetector(StreamingDetectorConfig config)
    : config_(std::move(config)),
      component_ensemble_(ComponentEnsembleConfig(config_.ensemble)) {}

Result<StreamingDetector> StreamingDetector::Create(
    StreamingDetectorConfig config) {
  if (config.ensemble.num_samples < 1) {
    return Status::InvalidArgument("ensemble num_samples must be >= 1");
  }
  if (!(config.ensemble.ratio > 0.0) || config.ensemble.ratio > 1.0) {
    return Status::InvalidArgument("ensemble ratio must be in (0, 1]");
  }
  if (config.min_component_edges < 1) {
    return Status::InvalidArgument("min_component_edges must be >= 1");
  }
  if (config.component_cache_capacity < 1) {
    return Status::InvalidArgument(
        "component_cache_capacity must be >= 1");
  }
  return StreamingDetector(std::move(config));
}

void StreamingDetector::ResetCache() {
  lru_.clear();
  cache_index_.clear();
}

std::shared_ptr<const StreamingDetector::ComponentEntry>
StreamingDetector::LookupCache(uint64_t fingerprint) {
  auto it = cache_index_.find(fingerprint);
  if (it == cache_index_.end()) {
    ++cache_stats_.misses;
    Metrics().cache_misses_total->Increment();
    return nullptr;
  }
  ++cache_stats_.hits;
  Metrics().cache_hits_total->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh
  return it->second->entry;
}

void StreamingDetector::InsertCache(
    uint64_t fingerprint, std::shared_ptr<const ComponentEntry> entry) {
  auto it = cache_index_.find(fingerprint);
  if (it != cache_index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({fingerprint, std::move(entry)});
  cache_index_[fingerprint] = lru_.begin();
  ++cache_stats_.insertions;
  Metrics().cache_insertions_total->Increment();
  while (lru_.size() > config_.component_cache_capacity) {
    cache_index_.erase(lru_.back().fingerprint);
    lru_.pop_back();
    ++cache_stats_.evictions;
    Metrics().cache_evictions_total->Increment();
  }
}

int64_t StreamingDetector::LabelComponents(const GraphVersion& version,
                                           uint64_t* fingerprint) {
  const int64_t num_users = version.num_users();
  const int64_t num_nodes = num_users + version.num_merchants();
  ENSEMFDET_CHECK(num_nodes <= std::numeric_limits<uint32_t>::max())
      << "packed node ids must fit 32 bits";
  *fingerprint = version.CollectLiveEdges(&edges_);

  if (node_stamp_.size() < static_cast<size_t>(num_nodes)) {
    parent_.resize(static_cast<size_t>(num_nodes));
    node_stamp_.resize(static_cast<size_t>(num_nodes), 0u);
  }
  if (label_.size() < static_cast<size_t>(num_users)) {
    label_.resize(static_cast<size_t>(num_users));
  }
  if (++stamp_ == 0) {
    std::fill(node_stamp_.begin(), node_stamp_.end(), 0u);
    stamp_ = 1;
  }
  const auto user_base = static_cast<uint32_t>(num_users);
  auto touch = [this, user_base](uint32_t x) {
    if (node_stamp_[x] == stamp_) return;
    node_stamp_[x] = stamp_;
    parent_[x] = x;
    if (x < user_base) label_[x] = -1;
  };
  auto find = [this](uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  };

  // Union with min-linking: every root is the smallest packed id of its
  // set, i.e. its component's smallest user (every edge has a user, and
  // users pack below merchants).
  for (const Edge& e : edges_) {
    const uint32_t a = e.user;
    const uint32_t b = user_base + e.merchant;
    touch(a);
    touch(b);
    const uint32_t ra = find(a);
    const uint32_t rb = find(b);
    if (ra < rb) {
      parent_[rb] = ra;
    } else if (rb < ra) {
      parent_[ra] = rb;
    }
  }

  // Component ids in canonical edge order: a component's first edge is
  // one of its root's, so ids ascend with the smallest user — the
  // smallest-packed-node order the global merge's tie-break relies on.
  edge_comp_.resize(edges_.size());
  comp_offsets_.assign(1, 0);
  for (size_t k = 0; k < edges_.size(); ++k) {
    const uint32_t root = find(edges_[k].user);
    if (label_[root] < 0) {
      label_[root] = static_cast<int32_t>(comp_offsets_.size() - 1);
      comp_offsets_.push_back(0);
    }
    edge_comp_[k] = label_[root];
    ++comp_offsets_[static_cast<size_t>(label_[root]) + 1];
  }
  const size_t num_components = comp_offsets_.size() - 1;

  // Counting sort into one flat array; stable, so canonical order holds
  // within each component.
  std::partial_sum(comp_offsets_.begin(), comp_offsets_.end(),
                   comp_offsets_.begin());
  std::vector<int64_t> cursor(comp_offsets_.begin(),
                              comp_offsets_.end() - 1);
  comp_edges_.resize(edges_.size());
  for (size_t k = 0; k < edges_.size(); ++k) {
    comp_edges_[static_cast<size_t>(
        cursor[static_cast<size_t>(edge_comp_[k])]++)] = edges_[k];
  }

  // Touched components (diagnostics): contain a dirty-frontier node. A
  // node with no live edge this call carries an old stamp.
  std::vector<char> touched(num_components, 0);
  int64_t num_touched = 0;
  auto mark = [&](uint32_t x) {
    if (node_stamp_[x] != stamp_) return;
    const int32_t c = label_[find(x)];
    if (touched[static_cast<size_t>(c)] == 0) {
      touched[static_cast<size_t>(c)] = 1;
      ++num_touched;
    }
  };
  for (UserId u : version.touched_users()) mark(u);
  for (MerchantId v : version.touched_merchants()) mark(user_base + v);
  return num_touched;
}

Result<StreamingReport> StreamingDetector::Detect(const GraphVersion& version,
                                                  ThreadPool* pool) {
  // Fresh trace per streamed report: each boundary detection gets its
  // own root (stream_detect), even when fired from inside a windowed
  // replay job — per-report latency attribution needs per-report trees.
  obs::ScopedTraceContext trace_root(obs::NewRootContext());
  StreamMetrics& metrics = Metrics();
  obs::TraceSpan detect_span(metrics.detect_seconds, "stream_detect");
  WallTimer total_timer;
  const int64_t num_users = version.num_users();
  const int64_t num_merchants = version.num_merchants();
  const int n = config_.ensemble.num_samples;

  StreamingReport out;
  out.epoch = version.epoch();

  // --- 1. Connected components of the merged base+delta view, ids in
  // smallest-user order (a pure function of content), edges partitioned
  // by component in canonical order. The same walk over the live edges
  // yields the version's content fingerprint.
  {
    obs::TraceSpan span(metrics.label_seconds, "stream_label");
    out.stats.components_touched =
        LabelComponents(version, &out.fingerprint);
  }
  const auto num_components =
      static_cast<int32_t>(comp_offsets_.size() - 1);
  out.stats.components_total = num_components;

  // --- 2. Look up every eligible component before inserting anything,
  // so this detection's inserts can never evict an entry it replays.
  std::vector<std::shared_ptr<const ComponentEntry>> entries(
      static_cast<size_t>(num_components));
  std::vector<DirtyComponent> dirty;
  {
    obs::TraceSpan span(metrics.resolve_seconds, "stream_resolve");
    for (int32_t c = 0; c < num_components; ++c) {
      const std::span<const Edge> edges(
          comp_edges_.data() + comp_offsets_[static_cast<size_t>(c)],
          static_cast<size_t>(comp_offsets_[static_cast<size_t>(c) + 1] -
                              comp_offsets_[static_cast<size_t>(c)]));
      out.stats.edges_total += static_cast<int64_t>(edges.size());
      if (static_cast<int64_t>(edges.size()) < config_.min_component_edges) {
        continue;  // too small to host a fraud group; votes nothing
      }
      ++out.stats.components_eligible;
      const uint64_t fp = ComponentFingerprint(edges);
      std::shared_ptr<const ComponentEntry> entry = LookupCache(fp);
      if (entry != nullptr) {
        ENSEMFDET_CHECK(static_cast<int>(entry->members.size()) == n);
        ++out.stats.components_reused;
        entries[static_cast<size_t>(c)] = std::move(entry);
        continue;
      }
      DirtyComponent& d = dirty.emplace_back();
      d.component = c;
      d.fingerprint = fp;
      d.edges = edges;
    }
  }

  // --- 3. Recompute the dirty components: local graphs in parallel;
  // every (component, member) draw in one work-stealing pass; each
  // component's members grouped by equal mask; FDET once per distinct
  // (component, sample) in a second pass; then the inserts in component
  // order. The draw and FDET passes go largest component first.
  {
    obs::TraceSpan span(metrics.members_seconds, "stream_members");
    const auto num_dirty = static_cast<int64_t>(dirty.size());
    {
      obs::TraceSpan prepare_span(metrics.prepare_seconds, "stream_prepare");
      if (merchant_local_.size() < static_cast<size_t>(num_merchants)) {
        merchant_local_.resize(static_cast<size_t>(num_merchants), kNoLocal);
      }
      ForEachOnPool(pool, num_dirty, [&](int64_t k) {
        PrepareComponent(config_.ensemble.seed, n, merchant_local_.data(),
                         &dirty[static_cast<size_t>(k)]);
      });
    }
    std::vector<size_t> order(dirty.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return dirty[a].edges.size() > dirty[b].edges.size();
    });
    ForEachOnPool(pool, num_dirty * n, [&](int64_t pair) {
      DirtyComponent& d = dirty[order[static_cast<size_t>(pair / n)]];
      const auto i = static_cast<int>(pair % n);
      Result<MemberSample> draw =
          component_ensemble_.DrawMember(d.csr, d.seed, i);
      if (draw.ok()) {
        d.draws[static_cast<size_t>(i)] = *std::move(draw);
      } else {
        d.status[static_cast<size_t>(i)] = draw.status();
      }
    });

    ForEachOnPool(pool, num_dirty, [&](int64_t k) {
      GroupSamples(&dirty[static_cast<size_t>(k)]);
    });
    std::vector<std::pair<size_t, size_t>> peels;  // (dirty index, sample)
    for (size_t k : order) {
      const size_t distinct = dirty[k].first_member.size();
      out.stats.members_shared += n - static_cast<int64_t>(distinct);
      for (size_t s = 0; s < distinct; ++s) peels.emplace_back(k, s);
    }
    ForEachOnPool(pool, static_cast<int64_t>(peels.size()),
                  [&](int64_t p) {
                    const auto [k, s] = peels[static_cast<size_t>(p)];
                    PeelSample(component_ensemble_, &dirty[k], s);
                  });
    for (const DirtyComponent& d : dirty) {
      for (const Status& status : d.status) ENSEMFDET_RETURN_NOT_OK(status);
    }

    for (DirtyComponent& d : dirty) {
      auto entry = std::make_shared<ComponentEntry>();
      entry->members.resize(static_cast<size_t>(n));
      for (size_t i = 0; i < entry->members.size(); ++i) {
        // A member's cost is its own draw, plus the FDET run if it was
        // the first to draw its sample.
        ComponentEntry::Member& member = entry->members[i];
        const size_t s = d.sample_of[i];
        member.sample = s;
        member.seconds = d.draws[i].seconds;
        member.arena_grow_events = d.draws[i].arena_grow_events;
        if (d.first_member[s] == i) {
          member.seconds += d.samples[s].stats.seconds;
          member.arena_grow_events += d.samples[s].stats.arena_grow_events;
        }
      }
      entry->samples = std::move(d.samples);
      entry->num_edges = static_cast<int64_t>(d.edges.size());
      InsertCache(d.fingerprint, entry);
      ++out.stats.components_recomputed;
      out.stats.edges_recomputed += entry->num_edges;
      entries[static_cast<size_t>(d.component)] = std::move(entry);
    }
  }

  // --- 4. Aggregate per member index, in parallel: merge every
  // component's member-i blocks (descending φ, ties stable by component
  // order — the entries vector is in component order), truncate once
  // globally, collect the kept blocks' nodes with their max φ. Votes are
  // then added in strict member order, which keeps the report
  // bit-identical at any pool width, mirroring EnsemFDet::Run.
  {
    obs::TraceSpan span(metrics.aggregate_seconds, "stream_aggregate");
    std::vector<MemberVotes> member_votes(static_cast<size_t>(n));
    ForEachOnPool(pool, n, [&](int64_t i) {
      MemberVotes& votes = member_votes[static_cast<size_t>(i)];
      EnsemFDetReport::MemberStats& agg = votes.stats;
      std::vector<const DetectedBlock*> merged;
      for (const auto& entry : entries) {
        if (entry == nullptr) continue;
        const ComponentEntry::Member& member =
            entry->members[static_cast<size_t>(i)];
        const EnsembleMemberBlocks& sample = entry->samples[member.sample];
        agg.sample_users += sample.stats.sample_users;
        agg.sample_merchants += sample.stats.sample_merchants;
        agg.sample_edges += sample.stats.sample_edges;
        agg.seconds += member.seconds;
        agg.arena_grow_events += member.arena_grow_events;
        for (const DetectedBlock& block : sample.blocks) {
          merged.push_back(&block);
        }
      }
      std::stable_sort(merged.begin(), merged.end(),
                       [](const DetectedBlock* a, const DetectedBlock* b) {
                         return a->score > b->score;
                       });
      int keep;
      if (config_.ensemble.fdet.policy == TruncationPolicy::kFixedK) {
        keep = std::min<int>(config_.ensemble.fdet.fixed_k,
                             static_cast<int>(merged.size()));
      } else {
        std::vector<double> scores;
        scores.reserve(merged.size());
        for (const DetectedBlock* block : merged) {
          scores.push_back(block->score);
        }
        keep = AutoTruncationIndex(scores);
      }
      agg.num_blocks = keep;

      std::vector<std::pair<UserId, double>> user_pairs;
      std::vector<std::pair<MerchantId, double>> merchant_pairs;
      for (int k = 0; k < keep; ++k) {
        const DetectedBlock& block = *merged[static_cast<size_t>(k)];
        for (UserId u : block.users) user_pairs.push_back({u, block.score});
        for (MerchantId v : block.merchants) {
          merchant_pairs.push_back({v, block.score});
        }
      }
      ReduceMaxWeights(&user_pairs, &votes.users, &votes.user_weights);
      ReduceMaxWeights(&merchant_pairs, &votes.merchants,
                       &votes.merchant_weights);
    });

    EnsemFDetReport& report = out.report;
    report.num_samples = n;
    report.votes = VoteTable(num_users, num_merchants);
    report.weighted_user_votes.assign(static_cast<size_t>(num_users), 0.0);
    report.weighted_merchant_votes.assign(static_cast<size_t>(num_merchants),
                                          0.0);
    report.members.reserve(static_cast<size_t>(n));
    for (const MemberVotes& votes : member_votes) {
      report.votes.AddVotes(votes.users, votes.merchants);
      for (size_t k = 0; k < votes.users.size(); ++k) {
        report.weighted_user_votes[votes.users[k]] += votes.user_weights[k];
      }
      for (size_t k = 0; k < votes.merchants.size(); ++k) {
        report.weighted_merchant_votes[votes.merchants[k]] +=
            votes.merchant_weights[k];
      }
      report.members.push_back(votes.stats);
    }
  }
  out.report.total_seconds = total_timer.ElapsedSeconds();

  // Mirror the report's stats into the registry in one shot so a scrape
  // delta across this call reproduces them exactly (the narration
  // contract above).
  metrics.reports_total->Increment();
  metrics.components_total->Increment(out.stats.components_total);
  metrics.components_eligible_total->Increment(out.stats.components_eligible);
  metrics.components_reused_total->Increment(out.stats.components_reused);
  metrics.components_recomputed_total->Increment(
      out.stats.components_recomputed);
  metrics.components_touched_total->Increment(out.stats.components_touched);
  metrics.edges_total->Increment(out.stats.edges_total);
  metrics.edges_recomputed_total->Increment(out.stats.edges_recomputed);
  metrics.members_shared_total->Increment(out.stats.members_shared);
  return out;
}

}  // namespace ensemfdet

// Pins the zero-materialization ensemble hot path (EnsemFDet::Run over
// the shared CsrGraph: SampleEdgeMask → RunFdetCsrMasked → dense
// epoch-stamped weights) bit-exactly against the seed materializing path
// (RunEnsembleReference, tests/referee/ensemble_reference.h: SubgraphView
// children + id remaps + its own member-order vote loop), across
// all four sampling methods, several seeds and ratios, and pool widths
// 1 / 2 / 4, plus the per-member entry point (EnsemFDet::RunMember) the
// streaming detector runs. "Bit-exact" means: identical VoteTable
// contents, identical weighted votes (== on doubles, no tolerance), and
// identical per-member sample shapes and block counts.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ensemble/ensemfdet.h"
#include "ensemble/vote_table.h"
#include "graph/csr_graph.h"
#include "graph/graph_builder.h"
#include "referee/ensemble_reference.h"
#include "sampling/sampler.h"

namespace ensemfdet {
namespace {

// A dense 12×5 planted block in a 150·scale × 60·scale sparse background
// (300·scale noise edges), plus a second shallower 6×4 block so FDET
// finds several blocks per member.
BipartiteGraph TestGraph(uint64_t noise_seed, bool weighted, int scale = 1) {
  const uint64_t users = 150 * static_cast<uint64_t>(scale);
  const uint64_t merchants = 60 * static_cast<uint64_t>(scale);
  GraphBuilder b(static_cast<int64_t>(users), static_cast<int64_t>(merchants));
  for (UserId u = 0; u < 12; ++u) {
    for (MerchantId v = 0; v < 5; ++v) b.AddEdge(u, v);
  }
  for (UserId u = 20; u < 26; ++u) {
    for (MerchantId v = 10; v < 14; ++v) b.AddEdge(u, v);
  }
  Rng rng(noise_seed);
  for (int i = 0; i < 300 * scale; ++i) {
    const double w = weighted ? 0.5 + rng.NextDouble() : 1.0;
    b.AddEdge(static_cast<UserId>(rng.NextBounded(users)),
              static_cast<MerchantId>(rng.NextBounded(merchants)), w);
  }
  return b.Build().ValueOrDie();
}

void ExpectIdenticalReports(const EnsemFDetReport& hot,
                            const EnsemFDetReport& ref,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(hot.num_samples, ref.num_samples);
  ASSERT_EQ(hot.votes.num_users(), ref.votes.num_users());
  ASSERT_EQ(hot.votes.num_merchants(), ref.votes.num_merchants());
  for (int64_t u = 0; u < hot.votes.num_users(); ++u) {
    ASSERT_EQ(hot.votes.user_votes(static_cast<UserId>(u)),
              ref.votes.user_votes(static_cast<UserId>(u)))
        << "user " << u;
  }
  for (int64_t v = 0; v < hot.votes.num_merchants(); ++v) {
    ASSERT_EQ(hot.votes.merchant_votes(static_cast<MerchantId>(v)),
              ref.votes.merchant_votes(static_cast<MerchantId>(v)))
        << "merchant " << v;
  }
  // Weighted votes must match bit for bit: both paths add the same
  // per-member max-φ value into the same slot, in the same member order.
  ASSERT_EQ(hot.weighted_user_votes.size(), ref.weighted_user_votes.size());
  for (size_t u = 0; u < hot.weighted_user_votes.size(); ++u) {
    ASSERT_EQ(hot.weighted_user_votes[u], ref.weighted_user_votes[u])
        << "weighted user " << u;
  }
  ASSERT_EQ(hot.weighted_merchant_votes.size(),
            ref.weighted_merchant_votes.size());
  for (size_t v = 0; v < hot.weighted_merchant_votes.size(); ++v) {
    ASSERT_EQ(hot.weighted_merchant_votes[v], ref.weighted_merchant_votes[v])
        << "weighted merchant " << v;
  }
  // Per-member diagnostics: the edge-mask samplers must report the exact
  // node/edge counts of the materialized child, and masked FDET the same
  // block count.
  ASSERT_EQ(hot.members.size(), ref.members.size());
  for (size_t i = 0; i < hot.members.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    ASSERT_EQ(hot.members[i].sample_users, ref.members[i].sample_users);
    ASSERT_EQ(hot.members[i].sample_merchants,
              ref.members[i].sample_merchants);
    ASSERT_EQ(hot.members[i].sample_edges, ref.members[i].sample_edges);
    ASSERT_EQ(hot.members[i].num_blocks, ref.members[i].num_blocks);
  }
}

constexpr SampleMethod kAllMethods[] = {
    SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
    SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide};

TEST(EnsembleParityTest, AllMethodsSeedsRatiosAndPoolWidths) {
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool* pools[] = {nullptr, &pool2, &pool4};

  const BipartiteGraph small = TestGraph(/*noise_seed=*/41, false);
  // ~5k nodes: members sampled at 0.4 peel thousands of participants, so
  // parity also covers peel queues of that size.
  const BipartiteGraph large = TestGraph(/*noise_seed=*/41, false,
                                         /*scale=*/25);
  const std::pair<const BipartiteGraph*, double> cases[] = {
      {&small, 0.15}, {&small, 0.4}, {&large, 0.4}};
  for (SampleMethod method : kAllMethods) {
    for (uint64_t seed : {7u, 77u, 1234u}) {
      for (const auto& [graph_ptr, ratio] : cases) {
        const BipartiteGraph& graph = *graph_ptr;
        EnsemFDetConfig cfg;
        cfg.method = method;
        cfg.num_samples = 6;
        cfg.ratio = ratio;
        cfg.seed = seed;
        cfg.fdet.max_blocks = 6;

        EnsemFDet detector(cfg);
        const EnsemFDetReport ref =
            RunEnsembleReference(cfg, graph).ValueOrDie();
        for (ThreadPool* pool : pools) {
          const EnsemFDetReport hot = detector.Run(graph, pool).ValueOrDie();
          ExpectIdenticalReports(
              hot, ref,
              std::string(SampleMethodName(method)) + " seed=" +
                  std::to_string(seed) + " ratio=" + std::to_string(ratio) +
                  " users=" + std::to_string(graph.num_users()) +
                  " threads=" +
                  std::to_string(pool == nullptr ? 1 : pool->num_threads()));
        }
      }
    }
  }
}

// The per-member entry point the streaming detector schedules: member i
// run alone must be member i of the ensemble. Flattening each member's
// blocks into votes (max φ per node) and adding them in member order must
// reproduce the reference report bit for bit.
TEST(EnsembleParityTest, RunMemberMatchesReference) {
  const BipartiteGraph graph = TestGraph(/*noise_seed=*/47, false);
  const CsrGraph csr = CsrGraph::FromBipartite(graph);
  for (SampleMethod method : kAllMethods) {
    EnsemFDetConfig cfg;
    cfg.method = method;
    cfg.num_samples = 6;
    cfg.ratio = 0.3;
    cfg.seed = 19;
    cfg.fdet.max_blocks = 6;
    EnsemFDet detector(cfg);
    const EnsemFDetReport ref = RunEnsembleReference(cfg, graph).ValueOrDie();

    EnsemFDetReport flat = EmptyEnsembleReport(
        cfg.num_samples, graph.num_users(), graph.num_merchants());
    for (int i = 0; i < cfg.num_samples; ++i) {
      const EnsembleMemberBlocks member =
          detector.RunMember(csr, i).ValueOrDie();
      AddMemberVotes(member.blocks, member.stats, &flat);
    }
    ExpectIdenticalReports(flat, ref,
                           std::string("RunMember ") +
                               SampleMethodName(method));
  }
  EXPECT_FALSE(EnsemFDet(EnsemFDetConfig{}).RunMember(csr, -1).ok());
  EXPECT_FALSE(EnsemFDet(EnsemFDetConfig{}).RunMember(csr, 80).ok());
}

TEST(EnsembleParityTest, CsrOverloadMatchesAdjacencyOverload) {
  const BipartiteGraph graph = TestGraph(43, false);
  const CsrGraph csr = CsrGraph::FromBipartite(graph);
  EnsemFDetConfig cfg;
  cfg.num_samples = 8;
  cfg.ratio = 0.25;
  cfg.seed = 9;
  EnsemFDet detector(cfg);
  const EnsemFDetReport a = detector.Run(graph).ValueOrDie();
  const EnsemFDetReport b = detector.Run(csr).ValueOrDie();
  ExpectIdenticalReports(a, b, "csr-vs-adjacency overload");
}

TEST(EnsembleParityTest, ReweightedEdgeSamplingOnWeightedGraph) {
  // Theorem 1's 1/p scaling exercises the weight_scale plumbing: the hot
  // path scales on the fly, the reference stores pre-scaled child weights
  // — results must still be identical, including on a weighted parent.
  const BipartiteGraph graph = TestGraph(101, /*weighted=*/true);
  ThreadPool pool4(4);
  for (double ratio : {0.2, 0.5}) {
    EnsemFDetConfig cfg;
    cfg.method = SampleMethod::kRandomEdge;
    cfg.reweight_edges = true;
    cfg.num_samples = 6;
    cfg.ratio = ratio;
    cfg.seed = 21;
    EnsemFDet detector(cfg);
    const EnsemFDetReport ref = RunEnsembleReference(cfg, graph).ValueOrDie();
    const EnsemFDetReport hot = detector.Run(graph, &pool4).ValueOrDie();
    ExpectIdenticalReports(hot, ref,
                           "reweighted ratio=" + std::to_string(ratio));
  }
}

TEST(EnsembleParityTest, ArenaIsWarmAfterFirstMembers) {
  // Sequential run: every member after the first few runs entirely out of
  // the calling thread's warm arena — zero growth events.
  const BipartiteGraph graph = TestGraph(55, false);
  EnsemFDetConfig cfg;
  cfg.num_samples = 10;
  cfg.ratio = 0.3;
  cfg.seed = 3;
  EnsemFDet detector(cfg);
  (void)detector.Run(graph).ValueOrDie();  // warm-up
  const EnsemFDetReport report = detector.Run(graph).ValueOrDie();
  int64_t total_grow = 0;
  for (const auto& m : report.members) total_grow += m.arena_grow_events;
  EXPECT_EQ(total_grow, 0) << "warm arena should not allocate";
}

TEST(EnsembleParityTest, DegenerateGraphs) {
  ThreadPool pool2(2);
  // Edgeless graph with nodes, and a tiny single-edge graph: both faces
  // of every sampler must agree on the boundary behavior.
  GraphBuilder edgeless(5, 3);
  GraphBuilder single(2, 2);
  single.AddEdge(1, 0);
  const BipartiteGraph graphs[] = {edgeless.Build().ValueOrDie(),
                                   single.Build().ValueOrDie()};
  for (const BipartiteGraph& graph : graphs) {
    for (SampleMethod method : kAllMethods) {
      EnsemFDetConfig cfg;
      cfg.method = method;
      cfg.num_samples = 3;
      cfg.ratio = 0.5;
      cfg.seed = 11;
      EnsemFDet detector(cfg);
      const EnsemFDetReport ref = RunEnsembleReference(cfg, graph).ValueOrDie();
      const EnsemFDetReport hot = detector.Run(graph, &pool2).ValueOrDie();
      ExpectIdenticalReports(hot, ref,
                             std::string("degenerate ") +
                                 SampleMethodName(method) + " edges=" +
                                 std::to_string(graph.num_edges()));
    }
  }
}

}  // namespace
}  // namespace ensemfdet

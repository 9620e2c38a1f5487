// Bit-exact parity of the CSR hot path against the seed adjacency-list
// implementations (the test referees in tests/referee/): on random graphs
// — weighted and unweighted, dense and sparse, with isolated nodes — the
// CSR peeler and in-place CSR FDET must reproduce the seed's scores,
// suspicious sets, traces, and removal orders exactly (== on doubles, not
// near). The peeler's arena must be sized by the residual it peels, not
// by the parent graph.
#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/presets.h"
#include "detect/csr_peeler.h"
#include "detect/fdet.h"
#include "graph/csr_graph.h"
#include "graph/graph_builder.h"
#include "referee/fdet_reference.h"
#include "referee/greedy_peeler.h"
#include "sampling/sampler.h"

namespace ensemfdet {
namespace {

// Random bipartite graph with a planted dense block (so FDET finds real
// structure, not just noise), background noise, and a tail of isolated
// nodes (the compaction edge case).
BipartiteGraph RandomPeelGraph(int64_t users, int64_t merchants,
                               int64_t noise_edges, uint64_t seed,
                               bool weighted) {
  GraphBuilder b(users, merchants);
  Rng rng(seed);
  const int64_t block_users = std::max<int64_t>(3, users / 8);
  const int64_t block_merchants = std::max<int64_t>(2, merchants / 8);
  for (UserId u = 0; u < block_users; ++u) {
    for (MerchantId v = 0; v < block_merchants; ++v) {
      b.AddEdge(u, v, weighted ? 1.0 + rng.NextDouble() : 1.0);
    }
  }
  // Noise over the front 3/4 of each side; the back quarter stays isolated.
  for (int64_t i = 0; i < noise_edges; ++i) {
    const UserId u = static_cast<UserId>(
        rng.NextBounded(static_cast<uint64_t>(std::max<int64_t>(
            1, users * 3 / 4))));
    const MerchantId v = static_cast<MerchantId>(
        rng.NextBounded(static_cast<uint64_t>(std::max<int64_t>(
            1, merchants * 3 / 4))));
    b.AddEdge(u, v, weighted ? 0.5 + rng.NextDouble() : 1.0);
  }
  return b.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
}

void ExpectPeelResultsIdentical(const PeelResult& seed,
                                const PeelResult& csr) {
  EXPECT_EQ(seed.users, csr.users);
  EXPECT_EQ(seed.merchants, csr.merchants);
  EXPECT_EQ(seed.score, csr.score);  // bit-exact, not near
  EXPECT_EQ(seed.trace, csr.trace);
  EXPECT_EQ(seed.removal_order, csr.removal_order);
}

void ExpectFdetResultsIdentical(const FdetResult& seed,
                                const FdetResult& csr) {
  EXPECT_EQ(seed.all_scores, csr.all_scores);
  EXPECT_EQ(seed.truncation_index, csr.truncation_index);
  ASSERT_EQ(seed.blocks.size(), csr.blocks.size());
  for (size_t i = 0; i < seed.blocks.size(); ++i) {
    EXPECT_EQ(seed.blocks[i].users, csr.blocks[i].users) << "block " << i;
    EXPECT_EQ(seed.blocks[i].merchants, csr.blocks[i].merchants)
        << "block " << i;
    EXPECT_EQ(seed.blocks[i].score, csr.blocks[i].score) << "block " << i;
    EXPECT_EQ(seed.blocks[i].edges, csr.blocks[i].edges) << "block " << i;
  }
}

class CsrParityTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

// One view-path peel over every edge against the seed peel of the
// compacted incident subgraph: pins the survivor's trace and removal
// order, which the FDET parity cases below do not check.
TEST_P(CsrParityTest, PeelerBitExact) {
  const auto [seed, weighted] = GetParam();
  BipartiteGraph g = RandomPeelGraph(80, 50, 300, seed, weighted);
  CsrGraph csr = CsrGraph::FromBipartite(g);
  for (ColumnWeightKind kind :
       {ColumnWeightKind::kLogarithmic, ColumnWeightKind::kInverse,
        ColumnWeightKind::kConstant}) {
    DensityConfig density;
    density.weight_kind = kind;
    ExpectPeelResultsIdentical(
        PeelIncidentSubgraph(g, density, /*keep_trace=*/true),
        PeelDensestBlockCsr(csr, density, /*keep_trace=*/true));
  }
}

TEST_P(CsrParityTest, FdetBitExactAutoElbow) {
  const auto [seed, weighted] = GetParam();
  // The second graph's peels have thousands of participants, so parity
  // also covers peel queues the size of sampled production members.
  for (BipartiteGraph g : {RandomPeelGraph(80, 50, 350, seed, weighted),
                           RandomPeelGraph(3000, 1500, 12000, seed,
                                           weighted)}) {
    FdetConfig cfg;
    cfg.max_blocks = 12;
    auto reference = RunFdetReference(g, cfg).ValueOrDie();
    auto csr = RunFdet(g, cfg).ValueOrDie();
    ExpectFdetResultsIdentical(reference, csr);
  }
}

TEST_P(CsrParityTest, FdetBitExactFixedK) {
  const auto [seed, weighted] = GetParam();
  BipartiteGraph g = RandomPeelGraph(70, 45, 300, seed, weighted);
  FdetConfig cfg;
  cfg.policy = TruncationPolicy::kFixedK;
  cfg.fixed_k = 6;
  cfg.max_blocks = 6;
  auto reference = RunFdetReference(g, cfg).ValueOrDie();
  auto csr = RunFdet(g, cfg).ValueOrDie();
  ExpectFdetResultsIdentical(reference, csr);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CsrParityTest,
    ::testing::Combine(::testing::Values(1u, 7u, 23u, 101u),
                       ::testing::Bool()));

TEST(CsrParityDegenerateTest, EmptyGraph) {
  BipartiteGraph g;
  ExpectPeelResultsIdentical(
      PeelIncidentSubgraph(g, {}, true),
      PeelDensestBlockCsr(CsrGraph::FromBipartite(g), {}, true));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

TEST(CsrParityDegenerateTest, EdgelessNodes) {
  GraphBuilder b(6, 4);
  BipartiteGraph g = b.Build().ValueOrDie();
  ExpectPeelResultsIdentical(
      PeelIncidentSubgraph(g, {}, true),
      PeelDensestBlockCsr(CsrGraph::FromBipartite(g), {}, true));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

TEST(CsrParityDegenerateTest, SingleEdge) {
  GraphBuilder b(3, 3);
  b.AddEdge(2, 1);
  BipartiteGraph g = b.Build().ValueOrDie();
  ExpectPeelResultsIdentical(
      PeelIncidentSubgraph(g, {}, true),
      PeelDensestBlockCsr(CsrGraph::FromBipartite(g), {}, true));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

TEST(CsrParityDegenerateTest, StarGraph) {
  // One merchant connected to every user — a worst case for tie-breaking.
  GraphBuilder b(12, 1);
  for (UserId u = 0; u < 12; ++u) b.AddEdge(u, 0);
  BipartiteGraph g = b.Build().ValueOrDie();
  ExpectPeelResultsIdentical(
      PeelIncidentSubgraph(g, {}, true),
      PeelDensestBlockCsr(CsrGraph::FromBipartite(g), {}, true));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

// The mass-exhausted exit stops a peel before it pops every node. In a
// three-leaf star the leaves' pops drain the mass, so the centre is never
// popped, yet the densest state is the whole star: the unpopped centre
// must be reported inside the block.
TEST(CsrParityDegenerateTest, UnpoppedNodeStaysInBlock) {
  GraphBuilder b(3, 1);
  for (UserId u = 0; u < 3; ++u) b.AddEdge(u, 0);
  BipartiteGraph g = b.Build().ValueOrDie();
  const PeelResult peel =
      PeelDensestBlockCsr(CsrGraph::FromBipartite(g), {});
  EXPECT_EQ(peel.users, (std::vector<UserId>{0, 1, 2}));
  EXPECT_EQ(peel.merchants, (std::vector<MerchantId>{0}));
  const FdetResult fdet = RunFdet(g, {}).ValueOrDie();
  ASSERT_FALSE(fdet.blocks.empty());
  EXPECT_EQ(fdet.blocks[0].merchants, (std::vector<MerchantId>{0}));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(), fdet);
}

TEST(CsrParityTestInvalidConfig, CsrPathValidatesLikeReference) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0);
  BipartiteGraph g = b.Build().ValueOrDie();
  FdetConfig bad;
  bad.max_blocks = 0;
  EXPECT_FALSE(RunFdet(g, bad).ok());
  EXPECT_FALSE(RunFdetReference(g, bad).ok());
  EXPECT_FALSE(RunFdetCsr(CsrGraph::FromBipartite(g), bad).ok());
}

// A sampled member's arena follows the member: every node-indexed array is
// sized by the view's Uₘ + Vₘ, and no buffer by the parent's node or edge
// count (the one parent-sized array is the 32-bit merchant map).
TEST(CsrPeelerArenaTest, ArenaSizedByMember) {
  const Dataset dataset =
      GenerateJdPreset(JdPreset::kDataset1, 0.05, 7).ValueOrDie();
  const CsrGraph graph = CsrGraph::FromBipartite(dataset.graph);
  const auto sampler =
      MakeSampler(SampleMethod::kRandomEdge, 0.05).ValueOrDie();
  Rng rng(11);
  EdgeMaskScratch sample_scratch;
  std::vector<EdgeId> mask;
  const EdgeMaskInfo info =
      sampler->SampleEdgeMask(graph, &rng, &sample_scratch, &mask);
  ASSERT_GE(graph.num_edges(), 10 * static_cast<int64_t>(mask.size()));

  PeelScratch s;
  ASSERT_TRUE(RunFdetCsrMasked(graph, mask, info.weight_scale, FdetConfig{},
                               &s)
                  .ok());
  const size_t users = s.member_users.size();
  const size_t merchants = s.member_merchants.size();
  const size_t nodes = users + merchants;
  ASSERT_GT(users, 0u);
  ASSERT_GT(merchants, 0u);
  EXPECT_LE(s.user_degree.size(), users);
  EXPECT_LE(s.merchant_degree.size(), merchants);
  EXPECT_LE(s.col_weight.size(), merchants);
  EXPECT_LE(s.in_block_merchant.size(), merchants);
  EXPECT_LE(s.priority.size(), nodes);
  EXPECT_LE(s.removed.size(), nodes);
  EXPECT_LE(s.heap.capacity(), static_cast<int64_t>(nodes));
  EXPECT_LE(s.incident_users.capacity(), users);
  EXPECT_LE(s.incident_merchants.capacity(), merchants);
  EXPECT_LE(s.removal_order.capacity(), nodes);
  EXPECT_LE(s.member_user_offsets.size(), users + 1);
  EXPECT_LE(s.member_merchant_offsets.size(), merchants + 1);
  EXPECT_EQ(s.parent_merchant_member.size(),
            static_cast<size_t>(graph.num_merchants()));

  // Every other buffer is bounded by the mask.
  for (size_t size :
       {s.view_weight_of.capacity(), s.view_user_dense.capacity(),
        s.view_merchant_slot.capacity(), s.view_user_mass.capacity(),
        s.member_users.capacity(), s.member_merchants.capacity()}) {
    EXPECT_LE(size, mask.size());
  }
}

}  // namespace
}  // namespace ensemfdet

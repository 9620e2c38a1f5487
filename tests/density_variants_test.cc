// Tests for the column-weight family (ColumnWeightKind) and its effect on
// peeling — the camouflage-resistance ablation of the density metric.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "detect/density.h"
#include "detect/fdet.h"
#include "graph/graph_builder.h"
#include "referee/greedy_peeler.h"

namespace ensemfdet {
namespace {

TEST(ColumnWeightKindTest, Names) {
  EXPECT_STREQ(ColumnWeightKindName(ColumnWeightKind::kLogarithmic),
               "logarithmic");
  EXPECT_STREQ(ColumnWeightKindName(ColumnWeightKind::kInverse), "inverse");
  EXPECT_STREQ(ColumnWeightKindName(ColumnWeightKind::kConstant),
               "constant");
}

TEST(ColumnWeightKindTest, Formulas) {
  DensityConfig log_cfg;
  EXPECT_DOUBLE_EQ(MerchantColumnWeight(10.0, log_cfg),
                   1.0 / std::log(15.0));

  DensityConfig inv_cfg;
  inv_cfg.weight_kind = ColumnWeightKind::kInverse;
  EXPECT_DOUBLE_EQ(MerchantColumnWeight(10.0, inv_cfg), 1.0 / 15.0);

  DensityConfig const_cfg;
  const_cfg.weight_kind = ColumnWeightKind::kConstant;
  EXPECT_DOUBLE_EQ(MerchantColumnWeight(10.0, const_cfg), 1.0);
  EXPECT_DOUBLE_EQ(MerchantColumnWeight(10000.0, const_cfg), 1.0);
}

TEST(ColumnWeightKindTest, DiscountOrderingAtHighDegree) {
  // At high degree: inverse < logarithmic < constant.
  DensityConfig log_cfg;
  DensityConfig inv_cfg;
  inv_cfg.weight_kind = ColumnWeightKind::kInverse;
  DensityConfig const_cfg;
  const_cfg.weight_kind = ColumnWeightKind::kConstant;
  const double d = 500.0;
  EXPECT_LT(MerchantColumnWeight(d, inv_cfg),
            MerchantColumnWeight(d, log_cfg));
  EXPECT_LT(MerchantColumnWeight(d, log_cfg),
            MerchantColumnWeight(d, const_cfg));
}

// A small fraud block on obscure merchants vs a larger, raw-denser benign
// cluster on popular merchants (a flash-sale crowd: 68 users all buying
// the same 3 promoted items). Popularity-blind constant weighting ranks
// the benign cluster highest (raw density 204/71 ≈ 2.9 vs the fraud
// block's 18/9 = 2.0); the logarithmic discount inverts that (0.67 vs
// 0.83) because the promoted merchants' degree is huge.
BipartiteGraph CamouflageTrapGraph() {
  GraphBuilder b(80, 30);
  // Fraud block: users 0-5 × merchants 0-2 (obscure).
  for (UserId u = 0; u < 6; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  // Flash-sale crowd: users 12-79 × merchants 27-29, complete.
  for (UserId u = 12; u < 80; ++u) {
    for (MerchantId v = 27; v < 30; ++v) b.AddEdge(u, v);
  }
  return b.Build().ValueOrDie();
}

TEST(ColumnWeightKindTest, LogWeightPrefersObscureBlock) {
  auto g = CamouflageTrapGraph();
  DensityConfig cfg;  // logarithmic
  PeelResult r = PeelDensestBlock(g, cfg);
  std::set<UserId> users(r.users.begin(), r.users.end());
  for (UserId u = 0; u < 6; ++u) {
    EXPECT_TRUE(users.count(u)) << "log weight lost fraud user " << u;
  }
  std::set<MerchantId> merchants(r.merchants.begin(), r.merchants.end());
  EXPECT_FALSE(merchants.count(29))
      << "log weight should not chase the popular merchant";
}

TEST(ColumnWeightKindTest, ConstantWeightChasesPopularity) {
  auto g = CamouflageTrapGraph();
  DensityConfig cfg;
  cfg.weight_kind = ColumnWeightKind::kConstant;
  PeelResult r = PeelDensestBlock(g, cfg);
  std::set<MerchantId> merchants(r.merchants.begin(), r.merchants.end());
  // Average-degree density picks the raw-denser flash-sale crowd instead
  // of the fraud ring.
  EXPECT_TRUE(merchants.count(29))
      << "constant weight should fall for the popular-merchant block";
  EXPECT_FALSE(merchants.count(0));
}

TEST(ColumnWeightKindTest, FdetValidatesOffsetsPerKind) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();

  FdetConfig log_bad;
  log_bad.density.log_offset = 1.0;  // invalid for logarithmic
  EXPECT_FALSE(RunFdet(g, log_bad).ok());

  FdetConfig inv_ok;
  inv_ok.density.weight_kind = ColumnWeightKind::kInverse;
  inv_ok.density.log_offset = 1.0;  // fine for inverse
  EXPECT_TRUE(RunFdet(g, inv_ok).ok());

  FdetConfig inv_bad;
  inv_bad.density.weight_kind = ColumnWeightKind::kInverse;
  inv_bad.density.log_offset = 0.0;
  EXPECT_FALSE(RunFdet(g, inv_bad).ok());

  FdetConfig const_ok;
  const_ok.density.weight_kind = ColumnWeightKind::kConstant;
  const_ok.density.log_offset = 0.0;  // irrelevant for constant
  EXPECT_TRUE(RunFdet(g, const_ok).ok());
}

TEST(ColumnWeightKindTest, FdetRunsUnderEveryKind) {
  auto g = CamouflageTrapGraph();
  for (ColumnWeightKind kind :
       {ColumnWeightKind::kLogarithmic, ColumnWeightKind::kInverse,
        ColumnWeightKind::kConstant}) {
    FdetConfig cfg;
    cfg.density.weight_kind = kind;
    if (kind == ColumnWeightKind::kInverse) cfg.density.log_offset = 1.0;
    auto r = RunFdet(g, cfg);
    ASSERT_TRUE(r.ok()) << ColumnWeightKindName(kind);
    EXPECT_FALSE(r->blocks.empty()) << ColumnWeightKindName(kind);
  }
}

}  // namespace
}  // namespace ensemfdet

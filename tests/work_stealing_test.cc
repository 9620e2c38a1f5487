// ParallelForWorkStealing: the scheduler contract (every index exactly
// once, caller participation, exception propagation, skew rebalancing)
// plus the determinism guarantee the ensemble relies on — identical
// votes at pool widths 1/2/4/8 on a skewed component-size distribution,
// where stealing actually fires.
#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ensemble/ensemfdet.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

TEST(WorkStealingTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t n : {0, 1, 2, 3, 7, 64, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto& h : hits) h.store(0);
    pool.ParallelForWorkStealing(0, n, [&](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(WorkStealingTest, NonZeroBeginCoversTheRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.ParallelForWorkStealing(40, 100, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), i >= 40 ? 1 : 0) << i;
  }
}

TEST(WorkStealingTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelForWorkStealing(5, 5, [&](int64_t) { ran = true; });
  pool.ParallelForWorkStealing(7, 3, [&](int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkStealingTest, DisjointSlotOutputsMatchAcrossWidths) {
  // Writing to disjoint slots must produce identical results regardless of
  // thread count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<int64_t> out(1000);
    pool.ParallelForWorkStealing(0, 1000, [&out](int64_t i) {
      out[static_cast<size_t>(i)] = i * i;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(WorkStealingTest, SkewedItemCostsStillCoverEverything) {
  // One pathological item ~50x the rest: a static split strands the
  // tail behind it; stealing must drain the other items concurrently
  // and still complete every index exactly once.
  ThreadPool pool(4);
  const int64_t n = 64;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  for (auto& h : hits) h.store(0);
  pool.ParallelForWorkStealing(0, n, [&](int64_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(i == 0 ? 5000 : 100));
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(WorkStealingTest, ExceptionFromAnItemPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.ParallelForWorkStealing(0, 32,
                                   [&](int64_t i) {
                                     if (i == 13) {
                                       throw std::runtime_error("boom");
                                     }
                                     completed.fetch_add(1);
                                   }),
      std::runtime_error);
  // Remaining items still ran.
  EXPECT_EQ(completed.load(), 31);
}

TEST(WorkStealingTest, NestedCallFromAWorkerDoesNotDeadlock) {
  // A worker-thread caller participates in its own items, so stealing
  // from inside a pool task must complete even with every worker busy.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelForWorkStealing(0, 4, [&](int64_t) {
    pool.ParallelForWorkStealing(0, 8, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

// A graph whose components differ in size by ~two orders of magnitude:
// one giant dense-ish component plus many tiny ones. Member / component
// work under this shape is exactly what stealing exists for.
BipartiteGraph SkewedGraph() {
  GraphBuilder b(400, 160);
  // Giant component: users [0,80) x merchants [0,30), sparse random.
  std::mt19937_64 rng(77);
  for (int i = 0; i < 900; ++i) {
    b.AddEdge(static_cast<UserId>(rng() % 80),
              static_cast<MerchantId>(rng() % 30),
              0.5 + static_cast<double>(rng() % 1000) / 1000.0);
  }
  // Dense planted block inside the giant component.
  for (UserId u = 0; u < 10; ++u) {
    for (MerchantId v = 0; v < 6; ++v) b.AddEdge(u, v);
  }
  // 60 tiny components of 2-4 edges each, disjoint id ranges.
  for (int c = 0; c < 60; ++c) {
    const UserId u0 = static_cast<UserId>(100 + c * 5);
    const MerchantId v0 = static_cast<MerchantId>(40 + c * 2);
    b.AddEdge(u0, v0);
    b.AddEdge(u0 + 1, v0);
    if (c % 2 == 0) b.AddEdge(u0 + 2, v0 + 1);
    if (c % 3 == 0) b.AddEdge(u0 + 1, v0 + 1);
  }
  return b.Build().ValueOrDie();
}

TEST(WorkStealingTest, VoteIdentityAcrossPoolWidthsOnSkewedComponents) {
  const BipartiteGraph graph = SkewedGraph();
  EnsemFDetConfig cfg;
  cfg.num_samples = 8;
  cfg.ratio = 0.35;
  cfg.seed = 23;
  EnsemFDet detector(cfg);

  const EnsemFDetReport baseline = detector.Run(graph).ValueOrDie();
  for (int width : {1, 2, 4, 8}) {
    ThreadPool pool(width);
    const EnsemFDetReport got = detector.Run(graph, &pool).ValueOrDie();
    SCOPED_TRACE("width=" + std::to_string(width));
    ASSERT_EQ(got.votes.num_users(), baseline.votes.num_users());
    for (int64_t u = 0; u < got.votes.num_users(); ++u) {
      ASSERT_EQ(got.votes.user_votes(static_cast<UserId>(u)),
                baseline.votes.user_votes(static_cast<UserId>(u)))
          << "user " << u;
    }
    for (int64_t v = 0; v < got.votes.num_merchants(); ++v) {
      ASSERT_EQ(got.votes.merchant_votes(static_cast<MerchantId>(v)),
                baseline.votes.merchant_votes(static_cast<MerchantId>(v)))
          << "merchant " << v;
    }
    // Weighted votes == on doubles: scheduling must not touch arithmetic.
    ASSERT_EQ(got.weighted_user_votes, baseline.weighted_user_votes);
    ASSERT_EQ(got.weighted_merchant_votes, baseline.weighted_merchant_votes);
  }
}

}  // namespace
}  // namespace ensemfdet

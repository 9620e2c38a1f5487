// Ablation: the production peeler (PeelDensestBlockCsr, with its
// two-tier peel queue) vs a naive rescan peeler.
//
// DESIGN.md design choice #1 — the paper's O(kˆ·|E|·log(|U|+|V|)) bound
// rests on the "minimal heap" giving O(log n) updates; this bench measures
// the peeler against an O(n) rescan-per-removal baseline to quantify that
// choice, plus the peeler's scaling in |E|.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "detect/csr_peeler.h"
#include "detect/density.h"
#include "graph/csr_graph.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

BipartiteGraph RandomGraph(int64_t users, int64_t merchants,
                           int64_t edges, uint64_t seed) {
  GraphBuilder b(users, merchants);
  Rng rng(seed);
  b.Reserve(edges);
  for (int64_t i = 0; i < edges; ++i) {
    b.AddEdge(static_cast<UserId>(rng.NextBounded(
                  static_cast<uint64_t>(users))),
              static_cast<MerchantId>(rng.NextBounded(
                  static_cast<uint64_t>(merchants))));
  }
  return b.Build().ValueOrDie();
}

// Reference peeler: same greedy, but finds the min-priority node by a full
// scan each round — O(n²) node work instead of O((n + E) log n).
double NaiveRescanPeel(const BipartiteGraph& g, const DensityConfig& cfg) {
  const int64_t num_users = g.num_users();
  const int64_t total = g.num_nodes();
  std::vector<double> col_weight(static_cast<size_t>(g.num_merchants()));
  for (int64_t v = 0; v < g.num_merchants(); ++v) {
    col_weight[static_cast<size_t>(v)] = MerchantColumnWeight(
        static_cast<double>(g.merchant_degree(static_cast<MerchantId>(v))),
        cfg);
  }
  std::vector<double> priority(static_cast<size_t>(total), 0.0);
  double mass = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const double w = g.edge_weight(e) * col_weight[edge.merchant];
    priority[edge.user] += w;
    priority[static_cast<size_t>(num_users) + edge.merchant] += w;
    mass += w;
  }
  std::vector<bool> removed(static_cast<size_t>(total), false);
  double best = 0.0;
  int64_t alive = total;
  for (int64_t round = 0; round < total; ++round) {
    best = std::max(best, alive > 0 ? mass / static_cast<double>(alive) : 0.0);
    // Full scan for the minimum.
    int64_t victim = -1;
    double victim_priority = 0.0;
    for (int64_t i = 0; i < total; ++i) {
      if (removed[static_cast<size_t>(i)]) continue;
      if (victim < 0 || priority[static_cast<size_t>(i)] < victim_priority) {
        victim = i;
        victim_priority = priority[static_cast<size_t>(i)];
      }
    }
    removed[static_cast<size_t>(victim)] = true;
    --alive;
    if (victim < num_users) {
      for (EdgeId e : g.user_edges(static_cast<UserId>(victim))) {
        const MerchantId v = g.edge(e).merchant;
        if (removed[static_cast<size_t>(num_users + v)]) continue;
        const double w = g.edge_weight(e) * col_weight[v];
        mass -= w;
        priority[static_cast<size_t>(num_users) + v] -= w;
      }
    } else {
      const MerchantId v = static_cast<MerchantId>(victim - num_users);
      for (EdgeId e : g.merchant_edges(v)) {
        const UserId u = g.edge(e).user;
        if (removed[u]) continue;
        const double w = g.edge_weight(e) * col_weight[v];
        mass -= w;
        priority[u] -= w;
      }
    }
  }
  return best;
}

void BM_HeapPeeler(benchmark::State& state) {
  const int64_t edges = state.range(0);
  const CsrGraph g =
      CsrGraph::FromBipartite(RandomGraph(edges / 4, edges / 8, edges, 42));
  for (auto _ : state) {
    PeelResult r = PeelDensestBlockCsr(g, {});
    benchmark::DoNotOptimize(r.score);
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_HeapPeeler)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_NaiveRescanPeeler(benchmark::State& state) {
  const int64_t edges = state.range(0);
  auto g = RandomGraph(edges / 4, edges / 8, edges, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveRescanPeel(g, {}));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
// Naive is quadratic: keep sizes modest so the bench finishes.
BENCHMARK(BM_NaiveRescanPeeler)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

// Sanity coupling: the production and naive peelers agree on the best
// score — run once under the bench binary so the ablation is provably
// apples-to-apples. (Isolated nodes, which only the naive peel visits, go
// first there at priority 0 and never hold the best prefix.)
void BM_PeelerAgreement(benchmark::State& state) {
  auto g = RandomGraph(2000, 800, 1 << 13, 7);
  PeelResult heap_result = PeelDensestBlockCsr(CsrGraph::FromBipartite(g), {});
  double naive_best = NaiveRescanPeel(g, {});
  if (std::abs(heap_result.score - naive_best) > 1e-9) {
    state.SkipWithError("heap and naive peelers disagree");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap_result.score);
  }
}
BENCHMARK(BM_PeelerAgreement)->Iterations(1);

}  // namespace
}  // namespace ensemfdet

BENCHMARK_MAIN();

// Ablation: ensemble wall-time vs thread count (DESIGN.md design choice
// #3) — the parallelism that gives ENSEMFDET its Table III advantage. Also
// measures the raw thread-pool dispatch overhead.
#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "datagen/presets.h"
#include "detect/partitioned_fdet.h"
#include "ensemble/ensemfdet.h"

namespace ensemfdet {
namespace {

const Dataset& SharedDataset() {
  static const Dataset* data =
      new Dataset(GenerateJdPreset(JdPreset::kDataset1, 0.01, 7)
                      .ValueOrDie());
  return *data;
}

void BM_EnsembleThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Dataset& data = SharedDataset();
  EnsemFDetConfig cfg;
  cfg.num_samples = 24;
  cfg.ratio = 0.1;
  cfg.seed = 7;
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto report = EnsemFDet(cfg).Run(data.graph, &pool).ValueOrDie();
    benchmark::DoNotOptimize(report.votes.max_user_votes());
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_EnsembleThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_EnsembleSequentialBaseline(benchmark::State& state) {
  const Dataset& data = SharedDataset();
  EnsemFDetConfig cfg;
  cfg.num_samples = 24;
  cfg.ratio = 0.1;
  cfg.seed = 7;
  for (auto _ : state) {
    auto report = EnsemFDet(cfg).Run(data.graph, nullptr).ValueOrDie();
    benchmark::DoNotOptimize(report.votes.max_user_votes());
  }
}
BENCHMARK(BM_EnsembleSequentialBaseline)->Unit(benchmark::kMillisecond);

void BM_PartitionedFdet(benchmark::State& state) {
  const Dataset& data = SharedDataset();
  PartitionedFdetConfig cfg;
  cfg.fdet.policy = TruncationPolicy::kFixedK;
  cfg.fdet.fixed_k = 10;
  cfg.min_component_edges = 3;
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto r = RunPartitionedFdet(data.graph, cfg,
                                threads > 1 ? &pool : nullptr)
                 .ValueOrDie();
    benchmark::DoNotOptimize(r.blocks.size());
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_PartitionedFdet)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_GlobalFdetBaseline(benchmark::State& state) {
  const Dataset& data = SharedDataset();
  FdetConfig cfg;
  cfg.policy = TruncationPolicy::kFixedK;
  cfg.fixed_k = 10;
  for (auto _ : state) {
    auto r = RunFdet(data.graph, cfg).ValueOrDie();
    benchmark::DoNotOptimize(r.blocks.size());
  }
}
BENCHMARK(BM_GlobalFdetBaseline)->Unit(benchmark::kMillisecond);

void BM_ThreadPoolDispatchOverhead(benchmark::State& state) {
  ThreadPool pool(4);
  for (auto _ : state) {
    pool.ParallelForWorkStealing(
        0, 256, [](int64_t i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ThreadPoolDispatchOverhead)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ensemfdet

BENCHMARK_MAIN();

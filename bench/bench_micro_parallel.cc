// Ablation: ensemble wall-time vs thread count (DESIGN.md design choice
// #3) — the parallelism that gives ENSEMFDET its Table III advantage. Also
// measures the raw thread-pool dispatch overhead.
#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "datagen/presets.h"
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

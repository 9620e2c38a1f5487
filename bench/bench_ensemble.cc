// bench_ensemble: the end-to-end ensemble perf baseline. Times an
// N-member ENSEMFDET run on a dataset1-preset graph — zero-
// materialization hot path on the configured pool, member-throughput
// scaling rows at 1/2/4/all-hardware threads (the wide arm clamped to
// the runner's true core count) and the materializing reference path —
// verifies vote identity between the hot path and the reference AND
// across every timed pool width (refusing to emit on any divergence),
// and writes BENCH_ensemble.json (schema_version 4: bench/README.md).
//
// Environment knobs: ENSEMFDET_SCALE (default 0.02), ENSEMFDET_SEED
// (default 7), ENSEMFDET_REPEATS (default 3), ENSEMFDET_N (default 16),
// ENSEMFDET_S (default 0.1), ENSEMFDET_THREADS (default hardware),
// ENSEMFDET_BENCH_OUT (default ./BENCH_ensemble.json, "-" = stdout only).
#include <cstdio>
#include <string>

#include "common/env.h"
#include "perf_harness.h"

int main() {
  using namespace ensemfdet;
  bench::EnsembleBenchOptions options;
  options.graph.scale = GetEnvDouble("ENSEMFDET_SCALE", options.graph.scale);
  options.graph.seed = static_cast<uint64_t>(
      GetEnvInt64("ENSEMFDET_SEED", static_cast<int64_t>(options.graph.seed)));
  options.repeats = GetEnvInt("ENSEMFDET_REPEATS", options.repeats);
  options.num_samples = GetEnvInt("ENSEMFDET_N", options.num_samples);
  options.ratio = GetEnvDouble("ENSEMFDET_S", options.ratio);
  options.threads = GetEnvInt("ENSEMFDET_THREADS", options.threads);

  auto json = bench::RunEnsembleBench(options);
  if (!json.ok()) {
    std::fprintf(stderr, "bench_ensemble: %s\n",
                 json.status().ToString().c_str());
    return 1;
  }
  std::fputs(json->c_str(), stdout);

  const std::string out_path =
      GetEnvString("ENSEMFDET_BENCH_OUT", "BENCH_ensemble.json");
  if (out_path != "-") {
    Status st = bench::WriteTextFile(out_path, *json);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_ensemble: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench_ensemble] wrote %s\n", out_path.c_str());
  }
  return 0;
}

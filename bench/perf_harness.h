// Perf-baseline harness: the single producer of the repo's BENCH_*.json
// files (schema documented in bench/README.md). Its one front door is the
// `bench-report` subcommand of tools/ensemfdet_cli.cc, which CI runs.
//
// Every measurement reports min/mean wall-clock over `repeats` runs
// (min is the headline: least scheduler noise). Each bench also
// *verifies* a parity property before timing anything and fails with
// Internal if it does not hold, so a lying document can't be produced.
#ifndef ENSEMFDET_BENCH_PERF_HARNESS_H_
#define ENSEMFDET_BENCH_PERF_HARNESS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace ensemfdet {
namespace bench {

/// Workload shared by the graph benches: a Table-I dataset1 preset graph.
struct PerfGraphSpec {
  double scale = 0.02;
  uint64_t seed = 7;
};

struct EnsembleBenchOptions {
  PerfGraphSpec graph;
  int repeats = 3;
  /// Ensemble size N and sampling ratio S.
  int num_samples = 16;
  double ratio = 0.1;
  /// Thread pool width for the parallel measurement (0 = hardware).
  int threads = 0;
};

/// Headline numbers of the ensemble bench, duplicated out of the JSON so
/// the CLI can print them without re-parsing the document.
struct EnsembleBenchSummary {
  double members_per_second = 0.0;
  /// seconds_min(1 thread) ÷ seconds_min(wide pool), where the wide pool
  /// is clamped to the runner's hardware threads (parallel_wide_threads).
  double parallel_speedup = 0.0;
  /// Resolved width of the wide scaling arm (== hardware threads).
  int parallel_wide_threads = 0;
  /// Arena buffer growths summed over a full post-warm-up run (0 when the
  /// per-worker arenas are reused perfectly), and the same per member.
  int64_t arena_grow_events = 0;
  double arena_grow_per_member = 0.0;
};

struct StreamBenchOptions {
  uint64_t seed = 7;
  /// Workload shape: a fragmented transaction day — sparse uniform
  /// background over large universes (many small components) plus several
  /// dense fraud bursts, streamed through a sliding window.
  int64_t num_users = 6000;
  int64_t num_merchants = 4000;
  int64_t num_edges = 5000;
  int num_fraud_groups = 6;
  int64_t horizon = 86400;
  int64_t burst_duration = 2400;
  int64_t window = 21600;
  int64_t detection_interval = 600;
  int64_t batch_events = 128;
  /// Ensemble size/ratio per detection.
  int num_samples = 8;
  double ratio = 0.25;
  int repeats = 3;
};

/// Headline numbers of the stream bench, duplicated out of the JSON.
struct StreamBenchSummary {
  double events_per_second_incremental = 0.0;
  double events_per_second_full_rebuild = 0.0;
  /// incremental ÷ full-rebuild events/sec — the PR acceptance headline.
  double incremental_speedup = 0.0;
  int64_t detections = 0;
  /// components_reused ÷ (reused + recomputed) across the whole replay.
  double component_reuse_fraction = 0.0;
  /// edges_recomputed ÷ edges_total across the whole replay (the share of
  /// ensemble work the dirty scoping could not skip).
  double edge_recompute_fraction = 0.0;
};

struct StorageBenchOptions {
  PerfGraphSpec graph;
  int repeats = 5;
  /// Directory for the transient bench files (TSV + .efg); empty = the
  /// system temp directory.
  std::string scratch_dir;
};

/// Headline numbers of the storage bench, duplicated out of the JSON.
struct StorageBenchSummary {
  /// tsv_parse ÷ mmap_open_verified seconds — the PR acceptance headline
  /// (snapshot loading must beat TSV parsing even when it re-hashes the
  /// whole payload).
  double mmap_verified_speedup_vs_tsv = 0.0;
  /// tsv_parse ÷ binary_read (the streaming, owning-copy reader).
  double binary_read_speedup_vs_tsv = 0.0;
  double tsv_bytes = 0.0;
  double efg_bytes = 0.0;
};

struct WalBenchOptions {
  uint64_t seed = 7;
  /// Workload shape: a synthetic batch stream (one WAL record per batch,
  /// exactly what a durable service session appends per IngestBatch ack).
  int64_t num_batches = 96;
  int64_t batch_events = 128;
  int64_t num_users = 6000;
  int64_t num_merchants = 4000;
  /// Group-commit interval for the `batch` fsync policy measurement.
  int64_t group_commit_records = 16;
  /// Segment rotation threshold — small so rotation cost is in the number.
  uint64_t segment_bytes = 256 * 1024;
  int repeats = 3;
  /// Directory for the transient WAL segments; empty = system temp.
  std::string scratch_dir;
};

/// Headline numbers of the WAL bench, duplicated out of the JSON.
struct WalBenchSummary {
  /// Acked events/sec per fsync policy: every event in the number was
  /// framed, CRC'd, appended, and carried whatever durability the policy
  /// promises before the (simulated) ack.
  double acked_events_per_second_none = 0.0;
  double acked_events_per_second_batch = 0.0;
  double acked_events_per_second_always = 0.0;
  /// The untimed replay gate passed (the document refuses to exist
  /// otherwise, so a written file always carries true).
  bool replay_identical = false;
};

/// Runs the storage bench and returns the BENCH_storage.json document
/// (schema_version 1): the same dataset1-preset graph loaded three ways —
/// TSV parse, streaming binary read, and mmap zero-copy open (without and
/// with fingerprint verification) — plus file sizes and speedups. Before
/// anything is timed it writes the snapshot and verifies that BOTH
/// readers reproduce the writer's content fingerprint, refusing to emit
/// (Internal) on any mismatch.
Result<std::string> RunStorageBench(const StorageBenchOptions& options,
                                    StorageBenchSummary* summary = nullptr);

/// Runs the incremental-ingest stream bench and returns the
/// BENCH_stream.json document (schema_version 1): the same
/// store+boundary replay timed twice — dirty-scoped incremental detection
/// (warm StreamingDetector) vs a full rebuild (cold detector per
/// boundary) — plus reuse statistics. Before anything is timed it
/// verifies, at *every* detection boundary, that the incremental report
/// is bit-identical (votes, weighted votes, member structural stats) to
/// the full rerun, and fails with Internal — refusing to emit — on any
/// divergence. When `summary` is non-null it receives the headline
/// numbers.
Result<std::string> RunStreamBench(const StreamBenchOptions& options,
                                   StreamBenchSummary* summary = nullptr);

/// Runs the durable-ingest WAL bench and returns the BENCH_wal.json
/// document (schema_version 1): the same synthetic batch stream appended
/// through WalWriter three times, once per fsync policy (none / batch /
/// always), reported as acked events/sec — the price of each durability
/// level at the IngestBatch ack boundary. Before anything is timed it
/// writes the full log once, replays it with ReplayWal, and verifies
/// every record decodes bit-identical to the batch that produced it (seq
/// chain, timestamps, every transaction); any divergence fails with
/// Internal, refusing to emit. When `summary` is non-null it receives
/// the headline numbers.
Result<std::string> RunWalBench(const WalBenchOptions& options,
                                WalBenchSummary* summary = nullptr);

struct ObsBenchOptions {
  PerfGraphSpec graph;
  /// More repeats than the other benches: the gated quantity is a small
  /// difference between two timings, so the min needs extra samples to
  /// shake scheduler noise out. Rounded up to even inside RunObsBench so
  /// the alternating within-pair order stays balanced.
  int repeats = 12;
  int num_samples = 16;
  double ratio = 0.1;
};

/// Headline numbers of the observability-overhead bench.
struct ObsBenchSummary {
  /// (metrics-on − metrics-off) ÷ metrics-off seconds_min on the same
  /// ensemble run — the CI-gated overhead (budget: 0.02).
  double overhead_fraction = 0.0;
  double seconds_metrics_on = 0.0;
  double seconds_metrics_off = 0.0;
  /// Hot-path record costs measured in a tight loop (enabled path).
  double counter_ns_per_increment = 0.0;
  double histogram_ns_per_record = 0.0;
  /// Full TraceSpan open/close — context capture, span-id allocation,
  /// histogram record, and the flight-recorder ring write.
  double span_ns_per_record = 0.0;
};

/// Runs the observability-overhead bench and returns the BENCH_obs.json
/// document (schema_version 1): the same zero-materialization ensemble
/// run timed with metrics recording enabled vs runtime-disabled (one
/// process, SetMetricsRuntimeEnabled), plus tight-loop per-record costs
/// for Counter::Increment and Histogram::Record. Before anything is
/// timed it verifies the enabled and disabled runs produce bit-identical
/// reports — instrumentation must never perturb results — and fails with
/// Internal, refusing to emit, on any divergence. The enabled-vs-disabled
/// overhead is CI-gated at 2% by tools/check_bench.py.
Result<std::string> RunObsBench(const ObsBenchOptions& options,
                                ObsBenchSummary* summary = nullptr);

/// Runs the ensemble bench and returns the BENCH_ensemble.json document
/// (schema_version 5): the ensemble on the configured pool, plus
/// member-throughput scaling rows at 1/2/4/all-hardware threads (the wide
/// arm clamped to the runner's true core count and its resolved width
/// recorded). Fails with Internal — refusing to emit — if votes are not
/// identical across the configured pool and every timed pool width.
/// (Bit parity with the seed materializing path is pinned by
/// tests/ensemble_parity_test.cc.) When `summary` is non-null it receives
/// the headline numbers.
Result<std::string> RunEnsembleBench(const EnsembleBenchOptions& options,
                                     EnsembleBenchSummary* summary = nullptr);

/// Writes `text` to `path` (overwriting); IOError on failure.
Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace bench
}  // namespace ensemfdet

#endif  // ENSEMFDET_BENCH_PERF_HARNESS_H_

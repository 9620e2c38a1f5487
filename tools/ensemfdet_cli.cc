// ensemfdet_cli: the unified command-line front door to the detection
// service layer. One binary:
//
//   generate     synthesize a Table-I-preset transaction graph as TSV
//                (plus an optional blacklist file for `evaluate`)
//   detect       run a detector over a graph (TSV or .efg binary
//                snapshot, mmap-served) through DetectionService;
//                --repeat shows the ResultCache absorbing repeat queries
//   evaluate     detect + score against a blacklist (P/R/F1, PR-AUC)
//   save-graph   convert a graph to a .efg binary snapshot (zero-parse
//                loads via detect/evaluate --graph=*.efg)
//   stream-replay  replay a synthetic stream through a service session;
//                --checkpoint / --resume persist and resume the window
//   bench-smoke  end-to-end self-check of the service layer (used by CI)
//   bench-report emit the BENCH_*.json perf baselines
//   trace-report offline latency attribution over a --trace-out timeline:
//                per-stage self-time rollups and the critical path per
//                job, exemplar join against a --metrics-out JSON scrape,
//                and flight-recorder dump summaries
//
// Everything goes through GraphRegistry + DetectionService — this tool is
// both the operational CLI and a living integration test of the service
// subsystem. Suspicious user ids go to stdout (pipe into review tooling);
// diagnostics go to stderr.
//
// Exit codes (asserted by CI): 0 success; 2 usage errors — bad flags,
// unknown values, InvalidArgument/NotFound Statuses; 1 runtime failures —
// unreadable/malformed/corrupt input files and every other non-OK Status.
// Every failing path prints the full Status ("IOError: ...") to stderr.
//
//   $ ensemfdet_cli generate --preset=dataset1 --scale=0.01
//         --out=/tmp/g.tsv --labels=/tmp/labels.tsv
//   $ ensemfdet_cli save-graph --graph=/tmp/g.tsv --out=/tmp/g.efg
//   $ ensemfdet_cli detect --graph=/tmp/g.efg --n=40 --t=8 --repeat=2
//   $ ensemfdet_cli evaluate --graph=/tmp/g.tsv --labels=/tmp/labels.tsv
//   $ ensemfdet_cli bench-smoke
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <memory>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ensemfdet.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/snapshot_reader.h"
#include "perf_harness.h"

using namespace ensemfdet;

namespace {

// ---------------------------------------------------------------------------
// Minimal --key=value flag parsing.
// ---------------------------------------------------------------------------
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";  // boolean flag
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::string GetString(const std::string& key, const std::string& fallback) {
    seen_.insert({key, true});
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) {
    return GetNumber(key, fallback, "an integer");
  }
  /// An integer flag that must be >= `min` (0 or 1) when given; a smaller
  /// value is a usage error naming the flag, like one that does not parse.
  int GetIntAtLeast(const std::string& key, int fallback, int min) {
    const int value = GetInt(key, fallback);
    if (Has(key) && value < min) {
      DieExpected(key, min > 0 ? "a positive integer"
                               : "a non-negative integer",
                  values_.at(key));
    }
    return value;
  }
  double GetDouble(const std::string& key, double fallback) {
    return GetNumber(key, fallback, "a number");
  }
  /// `--scale`, the datagen preset scale every generating command reads:
  /// a number in (0, 1] when given, else a usage error naming the flag.
  double GetScale(double fallback) {
    const double value = GetDouble("scale", fallback);
    if (Has("scale") && !(value > 0.0 && value <= 1.0)) {
      DieExpected("scale", "a number in (0, 1]", values_.at("scale"));
    }
    return value;
  }
  uint64_t GetUint64(const std::string& key, uint64_t fallback) {
    return GetNumber(key, fallback, "a non-negative integer");
  }
  bool GetBool(const std::string& key, bool fallback) {
    std::string v = GetString(key, "");
    if (v.empty()) return fallback;
    return v == "true" || v == "1" || v == "yes";
  }

  /// True iff the user passed the flag (does not mark it consumed).
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  /// The flag's raw value, "" when absent (does not mark it consumed).
  std::string Peek(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? "" : it->second;
  }

  /// Dies on flags that no Get* consulted — catches typos like --ratio
  /// where the command reads --s.
  void DieOnUnknown() const {
    bool bad = false;
    for (const auto& [key, value] : values_) {
      if (!seen_.count(key)) {
        std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
        bad = true;
      }
    }
    if (bad) std::exit(2);
  }

 private:
  // A present numeric flag must parse in full: std::from_chars over the
  // whole value, in range for T, no sign for unsigned T and finite for
  // floating T. Anything else ("1e3" for an int, "two", "-1" for a seed,
  // an empty value) is a usage error, exit 2. An absent flag keeps
  // `fallback`.
  template <typename T>
  T GetNumber(const std::string& key, T fallback, const char* expected) {
    const std::string v = GetString(key, "");
    if (!Has(key)) return fallback;
    T value{};
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, value);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) {
      ok = ok && std::isfinite(value);
    }
    if (!ok) DieExpected(key, expected, v);
    return value;
  }

  [[noreturn]] static void DieExpected(const std::string& key,
                                       const char* expected,
                                       const std::string& got) {
    std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", key.c_str(),
                 expected, got.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> seen_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: ensemfdet_cli <command> [--flag=value ...]\n"
      "\n"
      "commands:\n"
      "  generate     --out=FILE [--labels=FILE] [--preset=dataset1|2|3]\n"
      "               [--scale=0.01] [--seed=7]\n"
      "  detect       --graph=FILE[.tsv|.efg]\n"
      "               [--detector=ensemfdet|fraudar|hits|spoken|fbox]\n"
      "               [--n=80] [--s=0.1] [--method=random_edge] [--t=N/10]\n"
      "               [--seed=42] [--threads=0] [--repeat=1] [--no-cache]\n"
      "               [--top=25]\n"
      "  evaluate     --graph=FILE --labels=FILE [detect flags] [--curve]\n"
      "  save-graph   --graph=FILE[.tsv|.efg] --out=FILE.efg\n"
      "  stream-replay [--preset=dataset1] [--scale=0.01] [--seed=7]\n"
      "               [--horizon=86400] [--burst=1800] [--window=14400]\n"
      "               [--interval=1200] [--batch=256] [--n=80] [--s=0.1]\n"
      "               [--method=random_edge] [--t=N/10] [--threads=0]\n"
      "               [--max-out-of-order=0] [--min-component-edges=1]\n"
      "               [--register=stream] [--checkpoint=FILE.efg]\n"
      "               [--stop-after-batches=0] [--resume=FILE.efg]\n"
      "               [--skip-batches=0] [--wal=DIR]\n"
      "               [--fsync=none|batch|always] [--recover]\n"
      "  bench-smoke  [--scale=0.004] [--seed=7] [--threads=0]\n"
      "  bench-report [--scale=0.02] [--repeats=5] [--out-dir=.]\n"
      "  metrics-dump [--scale=0.004] [--seed=7] [--threads=0]\n"
      "               [--out-a=FILE] [--out-b=FILE] [--workdir=DIR]\n"
      "  trace-report [--trace=FILE] [--metrics=FILE.json] [--flight=FILE]\n"
      "               [--top=12]\n"
      "\n"
      "observability: every command takes (the scrape and the timeline\n"
      "are written only when the command succeeds)\n"
      "  --metrics-out=FILE   scrape the global metrics registry on exit\n"
      "                       (*.json -> JSON, anything else -> Prometheus\n"
      "                       text); metrics-dump runs a mini end-to-end\n"
      "                       workload and emits two scrapes (--out-a after\n"
      "                       the batch phase, --out-b after streaming) for\n"
      "                       counter-monotonicity checks\n"
      "  --trace-out=FILE     write the Chrome trace_event timeline\n"
      "                       (chrome://tracing) of every span the run\n"
      "                       recorded; complete events carry trace_id /\n"
      "                       span_id / parent_span_id args, so the file\n"
      "                       is also a causal span forest (one tree per\n"
      "                       detection). With --flight-recorder it is\n"
      "                       the black box's records; stderr counts any\n"
      "                       spans a full ring lost\n"
      "  --flight-recorder=FILE\n"
      "                       map an always-on crash black box at FILE:\n"
      "                       the last ~2k spans per thread survive any\n"
      "                       process death (even SIGKILL); inspect with\n"
      "                       trace-report --flight=FILE\n"
      "  (both warn and run without when metrics are compiled out; neither\n"
      "  is taken by bench-report, whose obs bench installs its own ring)\n"
      "\n"
      "trace-report reads those artifacts back: per-stage self-time\n"
      "  rollups and the critical path per traced job (--trace), histogram\n"
      "  tail exemplars joined to their span trees (--metrics), and\n"
      "  black-box dump summaries with crash markers (--flight)\n"
      "\n"
      "durable ingest (stream-replay):\n"
      "  --wal=DIR            append every batch to a CRC-framed WAL in\n"
      "                       DIR, made durable per --fsync (none, batch,\n"
      "                       always; default batch) before it is acked\n"
      "  --recover            rebuild a killed run: resume from\n"
      "                       DIR/checkpoint.efg when present (or\n"
      "                       --resume=FILE), replay the WAL suffix, and\n"
      "                       finish the replay — stdout is bit-identical\n"
      "                       to the uninterrupted run\n"
      "\n"
      "counts: --threads >= 0 (0 = hardware), --top >= 0, --t >= 1;\n"
      "ranges: --scale in (0, 1]\n"
      "\n"
      "exit codes: 0 ok; 2 usage (bad flags / InvalidArgument / NotFound);\n"
      "            1 runtime failure (IO, corrupt input, detection error)\n");
  return 2;
}

// The unified Status -> exit-code surface: every fallible path funnels
// its non-OK Status through here, so unreadable or malformed input always
// prints the full status ("IOError: cannot open ...") and exits non-zero
// (2 for caller mistakes, 1 for runtime failures). CI asserts this.
int FailWith(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kInvalidArgument ||
                 status.code() == StatusCode::kNotFound
             ? 2
             : 1;
}

// Binary snapshots are selected by extension: *.efg loads through the
// mmap reader, anything else parses as TSV.
bool IsSnapshotPath(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".efg") == 0;
}

// Blacklist file format: one fraud user id per line, '#' comments.
Status SaveLabels(const LabelSet& labels, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# fraud user ids, one per line (" << labels.num_fraud() << " of "
      << labels.num_users() << " users)\n";
  for (UserId u : labels.FraudUsers()) out << u << "\n";
  if (!out.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<LabelSet> LoadLabels(const std::string& path, int64_t num_users) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<UserId> fraud;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char* end = nullptr;
    // strtoull happily wraps negatives ("-5" → 2^64-5), so reject any
    // sign explicitly and range-check in the unsigned domain.
    unsigned long long id = std::strtoull(line.c_str(), &end, 10);
    if (end == line.c_str() || line[0] == '-' || line[0] == '+') {
      return Status::IOError("unparsable label line: " + line);
    }
    if (id >= static_cast<unsigned long long>(num_users)) {
      return Status::InvalidArgument("label id " + std::to_string(id) +
                                     " out of range for " +
                                     std::to_string(num_users) + " users");
    }
    fraud.push_back(static_cast<UserId>(id));
  }
  return LabelSet(num_users, fraud);
}

Result<JdPreset> ParsePreset(const std::string& name) {
  for (JdPreset p : AllJdPresets()) {
    if (name == JdPresetName(p)) return p;
  }
  return Status::NotFound("unknown preset '" + name +
                          "' (want dataset1|dataset2|dataset3)");
}

// The pool the running command fans out on; main waits for it to go idle
// before exporting the span ring.
ThreadPool* g_command_pool = nullptr;

// --threads: the pool width, 0 (the default) for the hardware-wide pool.
ThreadPool* PoolFromFlags(Flags& flags) {
  const int threads = flags.GetIntAtLeast("threads", 0, 0);
  static std::optional<ThreadPool> owned;
  if (threads > 0) {
    owned.emplace(threads);
    g_command_pool = &*owned;
  } else {
    g_command_pool = &DefaultThreadPool();
  }
  return g_command_pool;
}

// The full ResultCache counter set (hit/miss/insertion/eviction — the
// previously collected-but-invisible stats), shared by detect / evaluate /
// stream-replay.
void PrintCacheStats(DetectionService& service) {
  ResultCacheStats stats = service.cache_stats();
  std::fprintf(stderr,
               "[cache] %lld lookups: %lld hits, %lld misses; "
               "%lld insertions, %lld evictions, %lld entries retained\n",
               (long long)stats.lookups(), (long long)stats.hits,
               (long long)stats.misses, (long long)stats.insertions,
               (long long)stats.evictions, (long long)service.cache().size());
}

// Scrapes the global metrics registry to a file; the format follows the
// extension (*.json -> JSON, anything else -> Prometheus text exposition).
Status WriteMetricsSnapshot(const std::string& path) {
  const obs::RegistrySnapshot snap = obs::MetricsRegistry::Global().Scrape();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body =
      json ? obs::ToJson(snap) : obs::ToPrometheusText(snap);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << body;
  if (!out.good()) return Status::IOError("short write to " + path);
  std::fprintf(stderr, "[metrics] %zu series -> %s (%s)\n",
               snap.metrics.size(), path.c_str(),
               json ? "json" : "prometheus");
  return Status::OK();
}

// End-of-command observability epilogue, run by main after any command
// that succeeded: honor --metrics-out, and export the span ring as the
// --trace-out timeline. The pool's last pool_task spans close on the
// workers after the command's futures resolve, so the ring is read only
// once the pool is idle.
int FinishObservability(const std::string& metrics_out,
                        const std::string& trace_out) {
  if (!metrics_out.empty()) {
    Status st = WriteMetricsSnapshot(metrics_out);
    if (!st.ok()) return FailWith(st);
  }
  if (trace_out.empty() || !obs::FlightRecorderInstalled()) return 0;
  if (g_command_pool != nullptr) g_command_pool->WaitIdle();
  auto dump = obs::SnapshotFlightRecorder();
  if (!dump.ok()) return FailWith(dump.status());
  Status st = obs::WriteChromeTrace(*dump, trace_out);
  if (!st.ok()) return FailWith(st);
  uint64_t spans = 0;
  uint64_t overwritten = 0;
  for (const obs::FlightDumpThread& t : dump->threads) {
    spans += t.records.size();
    overwritten += t.total_records - t.records.size();
  }
  std::fprintf(stderr, "[trace] %llu spans -> %s (chrome://tracing)\n",
               (unsigned long long)spans, trace_out.c_str());
  if (overwritten + dump->dropped_records > 0) {
    std::fprintf(stderr,
                 "[trace] lost %llu spans: %llu overwritten in full rings "
                 "(%u per thread), %llu from threads without a ring slot\n",
                 (unsigned long long)(overwritten + dump->dropped_records),
                 (unsigned long long)overwritten, dump->ring_records,
                 (unsigned long long)dump->dropped_records);
  }
  return 0;
}

// Installs the span ring. --flight-recorder=FILE maps the crash black
// box; --trace-out=FILE alone maps an in-memory ring sized for the whole
// run: a slot for every thread that can record (the command pool's
// workers, the main thread, and bench-smoke's one-worker determinism
// pool) and 2^18 records per slot, above the ~181k spans that
// stream-replay's busiest thread records at default flags. Warns and
// continues when metrics are compiled out.
int InstallSpanRing(Flags& flags, const std::string& trace_out) {
  const std::string path = flags.GetString("flight-recorder", "");
  if (path.empty() && trace_out.empty()) return 0;
  obs::FlightRecorderOptions options;
  options.path = path;
  if (path.empty()) {
    // A --threads that does not parse fails the command itself.
    const long threads =
        std::strtol(flags.Peek("threads").c_str(), nullptr, 10);
    const long workers = threads > 0 ? threads : DefaultThreadPoolWidth();
    options.ring_records = 1u << 18;
    options.max_threads =
        static_cast<uint32_t>(std::min(workers, 4094L) + 2);
  }
  Status st = obs::InstallFlightRecorder(options);
  if (!st.ok()) {
    if (!obs::kMetricsCompiledIn) {
      auto warn = [](const char* flag, const std::string& value) {
        if (value.empty()) return;
        std::fprintf(stderr,
                     "[warn] --%s=%s ignored: metrics compiled out "
                     "(ENSEMFDET_METRICS=OFF)\n",
                     flag, value.c_str());
      };
      warn("flight-recorder", path);
      warn("trace-out", trace_out);
      return 0;
    }
    return FailWith(st);
  }
  if (!path.empty()) {
    std::fprintf(stderr, "[flight] black box -> %s\n", path.c_str());
  }
  return 0;
}

// Shared by detect/evaluate: assemble the ensemble config from flags.
EnsemFDetConfig EnsembleFromFlags(Flags& flags) {
  EnsemFDetConfig config;
  config.num_samples = flags.GetInt("n", 80);
  config.ratio = flags.GetDouble("s", 0.1);
  config.seed = flags.GetUint64("seed", 42);
  std::string method = flags.GetString("method", "random_edge");
  auto parsed = ParseSampleMethod(method);
  if (!parsed.ok()) std::exit(FailWith(parsed.status()));
  config.method = *parsed;
  return config;
}

// The vote-acceptance threshold T: `t_flag` (--t, read with fallback 0)
// when given, else N/10 and at least 1.
int VoteThreshold(int t_flag, int num_samples) {
  return t_flag > 0 ? t_flag : std::max(1, num_samples / 10);
}

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------
int CmdGenerate(Flags& flags) {
  const std::string out = flags.GetString("out", "");
  const std::string labels_path = flags.GetString("labels", "");
  const std::string preset_name = flags.GetString("preset", "dataset1");
  const double scale = flags.GetScale(0.01);
  const uint64_t seed = flags.GetUint64("seed", 7);
  flags.DieOnUnknown();
  if (out.empty()) {
    std::fprintf(stderr, "error: generate requires --out=FILE\n");
    return 2;
  }

  auto preset = ParsePreset(preset_name);
  if (!preset.ok()) return FailWith(preset.status());
  auto dataset = GenerateJdPreset(*preset, scale, seed);
  if (!dataset.ok()) return FailWith(dataset.status());
  Status st = SaveEdgeListTsv(dataset->graph, out);
  if (!st.ok()) return FailWith(st);
  std::fprintf(stderr,
               "[generate] %s scale=%.4g seed=%llu -> %s "
               "(%lld users, %lld merchants, %lld edges, %lld blacklisted)\n",
               preset_name.c_str(), scale, (unsigned long long)seed,
               out.c_str(), (long long)dataset->graph.num_users(),
               (long long)dataset->graph.num_merchants(),
               (long long)dataset->graph.num_edges(),
               (long long)dataset->blacklist.num_fraud());
  if (!labels_path.empty()) {
    st = SaveLabels(dataset->blacklist, labels_path);
    if (!st.ok()) return FailWith(st);
    std::fprintf(stderr, "[generate] blacklist -> %s\n", labels_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// detect
// ---------------------------------------------------------------------------
struct DetectRun {
  std::shared_ptr<const JobResult> result;
  EnsemFDetConfig config;
  DetectorKind detector = DetectorKind::kEnsemFDet;
};

// Loads --graph and publishes it under the name "cli"; fills `snapshot`.
int LoadAndPublishGraph(Flags& flags, GraphRegistry& registry,
                        GraphSnapshot* snapshot) {
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    std::fprintf(stderr, "error: requires --graph=FILE\n");
    return 2;
  }
  Result<GraphSnapshot> published = [&]() -> Result<GraphSnapshot> {
    if (IsSnapshotPath(path)) {
      // Binary snapshot: mmap'd, fingerprint-verified, served zero-copy.
      return registry.LoadSnapshot("cli", path);
    }
    ENSEMFDET_ASSIGN_OR_RETURN(BipartiteGraph graph, LoadEdgeListTsv(path));
    return registry.Publish("cli", std::move(graph));
  }();
  if (!published.ok()) return FailWith(published.status());
  std::fprintf(stderr,
               "[load] %s (%s): %lld users x %lld merchants, %lld edges "
               "(fingerprint %016llx)\n",
               path.c_str(), IsSnapshotPath(path) ? "mmap snapshot" : "tsv",
               (long long)published->csr->num_users(),
               (long long)published->csr->num_merchants(),
               (long long)published->csr->num_edges(),
               (unsigned long long)published->fingerprint);
  *snapshot = std::move(published).value();
  return 0;
}

// Runs --repeat jobs over the published "cli" graph through the service.
// On success, fills `run` with the last job's result.
int RunDetectJobs(Flags& flags, DetectionService& service, DetectRun* run) {
  auto detector = ParseDetectorKind(flags.GetString("detector", "ensemfdet"));
  if (!detector.ok()) return FailWith(detector.status());
  run->detector = *detector;
  run->config = EnsembleFromFlags(flags);
  if (run->detector != DetectorKind::kEnsemFDet) {
    // Baselines run with their library-default configs, print a --top
    // ranking instead of applying T, and never touch the cache; don't let
    // any of those flags pass silently without effect.
    for (const char* tuning : {"n", "s", "method", "seed", "t", "no-cache"}) {
      if (flags.Has(tuning)) {
        std::fprintf(stderr,
                     "[warn] --%s has no effect with --detector=%s "
                     "(baselines use library defaults)\n",
                     tuning, DetectorKindName(run->detector));
      }
    }
  }
  const int repeat = flags.GetInt("repeat", 1);
  if (repeat < 1) {
    std::fprintf(stderr, "error: --repeat must be >= 1\n");
    return 2;
  }
  const bool use_cache = !flags.GetBool("no-cache", false);

  for (int i = 0; i < repeat; ++i) {
    JobRequest request;
    request.graph_name = "cli";
    request.detector = run->detector;
    request.ensemble = run->config;
    request.use_cache = use_cache;
    WallTimer timer;
    auto result = service.Detect(std::move(request));
    if (!result.ok()) return FailWith(result.status());
    std::fprintf(stderr, "[detect] run %d/%d: %s in %s%s\n", i + 1, repeat,
                 DetectorKindName(run->detector),
                 FormatDuration(timer.ElapsedSeconds()).c_str(),
                 (*result)->cache_hit ? " (result cache hit)" : "");
    run->result = std::move(result).value();
  }
  PrintCacheStats(service);
  return 0;
}

int CmdDetect(Flags& flags) {
  GraphRegistry registry;
  ThreadPool* pool = PoolFromFlags(flags);
  DetectionService service(&registry, pool);

  DetectRun run;
  // Read flags consumed below before DieOnUnknown fires inside helpers.
  const int t_flag = flags.GetIntAtLeast("t", 0, 1);
  const int top = flags.GetIntAtLeast("top", 25, 0);
  GraphSnapshot snapshot;
  int rc = LoadAndPublishGraph(flags, registry, &snapshot);
  if (rc == 0) rc = RunDetectJobs(flags, service, &run);
  // Only typo-check flags on the success path: after a failure, flags the
  // aborted stage never consumed would be misreported as unknown.
  if (rc != 0) return rc;
  flags.DieOnUnknown();

  if (run.detector == DetectorKind::kEnsemFDet) {
    const int threshold = VoteThreshold(t_flag, run.config.num_samples);
    auto suspicious = run.result->report->AcceptedUsers(threshold);
    std::fprintf(stderr, "[detect] N=%d S=%.3f T=%d -> %zu suspicious users\n",
                 run.config.num_samples, run.config.ratio, threshold,
                 suspicious.size());
    for (UserId u : suspicious) std::printf("%u\n", u);
  } else {
    // Baselines produce a ranking; print the --top highest-scoring users.
    const std::vector<double>& scores = run.result->user_scores;
    std::vector<UserId> order(scores.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = (UserId)i;
    std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return a < b;
    });
    const size_t k = std::min<size_t>(top, order.size());
    std::fprintf(stderr, "[detect] top %zu users by %s score\n", k,
                 DetectorKindName(run.detector));
    for (size_t i = 0; i < k; ++i) {
      std::printf("%u\t%.6g\n", order[i], scores[order[i]]);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// save-graph: convert any loadable graph (TSV or an existing .efg) into a
// .efg binary snapshot via the registry's snapshot path, so later
// detect/evaluate runs skip TSV parsing entirely (mmap zero-copy load).
// ---------------------------------------------------------------------------
int CmdSaveGraph(Flags& flags) {
  // Validate --out before the (potentially large) input graph is loaded.
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: save-graph requires --out=FILE.efg\n");
    return 2;
  }
  GraphRegistry registry;
  GraphSnapshot snapshot;
  int rc = LoadAndPublishGraph(flags, registry, &snapshot);
  if (rc != 0) return rc;
  flags.DieOnUnknown();
  Status st = registry.SaveSnapshot("cli", out);
  if (!st.ok()) return FailWith(st);
  // Prove the round-trip before reporting success: reopen via the mmap
  // reader and re-verify the content fingerprint zero-copy (no adjacency
  // materialization) — save-graph is a self-checking operation.
  auto reloaded = storage::MappedCsrGraph::Open(out);
  if (!reloaded.ok()) return FailWith(reloaded.status());
  st = reloaded->VerifyFingerprint();
  if (!st.ok()) return FailWith(st);
  if (reloaded->fingerprint() != snapshot.fingerprint) {
    std::fprintf(stderr,
                 "error: Internal: reloaded fingerprint %016llx does not "
                 "match source %016llx\n",
                 (unsigned long long)reloaded->fingerprint(),
                 (unsigned long long)snapshot.fingerprint);
    return 1;
  }
  std::fprintf(stderr,
               "[save-graph] %s: %lld edges, fingerprint %016llx "
               "(mmap round-trip verified)\n",
               out.c_str(), (long long)snapshot.csr->num_edges(),
               (unsigned long long)snapshot.fingerprint);
  return 0;
}

// ---------------------------------------------------------------------------
// evaluate
// ---------------------------------------------------------------------------
int CmdEvaluate(Flags& flags) {
  GraphRegistry registry;
  ThreadPool* pool = PoolFromFlags(flags);
  DetectionService service(&registry, pool);

  const std::string labels_path = flags.GetString("labels", "");
  const int t_flag = flags.GetIntAtLeast("t", 0, 1);
  const bool print_curve = flags.GetBool("curve", false);
  if (labels_path.empty()) {
    std::fprintf(stderr, "error: evaluate requires --labels=FILE\n");
    return 2;
  }

  // Load the graph and validate the labels *before* detection: a bad
  // --labels path must not cost a full ensemble run.
  GraphSnapshot snapshot;
  int rc = LoadAndPublishGraph(flags, registry, &snapshot);
  if (rc != 0) return rc;
  auto labels = LoadLabels(labels_path, snapshot.csr->num_users());
  if (!labels.ok()) return FailWith(labels.status());

  // Evaluation needs a vote table, so only the ensemble detector makes
  // sense — reject others before paying for a detection run.
  if (flags.GetString("detector", "ensemfdet") != "ensemfdet") {
    std::fprintf(stderr, "error: evaluate supports --detector=ensemfdet\n");
    return 2;
  }

  DetectRun run;
  rc = RunDetectJobs(flags, service, &run);
  if (rc != 0) return rc;
  flags.DieOnUnknown();

  const int threshold = VoteThreshold(t_flag, run.config.num_samples);
  auto detected = run.result->report->AcceptedUsers(threshold);
  Confusion c = CountConfusion(detected, *labels);
  auto curve = VoteSweep(run.result->report->votes, *labels,
                         run.config.num_samples);
  std::printf("detector=ensemfdet N=%d S=%.3f T=%d\n", run.config.num_samples,
              run.config.ratio, threshold);
  std::printf("detected=%lld precision=%.4f recall=%.4f f1=%.4f "
              "pr_auc=%.4f\n",
              (long long)c.num_detected(), Precision(c), Recall(c),
              F1Score(c), PrCurveArea(curve));
  if (print_curve) {
    std::printf("T,num_detected,precision,recall,f1\n");
    for (const OperatingPoint& p : curve) {
      std::printf("%g,%lld,%.4f,%.4f,%.4f\n", p.control,
                  (long long)p.num_detected, p.precision, p.recall, p.f1);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// bench-smoke: end-to-end self-check of the service layer.
// ---------------------------------------------------------------------------
#define SMOKE_CHECK(cond, what)                                   \
  do {                                                            \
    if (cond) {                                                   \
      std::fprintf(stderr, "[smoke] ok: %s\n", what);             \
    } else {                                                      \
      std::fprintf(stderr, "[smoke] FAILED: %s\n", what);         \
      return 1;                                                   \
    }                                                             \
  } while (0)

int CmdBenchSmoke(Flags& flags) {
  const double scale = flags.GetScale(0.004);
  const uint64_t seed = flags.GetUint64("seed", 7);
  ThreadPool* pool = PoolFromFlags(flags);
  flags.DieOnUnknown();

  WallTimer total;
  auto dataset = GenerateJdPreset(JdPreset::kDataset1, scale, seed);
  SMOKE_CHECK(dataset.ok(), "generate dataset1 preset");

  GraphRegistry registry;
  DetectionService service(&registry, pool);
  auto snapshot = registry.Publish("smoke", dataset->graph);
  SMOKE_CHECK(snapshot.ok(), "publish graph snapshot");

  JobRequest request;
  request.graph_name = "smoke";
  request.ensemble.num_samples = 16;
  request.ensemble.ratio = 0.15;
  request.ensemble.seed = seed;

  auto first = service.Detect(request);
  SMOKE_CHECK(first.ok() && !(*first)->cache_hit, "cold ensemble detection");
  auto second = service.Detect(request);
  SMOKE_CHECK(second.ok() && (*second)->cache_hit,
              "repeat request served from ResultCache");
  SMOKE_CHECK((*second)->report.get() == (*first)->report.get(),
              "cache returns the identical report object");

  // Vote tables must be deterministic in the seed regardless of threads.
  ThreadPool narrow(1);
  GraphRegistry registry1;
  DetectionService service1(&registry1, &narrow);
  registry1.Publish("smoke", dataset->graph).ValueOrDie();
  auto sequential = service1.Detect(request);
  SMOKE_CHECK(sequential.ok(), "single-thread detection");
  const auto& votes_a = (*first)->report->votes;
  const auto& votes_b = (*sequential)->report->votes;
  bool identical = votes_a.num_users() == votes_b.num_users();
  for (UserId u = 0; identical && u < votes_a.num_users(); ++u) {
    identical = votes_a.user_votes(u) == votes_b.user_votes(u);
  }
  SMOKE_CHECK(identical, "vote table identical at any thread count");

  auto hits = service.Detect([&] {
    JobRequest r;
    r.graph_name = "smoke";
    r.detector = DetectorKind::kHits;
    return r;
  }());
  SMOKE_CHECK(hits.ok() && !(*hits)->user_scores.empty(),
              "baseline (hits) job through the service");

  // A streaming session over a synthetic minute-long transaction burst.
  StreamSessionConfig session;
  session.detector.num_users = dataset->graph.num_users();
  session.detector.num_merchants = dataset->graph.num_merchants();
  session.detector.window = 600;
  session.detector.detection_interval = 300;
  session.detector.ensemble = request.ensemble;
  auto stream = service.OpenStream(session);
  SMOKE_CHECK(stream.ok(), "open streaming session");
  IngestBatch burst;
  int64_t ts = 0;
  for (const Edge& e : dataset->graph.edges()) {
    burst.transactions.push_back({ts, e.user, e.merchant});
    if (burst.transactions.size() >= 2000) break;
    ts += 1;
  }
  Status ingested = service.IngestBatch(*stream, std::move(burst));
  auto finished = service.FinishStream(*stream);
  SMOKE_CHECK(ingested.ok() && finished.ok() && finished->error.ok() &&
                  finished->report != nullptr,
              "streaming session over a transaction burst");

  ResultCacheStats stats = service.cache_stats();
  SMOKE_CHECK(stats.hits >= 1 && stats.misses >= 1, "cache stats counted");

  std::fprintf(stderr, "[smoke] all checks passed in %s (pool=%d threads)\n",
               FormatDuration(total.ElapsedSeconds()).c_str(),
               pool->num_threads());
  return 0;
}

// ---------------------------------------------------------------------------
// stream-replay: replay a synthetic campaign-day transaction stream
// through a DetectionService streaming session — the incremental-ingest
// subsystem end to end: batches feed a DynamicGraphStore, every interval
// runs dirty-scoped re-detection (clean components replayed from cache),
// every fired detection's GraphVersion is registered in the GraphRegistry,
// and the final forced detection's suspicious users go to stdout.
// ---------------------------------------------------------------------------
int CmdStreamReplay(Flags& flags) {
  const std::string preset_name = flags.GetString("preset", "dataset1");
  const double scale = flags.GetScale(0.01);
  const uint64_t seed = flags.GetUint64("seed", 7);
  const int64_t horizon = flags.GetInt("horizon", 86400);
  const int64_t burst = flags.GetInt("burst", 1800);
  const int64_t window = flags.GetInt("window", 14400);
  const int64_t interval = flags.GetInt("interval", 1200);
  const int batch_events = flags.GetInt("batch", 256);
  const int t_flag = flags.GetIntAtLeast("t", 0, 1);
  const std::string register_name = flags.GetString("register", "stream");
  // Checkpoint/resume: --checkpoint saves the session's window state
  // (after --stop-after-batches batches, or at stream end); --resume
  // opens the session from a saved checkpoint and --skip-batches skips
  // the batches the checkpointed run already ingested. Because detection
  // randomness is content-derived, a resumed replay's reports are
  // bit-identical to the uninterrupted run (CI asserts this).
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  const int64_t stop_after = flags.GetInt("stop-after-batches", 0);
  std::string resume_path = flags.GetString("resume", "");
  const int64_t skip_batches = flags.GetInt("skip-batches", 0);
  // Durable ingest: --wal=DIR appends every batch to a CRC-framed WAL and
  // fsyncs per --fsync before the batch is acked; --recover rebuilds a
  // killed run (newest checkpoint if --resume/--checkpoint points at one,
  // else DIR/checkpoint.efg if present, then the WAL suffix) and resumes
  // the replay at the first batch the log does not already hold. stdout
  // stays bit-identical to an uninterrupted run (CI kills a run with
  // SIGKILL mid-stream and asserts exactly that).
  const std::string wal_dir = flags.GetString("wal", "");
  const std::string fsync_name = flags.GetString("fsync", "batch");
  const bool recover = flags.GetBool("recover", false);
  ThreadPool* pool = PoolFromFlags(flags);
  if (stop_after > 0 && checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "error: --stop-after-batches requires --checkpoint\n");
    return 2;
  }
  if (skip_batches < 0 || stop_after < 0) {
    std::fprintf(stderr, "error: batch counts must be >= 0\n");
    return 2;
  }
  if (wal_dir.empty() && recover) {
    std::fprintf(stderr, "error: --recover requires --wal=DIR\n");
    return 2;
  }

  StreamSessionConfig session;
  if (!wal_dir.empty()) {
    auto policy = storage::ParseWalFsyncPolicy(fsync_name);
    if (!policy.ok()) return FailWith(policy.status());
    session.wal.dir = wal_dir;
    session.wal.fsync = *policy;
    session.wal.recover = recover;
    if (recover && resume_path.empty()) {
      // A recovering run picks up the session's own newest checkpoint by
      // convention: SaveStreamCheckpoint truncated the WAL against it, so
      // replaying without it would start past the log's beginning.
      const std::string conventional = wal_dir + "/checkpoint.efg";
      std::error_code ec;
      if (std::filesystem::exists(conventional, ec)) {
        resume_path = conventional;
      }
    }
  }
  session.resume_checkpoint = resume_path;
  session.detector.window = window;
  session.detector.detection_interval = interval;
  session.detector.max_out_of_order = flags.GetInt("max-out-of-order", 0);
  session.detector.min_component_edges =
      flags.GetInt("min-component-edges", 1);
  session.detector.ensemble = EnsembleFromFlags(flags);
  session.publish_name = register_name;
  flags.DieOnUnknown();

  auto preset = ParsePreset(preset_name);
  if (!preset.ok()) return FailWith(preset.status());
  auto dataset = GenerateJdPreset(*preset, scale, seed);
  if (!dataset.ok()) return FailWith(dataset.status());
  StreamTimelineConfig timeline;
  timeline.horizon = horizon;
  timeline.burst_duration = burst;
  timeline.seed = seed + 1;
  auto events = BuildTransactionStream(*dataset, timeline);
  if (!events.ok()) return FailWith(events.status());
  auto batches = SliceIntoBatches(*events, batch_events);
  if (!batches.ok()) return FailWith(batches.status());
  session.detector.num_users = dataset->graph.num_users();
  session.detector.num_merchants = dataset->graph.num_merchants();
  // This tool enqueues the whole replay up front while one drainer does
  // the detections; size the session queue to the replay so backpressure
  // (meant for live producers that can retry) never aborts it.
  session.max_queued_batches =
      std::max<int64_t>(64, static_cast<int64_t>(batches->size()));
  std::fprintf(stderr,
               "[stream-replay] %s scale=%.4g: %zu events in %zu batches, "
               "window=%lld interval=%lld\n",
               preset_name.c_str(), scale, events->size(), batches->size(),
               (long long)window, (long long)interval);

  GraphRegistry registry;
  DetectionService service(&registry, pool);
  auto stream = service.OpenStream(session);
  if (!stream.ok()) return FailWith(stream.status());

  int64_t effective_skip = skip_batches;
  if (recover) {
    auto opened = service.PollReport(*stream);
    if (!opened.ok()) return FailWith(opened.status());
    // WAL seq == 1-based batch number: batches 1..wal_last_seq are
    // durable and already applied (via checkpoint or replay); the
    // deterministic generator just regenerates and skips them.
    effective_skip = std::max<int64_t>(
        effective_skip, static_cast<int64_t>(opened->wal_last_seq));
    std::fprintf(stderr,
                 "[stream-replay] recovered: %llu WAL records replayed, "
                 "resuming at batch %lld\n",
                 (unsigned long long)opened->wal_records_recovered,
                 (long long)effective_skip);
  }

  WallTimer timer;
  uint64_t reported = 0;
  int64_t batch_index = 0;
  for (const IngestBatch& batch : *batches) {
    const int64_t index = batch_index++;
    if (index < effective_skip) continue;  // already durable/applied
    if (stop_after > 0 && index >= stop_after) break;
    Status st = service.IngestBatch(*stream, batch);
    if (!st.ok()) return FailWith(st);
    // Narrate the latest fired detection as the stream advances (poll
    // is non-blocking; with a pool the report may trail the ingest), from
    // that report's own stats.
    auto state = service.PollReport(*stream);
    if (state.ok() && state->reports_generated > reported) {
      reported = state->reports_generated;
      const StreamingDetectionStats& s = state->report_stats;
      std::fprintf(stderr,
                   "[stream-replay] report #%llu epoch=%llu: %lld "
                   "components (%lld reused, %lld recomputed, %.0f%% of "
                   "edges clean)\n",
                   (unsigned long long)reported,
                   (unsigned long long)state->report_epoch,
                   (long long)s.components_eligible,
                   (long long)s.components_reused,
                   (long long)s.components_recomputed,
                   s.edges_total > 0
                       ? 100.0 * (1.0 - (double)s.edges_recomputed /
                                            (double)s.edges_total)
                       : 0.0);
    }
  }
  if (!checkpoint_path.empty()) {
    Status st = service.SaveStreamCheckpoint(*stream, checkpoint_path);
    if (!st.ok()) return FailWith(st);
    std::fprintf(stderr, "[stream-replay] checkpoint -> %s\n",
                 checkpoint_path.c_str());
    if (stop_after > 0) {
      // Early stop: persist the window and exit without the final forced
      // detection — a later --resume run completes the replay.
      Status closed = service.CloseStream(*stream);
      if (!closed.ok()) return FailWith(closed);
      std::fprintf(stderr,
                   "[stream-replay] stopped after %lld batches; resume "
                   "with --resume=%s --skip-batches=%lld\n",
                   (long long)stop_after, checkpoint_path.c_str(),
                   (long long)stop_after);
      return 0;
    }
  }
  auto final_state = service.FinishStream(*stream);
  if (!final_state.ok()) return FailWith(final_state.status());
  if (!final_state->error.ok()) return FailWith(final_state->error);
  const double seconds = timer.ElapsedSeconds();

  std::fprintf(stderr,
               "[stream-replay] %lld events, %llu detections in %s "
               "(%.0f events/s incl. detection)\n",
               (long long)final_state->events_ingested,
               (unsigned long long)final_state->reports_generated,
               FormatDuration(seconds).c_str(),
               seconds > 0 ? final_state->events_ingested / seconds : 0.0);
  if (!register_name.empty()) {
    auto snapshot = registry.Get(register_name);
    if (snapshot.ok()) {
      std::fprintf(stderr,
                   "[stream-replay] registry '%s' v%llu fingerprint "
                   "%016llx (%lld edges live)\n",
                   register_name.c_str(),
                   (unsigned long long)snapshot->version,
                   (unsigned long long)snapshot->fingerprint,
                   (long long)snapshot->csr->num_edges());
    }
  }
  PrintCacheStats(service);

  const EnsemFDetConfig& ensemble = session.detector.ensemble;
  const int threshold = VoteThreshold(t_flag, ensemble.num_samples);
  auto suspicious = final_state->report->AcceptedUsers(threshold);
  std::fprintf(stderr,
               "[stream-replay] final window: N=%d S=%.3f T=%d -> %zu "
               "suspicious users\n",
               ensemble.num_samples, ensemble.ratio, threshold,
               suspicious.size());
  for (UserId u : suspicious) std::printf("%u\n", u);
  return 0;
}

// ---------------------------------------------------------------------------
// metrics-dump: run a miniature end-to-end workload that touches every
// instrumented layer (pool, detect, cache, service, storage, ingest,
// stream), scraping the global registry twice — --out-a after the batch
// phase and --out-b after the streaming phase. CI feeds both scrapes to
// tools/check_metrics.py, which asserts naming, required-series coverage,
// and counter monotonicity between A and B.
// ---------------------------------------------------------------------------
int CmdMetricsDump(Flags& flags) {
  const double scale = flags.GetScale(0.004);
  const uint64_t seed = flags.GetUint64("seed", 7);
  const std::string out_a = flags.GetString("out-a", "");
  const std::string out_b = flags.GetString("out-b", "");
  // main writes the --metrics-out scrape; this command only needs to know
  // whether one was asked for.
  const bool has_metrics_out = !flags.GetString("metrics-out", "").empty();
  std::string workdir = flags.GetString("workdir", "");
  ThreadPool* pool = PoolFromFlags(flags);
  flags.DieOnUnknown();
  if (workdir.empty()) {
    std::error_code ec;
    workdir = std::filesystem::temp_directory_path(ec).string();
    if (ec) workdir = ".";
  }

  auto dataset = GenerateJdPreset(JdPreset::kDataset1, scale, seed);
  if (!dataset.ok()) return FailWith(dataset.status());

  GraphRegistry registry;
  DetectionService service(&registry, pool);
  auto published = registry.Publish("obs", dataset->graph);
  if (!published.ok()) return FailWith(published.status());

  // Storage layer: snapshot write, mmap open, fingerprint verify.
  const std::string efg = workdir + "/ensemfdet_metrics_dump.efg";
  Status st = registry.SaveSnapshot("obs", efg);
  if (!st.ok()) return FailWith(st);
  auto mapped = storage::MappedCsrGraph::Open(efg);
  if (!mapped.ok()) return FailWith(mapped.status());
  st = mapped->VerifyFingerprint();
  if (!st.ok()) return FailWith(st);

  // Service + detect + cache layers: a cold job then an identical one
  // served from the ResultCache.
  JobRequest request;
  request.graph_name = "obs";
  request.ensemble.num_samples = 8;
  request.ensemble.ratio = 0.15;
  request.ensemble.seed = seed;
  for (int i = 0; i < 2; ++i) {
    auto result = service.Detect(request);
    if (!result.ok()) return FailWith(result.status());
  }
  if (!out_a.empty()) {
    st = WriteMetricsSnapshot(out_a);
    if (!st.ok()) return FailWith(st);
  }

  // Ingest + stream + wal layers: a short synthetic WAL-backed stream
  // through a session, interrupted halfway and recovered, so scrape B
  // carries the full ensemfdet_wal_* series (appends, fsyncs, segment
  // creation, replayed records).
  const std::string wal_dir = workdir + "/ensemfdet_metrics_dump_wal";
  std::error_code wal_ec;
  std::filesystem::remove_all(wal_dir, wal_ec);
  StreamSessionConfig session;
  session.detector.window = 600;
  session.detector.detection_interval = 300;
  session.detector.ensemble = request.ensemble;
  session.detector.num_users = dataset->graph.num_users();
  session.detector.num_merchants = dataset->graph.num_merchants();
  session.wal.dir = wal_dir;
  session.wal.fsync = storage::WalFsyncPolicy::kBatch;
  // Each report publishes its window, so the registry-publish histogram
  // records too.
  session.publish_name = "obs_window";
  StreamTimelineConfig timeline;
  timeline.horizon = 3600;
  timeline.burst_duration = 600;
  timeline.seed = seed + 1;
  auto events = BuildTransactionStream(*dataset, timeline);
  if (!events.ok()) return FailWith(events.status());
  auto batches = SliceIntoBatches(*events, 256);
  if (!batches.ok()) return FailWith(batches.status());
  session.max_queued_batches =
      std::max<int64_t>(64, static_cast<int64_t>(batches->size()));
  auto stream = service.OpenStream(session);
  if (!stream.ok()) return FailWith(stream.status());
  const size_t half = batches->size() / 2;
  for (size_t i = 0; i < half; ++i) {
    st = service.IngestBatch(*stream, (*batches)[i]);
    if (!st.ok()) return FailWith(st);
  }
  // "Crash": drop the session without a final detection, then recover a
  // fresh one from the WAL and stream the rest.
  st = service.CloseStream(*stream);
  if (!st.ok()) return FailWith(st);
  session.wal.recover = true;
  stream = service.OpenStream(session);
  if (!stream.ok()) return FailWith(stream.status());
  for (size_t i = half; i < batches->size(); ++i) {
    st = service.IngestBatch(*stream, (*batches)[i]);
    if (!st.ok()) return FailWith(st);
  }
  auto final_state = service.FinishStream(*stream);
  if (!final_state.ok()) return FailWith(final_state.status());
  if (!final_state->error.ok()) return FailWith(final_state->error);
  std::remove(efg.c_str());
  std::filesystem::remove_all(wal_dir, wal_ec);

  if (!out_b.empty()) {
    st = WriteMetricsSnapshot(out_b);
    if (!st.ok()) return FailWith(st);
  }
  if (out_a.empty() && out_b.empty() && !has_metrics_out) {
    // No destination requested: dump the final scrape to stdout.
    std::fputs(
        obs::ToPrometheusText(obs::MetricsRegistry::Global().Scrape())
            .c_str(),
        stdout);
  }
  std::fprintf(stderr,
               "[metrics-dump] workload done: %lld events streamed, "
               "%llu stream detections, metrics %s\n",
               (long long)final_state->events_ingested,
               (unsigned long long)final_state->reports_generated,
               obs::kMetricsCompiledIn ? "compiled in" : "compiled OUT");
  return 0;
}

// ---------------------------------------------------------------------------
// trace-report: offline per-job latency attribution. Reads back the
// artifacts the other commands emit — the --trace-out timeline (whose 'X'
// events carry trace/span/parent ids), a --metrics-out JSON scrape (whose
// histogram tail exemplars name a trace), and a --flight-recorder black
// box — and answers "where did this job's latency go": per-stage
// self-time rollups (span duration minus time covered by its children)
// and the critical path root -> deepest-finishing leaf.
// ---------------------------------------------------------------------------

// Extracts "key" from one line of this binary's own exporters (both the
// trace writer and the JSON metrics exporter emit one object per line, so
// a line-scoped scan is exact for them; this is not a general JSON
// parser). Handles both `"k":v` (trace) and `"k": v` (metrics) spacing.
bool JsonRawField(const std::string& line, const std::string& key,
                  std::string* out) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    const size_t end = line.find('"', pos + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(pos + 1, end - pos - 1);
  } else {
    size_t end = pos;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    *out = line.substr(pos, end - pos);
  }
  return true;
}

struct ReportSpan {
  std::string name;
  int64_t start_ns = 0;  // trace epoch
  int64_t dur_ns = 0;
  int64_t tid = 0;
  std::string trace;  // 32-hex trace id
  uint64_t span = 0;
  uint64_t parent = 0;
  int64_t end_ns() const { return start_ns + dur_ns; }
};

// The exporter writes ts/dur as microseconds with three decimals: integer
// nanoseconds, recovered exactly.
int64_t MicrosToNanos(const std::string& micros) {
  return std::llround(std::atof(micros.c_str()) * 1e3);
}

// For each span, the spans that ran directly inside it on its own thread:
// its children in the thread's nesting forest. A thread's spans nest
// (each closes before its enclosing span), and the exporter writes a
// thread's records in close order, so among spans with equal intervals
// the later record encloses the earlier.
std::vector<std::vector<size_t>> SameThreadChildren(
    const std::vector<ReportSpan>& spans) {
  std::map<int64_t, std::vector<size_t>> by_tid;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_tid[spans[i].tid].push_back(i);
  }
  std::vector<std::vector<size_t>> nested(spans.size());
  for (auto& [tid, order] : by_tid) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      if (spans[a].end_ns() != spans[b].end_ns()) {
        return spans[a].end_ns() > spans[b].end_ns();
      }
      return a > b;  // closed later: the outer one
    });
    std::vector<size_t> open;  // enclosing spans, innermost last
    for (size_t i : order) {
      while (!open.empty() &&
             spans[i].end_ns() > spans[open.back()].end_ns()) {
        open.pop_back();
      }
      if (!open.empty()) nested[open.back()].push_back(i);
      open.push_back(i);
    }
  }
  return nested;
}

int CmdTraceReport(Flags& flags) {
  const std::string trace_path = flags.GetString("trace", "");
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string flight_path = flags.GetString("flight", "");
  const int top = flags.GetIntAtLeast("top", 12, 0);
  flags.DieOnUnknown();
  if (trace_path.empty() && metrics_path.empty() && flight_path.empty()) {
    std::fprintf(stderr,
                 "error: trace-report wants --trace=FILE and/or "
                 "--metrics=FILE.json and/or --flight=FILE\n");
    return 2;
  }

  std::vector<ReportSpan> spans;
  std::map<std::string, std::vector<size_t>> by_trace;  // trace id -> spans
  if (!trace_path.empty()) {
    std::ifstream in(trace_path);
    if (!in) return FailWith(Status::IOError("cannot open " + trace_path));
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
      ReportSpan s;
      std::string tid, ts, dur, span_hex, parent_hex;
      if (!JsonRawField(line, "name", &s.name) ||
          !JsonRawField(line, "tid", &tid) ||
          !JsonRawField(line, "ts", &ts) ||
          !JsonRawField(line, "dur", &dur) ||
          !JsonRawField(line, "trace_id", &s.trace) ||
          !JsonRawField(line, "span_id", &span_hex) ||
          !JsonRawField(line, "parent_span_id", &parent_hex)) {
        std::fprintf(stderr, "error: %s: X event without causal args: %s\n",
                     trace_path.c_str(), line.c_str());
        return 1;
      }
      s.tid = std::atoll(tid.c_str());
      s.start_ns = MicrosToNanos(ts);
      s.dur_ns = MicrosToNanos(dur);
      s.span = std::strtoull(span_hex.c_str(), nullptr, 16);
      s.parent = std::strtoull(parent_hex.c_str(), nullptr, 16);
      by_trace[s.trace].push_back(spans.size());
      spans.push_back(std::move(s));
    }
    std::fprintf(stderr, "[trace-report] %s: %zu spans in %zu trace(s)\n",
                 trace_path.c_str(), spans.size(), by_trace.size());
    const std::vector<std::vector<size_t>> nested = SameThreadChildren(spans);

    for (const auto& [trace_id, members] : by_trace) {
      const ReportSpan* root = nullptr;
      std::map<uint64_t, std::vector<const ReportSpan*>> children;
      for (size_t i : members) {
        const ReportSpan& s = spans[i];
        if (s.parent == 0 && root == nullptr) root = &s;
        if (s.parent != 0) children[s.parent].push_back(&s);
      }
      if (root == nullptr) continue;  // torn file; check_trace.py flags it

      // Self time per stage: own duration minus the union of the
      // intervals of its causal children and of the spans that ran inside
      // it on its own thread. The second set covers a detached span such
      // as pool_task, which has no causal children but runs the members
      // parented to the job. Intervals overlap (members run in parallel
      // on the pool; a member nested on the span's thread is often its
      // causal child too), so merge before subtracting.
      struct Rollup {
        int64_t self_ns = 0;
        int64_t count = 0;
      };
      std::map<std::string, Rollup> rollups;
      for (size_t i : members) {
        const ReportSpan& s = spans[i];
        std::vector<std::pair<int64_t, int64_t>> intervals;
        auto add = [&](const ReportSpan& c) {
          const int64_t lo = std::max(c.start_ns, s.start_ns);
          const int64_t hi = std::min(c.end_ns(), s.end_ns());
          if (hi > lo) intervals.emplace_back(lo, hi);
        };
        auto it = children.find(s.span);
        if (it != children.end()) {
          for (const ReportSpan* c : it->second) add(*c);
        }
        for (size_t c : nested[i]) add(spans[c]);
        std::sort(intervals.begin(), intervals.end());
        int64_t covered = 0;
        int64_t end = std::numeric_limits<int64_t>::min();
        for (const auto& [lo, hi] : intervals) {
          if (lo > end) {
            covered += hi - lo;
            end = hi;
          } else if (hi > end) {
            covered += hi - end;
            end = hi;
          }
        }
        Rollup& r = rollups[s.name];
        r.self_ns += std::max<int64_t>(0, s.dur_ns - covered);
        r.count += 1;
      }

      std::printf("trace %s  root=%s  total=%.3fms  spans=%zu\n",
                  trace_id.c_str(), root->name.c_str(), root->dur_ns / 1e6,
                  members.size());
      std::vector<std::pair<std::string, Rollup>> ranked(rollups.begin(),
                                                         rollups.end());
      std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                                 const auto& b) {
        return a.second.self_ns > b.second.self_ns;
      });
      std::printf("  %-28s %6s %12s %6s\n", "stage", "count", "self_ms",
                  "%root");
      for (size_t i = 0; i < ranked.size() && i < (size_t)top; ++i) {
        const auto& [name, r] = ranked[i];
        std::printf("  %-28s %6lld %12.3f %5.1f%%\n", name.c_str(),
                    (long long)r.count, r.self_ns / 1e6,
                    root->dur_ns > 0
                        ? 100.0 * static_cast<double>(r.self_ns) /
                              static_cast<double>(root->dur_ns)
                        : 0.0);
      }
      // Critical path: descend into the child that finishes last — the
      // chain that bounded this job's wall clock.
      std::printf("  critical path:");
      const ReportSpan* node = root;
      for (;;) {
        std::printf(" %s(%.3fms)", node->name.c_str(), node->dur_ns / 1e6);
        auto it = children.find(node->span);
        if (it == children.end()) break;
        const ReportSpan* last = nullptr;
        for (const ReportSpan* c : it->second) {
          if (last == nullptr || c->end_ns() > last->end_ns()) {
            last = c;
          }
        }
        node = last;
        std::printf(" ->");
      }
      std::printf("\n");
    }
  }

  if (!metrics_path.empty()) {
    // Join histogram tail exemplars to their span trees: a p999 outlier
    // in the scrape names the exact trace to open in the timeline.
    std::ifstream in(metrics_path);
    if (!in) return FailWith(Status::IOError("cannot open " + metrics_path));
    std::string line;
    size_t exemplars = 0;
    while (std::getline(in, line)) {
      const size_t pos = line.find("\"exemplar\":");
      if (pos == std::string::npos) continue;
      std::string name, trace_id, span_id;
      JsonRawField(line, "name", &name);
      const std::string tail = line.substr(pos);
      std::string value;
      JsonRawField(tail, "value", &value);
      JsonRawField(tail, "trace_id", &trace_id);
      JsonRawField(tail, "span_id", &span_id);
      ++exemplars;
      const bool in_trace = by_trace.count(trace_id) > 0;
      std::printf("exemplar %-40s max=%ss trace=%s span=%s%s\n",
                  name.c_str(), value.c_str(), trace_id.c_str(),
                  span_id.c_str(),
                  trace_path.empty()
                      ? ""
                      : (in_trace ? "  [in trace]" : "  [not in trace]"));
    }
    std::fprintf(stderr, "[trace-report] %s: %zu histogram exemplar(s)\n",
                 metrics_path.c_str(), exemplars);
  }

  if (!flight_path.empty()) {
    auto dump = obs::ReadFlightDump(flight_path);
    if (!dump.ok()) return FailWith(dump.status());
    size_t records = 0;
    std::map<std::string, std::pair<int64_t, int64_t>> per_name;
    for (const obs::FlightDumpThread& t : dump->threads) {
      records += t.records.size();
      for (const obs::FlightRecord& r : t.records) {
        auto& acc = per_name[dump->Name(r.name_id)];
        acc.first += 1;
        acc.second += r.duration_ns;
      }
    }
    std::printf("flight %s: %zu thread(s), %zu retained record(s), "
                "dropped=%llu\n",
                flight_path.c_str(), dump->threads.size(), records,
                (unsigned long long)dump->dropped_records);
    if (dump->crash_signal != 0 || !dump->crash_reason.empty() ||
        dump->has_footer) {
      std::printf("  crash: signal=%d reason=%s%s\n",
                  dump->crash_signal != 0 ? dump->crash_signal
                                          : dump->footer_signal,
                  !dump->crash_reason.empty() ? dump->crash_reason.c_str()
                                              : dump->footer_reason.c_str(),
                  dump->has_footer ? " (footer present)" : "");
    } else {
      std::printf("  crash: none marked (clean exit or SIGKILL)\n");
    }
    std::printf("  %-28s %6s %12s\n", "span", "count", "total_ms");
    std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> ranked(
        per_name.begin(), per_name.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                               const auto& b) {
      return a.second.second > b.second.second;
    });
    for (size_t i = 0; i < ranked.size() && i < (size_t)top; ++i) {
      std::printf("  %-28s %6lld %12.3f\n", ranked[i].first.c_str(),
                  (long long)ranked[i].second.first,
                  ranked[i].second.second / 1e6);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// bench-report: emit the BENCH_{stream,storage,obs,wal}.json perf baselines
// (bench/README.md documents the schemas; CI validates and uploads them).
// The measurements live in bench/perf_harness.cc.
// ---------------------------------------------------------------------------
int CmdBenchReport(Flags& flags) {
  const double scale = flags.GetScale(0.02);
  const int repeats = flags.GetInt("repeats", 5);
  const std::string out_dir = flags.GetString("out-dir", ".");
  flags.DieOnUnknown();
  Status st = bench::WriteBenchReport(scale, repeats, out_dir);
  return st.ok() ? 0 : FailWith(st);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc - 2, argv + 2);
  const std::map<std::string, int (*)(Flags&)> commands = {
      {"generate", CmdGenerate},
      {"detect", CmdDetect},
      {"evaluate", CmdEvaluate},
      {"save-graph", CmdSaveGraph},
      {"stream-replay", CmdStreamReplay},
      {"bench-smoke", CmdBenchSmoke},
      {"bench-report", CmdBenchReport},
      {"metrics-dump", CmdMetricsDump},
      {"trace-report", CmdTraceReport},
  };
  const auto it = commands.find(command);
  if (it == commands.end()) {
    if (command == "help" || command == "--help") return Usage();
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    return Usage();
  }
  // The observability flags every command takes (bench-report leaves
  // the ring flags unread, so they are unknown there: its obs bench
  // installs its own ring).
  const std::string metrics_out = flags.GetString("metrics-out", "");
  std::string trace_out;
  if (command != "bench-report") {
    trace_out = flags.GetString("trace-out", "");
    const int rc = InstallSpanRing(flags, trace_out);
    if (rc != 0) return rc;
  }
  const int rc = it->second(flags);
  return rc != 0 ? rc : FinishObservability(metrics_out, trace_out);
}

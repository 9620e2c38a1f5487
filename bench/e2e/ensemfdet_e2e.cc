// ensemfdet_e2e: the end-to-end benchmark program. README.md in this
// directory documents the workloads and metrics; run.py drives it.
//
//   ensemfdet_e2e gen --workload=W --seed=S --data=DIR [--tiny]
//   ensemfdet_e2e run --workload=W --seed=S --seconds=T --data=DIR
//                     --work=DIR [--tiny] [--git-rev=REV]
//
// `gen` writes one workload's inputs for one seed into DIR and prints
// their fingerprints; nothing it does is measured. `run` sets the
// workload up several times, then runs timed operations through
// DetectionService until --seconds have passed (and at least the
// workload's minimum count). It prints the end-to-end metrics and the
// per-layer metrics, which come from the engine's metrics registry
// scraped around the same timed phase. Every metric prints as
// `name value unit`; the last stdout line is one JSON object for run.py.
// A failed check exits non-zero.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/presets.h"
#include "datagen/transaction_stream.h"
#include "ensemble/ensemfdet.h"
#include "ensemble/vote_table.h"
#include "eval/curves.h"
#include "eval/labels.h"
#include "eval/metrics.h"
#include "ingest/dynamic_graph_store.h"
#include "ingest/wal_codec.h"
#include "obs/metrics.h"
#include "service/detection_service.h"
#include "service/graph_registry.h"
#include "storage/wal_writer.h"
#include "stream/windowed_detector.h"

namespace ensemfdet {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. Sizes and the reasons for them are in README.md.
// ---------------------------------------------------------------------------

enum class Kind { kBatch, kStream };

struct Workload {
  const char* name;
  Kind kind;
  JdPreset preset;
  double scale;
  double tiny_scale;  // `--tiny` inputs for the smoke check
  /// Graphs generated per seed; job k runs on graph k mod graphs.
  int graphs;
  int num_samples;
  /// Jobs in flight: one, or one per pool worker.
  bool concurrent;
  /// Ensemble seed = run seed for every job (identical votes, checked);
  /// otherwise seed + job index.
  bool fixed_seed;
  /// Warm-up jobs per set-up, and their N (0 = num_samples).
  int warmup_jobs;
  int warmup_samples;
  /// Timed operations (jobs, or stream reports) run even past --seconds;
  /// f1 reads a fixed prefix of this length so it never depends on speed.
  int min_ops;
  int tiny_min_ops;
};

constexpr Workload kWorkloads[] = {
    {.name = "batch-1m", .kind = Kind::kBatch, .preset = JdPreset::kDataset1,
     .scale = 1.0, .tiny_scale = 0.01, .graphs = 1, .num_samples = 80,
     .concurrent = false, .fixed_seed = true, .warmup_jobs = 1,
     .warmup_samples = 8, .min_ops = 2, .tiny_min_ops = 2},
    {.name = "batch-small-concurrent", .kind = Kind::kBatch,
     .preset = JdPreset::kDataset2, .scale = 0.01, .tiny_scale = 0.002,
     .graphs = 8, .num_samples = 16,
     .concurrent = true, .fixed_seed = false, .warmup_jobs = 8,
     .warmup_samples = 0, .min_ops = 100, .tiny_min_ops = 16},
    {.name = "stream-wal", .kind = Kind::kStream, .preset = JdPreset::kDataset1,
     .scale = 0.45, .tiny_scale = 0.01, .graphs = 1, .num_samples = 16,
     .concurrent = false, .fixed_seed = true, .warmup_jobs = 0,
     .warmup_samples = 0, .min_ops = 60, .tiny_min_ops = 8},
};

/// Every workload samples random edges (RES) at ratio S = 0.1.
constexpr double kSampleRatio = 0.1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Concurrent batch jobs keep their first reports for f1.
constexpr int kF1Reports = 16;

/// Datagen seed of graph k: the run seed itself for one-graph workloads.
uint64_t DataSeed(uint64_t seed, int graphs, int k) {
  return graphs == 1 ? seed : seed * 1000 + static_cast<uint64_t>(k);
}

// stream-wal: a timeline of kCycles 72 h stretches; the first 4 h are a
// window checkpoint the session resumes from, the rest arrives in batches
// of at most kBatchEvents. README.md has the sizing.
constexpr int64_t kCycle = 3 * 86400;
constexpr int kCycles = 3;
constexpr int64_t kBurst = 1800;
constexpr int64_t kWindow = 14400;
constexpr int64_t kInterval = 600;
constexpr int64_t kFill = 14400;
constexpr int64_t kBatchEvents = 256;
constexpr int64_t kTinyBatchEvents = 16;
constexpr int64_t kGroupCommit = 16;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int PoolWidth() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

EnsemFDetConfig JobConfig(const Workload& w, uint64_t seed, int64_t index,
                          int num_samples) {
  EnsemFDetConfig config;
  config.method = SampleMethod::kRandomEdge;
  config.num_samples = num_samples;
  config.ratio = kSampleRatio;
  config.seed = w.fixed_seed ? seed : seed + static_cast<uint64_t>(index);
  return config;
}

// ---------------------------------------------------------------------------
// Small utilities: flags, files, hashes, statistics, JSON.
// ---------------------------------------------------------------------------

class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv) {
    Flags flags;
    for (int i = 2; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        return Status::InvalidArgument("unexpected argument " +
                                       std::string(arg));
      }
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      flags.values_[std::string(arg.substr(0, eq))] =
          eq == std::string_view::npos ? "1" : std::string(arg.substr(eq + 1));
    }
    return flags;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  Result<std::string> Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      return Status::InvalidArgument("missing --" + key);
    }
    return it->second;
  }

  Result<double> Number(const std::string& key) const {
    ENSEMFDET_ASSIGN_OR_RETURN(std::string text, Require(key));
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
        value < 0) {
      return Status::InvalidArgument("--" + key + " wants a number >= 0, got " +
                                     text);
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::IOError("cannot read " + path);
  return buffer.str();
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

template <typename T>
void Put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool Take(std::string_view* in, T* value) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

uint64_t VotesDigest(const VoteTable& votes) {
  const std::span<const int32_t> users = votes.all_user_votes();
  const std::span<const int32_t> merchants = votes.all_merchant_votes();
  return HashCombine(Hash64(users.data(), users.size_bytes()),
                     Hash64(merchants.data(), merchants.size_bytes()));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string_view json) {
    if (out_.size() > 1) out_ += ',';
    out_ += JsonString(key);
    out_ += ':';
    out_ += json;
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Raw(key, JsonString(value));
  }
  std::string Close() const {
    std::string out = out_;
    out += '}';
    return out;
  }

 private:
  std::string out_ = "{";
};

// ---------------------------------------------------------------------------
// Result reporting: metrics, checks, machine block.
// ---------------------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    std::printf("%s %.9g %s\n", name.c_str(), value, unit.c_str());
    metrics_.emplace_back(name, value, unit);
  }

  void Info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }

  /// Records one built-in check; a failure is printed and fails the run.
  void Check(bool ok, const std::string& name, const std::string& detail = "") {
    ++checks_;
    if (ok) return;
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(), detail.c_str());
    std::string failure = name;
    if (!detail.empty()) {
      failure += ": ";
      failure += detail;
    }
    failures_.push_back(std::move(failure));
  }

  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_ops_;
  }

  bool correct() const { return failures_.empty(); }
  int64_t failed() const {
    return std::min<int64_t>(
        attempted_, failed_ops_ + static_cast<int64_t>(failures_.size()));
  }

  std::string Json(const std::map<std::string, std::string>& machine) const {
    std::string failures = "[";
    for (const std::string& f : failures_) {
      if (failures.size() > 1) failures += ',';
      failures += JsonString(f);
    }
    failures += ']';
    JsonObject info, machine_json, metrics;
    for (const auto& [key, value] : info_) info.Str(key, value);
    for (const auto& [key, value] : machine) machine_json.Str(key, value);
    for (const auto& [name, value, unit] : metrics_) {
      metrics.Raw(name,
                  JsonObject().Raw("value", JsonNumber(value)).Str("unit", unit)
                      .Close());
    }
    return JsonObject()
        .Raw("correct", correct() ? "true" : "false")
        .Raw("attempted", std::to_string(std::max<int64_t>(1, attempted_)))
        .Raw("failed", std::to_string(failed()))
        .Raw("checks", std::to_string(checks_))
        .Raw("check_failures", failures)
        .Raw("info", info.Close())
        .Raw("machine", machine_json.Close())
        .Raw("metrics", metrics.Close())
        .Close();
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  int64_t checks_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ops_ = 0;
};

std::string Trim(std::string s) {
  const size_t b = s.find_first_not_of(" \t");
  const size_t e = s.find_last_not_of(" \t\n");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

std::map<std::string, std::string> MachineBlock(const std::string& git_rev) {
  std::map<std::string, std::string> m;
  m["cpu_model"] = "unknown";
  m["avx2"] = "no";
  m["avx512f"] = "no";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = Trim(line.substr(0, colon));
    const std::string value = Trim(line.substr(colon + 1));
    if (key == "model name" && m["cpu_model"] == "unknown") {
      m["cpu_model"] = value;
    } else if (key == "flags") {
      const std::string padded = " " + value + " ";
      if (padded.find(" avx2 ") != std::string::npos) m["avx2"] = "yes";
      if (padded.find(" avx512f ") != std::string::npos) m["avx512f"] = "yes";
    }
  }
  std::ifstream l3("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string l3_size;
  m["l3"] = (l3 >> l3_size) ? l3_size : "unknown";
  m["nproc"] = std::to_string(PoolWidth());
#if defined(__clang__)
  m["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  m["compiler"] = std::string("gcc ") + __VERSION__;
#else
  m["compiler"] = "unknown";
#endif
  m["build_type"] = ENSEMFDET_E2E_BUILD_TYPE;
  m["git_rev"] = git_rev;
  return m;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// The engine's own instruments: MetricsRegistry::Global() scraped before
// and after the timed phase. Every per-layer engine time comes from here,
// so the benchmark and a live scrape of the same run cannot disagree.
// ---------------------------------------------------------------------------

class RegistryDelta {
 public:
  void Start() { before_ = obs::MetricsRegistry::Global().Scrape(); }
  void Stop() { after_ = obs::MetricsRegistry::Global().Scrape(); }

  /// Growth of a counter, or of a histogram's sum (in seconds for
  /// histograms of seconds). A series missing from either scrape reads 0
  /// and is listed in missing().
  double Get(std::string_view name) {
    const obs::MetricSnapshot* a = before_.Find(name);
    const obs::MetricSnapshot* b = after_.Find(name);
    if (a == nullptr || b == nullptr) {
      missing_.emplace_back(name);
      return 0.0;
    }
    if (b->kind != obs::InstrumentKind::kHistogram) {
      return static_cast<double>(b->value - a->value);
    }
    const double sum =
        static_cast<double>(b->histogram.raw_sum - a->histogram.raw_sum);
    return b->histogram.unit == obs::Histogram::Unit::kSeconds ? sum * 1e-9
                                                               : sum;
  }

  const std::vector<std::string>& missing() const { return missing_; }

 private:
  obs::RegistrySnapshot before_;
  obs::RegistrySnapshot after_;
  std::vector<std::string> missing_;
};

// ---------------------------------------------------------------------------
// Inputs: gen writes them once per (workload, scale, seed); run reads them
// back and verifies every fingerprint against the manifest.
// ---------------------------------------------------------------------------

using Manifest = std::map<std::string, std::string>;

std::string EncodeBlacklist(const LabelSet& labels) {
  std::string out;
  const std::vector<UserId> fraud = labels.FraudUsers();
  Put<uint64_t>(&out, static_cast<uint64_t>(labels.num_users()));
  Put<uint64_t>(&out, fraud.size());
  for (UserId u : fraud) Put<uint32_t>(&out, u);
  return out;
}

Result<LabelSet> DecodeBlacklist(std::string_view in) {
  uint64_t users = 0;
  uint64_t count = 0;
  if (!Take(&in, &users) || !Take(&in, &count) || count > users ||
      users > std::numeric_limits<uint32_t>::max() ||
      in.size() != count * sizeof(uint32_t)) {
    return Status::IOError("malformed blacklist file");
  }
  std::vector<UserId> fraud(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t u = 0;
    Take(&in, &u);
    if (u >= users) return Status::IOError("blacklist id out of range");
    fraud[i] = u;
  }
  return LabelSet(static_cast<int64_t>(users), fraud);
}

struct Inputs {
  std::vector<LabelSet> blacklists;  // one per graph
  std::vector<std::string> graph_paths;  // batch: .efg graph snapshots
  std::vector<uint64_t> graph_fingerprints;
  // stream-wal only
  std::string checkpoint_path;  // window after the first kFill seconds
  int64_t num_users = 0;
  int64_t num_merchants = 0;
  std::vector<Transaction> events;  // whole timeline, timestamp order
  size_t fill_end = 0;              // events[0, fill_end) are in the checkpoint
};

Status WriteManifest(const std::string& path, const Manifest& manifest) {
  std::string out;
  for (const auto& [key, value] : manifest) out += key + " " + value + "\n";
  return WriteFile(path, out);
}

Result<Manifest> ReadManifest(const std::string& path) {
  ENSEMFDET_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  Manifest manifest;
  std::istringstream in(text);
  std::string key, value;
  while (in >> key >> value) manifest[key] = value;
  return manifest;
}

int64_t StreamBatchEvents(bool tiny) {
  return tiny ? kTinyBatchEvents : kBatchEvents;
}

std::string GraphName(int k) {
  std::string name = "g";
  name += std::to_string(k);
  return name;
}

Status Generate(const Workload& w, uint64_t seed, bool tiny,
                const std::string& dir) {
  const double scale = tiny ? w.tiny_scale : w.scale;
  const std::string tmp = dir + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  Manifest manifest;
  manifest["workload"] = w.name;
  manifest["seed"] = std::to_string(seed);
  manifest["scale"] = JsonNumber(scale);
  manifest["graphs"] = std::to_string(w.graphs);

  for (int k = 0; k < w.graphs; ++k) {
    const std::string id = std::to_string(k);
    ENSEMFDET_ASSIGN_OR_RETURN(
        Dataset data,
        GenerateJdPreset(w.preset, scale, DataSeed(seed, w.graphs, k)));
    manifest["edges." + id] = std::to_string(data.graph.num_edges());
    const std::string blacklist = EncodeBlacklist(data.blacklist);
    ENSEMFDET_RETURN_NOT_OK(
        WriteFile(tmp + "/blacklist-" + id + ".bin", blacklist));
    manifest["fingerprint.blacklist." + id] =
        Hex(Hash64(blacklist.data(), blacklist.size()));
    if (w.kind == Kind::kBatch) {
      GraphRegistry registry;
      ENSEMFDET_ASSIGN_OR_RETURN(
          GraphSnapshot snapshot,
          registry.Publish(GraphName(k), std::move(data.graph)));
      ENSEMFDET_RETURN_NOT_OK(registry.SaveSnapshot(
          GraphName(k), tmp + "/graph-" + id + ".efg"));
      manifest["fingerprint.graph." + id] = Hex(snapshot.fingerprint);
      continue;
    }
    // kCycles stretches of kCycle seconds back to back, each from its own
    // dataset on the same user and merchant ids (the first is `data`): the
    // stream outlasts a run while the id space stays that of one dataset.
    // f1 reads reports from the first stretch only, so the blacklist is the
    // first dataset's.
    std::vector<Transaction> events;
    for (int c = 0; c < kCycles; ++c) {
      const uint64_t cycle_seed = c == 0 ? seed : seed * 1000 + c;
      std::optional<Dataset> extra;
      if (c > 0) {
        ENSEMFDET_ASSIGN_OR_RETURN(
            extra, GenerateJdPreset(w.preset, scale, cycle_seed));
      }
      StreamTimelineConfig timeline;
      timeline.horizon = kCycle;
      timeline.burst_duration = kBurst;
      timeline.seed = cycle_seed;
      ENSEMFDET_ASSIGN_OR_RETURN(
          std::vector<Transaction> part,
          BuildTransactionStream(c == 0 ? data : *extra, timeline));
      for (Transaction& tx : part) {
        tx.timestamp += c * kCycle;
        events.push_back(tx);
      }
    }
    const size_t fill_end = static_cast<size_t>(
        std::lower_bound(events.begin(), events.end(), kFill,
                         [](const Transaction& tx, int64_t t) {
                           return tx.timestamp < t;
                         }) -
        events.begin());

    DynamicGraphStoreConfig store_config;
    store_config.num_users = data.graph.num_users();
    store_config.num_merchants = data.graph.num_merchants();
    store_config.window = kWindow;
    ENSEMFDET_ASSIGN_OR_RETURN(DynamicGraphStore store,
                               DynamicGraphStore::Create(store_config));
    const std::vector<Transaction> fill(events.begin(),
                                        events.begin() + fill_end);
    ENSEMFDET_ASSIGN_OR_RETURN(std::vector<IngestBatch> batches,
                               SliceIntoBatches(fill, StreamBatchEvents(tiny)));
    for (const IngestBatch& batch : batches) {
      ENSEMFDET_ASSIGN_OR_RETURN(IngestStats stats, store.Apply(batch));
      (void)stats;
    }
    ENSEMFDET_RETURN_NOT_OK(store.SaveCheckpoint(tmp + "/window.efg"));
    ENSEMFDET_ASSIGN_OR_RETURN(std::string checkpoint,
                               ReadFile(tmp + "/window.efg"));
    manifest["fingerprint.checkpoint"] =
        Hex(Hash64(checkpoint.data(), checkpoint.size()));

    // The event log is one IngestBatch in the engine's WAL payload layout.
    IngestBatch all;
    all.transactions = std::move(events);
    const std::vector<std::byte> log = ingest::EncodeIngestBatch(all);
    ENSEMFDET_RETURN_NOT_OK(WriteFile(
        tmp + "/events.bin",
        std::string_view(reinterpret_cast<const char*>(log.data()),
                         log.size())));
    manifest["fingerprint.events"] = Hex(Hash64(log.data(), log.size()));
    manifest["users"] = std::to_string(store_config.num_users);
    manifest["merchants"] = std::to_string(store_config.num_merchants);
    manifest["fill_end"] = std::to_string(fill_end);
    manifest["events"] = std::to_string(all.transactions.size());
  }
  ENSEMFDET_RETURN_NOT_OK(WriteManifest(tmp + "/manifest.txt", manifest));
  fs::remove_all(dir);
  fs::rename(tmp, dir);
  for (const auto& [key, value] : manifest) {
    if (key.rfind("fingerprint.", 0) == 0) {
      std::printf("%s %s\n", key.c_str(), value.c_str());
    }
  }
  return Status::OK();
}

/// Reads the inputs in `dir`, checking each file's fingerprint against
/// the manifest (the graph's is checked after LoadSnapshot verifies it).
Result<Inputs> LoadInputs(const Workload& w, const std::string& dir,
                          Report* report) {
  ENSEMFDET_ASSIGN_OR_RETURN(Manifest manifest,
                             ReadManifest(dir + "/manifest.txt"));
  if (manifest["workload"] != w.name) {
    return Status::InvalidArgument(dir + " holds inputs of workload " +
                                   manifest["workload"]);
  }
  for (const auto& [key, value] : manifest) {
    if (key.rfind("fingerprint.", 0) == 0) report->Info(key, value);
  }
  auto verify = [&](const std::string& file, const std::string& key,
                    const std::string& bytes) {
    const std::string actual = Hex(Hash64(bytes.data(), bytes.size()));
    report->Check(actual == manifest[key], "input." + key,
                  file + " hashes to " + actual + ", manifest says " +
                      manifest[key]);
  };

  Inputs inputs;
  for (int k = 0; k < w.graphs; ++k) {
    const std::string id = std::to_string(k);
    const std::string file = "blacklist-" + id + ".bin";
    ENSEMFDET_ASSIGN_OR_RETURN(std::string blacklist,
                               ReadFile(dir + "/" + file));
    verify(file, "fingerprint.blacklist." + id, blacklist);
    ENSEMFDET_ASSIGN_OR_RETURN(LabelSet labels, DecodeBlacklist(blacklist));
    inputs.blacklists.push_back(std::move(labels));
    if (w.kind == Kind::kBatch) {
      inputs.graph_paths.push_back(dir + "/graph-" + id + ".efg");
      inputs.graph_fingerprints.push_back(std::strtoull(
          manifest["fingerprint.graph." + id].c_str(), nullptr, 16));
    }
  }
  if (w.kind == Kind::kStream) {
    inputs.checkpoint_path = dir + "/window.efg";
    ENSEMFDET_ASSIGN_OR_RETURN(std::string checkpoint,
                               ReadFile(inputs.checkpoint_path));
    verify("window.efg", "fingerprint.checkpoint", checkpoint);
    ENSEMFDET_ASSIGN_OR_RETURN(std::string log, ReadFile(dir + "/events.bin"));
    verify("events.bin", "fingerprint.events", log);
    ENSEMFDET_ASSIGN_OR_RETURN(
        IngestBatch all,
        ingest::DecodeIngestBatch(std::span<const std::byte>(
            reinterpret_cast<const std::byte*>(log.data()), log.size())));
    inputs.events = std::move(all.transactions);
    inputs.num_users = std::strtoll(manifest["users"].c_str(), nullptr, 10);
    inputs.num_merchants =
        std::strtoll(manifest["merchants"].c_str(), nullptr, 10);
    inputs.fill_end = std::strtoull(manifest["fill_end"].c_str(), nullptr, 10);
    if (inputs.num_users != inputs.blacklists[0].num_users() ||
        inputs.fill_end > inputs.events.size()) {
      return Status::IOError("manifest disagrees with the inputs in " + dir);
    }
    for (const Transaction& tx : inputs.events) {
      if (tx.user >= inputs.num_users || tx.merchant >= inputs.num_merchants) {
        return Status::IOError("event id out of range in " + dir);
      }
    }
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// Shared pieces of a run.
// ---------------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 7;
  double seconds = 10.0;
  bool tiny = false;
  std::string work_dir;
  int width = 1;
};

int MinOps(const Options& o) {
  return o.tiny ? o.workload->tiny_min_ops : o.workload->min_ops;
}

double BestF1(const VoteTable& votes, const LabelSet& labels, int n) {
  double best = 0.0;
  for (const OperatingPoint& p : VoteSweep(votes, labels, n)) {
    best = std::max(best, p.f1);
  }
  return best;
}

/// Per-layer metrics of the timed phase. Service figures are timed by the
/// client, engine times are registry deltas, and work counts come from the
/// reports the service returned. A metric whose layer does not run in a
/// workload reads 0. Totals are divided by the operation count or the
/// timed wall, because a time-bounded run does more operations when they
/// get faster.
struct LayerMetrics {
  double queue_wait_ms_p50 = 0, call_us_p50 = 0, backpressure_retries = 0;
  double snapshot_load_s = 0;
  double wal_append_s = 0, wal_appends = 0;
  double sample_s = 0, peel_s = 0, sampled_edges = 0, blocks_kept = 0;
  /// Ensemble time as the reports returned it, and as the registry's
  /// histogram of the same runs recorded it.
  double reported_s = 0, registry_ensemble_s = 0;
  double member_max_over_mean = 0, aggregate_s = 0;
  double stream_detect_s = 0, publish_s = 0;
  double components_reused = 0, components_eligible = 0;
  double edges_recomputed = 0, edges_total = 0, publishes = 0, compactions = 0;
  double timed_wall_s = 0;
  double ops = 0;

  void Emit(int width, Report* r) const {
    r->Metric("service.queue_wait_ms_p50", queue_wait_ms_p50, "ms");
    r->Metric("service.call_us_p50", call_us_p50, "us");
    r->Metric("service.backpressure_retries", backpressure_retries, "count");
    r->Metric("storage.snapshot_load_s", snapshot_load_s, "s");
    r->Metric("storage.wal_share", Ratio(wal_append_s, timed_wall_s), "1");
    r->Metric("storage.wal_us_per_append",
              Ratio(wal_append_s, wal_appends) * 1e6, "us");
    r->Metric("sampling.s_per_op", Ratio(sample_s, ops), "s");
    r->Metric("sampling.edges_per_s", Ratio(sampled_edges, sample_s), "1/s");
    r->Metric("detect.s_per_op", Ratio(peel_s, ops), "s");
    r->Metric("detect.residual_edges_per_s", Ratio(sampled_edges, peel_s),
              "1/s");
    r->Metric("detect.blocks_kept_per_op", Ratio(blocks_kept, ops), "count");
    r->Metric("ensemble.s_per_op", Ratio(reported_s, ops), "s");
    r->Metric("ensemble.member_max_over_mean", member_max_over_mean, "1");
    r->Metric("ensemble.pool_utilization",
              Ratio(sample_s + peel_s, width * timed_wall_s), "1");
    r->Metric("ensemble.aggregate_ratio", Ratio(aggregate_s, reported_s),
              "1");
    r->Metric("stream.detect_share", Ratio(stream_detect_s, timed_wall_s),
              "1");
    r->Metric("ingest.publish_share", Ratio(publish_s, timed_wall_s), "1");
    r->Metric("ingest.component_reuse_ratio",
              Ratio(components_reused, components_eligible), "1");
    r->Metric("ingest.edges_recomputed_ratio",
              Ratio(edges_recomputed, edges_total), "1");
    r->Metric("ingest.publishes_per_op", Ratio(publishes, ops), "count");
    r->Metric("ingest.compactions_per_op", Ratio(compactions, ops), "count");
    r->Metric("obs.registry_ratio", Ratio(registry_ensemble_s, reported_s),
              "1");
  }
};

/// Reads the engine times shared by every workload and prints any series
/// the registry lacked.
void ReadRegistry(RegistryDelta* delta, LayerMetrics* layer, Report* report) {
  layer->sample_s = delta->Get("ensemfdet_detect_member_sample_seconds");
  layer->peel_s = delta->Get("ensemfdet_detect_member_peel_seconds");
  std::string missing;
  for (const std::string& name : delta->missing()) {
    missing += (missing.empty() ? "" : ",") + name;
  }
  if (!missing.empty()) {
    std::printf("registry_missing %s\n", missing.c_str());
    report->Info("registry_missing", missing);
  }
}

/// One set-up of the service under test. Declaration order is destruction
/// order reversed: the service goes before the pool it runs on and the
/// registry it reads.
struct Env {
  std::unique_ptr<GraphRegistry> registry;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<DetectionService> service;
  std::vector<GraphSnapshot> snapshots;  // batch workloads
  std::optional<StreamId> stream;        // stream-wal: the open session

  /// Job retention and the result cache are capped so they fill within
  /// the minimum operation count; retention still covers every job the
  /// closed loop has not waited for yet.
  void Start(int width) {
    DetectionService::Options options;
    options.max_finished_jobs = 2 * width;
    options.cache_capacity = 16;
    registry = std::make_unique<GraphRegistry>();
    pool = std::make_unique<ThreadPool>(width);
    service = std::make_unique<DetectionService>(registry.get(), pool.get(),
                                                 options);
  }

  /// Tears the set-up down and hands its freed memory back, so the next
  /// set-up's peak RSS is its own.
  void Reset() {
    if (stream.has_value()) (void)service->CloseStream(*stream);
    stream.reset();
    service.reset();
    pool.reset();
    snapshots.clear();
    registry.reset();
    malloc_trim(0);
  }
};

/// The end-to-end numbers every run prints.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> latency_s;
  double throughput = 0;
  double f1 = 0;
  /// Read once min_ops timed operations are done: later growth (caches
  /// filling) would tie the number to how many operations fit the run.
  double peak_rss_mb = 0;

  void OpDone(int64_t ops, int min_ops) {
    if (ops == min_ops) peak_rss_mb = PeakRssMb();
  }
};

/// Throughput as the median rate over consecutive windows of the timed
/// phase, so that a burst of load from elsewhere on the host moves one
/// window and not the number. A window closes at the first completion at
/// least `window_s` after it opened (1 s, or a tenth of a shorter run); a
/// trailing window shorter than that is dropped.
class RateWindows {
 public:
  RateWindows(Clock::time_point start, double run_s)
      : open_(start), window_s_(std::min(1.0, run_s / 10)) {}

  /// `count` units of work (jobs or events) completed at `t`.
  void Add(Clock::time_point t, double count) {
    count_ += count;
    const double span = SecondsBetween(open_, t);
    if (span <= 0.0 || span < window_s_) return;
    rates_.push_back(count_ / span);
    open_ = t;
    count_ = 0;
  }

  double MedianRate() const { return Median(rates_); }

 private:
  Clock::time_point open_;
  double window_s_;
  double count_ = 0;
  std::vector<double> rates_;
};

void EmitEndToEnd(const EndToEnd& e, Report* r) {
  r->Metric("setup_s", Median(e.setup_s), "s");
  r->Metric("latency_p50_ms", Median(e.latency_s) * 1e3, "ms");
  r->Metric("throughput_per_s", e.throughput, "1/s");
  r->Metric("f1", e.f1, "1");
  r->Metric("peak_rss_mb", e.peak_rss_mb > 0 ? e.peak_rss_mb : PeakRssMb(),
            "MB");
  const size_t n = e.latency_s.size();
  std::printf("latency_samples %zu count\n", n);
  // A p90 is printed only where at least ten samples lie beyond it.
  if (n >= 100) {
    std::printf("latency_p90_ms %.9g ms\n", Quantile(e.latency_s, 0.9) * 1e3);
  }
}

// ---------------------------------------------------------------------------
// Batch workloads: jobs through DetectionService.
// ---------------------------------------------------------------------------

JobRequest MakeJob(const Workload& w, uint64_t seed, int64_t index,
                   int num_samples) {
  JobRequest request;
  request.graph_name = GraphName(static_cast<int>(index % w.graphs));
  request.detector = DetectorKind::kEnsemFDet;
  request.ensemble = JobConfig(w, seed, index, num_samples);
  // Repeats of one fixed-seed job must recompute, not hit the cache.
  request.use_cache = !w.fixed_seed;
  return request;
}

Status SetUpBatch(const Options& o, const Inputs& in, Env* env,
                  double* load_s) {
  const Workload& w = *o.workload;
  env->Start(o.width);
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < w.graphs; ++k) {
    ENSEMFDET_ASSIGN_OR_RETURN(
        GraphSnapshot snapshot,
        env->registry->LoadSnapshot(GraphName(k), in.graph_paths[k]));
    env->snapshots.push_back(std::move(snapshot));
  }
  *load_s = SecondsBetween(t0, Clock::now());
  const int n = w.warmup_samples > 0 ? w.warmup_samples : w.num_samples;
  for (int j = 0; j < w.warmup_jobs; ++j) {
    ENSEMFDET_ASSIGN_OR_RETURN(std::shared_ptr<const JobResult> result,
                               env->service->Detect(MakeJob(w, o.seed, j, n)));
    (void)result;
  }
  return Status::OK();
}

struct ServiceJob {
  int64_t index = 0;
  double latency_s = 0;
  double service_s = 0;
  double submit_s = 0;
  uint64_t digest = 0;
};

/// Closed loop: keeps `in_flight` jobs submitted from this one thread and
/// resubmits as each completes (completions are awaited in submission
/// order). Starts no job once --seconds have passed and min_ops ran.
template <typename SubmitFn, typename WaitFn>
double ClosedLoop(int in_flight, double seconds, int min_ops,
                  const SubmitFn& submit, const WaitFn& wait) {
  const Clock::time_point start = Clock::now();
  int64_t started = 0;
  std::deque<int64_t> pending;
  auto more = [&] {
    return started < min_ops ||
           SecondsBetween(start, Clock::now()) < seconds;
  };
  auto begin = [&] {
    if (submit(started)) pending.push_back(started);
    ++started;
  };
  while (static_cast<int>(pending.size()) < in_flight && more()) begin();
  while (!pending.empty()) {
    const int64_t k = pending.front();
    pending.pop_front();
    wait(k);
    if (more()) begin();
  }
  return SecondsBetween(start, Clock::now());
}

Status RunBatch(const Options& o, const Inputs& in, Report* report) {
  const Workload& w = *o.workload;
  EndToEnd e2e;
  LayerMetrics layer;
  std::vector<double> loads;

  Env env;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    env.Reset();  // each set-up starts cold: new pool, new worker arenas
    const Clock::time_point t0 = Clock::now();
    double load_s = 0;
    ENSEMFDET_RETURN_NOT_OK(SetUpBatch(o, in, &env, &load_s));
    e2e.setup_s.push_back(SecondsBetween(t0, Clock::now()));
    loads.push_back(load_s);
  }
  layer.snapshot_load_s = Median(loads);
  for (int k = 0; k < w.graphs; ++k) {
    report->Check(env.snapshots[k].fingerprint == in.graph_fingerprints[k],
                  "input.fingerprint.graph." + std::to_string(k),
                  "loaded " + Hex(env.snapshots[k].fingerprint));
  }

  // --- Timed phase through the service.
  const int first = w.warmup_jobs;
  const int in_flight = w.concurrent ? o.width : 1;
  struct Submitted {
    Clock::time_point t0;
    double submit_s;
    JobId id;
  };
  std::map<int64_t, Submitted> submitted;
  std::vector<ServiceJob> done;
  std::vector<std::pair<int64_t, std::shared_ptr<const JobResult>>> kept;
  std::vector<double> member_skew;
  int64_t retries = 0;
  int64_t cache_hits = 0;
  RegistryDelta registry;
  registry.Start();
  RateWindows rate(Clock::now(), o.seconds);
  const double wall = ClosedLoop(
      in_flight, o.seconds, MinOps(o),
      [&](int64_t k) {
        const Clock::time_point t0 = Clock::now();
        while (true) {
          const Clock::time_point call = Clock::now();
          Result<JobId> id = env.service->Submit(
              MakeJob(w, o.seed, first + k, w.num_samples));
          if (id.ok()) {
            submitted[k] = {t0, SecondsBetween(call, Clock::now()), *id};
            return true;
          }
          if (id.status().code() != StatusCode::kResourceExhausted) {
            report->CountOp(false);
            return false;
          }
          ++retries;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      },
      [&](int64_t k) {
        const Submitted s = submitted[k];
        submitted.erase(k);
        Result<std::shared_ptr<const JobResult>> result =
            env.service->Wait(s.id);
        const Clock::time_point t1 = Clock::now();
        report->CountOp(result.ok());
        if (!result.ok()) return;
        rate.Add(t1, 1);
        const JobResult& r = **result;
        ServiceJob job;
        job.index = first + k;
        job.latency_s = SecondsBetween(s.t0, t1);
        job.service_s = r.seconds;
        job.submit_s = s.submit_s;
        if (r.cache_hit) ++cache_hits;
        if (w.fixed_seed) job.digest = VotesDigest(r.report->votes);
        report->Check(r.report->num_samples == w.num_samples &&
                          r.report->members.size() ==
                              static_cast<size_t>(w.num_samples),
                      "batch.member_count");
        double member_sum = 0, member_max = 0;
        for (const EnsemFDetReport::MemberStats& m : r.report->members) {
          layer.sampled_edges += static_cast<double>(m.sample_edges);
          layer.blocks_kept += m.num_blocks;
          member_sum += m.seconds;
          member_max = std::max(member_max, m.seconds);
        }
        member_skew.push_back(Ratio(
            member_max,
            member_sum / static_cast<double>(r.report->members.size())));
        layer.reported_s += r.report->total_seconds;
        if (static_cast<int>(kept.size()) < (w.fixed_seed ? 1 : kF1Reports)) {
          kept.emplace_back(job.index, *result);
        }
        done.push_back(job);
        e2e.OpDone(static_cast<int64_t>(done.size()), MinOps(o));
      });
  registry.Stop();

  report->Check(!done.empty(), "batch.jobs_completed");
  report->Check(cache_hits == 0, "batch.no_cache_hits",
                std::to_string(cache_hits) + " jobs hit the result cache");
  if (w.fixed_seed) {
    bool same = true;
    for (const ServiceJob& j : done) same = same && j.digest == done[0].digest;
    report->Check(same, "batch.identical_votes",
                  "fixed-seed jobs produced different vote tables");
  }
  std::vector<double> queue_wait, submit_calls;
  for (const ServiceJob& j : done) {
    e2e.latency_s.push_back(j.latency_s);
    queue_wait.push_back(j.latency_s - j.service_s);
    submit_calls.push_back(j.submit_s);
  }
  e2e.throughput = rate.MedianRate();
  std::vector<double> f1s;
  for (const auto& [index, r] : kept) {
    f1s.push_back(BestF1(r->report->votes, in.blacklists[index % w.graphs],
                         w.num_samples));
  }
  kept.clear();
  e2e.f1 = Median(f1s);
  report->Check(e2e.f1 > 0.0, "batch.f1_positive");
  report->Info("timed_ops", std::to_string(done.size()));
  EmitEndToEnd(e2e, report);
  std::printf("job_retries %lld count\n", static_cast<long long>(retries));

  layer.queue_wait_ms_p50 = Median(queue_wait) * 1e3;
  layer.call_us_p50 = Median(submit_calls) * 1e6;
  layer.backpressure_retries = static_cast<double>(retries);
  layer.timed_wall_s = wall;
  layer.ops = static_cast<double>(done.size());
  layer.member_max_over_mean = Median(member_skew);
  layer.registry_ensemble_s = registry.Get("ensemfdet_detect_run_seconds");
  layer.aggregate_s = registry.Get("ensemfdet_detect_aggregate_seconds");
  ReadRegistry(&registry, &layer, report);
  layer.Emit(o.width, report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// stream-wal: one durable streaming session.
// ---------------------------------------------------------------------------

struct StreamPlan {
  std::vector<IngestBatch> batches;  // events after the checkpoint
  std::vector<bool> fires;           // whether each batch fires a report
  size_t first_fire = 0;             // the set-up ends at this batch
};

/// Slices the events after the checkpoint into batches and applies the
/// windowed detector's clock rule: the clock starts at the first event
/// after the resume, and an event at least one interval past the last
/// detection fires a report. A batch ends after at most StreamBatchEvents
/// events or right after an event that fires, so each batch fires at most
/// one report and the producer can wait for every report.
Result<StreamPlan> PlanStream(const Inputs& in, bool tiny) {
  StreamPlan plan;
  const size_t batch_events = static_cast<size_t>(StreamBatchEvents(tiny));
  int64_t last = std::numeric_limits<int64_t>::min();
  IngestBatch batch;
  for (size_t k = in.fill_end; k < in.events.size(); ++k) {
    const Transaction& tx = in.events[k];
    bool fires = false;
    if (last == std::numeric_limits<int64_t>::min()) {
      last = tx.timestamp;
    } else if (tx.timestamp - last >= kInterval) {
      last = tx.timestamp;
      fires = true;
    }
    batch.transactions.push_back(tx);
    if (fires || batch.transactions.size() == batch_events ||
        k + 1 == in.events.size()) {
      plan.batches.push_back(std::move(batch));
      plan.fires.push_back(fires);
      batch = IngestBatch();
    }
  }
  while (plan.first_fire < plan.fires.size() &&
         !plan.fires[plan.first_fire]) {
    ++plan.first_fire;
  }
  if (plan.first_fire + 1 >= plan.batches.size()) {
    return Status::InvalidArgument("stream too short for a timed phase");
  }
  return plan;
}

WindowedDetectorConfig StreamDetectorConfig(const Options& o,
                                            const Inputs& in) {
  WindowedDetectorConfig config;
  config.num_users = in.num_users;
  config.num_merchants = in.num_merchants;
  config.window = kWindow;
  config.detection_interval = kInterval;
  config.ensemble = JobConfig(*o.workload, o.seed, 0, o.workload->num_samples);
  return config;
}

/// Ingests one batch, retrying while the session pushes back.
Status Ingest(Env* env, const IngestBatch& batch, int64_t* retries) {
  while (true) {
    Status st = env->service->IngestBatch(*env->stream, batch);
    if (st.code() != StatusCode::kResourceExhausted) return st;
    ++*retries;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Union of users accepted at T = ceil(N/10) across observed reports.
void Accept(const EnsemFDetReport& r, int n, std::vector<uint8_t>* accepted) {
  for (UserId u : r.AcceptedUsers((n + 9) / 10)) (*accepted)[u] = 1;
}

/// Per-layer work counts of one report the session returned. Member stats
/// of a streamed report also count components replayed from the cache, so
/// only the kept blocks are read from them.
void CountReport(const StreamState& state, LayerMetrics* layer) {
  layer->reported_s += state.report->total_seconds;
  for (const EnsemFDetReport::MemberStats& m : state.report->members) {
    layer->blocks_kept += m.num_blocks;
  }
}

Status RunStream(const Options& o, const Inputs& in, Report* report) {
  const Workload& w = *o.workload;
  ENSEMFDET_ASSIGN_OR_RETURN(StreamPlan plan, PlanStream(in, o.tiny));
  const WindowedDetectorConfig config = StreamDetectorConfig(o, in);
  EndToEnd e2e;
  LayerMetrics layer;
  std::vector<double> loads;
  int64_t retries = 0;
  uint64_t expected = 0;
  std::vector<uint8_t> accepted(static_cast<size_t>(in.num_users), 0);
  std::vector<uint64_t> setup_digests;

  Env env;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    env.Reset();
    const std::string wal_dir = o.work_dir + "/wal-session";
    fs::remove_all(wal_dir);
    std::fill(accepted.begin(), accepted.end(), 0);
    const Clock::time_point t0 = Clock::now();
    env.Start(o.width);
    StreamSessionConfig session;
    session.detector = config;
    session.publish_name = "window";
    session.cache_reports = true;
    session.resume_checkpoint = in.checkpoint_path;
    session.wal.dir = wal_dir;
    session.wal.fsync = storage::WalFsyncPolicy::kBatch;
    session.wal.group_commit_records = kGroupCommit;
    const Clock::time_point open_at = Clock::now();
    ENSEMFDET_ASSIGN_OR_RETURN(env.stream, env.service->OpenStream(session));
    loads.push_back(SecondsBetween(open_at, Clock::now()));
    expected = 0;
    for (size_t b = 0; b <= plan.first_fire; ++b) {
      ENSEMFDET_RETURN_NOT_OK(Ingest(&env, plan.batches[b], &retries));
      if (plan.fires[b]) ++expected;
    }
    ENSEMFDET_ASSIGN_OR_RETURN(StreamState state,
                               env.service->WaitReport(*env.stream, expected));
    ENSEMFDET_RETURN_NOT_OK(state.error);
    Accept(*state.report, w.num_samples, &accepted);
    setup_digests.push_back(VotesDigest(state.report->votes));
    e2e.setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  layer.snapshot_load_s = Median(loads);
  report->Check(std::all_of(setup_digests.begin(), setup_digests.end(),
                            [&](uint64_t d) { return d == setup_digests[0]; }),
                "stream.identical_setup_votes",
                "set-ups resumed from one checkpoint reported different votes");

  // --- Timed phase: produce batches; after each batch that fires a
  // report by the clock rule, wait for it.
  std::vector<double> queue_wait, calls;
  int64_t events = 0;
  int64_t timed_reports = 0;
  size_t f1_end_batch = plan.first_fire;
  RegistryDelta registry;
  registry.Start();
  const Clock::time_point start = Clock::now();
  RateWindows rate(start, o.seconds);
  for (size_t b = plan.first_fire + 1; b < plan.batches.size(); ++b) {
    if (timed_reports >= MinOps(o) &&
        SecondsBetween(start, Clock::now()) >= o.seconds) {
      break;
    }
    const Clock::time_point t0 = Clock::now();
    const Status st = Ingest(&env, plan.batches[b], &retries);
    const Clock::time_point ingested = Clock::now();
    calls.push_back(SecondsBetween(t0, ingested));
    report->CountOp(st.ok());
    if (!st.ok()) break;
    const auto batch_events =
        static_cast<int64_t>(plan.batches[b].transactions.size());
    events += batch_events;
    rate.Add(ingested, static_cast<double>(batch_events));
    if (!plan.fires[b]) continue;
    ++expected;
    Result<StreamState> state = env.service->WaitReport(*env.stream, expected);
    const Clock::time_point t1 = Clock::now();
    const bool ok = state.ok() && state->error.ok();
    report->CountOp(ok);
    if (!ok) break;
    report->Check(state->reports_generated == expected, "stream.report_count",
                  std::to_string(state->reports_generated) + " reports, " +
                      std::to_string(expected) + " expected by the clock rule");
    e2e.latency_s.push_back(SecondsBetween(t0, t1));
    queue_wait.push_back(SecondsBetween(t0, t1) - state->report->total_seconds);
    CountReport(*state, &layer);
    if (timed_reports < MinOps(o)) {
      Accept(*state->report, w.num_samples, &accepted);
      f1_end_batch = b;
    }
    e2e.OpDone(++timed_reports, MinOps(o));
  }
  Result<StreamState> final_state = env.service->FinishStream(*env.stream);
  env.stream.reset();
  const double wall = SecondsBetween(start, Clock::now());
  registry.Stop();
  report->CountOp(final_state.ok() && final_state->error.ok());
  ENSEMFDET_RETURN_NOT_OK(final_state.status());
  report->Check(final_state->error.ok(), "stream.session_ok",
                final_state->error.ToString());
  report->Check(final_state->reports_generated == expected + 1,
                "stream.final_report_count",
                std::to_string(final_state->reports_generated) + " reports, " +
                    std::to_string(expected + 1) + " expected");
  report->Check(timed_reports > 0, "stream.timed_reports");
  if (final_state->report != nullptr) CountReport(*final_state, &layer);

  // f1: users accepted by the set-up report and the first min_ops timed
  // reports, against blacklisted users seen in the events up to them.
  {
    size_t end = in.fill_end;
    for (size_t k = 0; k <= f1_end_batch; ++k) {
      end += plan.batches[k].transactions.size();
    }
    std::vector<uint8_t> seen(static_cast<size_t>(in.num_users), 0);
    for (size_t k = 0; k < end; ++k) seen[in.events[k].user] = 1;
    std::vector<UserId> fraud;
    for (UserId u : in.blacklists[0].FraudUsers()) {
      if (seen[u]) fraud.push_back(u);
    }
    const LabelSet labels(in.num_users, fraud);
    std::vector<UserId> detected;
    for (size_t u = 0; u < accepted.size(); ++u) {
      if (accepted[u]) detected.push_back(static_cast<UserId>(u));
    }
    e2e.f1 = F1Score(CountConfusion(detected, labels));
  }
  report->Check(e2e.f1 > 0.0, "stream.f1_positive");
  e2e.throughput = rate.MedianRate();
  report->Info("timed_ops", std::to_string(timed_reports));
  report->Info("timed_events", std::to_string(events));
  EmitEndToEnd(e2e, report);
  std::printf("stream_retries %lld count\n", static_cast<long long>(retries));
  layer.queue_wait_ms_p50 = Median(queue_wait) * 1e3;
  layer.call_us_p50 = Median(calls) * 1e6;
  layer.backpressure_retries = static_cast<double>(retries);
  layer.timed_wall_s = wall;
  layer.ops = static_cast<double>(timed_reports + 1);  // the final report too
  layer.wal_append_s = registry.Get("ensemfdet_wal_append_seconds");
  layer.wal_appends = registry.Get("ensemfdet_wal_appends_total");
  layer.registry_ensemble_s = registry.Get("ensemfdet_stream_detect_seconds");
  layer.stream_detect_s = layer.registry_ensemble_s;
  layer.publish_s = registry.Get("ensemfdet_ingest_publish_seconds");
  layer.publishes = registry.Get("ensemfdet_ingest_publishes_total");
  layer.compactions = registry.Get("ensemfdet_ingest_compactions_total");
  layer.components_reused =
      registry.Get("ensemfdet_stream_components_reused_total");
  layer.components_eligible =
      registry.Get("ensemfdet_stream_components_eligible_total");
  layer.edges_recomputed = registry.Get("ensemfdet_stream_edges_recomputed_total");
  layer.edges_total = registry.Get("ensemfdet_stream_edges_total");
  ReadRegistry(&registry, &layer, report);
  layer.Emit(o.width, report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commands.
// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: ensemfdet_e2e gen|run --workload=NAME --seed=S "
               "--data=DIR [--tiny] [--seconds=T --work=DIR] "
               "[--git-rev=REV]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command != "gen" && command != "run") {
    return Usage();
  }
  Result<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return Usage();
  }
  Options o;
  o.workload = FindWorkload(flags->Get("workload", ""));
  Result<std::string> data = flags->Require("data");
  Result<double> seed = flags->Number("seed");
  if (o.workload == nullptr || !data.ok() || !seed.ok()) {
    std::fprintf(stderr, "error: need a known --workload, --data and --seed\n");
    return Usage();
  }
  o.seed = static_cast<uint64_t>(*seed);
  o.tiny = flags->Has("tiny");

  if (command == "gen") {
    const Status st = Generate(*o.workload, o.seed, o.tiny, *data);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }

  Result<double> seconds = flags->Number("seconds");
  Result<std::string> work = flags->Require("work");
  if (!seconds.ok() || !work.ok()) {
    std::fprintf(stderr, "error: run needs --seconds and --work\n");
    return Usage();
  }
  o.seconds = *seconds;
  o.work_dir = *work;
  o.width = PoolWidth();
  fs::create_directories(o.work_dir);

  Report report;
  report.Info("workload", o.workload->name);
  report.Info("seed", std::to_string(o.seed));
  report.Info("tiny", o.tiny ? "1" : "0");
  Status st;
  Result<Inputs> inputs = LoadInputs(*o.workload, *data, &report);
  if (!inputs.ok()) {
    st = inputs.status();
  } else if (o.workload->kind == Kind::kBatch) {
    st = RunBatch(o, *inputs, &report);
  } else {
    st = RunStream(o, *inputs, &report);
  }
  if (!st.ok()) {
    report.CountOp(false);
    report.Check(false, "run", st.ToString());
  }
  std::fflush(stdout);
  const std::string json =
      report.Json(MachineBlock(flags->Get("git-rev", "unknown")));
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace ensemfdet

int main(int argc, char** argv) { return ensemfdet::e2e::Main(argc, argv); }

// Engine-wide metrics substrate (DESIGN.md "Observability").
//
// Three instrument kinds, all safe for concurrent recording:
//   * Counter   — monotone, lock-free, sharded across cache-line-padded
//                 atomics so hot-path increments never contend. Shards are
//                 summed on scrape.
//   * Gauge     — a single relaxed atomic (set/add); used for
//                 instantaneous values like queue depth.
//   * Histogram — fixed log2 buckets (HDR-style) over non-negative int64
//                 observations, one relaxed atomic per bucket plus a sum
//                 and the raw min/max. Quantiles are estimated on the
//                 snapshot by linear interpolation inside the hit bucket,
//                 clamped to the observed [min, max].
//
// Instruments live in a MetricsRegistry: name → instrument, created on
// first Get*() and stable for the registry's lifetime, so callers resolve
// a pointer once (cold path, mutex) and record through it forever (hot
// path, no locks). `MetricsRegistry::Global()` is the process-wide
// registry every layer records into; private registries can be
// instantiated where a component needs deltas isolated from the rest of
// the process (StreamingDetector does).
//
// Naming convention: ensemfdet_<layer>_<name>{_total|_seconds}; see
// DESIGN.md for the taxonomy. Histograms with Unit::kSeconds record
// nanoseconds and are scaled to seconds on export.
//
// Cost controls, outermost first:
//   * ENSEMFDET_METRICS=OFF (CMake) defines ENSEMFDET_METRICS_DISABLED
//     and compiles every record path to an empty inline — the no-op
//     build CI proves the engine works without the layer.
//   * SetMetricsRuntimeEnabled(false) stops recording at runtime (one
//     relaxed bool load per record). The obs bench (RunObsBench) uses
//     this to measure the instrumented-vs-off overhead inside a single
//     process.
#ifndef ENSEMFDET_OBS_METRICS_H_
#define ENSEMFDET_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_context.h"

namespace ensemfdet {
namespace obs {

#if defined(ENSEMFDET_METRICS_DISABLED)
inline constexpr bool kMetricsCompiledIn = false;
#else
inline constexpr bool kMetricsCompiledIn = true;
#endif

/// Runtime toggle, on by default. Affects recording only — scraping a
/// registry always works (it just stops moving while disabled).
void SetMetricsRuntimeEnabled(bool enabled);
bool MetricsRuntimeEnabled();

namespace internal {

inline constexpr size_t kCounterShards = 16;

#if !defined(ENSEMFDET_METRICS_DISABLED)
extern std::atomic<bool> g_runtime_enabled;
inline bool RuntimeEnabled() {
  return g_runtime_enabled.load(std::memory_order_relaxed);
}
/// Thread-sticky shard index: threads are assigned round-robin on first
/// record, so up to kCounterShards concurrent writers never share a line.
size_t ShardIndex();
#else
inline bool RuntimeEnabled() { return false; }
inline size_t ShardIndex() { return 0; }
#endif

struct alignas(64) PaddedAtomicI64 {
  std::atomic<int64_t> value{0};
};

}  // namespace internal

/// Monotone counter. Increment is wait-free (one relaxed fetch_add on
/// this thread's shard); Value() sums shards and is only approximately
/// ordered against concurrent increments — exact once writers quiesce.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    if (!internal::RuntimeEnabled()) return;
    shards_[internal::ShardIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const {
    int64_t total = 0;
#if !defined(ENSEMFDET_METRICS_DISABLED)
    for (const auto& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
#endif
    return total;
  }

 private:
#if !defined(ENSEMFDET_METRICS_DISABLED)
  internal::PaddedAtomicI64 shards_[internal::kCounterShards];
#endif
};

/// Instantaneous value (queue depth, live sessions). Single relaxed
/// atomic: Set/Add are wait-free; readers see some recent value.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    if (!internal::RuntimeEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }
  void Add(int64_t delta) {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    if (!internal::RuntimeEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  int64_t Value() const {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    return value_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

 private:
#if !defined(ENSEMFDET_METRICS_DISABLED)
  std::atomic<int64_t> value_{0};
#endif
};

/// Fixed log2-bucket histogram over non-negative int64 observations.
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds [2^(i-1), 2^i - 1]
/// — i.e. the bucket index is std::bit_width of the clamped value. 65
/// buckets cover the full int64 range with < 2x relative quantile error.
class Histogram {
 public:
  /// How recorded values should be scaled on export: kSeconds means the
  /// raw observations are nanoseconds (divide by 1e9); kUnits means they
  /// are dimensionless (bytes, items) and exported as-is.
  enum class Unit { kSeconds, kUnits };

  static constexpr size_t kNumBuckets = 65;

  explicit Histogram(Unit unit = Unit::kSeconds) : unit_(unit) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static size_t BucketIndex(int64_t value) {
    if (value <= 0) return 0;
    return std::bit_width(static_cast<uint64_t>(value));
  }
  /// Inclusive upper bound of bucket `i` in raw (unscaled) units.
  /// Bucket 63's bound saturates at int64 max (2^63 - 1): non-negative
  /// observations never have a bit_width above 63, and computing
  /// (1 << 63) - 1 directly would be signed overflow.
  static int64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= 63) return std::numeric_limits<int64_t>::max();
    return (int64_t{1} << i) - 1;
  }
  /// Inclusive lower bound of bucket `i` in raw (unscaled) units.
  static int64_t BucketLowerBound(size_t i) {
    if (i == 0) return 0;
    return int64_t{1} << (i - 1);
  }

  /// Records `value`. A new maximum becomes the tail exemplar: `exemplar`
  /// when given — a span passes its own context, since a detached span
  /// (TraceSpan::Link::kDetached) is never current — otherwise the
  /// calling thread's current trace context.
  void Record(int64_t value, const TraceContext* exemplar = nullptr) {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    if (!internal::RuntimeEnabled()) return;
    if (value < 0) value = 0;
    // Raw extremes bound every exported quantile: one relaxed load each,
    // a CAS only when this observation is a new extreme. The bucket
    // increment releases them, so a scrape that counts this observation
    // (acquire in BucketCount) also sees extremes that cover it.
    int64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen && !min_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_release);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // Tail exemplar: remember the trace that produced the largest
    // observation so far, so a p999 in a scrape links back to a span
    // tree. One relaxed load on the hot path; the four stores below are
    // individually atomic but unsynchronized as a group — a scrape that
    // races a new maximum may pair the value with a neighbor exemplar's
    // ids, which is acceptable for a debugging pointer (exemplars are
    // best-effort by nature; exact once writers quiesce).
    if (value > exemplar_value_.load(std::memory_order_relaxed)) {
      const TraceContext ctx =
          exemplar != nullptr ? *exemplar : CurrentTraceContext();
      if (ctx.valid()) {
        exemplar_trace_hi_.store(ctx.trace_hi, std::memory_order_relaxed);
        exemplar_trace_lo_.store(ctx.trace_lo, std::memory_order_relaxed);
        exemplar_span_.store(ctx.span_id, std::memory_order_relaxed);
        exemplar_value_.store(value, std::memory_order_relaxed);
      }
    }
#else
    (void)value;
    (void)exemplar;
#endif
  }

  Unit unit() const { return unit_; }

  int64_t Count() const {
    int64_t count = 0;
#if !defined(ENSEMFDET_METRICS_DISABLED)
    for (const auto& bucket : buckets_)
      count += bucket.load(std::memory_order_acquire);
#endif
    return count;
  }
  int64_t RawSum() const {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    return sum_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }
  /// Smallest raw observation so far (int64 max when none yet).
  int64_t RawMin() const {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    return min_.load(std::memory_order_relaxed);
#else
    return std::numeric_limits<int64_t>::max();
#endif
  }
  /// Largest raw observation so far (-1 when none yet).
  int64_t RawMax() const {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    return max_.load(std::memory_order_relaxed);
#else
    return -1;
#endif
  }
  int64_t BucketCount(size_t i) const {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    return buckets_[i].load(std::memory_order_acquire);
#else
    (void)i;
    return 0;
#endif
  }

  /// Raw value of the tail exemplar (-1 when none recorded yet).
  int64_t ExemplarValue() const {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    return exemplar_value_.load(std::memory_order_relaxed);
#else
    return -1;
#endif
  }
  /// The exemplar's causal identity (span_id = the recording span).
  TraceContext ExemplarContext() const {
    TraceContext ctx;
#if !defined(ENSEMFDET_METRICS_DISABLED)
    ctx.trace_hi = exemplar_trace_hi_.load(std::memory_order_relaxed);
    ctx.trace_lo = exemplar_trace_lo_.load(std::memory_order_relaxed);
    ctx.span_id = exemplar_span_.load(std::memory_order_relaxed);
#endif
    return ctx;
  }

 private:
  Unit unit_;
#if !defined(ENSEMFDET_METRICS_DISABLED)
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{-1};
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> exemplar_value_{-1};
  std::atomic<uint64_t> exemplar_trace_hi_{0};
  std::atomic<uint64_t> exemplar_trace_lo_{0};
  std::atomic<uint64_t> exemplar_span_{0};
#endif
};

/// Point-in-time copy of one histogram, self-contained for export and
/// quantile estimation. Taken bucket-by-bucket with relaxed loads, so a
/// snapshot scraped while writers are recording is internally "torn" by
/// at most the in-flight observations — never UB, and exact once writers
/// quiesce.
struct HistogramSnapshot {
  Histogram::Unit unit = Histogram::Unit::kSeconds;
  int64_t count = 0;
  int64_t raw_sum = 0;
  /// Smallest / largest raw observation (0 / 0 when empty).
  int64_t raw_min = 0;
  int64_t raw_max = 0;
  std::array<int64_t, Histogram::kNumBuckets> buckets{};
  /// Tail exemplar: the largest observation's raw value and causal ids
  /// (-1 / zeros when nothing was recorded with a context installed).
  int64_t exemplar_value = -1;
  TraceContext exemplar;

  bool has_exemplar() const { return exemplar_value >= 0 && exemplar.valid(); }
  /// 32-hex-digit trace id of the exemplar ("" when absent) — the same
  /// rendering the exported timeline's args.trace_id uses, so the two
  /// join directly.
  std::string ExemplarTraceId() const;

  /// Estimated q-quantile (q in [0,1]) in raw units: walks the
  /// cumulative bucket counts to the bucket containing rank
  /// ceil(q*count), then interpolates linearly between the bucket's
  /// bounds by the rank's position inside the bucket, and clamps the
  /// estimate to [raw_min, raw_max] so no quantile reports a value
  /// outside the observed range. 0 when empty.
  double QuantileRaw(double q) const;
  /// QuantileRaw scaled per unit (ns → seconds for Unit::kSeconds).
  double Quantile(double q) const;
  /// Sum scaled per unit.
  double ScaledSum() const;
};

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// One scraped metric. `value` is meaningful for counters and gauges;
/// `histogram` for histograms.
struct MetricSnapshot {
  std::string name;
  std::string help;  // exporter-facing description ("" → derived)
  InstrumentKind kind = InstrumentKind::kCounter;
  int64_t value = 0;
  HistogramSnapshot histogram;
};

/// A full scrape, sorted by metric name.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;
  /// nullptr when `name` is absent or not of kind `kind`.
  const MetricSnapshot* Find(std::string_view name) const;
};

/// Name → instrument map. Get*() is create-or-get under a mutex and
/// aborts on a kind mismatch (programmer error: one name, two types).
/// Returned pointers stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Global();

  /// `help` (optional) is the exporter's # HELP text; the first non-null
  /// help registered for a name wins. Series registered without help get
  /// a description derived from the naming convention on export.
  Counter* GetCounter(std::string_view name, const char* help = nullptr);
  Gauge* GetGauge(std::string_view name, const char* help = nullptr);
  Histogram* GetHistogram(std::string_view name,
                          Histogram::Unit unit = Histogram::Unit::kSeconds,
                          const char* help = nullptr);

  /// Copies every instrument's current value; sorted by name.
  RegistrySnapshot Scrape() const;

 private:
  struct Entry {
    InstrumentKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& GetEntry(std::string_view name, InstrumentKind kind,
                  const char* help);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace obs
}  // namespace ensemfdet

#endif  // ENSEMFDET_OBS_METRICS_H_

#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ensemfdet {
namespace obs {

#if !defined(ENSEMFDET_METRICS_DISABLED)
namespace internal {

std::atomic<bool> g_runtime_enabled{true};

size_t ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

}  // namespace internal

void SetMetricsRuntimeEnabled(bool enabled) {
  internal::g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}
bool MetricsRuntimeEnabled() { return internal::RuntimeEnabled(); }
#else
void SetMetricsRuntimeEnabled(bool) {}
bool MetricsRuntimeEnabled() { return false; }
#endif

std::string HistogramSnapshot::ExemplarTraceId() const {
  if (!has_exemplar()) return std::string();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(exemplar.trace_hi),
                static_cast<unsigned long long>(exemplar.trace_lo));
  return std::string(buf);
}

double HistogramSnapshot::QuantileRaw(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * count)));
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] < target) {
      cumulative += buckets[i];
      continue;
    }
    const double lower = static_cast<double>(Histogram::BucketLowerBound(i));
    const double upper = static_cast<double>(Histogram::BucketUpperBound(i));
    const double fraction =
        static_cast<double>(target - cumulative) /
        static_cast<double>(buckets[i]);
    return std::clamp(lower + fraction * (upper - lower),
                      static_cast<double>(raw_min),
                      static_cast<double>(raw_max));
  }
  return static_cast<double>(raw_max);
}

double HistogramSnapshot::Quantile(double q) const {
  const double raw = QuantileRaw(q);
  return unit == Histogram::Unit::kSeconds ? raw * 1e-9 : raw;
}

double HistogramSnapshot::ScaledSum() const {
  const double raw = static_cast<double>(raw_sum);
  return unit == Histogram::Unit::kSeconds ? raw * 1e-9 : raw;
}

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name) const {
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: worker threads may record during static
  // destruction; a destroyed registry would dangle under them.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(std::string_view name,
                                                  InstrumentKind kind,
                                                  const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_
             .emplace(std::string(name), Entry{kind, {}, {}, {}, {}})
             .first;
  } else if (it->second.kind != kind) {
    std::fprintf(stderr,
                 "MetricsRegistry: instrument '%.*s' registered twice with "
                 "different kinds\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  if (help != nullptr && it->second.help.empty()) it->second.help = help;
  return it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const char* help) {
  Entry& entry = GetEntry(name, InstrumentKind::kCounter, help);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry.counter == nullptr) entry.counter = std::make_unique<Counter>();
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const char* help) {
  Entry& entry = GetEntry(name, InstrumentKind::kGauge, help);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry.gauge == nullptr) entry.gauge = std::make_unique<Gauge>();
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         Histogram::Unit unit,
                                         const char* help) {
  Entry& entry = GetEntry(name, InstrumentKind::kHistogram, help);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(unit);
  }
  return entry.histogram.get();
}

RegistrySnapshot MetricsRegistry::Scrape() const {
  RegistrySnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.metrics.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot metric;
    metric.name = name;
    metric.help = entry.help;
    metric.kind = entry.kind;
    switch (entry.kind) {
      case InstrumentKind::kCounter:
        metric.value = entry.counter->Value();
        break;
      case InstrumentKind::kGauge:
        metric.value = entry.gauge->Value();
        break;
      case InstrumentKind::kHistogram: {
        const Histogram& hist = *entry.histogram;
        HistogramSnapshot& snap = metric.histogram;
        snap.unit = hist.unit();
        snap.raw_sum = hist.RawSum();
        snap.exemplar_value = hist.ExemplarValue();
        snap.exemplar = hist.ExemplarContext();
        int64_t count = 0;
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          snap.buckets[i] = hist.BucketCount(i);
          count += snap.buckets[i];
        }
        snap.count = count;
        if (count > 0) {
          // Loaded after the buckets: every observation counted above
          // has its extremes visible (see Histogram::Record).
          snap.raw_min = hist.RawMin();
          snap.raw_max = hist.RawMax();
        }
        break;
      }
    }
    snapshot.metrics.push_back(std::move(metric));
  }
  // std::map iterates in name order already; keep the contract explicit.
  return snapshot;
}

}  // namespace obs
}  // namespace ensemfdet

// Tests for the observability layer: sharded counters under concurrency,
// log2-bucket histogram math pinned against a scalar reference, registry
// scrape semantics (including scrape-while-recording), TraceSpan, and the
// Prometheus/JSON/Chrome-trace export surfaces.
//
// Every value expectation is written against `obs::kMetricsCompiledIn` so
// the ENSEMFDET_METRICS=OFF build runs the same suite and proves the API
// surface stays callable (and inert) when the layer is compiled out.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ensemfdet {
namespace obs {
namespace {

/// Re-enables recording after a test that toggles the runtime switch.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMetricsRuntimeEnabled(true); }
  void TearDown() override { SetMetricsRuntimeEnabled(true); }
};

int64_t Expected(int64_t value_when_compiled_in) {
  return kMetricsCompiledIn ? value_when_compiled_in : 0;
}

// ---------------------------------------------------------------------------
// Counter

TEST_F(ObsTest, CounterSingleThreadExact) {
  Counter c;
  for (int i = 0; i < 1000; ++i) c.Increment();
  c.Increment(42);
  EXPECT_EQ(c.Value(), Expected(1042));
}

TEST_F(ObsTest, CounterConcurrentSumExactAcrossPoolWidths) {
  // The shard assignment is thread-sticky round-robin; whatever the
  // interleaving, the post-join sum must be exact for every width —
  // below, at, and above the shard count.
  for (int width : {1, 2, 4, 8, 2 * static_cast<int>(
                                     internal::kCounterShards)}) {
    Counter c;
    constexpr int64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(width));
    for (int t = 0; t < width; ++t) {
      threads.emplace_back([&c] {
        for (int64_t i = 0; i < kPerThread; ++i) c.Increment();
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(c.Value(), Expected(width * kPerThread))
        << "width=" << width;
  }
}

TEST_F(ObsTest, CounterIgnoredWhileRuntimeDisabled) {
  Counter c;
  c.Increment(5);
  SetMetricsRuntimeEnabled(false);
  c.Increment(100);
  SetMetricsRuntimeEnabled(true);
  c.Increment(7);
  EXPECT_EQ(c.Value(), Expected(12));
}

// ---------------------------------------------------------------------------
// Gauge

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  g.Add(5);
  EXPECT_EQ(g.Value(), Expected(12));
}

// ---------------------------------------------------------------------------
// Histogram bucket math

TEST(HistogramMath, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(-5), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()),
            63u);
}

TEST(HistogramMath, BucketBoundsRoundTrip) {
  // Every bucket's bounds must contain exactly the values that index
  // into it.
  for (size_t i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    const int64_t lo = Histogram::BucketLowerBound(i);
    const int64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(hi), i) << "bucket " << i;
    if (i + 1 < Histogram::kNumBuckets - 1) {
      EXPECT_EQ(Histogram::BucketIndex(hi + 1), i + 1) << "bucket " << i;
    }
  }
}

/// Scalar reference for the documented quantile algorithm: rank
/// ceil(q*count), cumulative walk, linear interpolation inside the hit
/// bucket, clamped to the observed [min, max]. Kept deliberately
/// independent of the implementation.
double ReferenceQuantile(const std::array<int64_t, Histogram::kNumBuckets>&
                             buckets,
                         int64_t count, int64_t min, int64_t max, double q) {
  if (count <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * count)));
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] >= target) {
      const double fraction =
          static_cast<double>(target - cumulative) /
          static_cast<double>(buckets[i]);
      const double lo =
          static_cast<double>(Histogram::BucketLowerBound(i));
      const double hi =
          static_cast<double>(Histogram::BucketUpperBound(i));
      const double estimate = lo + fraction * (hi - lo);
      return std::min(static_cast<double>(max),
                      std::max(static_cast<double>(min), estimate));
    }
    cumulative += buckets[i];
  }
  return static_cast<double>(max);
}

HistogramSnapshot Snap(const Histogram& h) {
  HistogramSnapshot s;
  s.unit = h.unit();
  s.count = h.Count();
  s.raw_sum = h.RawSum();
  if (s.count > 0) {
    s.raw_min = h.RawMin();
    s.raw_max = h.RawMax();
  }
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    s.buckets[i] = h.BucketCount(i);
  }
  return s;
}

TEST_F(ObsTest, HistogramQuantilesMatchScalarReference) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  Histogram h(Histogram::Unit::kUnits);
  // A deliberately lumpy distribution spanning many buckets.
  for (int64_t v = 1; v <= 2000; ++v) h.Record(v);
  for (int i = 0; i < 500; ++i) h.Record(1 << 20);
  h.Record(0);
  const HistogramSnapshot s = Snap(h);
  EXPECT_EQ(s.count, 2501);
  EXPECT_EQ(s.raw_min, 0);
  EXPECT_EQ(s.raw_max, 1 << 20);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(
        s.QuantileRaw(q),
        ReferenceQuantile(s.buckets, s.count, s.raw_min, s.raw_max, q))
        << "q=" << q;
  }
  // The top bucket spans [2^20, 2^21 - 1] but holds only 2^20s: the
  // clamp keeps p99 and p100 at the largest observed value.
  EXPECT_DOUBLE_EQ(s.QuantileRaw(0.99), static_cast<double>(1 << 20));
  EXPECT_DOUBLE_EQ(s.QuantileRaw(1.0), static_cast<double>(1 << 20));
}

TEST_F(ObsTest, HistogramQuantilesPinnedSingleBucket) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  // 1000 observations of 100 all land in bucket 7 = [64, 127]. The
  // interpolation alone would report 95.5 / 126.37 / 126.937 / 127 —
  // values never observed; the [min, max] clamp pins every quantile to
  // the one value recorded.
  Histogram h(Histogram::Unit::kUnits);
  for (int i = 0; i < 1000; ++i) h.Record(100);
  const HistogramSnapshot s = Snap(h);
  EXPECT_EQ(s.count, 1000);
  EXPECT_EQ(s.raw_sum, 100000);
  EXPECT_EQ(s.buckets[7], 1000);
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(s.QuantileRaw(q), 100.0) << "q=" << q;
  }

  // With the bucket's own bounds observed, the interpolation is exactly
  // rank/1000 of the way through the bucket, which pins concrete values.
  Histogram spread(Histogram::Unit::kUnits);
  spread.Record(64);
  for (int i = 0; i < 998; ++i) spread.Record(100);
  spread.Record(127);
  const HistogramSnapshot t = Snap(spread);
  EXPECT_EQ(t.buckets[7], 1000);
  EXPECT_DOUBLE_EQ(t.QuantileRaw(0.5), 64.0 + 0.5 * 63.0);    // 95.5
  EXPECT_DOUBLE_EQ(t.QuantileRaw(0.99), 64.0 + 0.99 * 63.0);  // 126.37
  EXPECT_DOUBLE_EQ(t.QuantileRaw(0.999), 64.0 + 0.999 * 63.0);
  EXPECT_DOUBLE_EQ(t.QuantileRaw(1.0), 127.0);
}

TEST_F(ObsTest, HistogramSingleObservationExportsItsValue) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  // One 919 ms observation falls in the log2 bucket [2^29, 2^30 - 1] ns,
  // whose interpolated median is ~1.074 s. Every exported quantile must
  // be the value actually observed.
  MetricsRegistry reg;
  reg.GetHistogram("ensemfdet_test_job_seconds")->Record(919'000'000);
  const RegistrySnapshot snap = reg.Scrape();
  const HistogramSnapshot& s = snap.metrics[0].histogram;
  EXPECT_EQ(s.raw_min, 919'000'000);
  EXPECT_EQ(s.raw_max, 919'000'000);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.919);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 0.919);
  const std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"min\": 0.919, \"max\": 0.919, \"p50\": 0.919, "
                      "\"p99\": 0.919, \"p999\": 0.919"),
            std::string::npos)
      << json;
}

TEST_F(ObsTest, HistogramQuantileWithinTwoXOfTrueValue) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  // log2 buckets promise < 2x relative error: the estimate must land in
  // the same bucket as the true order statistic.
  Histogram h(Histogram::Unit::kUnits);
  std::vector<int64_t> values;
  uint64_t seed = 12345;  // unsigned: the LCG relies on wraparound
  for (int i = 0; i < 4096; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    values.push_back(static_cast<int64_t>((seed >> 33) & 0xFFFFF));  // < 2^20
    h.Record(values.back());
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot s = Snap(h);
  for (double q : {0.5, 0.9, 0.99}) {
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(q * values.size())));
    const int64_t truth = values[static_cast<size_t>(rank - 1)];
    const double est = s.QuantileRaw(q);
    EXPECT_EQ(Histogram::BucketIndex(static_cast<int64_t>(est)),
              Histogram::BucketIndex(truth))
        << "q=" << q << " est=" << est << " truth=" << truth;
  }
}

TEST_F(ObsTest, HistogramMergeOfSnapshotsEqualsSingleHistogram) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  // Bucket-wise addition of two snapshots must be indistinguishable
  // from recording everything into one histogram — the property the
  // scrape-side aggregation relies on.
  Histogram a(Histogram::Unit::kUnits);
  Histogram b(Histogram::Unit::kUnits);
  Histogram whole(Histogram::Unit::kUnits);
  for (int64_t v = 1; v <= 300; ++v) {
    ((v % 2 == 0) ? a : b).Record(v * 17);
    whole.Record(v * 17);
  }
  HistogramSnapshot merged = Snap(a);
  const HistogramSnapshot sb = Snap(b);
  merged.count += sb.count;
  merged.raw_sum += sb.raw_sum;
  merged.raw_min = std::min(merged.raw_min, sb.raw_min);
  merged.raw_max = std::max(merged.raw_max, sb.raw_max);
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    merged.buckets[i] += sb.buckets[i];
  }
  const HistogramSnapshot expected = Snap(whole);
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.raw_sum, expected.raw_sum);
  EXPECT_EQ(merged.raw_min, expected.raw_min);
  EXPECT_EQ(merged.raw_max, expected.raw_max);
  EXPECT_EQ(merged.buckets, expected.buckets);
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(merged.QuantileRaw(q), expected.QuantileRaw(q));
  }
}

TEST_F(ObsTest, HistogramSecondsUnitScalesOnExport) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  Histogram h(Histogram::Unit::kSeconds);
  h.Record(2'000'000'000);  // 2 s in ns
  const HistogramSnapshot s = Snap(h);
  EXPECT_DOUBLE_EQ(s.ScaledSum(), 2.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), s.QuantileRaw(1.0) * 1e-9);
}

TEST_F(ObsTest, HistogramEmptyQuantileIsZero) {
  Histogram h;
  const HistogramSnapshot s = Snap(h);
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.QuantileRaw(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST_F(ObsTest, RegistryReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("ensemfdet_test_alpha_total");
  Counter* c2 = reg.GetCounter("ensemfdet_test_alpha_total");
  EXPECT_EQ(c1, c2);
  Histogram* h1 =
      reg.GetHistogram("ensemfdet_test_lat_seconds");
  Histogram* h2 =
      reg.GetHistogram("ensemfdet_test_lat_seconds");
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->unit(), Histogram::Unit::kSeconds);
}

TEST_F(ObsTest, RegistryScrapeSortedAndFindable) {
  MetricsRegistry reg;
  reg.GetCounter("ensemfdet_test_b_total")->Increment(2);
  reg.GetCounter("ensemfdet_test_a_total")->Increment(1);
  reg.GetGauge("ensemfdet_test_depth")->Set(9);
  reg.GetHistogram("ensemfdet_test_h_seconds")->Record(10);
  const RegistrySnapshot snap = reg.Scrape();
  ASSERT_EQ(snap.metrics.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      snap.metrics.begin(), snap.metrics.end(),
      [](const MetricSnapshot& x, const MetricSnapshot& y) {
        return x.name < y.name;
      }));
  const MetricSnapshot* a = snap.Find("ensemfdet_test_a_total");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, InstrumentKind::kCounter);
  EXPECT_EQ(a->value, Expected(1));
  const MetricSnapshot* g = snap.Find("ensemfdet_test_depth");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, Expected(9));
  const MetricSnapshot* h = snap.Find("ensemfdet_test_h_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count, Expected(1));
  EXPECT_EQ(snap.Find("ensemfdet_test_absent"), nullptr);
}

TEST_F(ObsTest, RegistryScrapeWhileRecordingIsConsistent) {
  // Scrapes taken under concurrent writers must be monotone (counters
  // never move backwards snapshot-to-snapshot) and exact after join.
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("ensemfdet_test_race_total");
  Histogram* h = reg.GetHistogram("ensemfdet_test_race_seconds");
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(i & 0xFFF);
      }
    });
  }
  int64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const RegistrySnapshot snap = reg.Scrape();
    const MetricSnapshot* m = snap.Find("ensemfdet_test_race_total");
    ASSERT_NE(m, nullptr);
    EXPECT_GE(m->value, last);
    last = m->value;
    const MetricSnapshot* hs = snap.Find("ensemfdet_test_race_seconds");
    ASSERT_NE(hs, nullptr);
    int64_t bucket_total = 0;
    for (int64_t b : hs->histogram.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, hs->histogram.count);
  }
  for (auto& th : threads) th.join();
  const RegistrySnapshot final_snap = reg.Scrape();
  EXPECT_EQ(final_snap.Find("ensemfdet_test_race_total")->value,
            Expected(kThreads * kPerThread));
  EXPECT_EQ(final_snap.Find("ensemfdet_test_race_seconds")->histogram.count,
            Expected(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// TraceSpan

TEST_F(ObsTest, TraceSpanRecordsIntoHistogram) {
  Histogram h;
  {
    TraceSpan span(&h, "test_span");
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(h.Count(), Expected(1));
}

TEST_F(ObsTest, TraceSpanSkipsHistogramWhenRuntimeDisabled) {
  Histogram h;
  SetMetricsRuntimeEnabled(false);
  { TraceSpan span(&h, "test_span"); }
  SetMetricsRuntimeEnabled(true);
  EXPECT_EQ(h.Count(), 0);
}

TEST_F(ObsTest, SpanRingExportsChromeTimeline) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  FlightRecorderOptions options;  // no path: an in-memory ring
  options.ring_records = 16;
  options.max_threads = 4;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());
  {
    Histogram h;
    TraceSpan span(&h, "flush_test_span");
  }
  auto dump = SnapshotFlightRecorder();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(*dump, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();
  EXPECT_NE(body.find("flush_test_span"), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"parent_span_id\":\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Export

TEST_F(ObsTest, PrometheusTextExport) {
  MetricsRegistry reg;
  reg.GetCounter("ensemfdet_test_ops_total")->Increment(3);
  reg.GetGauge("ensemfdet_test_depth")->Set(2);
  reg.GetHistogram("ensemfdet_test_lat_seconds")
      ->Record(1'000'000);  // 1 ms
  const std::string text = ToPrometheusText(reg.Scrape());
  EXPECT_NE(text.find("# TYPE ensemfdet_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ensemfdet_test_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ensemfdet_test_lat_seconds histogram"),
            std::string::npos);
  if (kMetricsCompiledIn) {
    EXPECT_NE(text.find("ensemfdet_test_ops_total 3"), std::string::npos);
    EXPECT_NE(text.find("ensemfdet_test_depth 2"), std::string::npos);
  }
  EXPECT_NE(text.find("ensemfdet_test_lat_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ensemfdet_test_lat_seconds_count"),
            std::string::npos);
}

TEST_F(ObsTest, JsonExport) {
  MetricsRegistry reg;
  reg.GetCounter("ensemfdet_test_ops_total")->Increment(5);
  reg.GetHistogram("ensemfdet_test_lat_seconds")->Record(500);
  const std::string json = ToJson(reg.Scrape());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back() == '\n' ? json[json.size() - 2] : json.back(),
            '}');
  EXPECT_NE(json.find("\"ensemfdet_test_ops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(ObsTest, PrometheusHelpPrecedesEveryType) {
  MetricsRegistry reg;
  reg.GetCounter("ensemfdet_test_ops_total",
                 "Registered help text wins over derivation.");
  reg.GetGauge("ensemfdet_test_depth");
  reg.GetHistogram("ensemfdet_test_lat_seconds");
  const std::string text = ToPrometheusText(reg.Scrape());
  // Registered help is emitted verbatim.
  EXPECT_NE(text.find("# HELP ensemfdet_test_ops_total Registered help "
                      "text wins over derivation."),
            std::string::npos);
  // Every series gets a HELP line, and it precedes its TYPE line —
  // including series that never registered one (derived help).
  for (const char* name :
       {"ensemfdet_test_ops_total", "ensemfdet_test_depth",
        "ensemfdet_test_lat_seconds"}) {
    const size_t help = text.find(std::string("# HELP ") + name + " ");
    const size_t type = text.find(std::string("# TYPE ") + name + " ");
    ASSERT_NE(help, std::string::npos) << name;
    ASSERT_NE(type, std::string::npos) << name;
    EXPECT_LT(help, type) << name;
    // Derived or registered, the help text itself is never empty.
    const size_t eol = text.find('\n', help);
    EXPECT_GT(eol - help, std::string("# HELP ").size() +
                              std::string(name).size() + 1)
        << name;
  }
}

TEST(ExpositionEscape, BackslashAndNewlineRoundTrip) {
  EXPECT_EQ(EscapeExpositionText("plain text"), "plain text");
  EXPECT_EQ(EscapeExpositionText("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeExpositionText("line one\nline two"),
            "line one\\nline two");
  EXPECT_EQ(EscapeExpositionText("\\\n"), "\\\\\\n");
}

TEST_F(ObsTest, PrometheusHelpWithNewlineStaysOneLine) {
  MetricsRegistry reg;
  reg.GetCounter("ensemfdet_test_multiline_total",
                 "first line\nsecond line");
  const std::string text = ToPrometheusText(reg.Scrape());
  // The raw newline must not split the HELP comment (that would turn the
  // rest into an invalid exposition line); the escaped form appears.
  EXPECT_NE(text.find("first line\\nsecond line"), std::string::npos);
  EXPECT_EQ(text.find("first line\nsecond"), std::string::npos);
}

TEST_F(ObsTest, JsonExportCarriesHelpForEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("ensemfdet_test_ops_total", "Counted \"ops\".");
  reg.GetHistogram("ensemfdet_test_lat_seconds");
  const std::string json = ToJson(reg.Scrape());
  // Registered help round-trips JSON-escaped; derived help is present.
  EXPECT_NE(json.find("\"help\": \"Counted \\\"ops\\\".\""),
            std::string::npos);
  size_t metrics = 0, helps = 0, pos = 0;
  while ((pos = json.find("{\"name\":", pos)) != std::string::npos) {
    ++metrics;
    pos += 1;
  }
  pos = 0;
  while ((pos = json.find("\"help\":", pos)) != std::string::npos) {
    ++helps;
    pos += 1;
  }
  EXPECT_EQ(metrics, 2u);
  EXPECT_EQ(helps, metrics);
}

TEST_F(ObsTest, HistogramTailExemplarLinksToLiveTrace) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("ensemfdet_test_exemplar_seconds");
  // No context installed -> no exemplar captured.
  SetCurrentTraceContext(TraceContext{});
  h->Record(10'000'000);
  RegistrySnapshot snap = reg.Scrape();
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_FALSE(snap.metrics[0].histogram.has_exemplar());

  // Under a live span context, the new maximum becomes the exemplar and
  // its trace id renders identically to the timeline's args form.
  const TraceContext ctx = NewRootContext();
  {
    ScopedTraceContext scope(ctx);
    h->Record(20'000'000);
    h->Record(5'000'000);  // smaller: must not displace the max exemplar
  }
  snap = reg.Scrape();
  const HistogramSnapshot& hist = snap.metrics[0].histogram;
  ASSERT_TRUE(hist.has_exemplar());
  EXPECT_EQ(hist.exemplar_value, 20'000'000);
  EXPECT_EQ(hist.exemplar.span_id, ctx.span_id);
  char want[33];
  std::snprintf(want, sizeof(want), "%016llx%016llx",
                static_cast<unsigned long long>(ctx.trace_hi),
                static_cast<unsigned long long>(ctx.trace_lo));
  EXPECT_EQ(hist.ExemplarTraceId(), want);

  const std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"exemplar\": {\"value\":"), std::string::npos);
  EXPECT_NE(json.find(want), std::string::npos);
}

TEST_F(ObsTest, CompileFlagIsCoherent) {
  // The OFF build must report itself as such so callers (and this very
  // suite) can gate expectations.
#if defined(ENSEMFDET_METRICS_DISABLED)
  EXPECT_FALSE(kMetricsCompiledIn);
#else
  EXPECT_TRUE(kMetricsCompiledIn);
#endif
}

}  // namespace
}  // namespace obs
}  // namespace ensemfdet

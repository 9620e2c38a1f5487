#include "obs/export.h"

#include <cstdarg>
#include <cstdio>

namespace ensemfdet {
namespace obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

/// Highest occupied bucket index, or -1 when the histogram is empty.
int HighestBucket(const HistogramSnapshot& hist) {
  for (int i = static_cast<int>(hist.buckets.size()) - 1; i >= 0; --i) {
    if (hist.buckets[static_cast<size_t>(i)] > 0) return i;
  }
  return -1;
}

/// A raw histogram value in export units (ns → seconds for kSeconds) —
/// the same scaling HistogramSnapshot::Quantile applies.
double Scaled(const HistogramSnapshot& hist, double raw) {
  return hist.unit == Histogram::Unit::kSeconds ? raw * 1e-9 : raw;
}

double ScaledBound(const HistogramSnapshot& hist, size_t i) {
  return Scaled(hist, static_cast<double>(Histogram::BucketUpperBound(i)));
}

double ScaledExemplar(const HistogramSnapshot& hist) {
  return Scaled(hist, static_cast<double>(hist.exemplar_value));
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(&out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string EscapeExpositionText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricHelpText(const MetricSnapshot& metric) {
  if (!metric.help.empty()) return metric.help;
  // Derive a serviceable description from the naming convention:
  // ensemfdet_<layer>_<name>{_total|_seconds} → "<layer> <name ...>".
  std::string_view body = metric.name;
  constexpr std::string_view kPrefix = "ensemfdet_";
  if (body.substr(0, kPrefix.size()) == kPrefix) {
    body.remove_prefix(kPrefix.size());
  }
  auto strip_suffix = [&](std::string_view suffix) {
    if (body.size() > suffix.size() &&
        body.substr(body.size() - suffix.size()) == suffix) {
      body.remove_suffix(suffix.size());
    }
  };
  strip_suffix("_total");
  strip_suffix("_seconds");
  std::string words(body);
  for (char& c : words) {
    if (c == '_') c = ' ';
  }
  switch (metric.kind) {
    case InstrumentKind::kCounter:
      return "Monotone count of " + words + " events.";
    case InstrumentKind::kGauge:
      return "Instantaneous " + words + " value.";
    case InstrumentKind::kHistogram:
      return metric.histogram.unit == Histogram::Unit::kSeconds
                 ? "Latency distribution of " + words + " in seconds."
                 : "Size distribution of " + words + ".";
  }
  return words;
}

std::string ToPrometheusText(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    const char* name = metric.name.c_str();
    const std::string help = EscapeExpositionText(MetricHelpText(metric));
    AppendF(&out, "# HELP %s %s\n", name, help.c_str());
    switch (metric.kind) {
      case InstrumentKind::kCounter:
        AppendF(&out, "# TYPE %s counter\n%s %lld\n", name, name,
                static_cast<long long>(metric.value));
        break;
      case InstrumentKind::kGauge:
        AppendF(&out, "# TYPE %s gauge\n%s %lld\n", name, name,
                static_cast<long long>(metric.value));
        break;
      case InstrumentKind::kHistogram: {
        const HistogramSnapshot& hist = metric.histogram;
        AppendF(&out, "# TYPE %s histogram\n", name);
        const int highest = HighestBucket(hist);
        int64_t cumulative = 0;
        for (int i = 0; i <= highest; ++i) {
          cumulative += hist.buckets[static_cast<size_t>(i)];
          AppendF(&out, "%s_bucket{le=\"%.9g\"} %lld\n", name,
                  ScaledBound(hist, static_cast<size_t>(i)),
                  static_cast<long long>(cumulative));
        }
        AppendF(&out, "%s_bucket{le=\"+Inf\"} %lld\n", name,
                static_cast<long long>(hist.count));
        AppendF(&out, "%s_sum %.9g\n", name, hist.ScaledSum());
        AppendF(&out, "%s_count %lld\n", name,
                static_cast<long long>(hist.count));
        break;
      }
    }
  }
  return out;
}

std::string ToJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    AppendF(&out, "%s\n    {\"name\": \"%s\", \"help\": \"%s\", ",
            first ? "" : ",", metric.name.c_str(),
            JsonEscape(MetricHelpText(metric)).c_str());
    first = false;
    switch (metric.kind) {
      case InstrumentKind::kCounter:
        AppendF(&out, "\"type\": \"counter\", \"value\": %lld}",
                static_cast<long long>(metric.value));
        break;
      case InstrumentKind::kGauge:
        AppendF(&out, "\"type\": \"gauge\", \"value\": %lld}",
                static_cast<long long>(metric.value));
        break;
      case InstrumentKind::kHistogram: {
        const HistogramSnapshot& hist = metric.histogram;
        AppendF(&out,
                "\"type\": \"histogram\", \"unit\": \"%s\", "
                "\"count\": %lld, \"sum\": %.9g, \"min\": %.9g, "
                "\"max\": %.9g, \"p50\": %.9g, \"p99\": %.9g, "
                "\"p999\": %.9g, ",
                hist.unit == Histogram::Unit::kSeconds ? "seconds" : "units",
                static_cast<long long>(hist.count), hist.ScaledSum(),
                Scaled(hist, static_cast<double>(hist.raw_min)),
                Scaled(hist, static_cast<double>(hist.raw_max)),
                hist.Quantile(0.50), hist.Quantile(0.99),
                hist.Quantile(0.999));
        if (hist.has_exemplar()) {
          char span_hex[17];
          std::snprintf(span_hex, sizeof(span_hex), "%016llx",
                        static_cast<unsigned long long>(
                            hist.exemplar.span_id));
          AppendF(&out,
                  "\"exemplar\": {\"value\": %.9g, \"trace_id\": \"%s\", "
                  "\"span_id\": \"%s\"}, ",
                  ScaledExemplar(hist), hist.ExemplarTraceId().c_str(),
                  span_hex);
        }
        out += "\"buckets\": [";
        const int highest = HighestBucket(hist);
        int64_t cumulative = 0;
        for (int i = 0; i <= highest; ++i) {
          cumulative += hist.buckets[static_cast<size_t>(i)];
          AppendF(&out, "%s{\"le\": %.9g, \"count\": %lld}",
                  i == 0 ? "" : ", ",
                  ScaledBound(hist, static_cast<size_t>(i)),
                  static_cast<long long>(cumulative));
        }
        out += "]}";
        break;
      }
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace obs
}  // namespace ensemfdet

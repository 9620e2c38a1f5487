// Scrape serializers: Prometheus text exposition and a JSON snapshot.
// Pure functions over a RegistrySnapshot — the future network front end
// (ROADMAP item 4) serves these strings; the CLI writes them via
// --metrics-out and the metrics-dump subcommand.
#ifndef ENSEMFDET_OBS_EXPORT_H_
#define ENSEMFDET_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace ensemfdet {
namespace obs {

/// Escapes text for a `# HELP` line per the Prometheus exposition
/// format: backslash → `\\`, newline → `\n`.
std::string EscapeExpositionText(std::string_view text);

/// The `# HELP` text for a series: the help registered with the
/// instrument when present, otherwise a description derived from the
/// `ensemfdet_<layer>_<name>{_total|_seconds}` naming convention (so
/// every series always has one — tools/check_metrics.py requires it).
std::string MetricHelpText(const MetricSnapshot& metric);

/// Prometheus text exposition format. Every series gets `# HELP`
/// (escaped per the format) and `# TYPE` lines. Counters and gauges emit
/// one sample; histograms emit cumulative `_bucket{le=...}` samples
/// (only up to the highest occupied bucket, then `+Inf`), `_sum` (scaled
/// per unit) and `_count`. Metric names are emitted as registered — the
/// `ensemfdet_<layer>_<name>{_total|_seconds}` convention is the
/// caller's contract, validated by tools/check_metrics.py.
std::string ToPrometheusText(const RegistrySnapshot& snapshot);

/// JSON document: {"metrics":[...]} with per-kind fields; every metric
/// carries "help"; histograms include count, scaled sum, p50/p99/p999
/// estimates, the occupied buckets as {"le": upper_bound, "count":
/// cumulative}, and — when a tail exemplar exists — an "exemplar"
/// object whose trace_id joins against the exported timeline
/// (trace-report consumes this to link a p999 to its span tree).
std::string ToJson(const RegistrySnapshot& snapshot);

}  // namespace obs
}  // namespace ensemfdet

#endif  // ENSEMFDET_OBS_EXPORT_H_

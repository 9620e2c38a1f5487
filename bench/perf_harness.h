// Perf-baseline harness: the single producer of the repo's BENCH_*.json
// files (schema documented in bench/README.md). Its one front door is the
// `bench-report` subcommand of tools/ensemfdet_cli.cc, which CI runs.
//
// Every measurement reports min/mean wall-clock over its repeats (min is
// the headline: least scheduler noise). Each bench also *verifies* a
// parity property before timing anything and fails with Internal if it
// does not hold, so a lying document can't be produced.
#ifndef ENSEMFDET_BENCH_PERF_HARNESS_H_
#define ENSEMFDET_BENCH_PERF_HARNESS_H_

#include <string>

#include "common/status.h"

namespace ensemfdet {
namespace bench {

/// Runs the stream, storage, obs and WAL benches and writes
/// BENCH_stream.json, BENCH_storage.json, BENCH_obs.json and
/// BENCH_wal.json (schema_version 1 each) into `out_dir`, creating it
/// first so an unwritable directory fails before anything is measured.
/// The storage and obs benches run on the dataset1 preset at `scale`;
/// every other workload parameter is fixed. `repeats` sets each bench's
/// timed repetitions (stream and WAL max(1, repeats/2), storage
/// `repeats`, obs max(repeats, 12) rounded up to even); below 1 it is
/// InvalidArgument. Writes each document as soon as its bench passes,
/// printing one "wrote <path>" line to stderr, and stops at the first
/// failure.
Status WriteBenchReport(double scale, int repeats, const std::string& out_dir);

}  // namespace bench
}  // namespace ensemfdet

#endif  // ENSEMFDET_BENCH_PERF_HARNESS_H_

#!/usr/bin/env python3
"""Validate BENCH_*.json perf-baseline documents and gate regressions.

Extracted from the inline CI step so the validator is testable (a ctest
smoke test runs it against the committed baselines on every build) and
reusable locally:

    tools/check_bench.py --bench-dir bench-out --baseline-dir .
    tools/check_bench.py --bench-dir . --baseline-dir .   # self-check

Checks, per document (schema: bench/README.md):
  * well-formed JSON with the common envelope (schema_version, bench,
    graph, config, timings; every timing positive),
  * the expected schema_version per bench,
  * every parity flag true — the benches refuse to emit on divergence, so
    a false here means the file was forged or the producer changed,
  * regression gates against the committed baselines (skippable with
    --skip-regression):
      - stream: incremental speedup >= --stream-floor (hard) and within
        --stream-tolerance of the baseline (self-normalized by
        construction: both replays are timed in the same process),
      - storage: mmap verified load must beat TSV parse (>= 1.0x; the
        headline the snapshot format exists for) — self-normalized, no
        baseline comparison needed,
      - obs: the metrics-on vs metrics-off overhead must stay within the
        in-file budget (2%) — self-normalized (both arms timed
        interleaved in one process), no baseline comparison needed,
      - wal: the untimed replay gate must have compared every record and
        all three fsync-policy throughputs must be positive — fsync
        timing is machine-noisy, so no cross-run regression gate.

Exit codes: 0 all checks passed; 1 a validation or regression check
failed; 2 usage errors (missing file, unreadable JSON document).
"""

import argparse
import json
import sys

EXPECTED_SCHEMA = {
    "BENCH_stream.json": 1,
    "BENCH_storage.json": 1,
    "BENCH_obs.json": 1,
    "BENCH_wal.json": 1,
}
COMMON_KEYS = ("schema_version", "bench", "graph", "config", "timings")


class CheckFailure(Exception):
    pass


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        raise CheckFailure(f"{path}: malformed JSON: {e}")


def check(cond, message):
    if not cond:
        raise CheckFailure(message)


def validate_envelope(name, doc, schema):
    for key in COMMON_KEYS:
        check(key in doc, f"{name}: missing key '{key}'")
    check(doc["schema_version"] == schema,
          f"{name}: schema_version {doc['schema_version']}, want {schema}")
    check(doc["timings"], f"{name}: empty timings")
    for t in doc["timings"]:
        check(t.get("seconds_min", 0) > 0,
              f"{name}: non-positive timing '{t.get('name')}'")
    parity = doc.get("parity", {})
    check(parity, f"{name}: missing parity block")
    for key, value in parity.items():
        if isinstance(value, bool):
            check(value, f"{name}: parity check '{key}' is false")


def check_stream(fresh, baseline, floor, tolerance):
    check(fresh["parity"]["boundaries_compared"] > 0,
          "stream: no boundaries were parity-compared")
    speedup = fresh["speedup"]["incremental_vs_full_rebuild"]
    committed = baseline["speedup"]["incremental_vs_full_rebuild"]
    check(speedup >= floor,
          f"incremental ingest lost its edge: {speedup:.2f}x vs full "
          f"rebuild (hard floor {floor}x)")
    check(speedup >= tolerance * committed,
          f"incremental ingest regressed: {speedup:.2f}x vs committed "
          f"{committed:.2f}x (>{100 * (1 - tolerance):.0f}% drop)")
    reuse = fresh["stream"]["component_reuse_fraction"]
    return f"stream {speedup:.2f}x incremental ({reuse:.0%} reuse)"


def check_storage(fresh):
    # Self-normalized: TSV parse and mmap load are timed in the same
    # process over the same graph, so the ratio is runner-independent.
    speedup = fresh["speedup"]["mmap_verified_vs_tsv_parse"]
    check(speedup >= 1.0,
          f"storage: mmap verified load ({speedup:.2f}x) no longer beats "
          f"TSV parse — the snapshot format lost its reason to exist")
    check(fresh["file"]["efg_bytes"] > 0, "storage: empty snapshot file")
    return f"storage {speedup:.1f}x mmap-verified vs tsv"


def check_obs(fresh):
    # Self-normalized: the on and off arms are interleaved in one process
    # on the same graph, so the fraction is runner-independent. The budget
    # travels in the file (the producer wrote it), so a budget change is a
    # reviewed diff, not a CI-flag edit.
    overhead = fresh["overhead"]
    budget = overhead["budget_fraction"]
    check(budget <= 0.02,
          f"obs: budget_fraction {budget} exceeds the agreed 2% — the "
          f"producer loosened the gate")
    check(overhead["within_budget"],
          "obs: producer reported within_budget=false")
    check(overhead["fraction"] <= budget,
          f"obs: metrics overhead {overhead['fraction']:.2%} blew the "
          f"{budget:.0%} budget — instrumentation is no longer ~free")
    check(fresh["config"]["metrics_compiled_in"],
          "obs: bench was built with ENSEMFDET_METRICS=OFF — the overhead "
          "number is vacuous")
    return (f"obs {overhead['fraction']:+.2%} overhead "
            f"(counter {overhead['counter_ns_per_increment']:.0f} ns, "
            f"histogram {overhead['histogram_ns_per_record']:.0f} ns)")


def check_wal(fresh):
    # The producer refuses to emit unless replay reproduced the appended
    # stream, so the gates here are structural: every record was actually
    # compared, and all three policies produced a real measurement. No
    # baseline comparison — fsync latency varies wildly across runners.
    check(fresh["parity"]["records_compared"] > 0,
          "wal: no records were replay-compared")
    check(fresh["parity"]["records_compared"] ==
          fresh["wal"]["records"],
          "wal: replay compared fewer records than were appended")
    throughput = fresh["throughput"]
    for key in ("acked_events_per_second_none",
                "acked_events_per_second_batch",
                "acked_events_per_second_always"):
        check(throughput.get(key, 0) > 0, f"wal: non-positive {key}")
    check(fresh["wal"]["segments_created"] >= 1,
          "wal: no segments were created")
    return (f"wal {throughput['acked_events_per_second_batch']:.0f} "
            f"acked events/s batch "
            f"({throughput['acked_events_per_second_always']:.0f} always)")


def main():
    parser = argparse.ArgumentParser(
        description="Validate BENCH_*.json documents and gate regressions")
    parser.add_argument("--bench-dir", default="bench-out",
                        help="directory holding the freshly produced "
                             "BENCH_*.json files")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the committed baselines")
    parser.add_argument("--skip-regression", action="store_true",
                        help="validate schemas/parity only")
    parser.add_argument("--stream-floor", type=float, default=1.5,
                        help="hard minimum incremental speedup")
    parser.add_argument("--stream-tolerance", type=float, default=0.75,
                        help="min fresh/committed stream-speedup ratio")
    parser.add_argument("files", nargs="*",
                        default=sorted(EXPECTED_SCHEMA),
                        help="file names to check (default: all four)")
    args = parser.parse_args()

    summaries = []
    try:
        for name in args.files:
            if name not in EXPECTED_SCHEMA:
                print(f"check_bench: unknown bench file '{name}' "
                      f"(know: {', '.join(sorted(EXPECTED_SCHEMA))})",
                      file=sys.stderr)
                return 2
            fresh = load(f"{args.bench_dir}/{name}")
            validate_envelope(name, fresh, EXPECTED_SCHEMA[name])
            if args.skip_regression:
                continue
            if name == "BENCH_stream.json":
                baseline = load(f"{args.baseline_dir}/{name}")
                summaries.append(check_stream(fresh, baseline,
                                              args.stream_floor,
                                              args.stream_tolerance))
            elif name == "BENCH_storage.json":
                summaries.append(check_storage(fresh))
            elif name == "BENCH_obs.json":
                summaries.append(check_obs(fresh))
            elif name == "BENCH_wal.json":
                summaries.append(check_wal(fresh))
    except CheckFailure as failure:
        print(f"check_bench: FAIL: {failure}", file=sys.stderr)
        return 1
    print("check_bench: OK", "; ".join(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())

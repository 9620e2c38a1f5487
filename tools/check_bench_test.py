#!/usr/bin/env python3
"""Tests that every gate in tools/check_bench.py still fails when it should.

check_bench_smoke only feeds the committed BENCH_*.json documents, which
pass. Each case here copies the four committed documents into a temp
directory, mutates one of them so that exactly one check(...) in
check_bench.py fires, and asserts exit 1 with that check's message. The
committed documents stay the baseline (--baseline-dir), so the stream
tolerance is judged against the committed speedup.

    python3 tools/check_bench_test.py      # also run by ctest
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
CHECK_BENCH = TOOLS / "check_bench.py"
FILES = ("BENCH_stream.json", "BENCH_storage.json", "BENCH_obs.json",
         "BENCH_wal.json")


class CheckBenchTest(unittest.TestCase):

    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(prefix="check_bench_test_"))
        self.addCleanup(shutil.rmtree, self.dir, ignore_errors=True)
        for name in FILES:
            shutil.copy(ROOT / name, self.dir / name)

    def mutate(self, name, edit):
        path = self.dir / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    def run_check(self, *files):
        return subprocess.run(
            [sys.executable, str(CHECK_BENCH), "--bench-dir", str(self.dir),
             "--baseline-dir", str(ROOT), *files],
            capture_output=True, text=True)

    def assert_fails(self, message):
        proc = self.run_check()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(message, proc.stderr)

    # --- the unmodified copies and usage errors -------------------------

    def test_committed_documents_pass(self):
        proc = self.run_check()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(proc.stdout.startswith("check_bench: OK"))

    def test_unknown_file_name_is_a_usage_error(self):
        proc = self.run_check("BENCH_ensemble.json")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("unknown bench file 'BENCH_ensemble.json'", proc.stderr)

    def test_missing_file_is_a_usage_error(self):
        (self.dir / "BENCH_wal.json").unlink()
        proc = self.run_check()
        self.assertEqual(proc.returncode, 2)
        self.assertIn("cannot read", proc.stderr)

    # --- the common envelope (the storage gate reads none of these keys) -

    def test_missing_key(self):
        self.mutate("BENCH_storage.json", lambda d: d.pop("graph"))
        self.assert_fails("BENCH_storage.json: missing key 'graph'")

    def test_schema_version(self):
        self.mutate("BENCH_storage.json",
                    lambda d: d.update(schema_version=2))
        self.assert_fails("BENCH_storage.json: schema_version 2, want 1")

    def test_empty_timings(self):
        self.mutate("BENCH_storage.json", lambda d: d.update(timings=[]))
        self.assert_fails("BENCH_storage.json: empty timings")

    def test_non_positive_timing(self):
        self.mutate("BENCH_storage.json",
                    lambda d: d["timings"][0].update(seconds_min=0))
        self.assert_fails("BENCH_storage.json: non-positive timing "
                          "'tsv_parse'")

    def test_missing_parity_block(self):
        self.mutate("BENCH_storage.json", lambda d: d.pop("parity"))
        self.assert_fails("BENCH_storage.json: missing parity block")

    def test_false_parity_flag(self):
        self.mutate("BENCH_storage.json",
                    lambda d: d["parity"].update(fingerprints_match=False))
        self.assert_fails("BENCH_storage.json: parity check "
                          "'fingerprints_match' is false")

    # --- stream ----------------------------------------------------------

    def test_stream_no_boundaries_compared(self):
        self.mutate("BENCH_stream.json",
                    lambda d: d["parity"].update(boundaries_compared=0))
        self.assert_fails("stream: no boundaries were parity-compared")

    def test_stream_below_hard_floor(self):
        self.mutate("BENCH_stream.json", lambda d: d["speedup"].update(
            incremental_vs_full_rebuild=1.4))
        self.assert_fails("incremental ingest lost its edge: 1.40x")

    def test_stream_below_tolerance_of_committed(self):
        # 1.8 clears the 1.5 floor but not 0.75 x the committed 2.629.
        self.mutate("BENCH_stream.json", lambda d: d["speedup"].update(
            incremental_vs_full_rebuild=1.8))
        self.assert_fails("incremental ingest regressed: 1.80x vs "
                          "committed 2.63x")

    # --- storage ---------------------------------------------------------

    def test_storage_mmap_slower_than_tsv(self):
        self.mutate("BENCH_storage.json", lambda d: d["speedup"].update(
            mmap_verified_vs_tsv_parse=0.9))
        self.assert_fails("storage: mmap verified load (0.90x) no longer "
                          "beats TSV parse")

    def test_storage_empty_snapshot(self):
        self.mutate("BENCH_storage.json",
                    lambda d: d["file"].update(efg_bytes=0))
        self.assert_fails("storage: empty snapshot file")

    # --- obs -------------------------------------------------------------

    def test_obs_budget_loosened(self):
        self.mutate("BENCH_obs.json",
                    lambda d: d["overhead"].update(budget_fraction=0.05))
        self.assert_fails("obs: budget_fraction 0.05 exceeds the agreed 2%")

    def test_obs_producer_verdict_false(self):
        # The committed fraction is within budget; only the verdict lies.
        self.mutate("BENCH_obs.json",
                    lambda d: d["overhead"].update(within_budget=False))
        self.assert_fails("obs: producer reported within_budget=false")

    def test_obs_overhead_over_budget(self):
        self.mutate("BENCH_obs.json",
                    lambda d: d["overhead"].update(fraction=0.03))
        self.assert_fails("obs: metrics overhead 3.00% blew the 2% budget")

    def test_obs_metrics_compiled_out(self):
        self.mutate("BENCH_obs.json",
                    lambda d: d["config"].update(metrics_compiled_in=False))
        self.assert_fails("obs: bench was built with ENSEMFDET_METRICS=OFF")

    # --- wal -------------------------------------------------------------

    def test_wal_no_records_compared(self):
        # Both zero, so the equality check holds and only "> 0" fires.
        def edit(d):
            d["parity"]["records_compared"] = 0
            d["wal"]["records"] = 0
        self.mutate("BENCH_wal.json", edit)
        self.assert_fails("wal: no records were replay-compared")

    def test_wal_fewer_records_compared(self):
        self.mutate("BENCH_wal.json",
                    lambda d: d["parity"].update(records_compared=95))
        self.assert_fails("wal: replay compared fewer records than were "
                          "appended")

    def test_wal_non_positive_throughput(self):
        self.mutate("BENCH_wal.json", lambda d: d["throughput"].update(
            acked_events_per_second_batch=0))
        self.assert_fails("wal: non-positive acked_events_per_second_batch")

    def test_wal_no_segments(self):
        self.mutate("BENCH_wal.json",
                    lambda d: d["wal"].update(segments_created=0))
        self.assert_fails("wal: no segments were created")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests trace-report's self-time rollup on a crafted timeline.

A detached pool_task span has no causal children: the member it runs is
parented to the job. Its self time must still exclude that member, which
ran inside it on the same thread, and only that member.

    python3 tools/trace_report_test.py build/ensemfdet_cli   # also run by ctest
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CLI = None  # set from argv
TRACE = "0123456789abcdef0123456789abcdef"


def event(name, tid, ts_us, dur_us, span, parent):
    """One complete event as the span-ring exporter writes it."""
    return ('{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,'
            '"args":{"trace_id":"%s","span_id":"%016x",'
            '"parent_span_id":"%016x"}}'
            % (name, tid, ts_us, dur_us, TRACE, span, parent))


class TraceReportTest(unittest.TestCase):

    def rollup(self, events):
        """trace-report's stage rows: name -> (count, self_ms)."""
        with tempfile.TemporaryDirectory(prefix="trace_report_test_") as d:
            path = Path(d) / "trace.json"
            path.write_text("[" + ",\n".join(events) + "\n]\n")
            out = subprocess.run([CLI, "trace-report", f"--trace={path}"],
                                 capture_output=True, text=True,
                                 check=True).stdout
        rows = {}
        for line in out.splitlines():
            fields = line.split()
            if len(fields) == 4 and fields[1].isdigit() \
                    and fields[3].endswith("%"):
                rows[fields[0]] = (int(fields[1]), float(fields[2]))
        return rows

    def test_pool_task_excludes_the_member_it_ran(self):
        # Records of one thread appear in close order, as exported.
        rows = self.rollup([
            event("service_job", 1, 900, 1300, 1, 0),
            event("member_peel", 2, 1100, 600, 3, 1),
            event("pool_task", 2, 1000, 1000, 2, 1),
            # Another worker's member overlaps the task but ran elsewhere.
            event("member_peel", 3, 1200, 500, 4, 1),
        ])
        self.assertEqual(rows["pool_task"], (1, 0.400))
        self.assertEqual(rows["member_peel"], (2, 1.100))
        self.assertEqual(rows["service_job"], (1, 0.300))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: trace_report_test.py PATH_TO_ENSEMFDET_CLI")
    CLI = sys.argv.pop(1)
    unittest.main()

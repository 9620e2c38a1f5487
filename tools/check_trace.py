#!/usr/bin/env python3
"""Validate causal traces and flight-recorder dumps from ensemfdet.

Usage:
    tools/check_trace.py TRACE.json [--expect-root NAME=COUNT]...
                         [--max-skew-us US]
    tools/check_trace.py --flight DUMP.bin [--min-records N]
                         [--expect-crash-signal SIG]

JSON mode consumes a Chrome trace_event file written by the engine's
--trace-out (an export of its span ring) and checks the *causal* layer
on top of the timeline:

  * every complete ('X') event carries trace_id / span_id /
    parent_span_id args (32- and 16-hex-digit strings),
  * span ids are unique across the file (ids are process-global),
  * no orphans: every nonzero parent_span_id resolves to a span in the
    SAME trace_id — a broken cross-thread hop shows up here as a member
    span whose parent vanished,
  * every trace is a tree with exactly one root (parent_span_id == 0),
  * children start no earlier than their parent minus a small clock-skew
    slack (steady_clock is shared, so real violations mean id reuse),
  * --expect-root NAME=COUNT pins the number of root spans with that
    name (CI: detect --repeat=N must yield exactly N service_job roots).

Latency attribution (self-time rollups, critical path) is
`ensemfdet_cli trace-report`'s job; this script only validates.

Flight mode parses the binary black box (format: DESIGN.md "Causal
tracing & flight recorder"; layout constants mirrored from
src/obs/flight_recorder.cc) and checks header geometry, per-thread ring
consistency (retained records' seq form a contiguous tail of next_seq),
and optionally that a crash marker/footer is present with the expected
signal.

Exit codes: 0 all checks passed; 1 a check failed; 2 usage/IO errors.
"""

import argparse
import json
import struct
import sys

# ---------------------------------------------------------------------------
# shared

class CheckFailure(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# JSON (Chrome trace_event) mode

HEX16 = frozenset("0123456789abcdef")


def parse_hex_id(path, event, key, digits):
    args = event.get("args", {})
    check(key in args, f"{path}: '{event.get('name')}' X event lacks "
                       f"args.{key}")
    value = args[key]
    check(isinstance(value, str) and len(value) == digits
          and set(value) <= HEX16,
          f"{path}: args.{key}={value!r} is not a {digits}-digit hex id")
    return int(value, 16)


class Span:
    __slots__ = ("name", "tid", "ts", "dur", "trace", "span", "parent")

    def __init__(self, name, tid, ts, dur, trace, span, parent):
        self.name = name
        self.tid = tid
        self.ts = ts          # microseconds
        self.dur = dur
        self.trace = trace    # int trace id (128-bit)
        self.span = span
        self.parent = parent


def load_trace(path):
    try:
        with open(path) as f:
            events = json.load(f)
    except OSError as e:
        print(f"check_trace: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        raise CheckFailure(f"{path}: malformed trace JSON: {e}")
    check(isinstance(events, list), f"{path}: top level is not an array")
    return events


def validate_json(path, events, expect_roots, max_skew_us):
    spans = []
    for event in events:
        check(isinstance(event, dict) and "ph" in event and "name" in event,
              f"{path}: event without ph/name: {event!r}")
        ph = event["ph"]
        if ph == "X":
            trace = parse_hex_id(path, event, "trace_id", 32)
            span = parse_hex_id(path, event, "span_id", 16)
            parent = parse_hex_id(path, event, "parent_span_id", 16)
            check(span != 0,
                  f"{path}: '{event['name']}' has span_id 0 (never issued)")
            check(trace != 0,
                  f"{path}: '{event['name']}' has trace_id 0")
            spans.append(Span(event["name"], event.get("tid"),
                              float(event["ts"]), float(event["dur"]),
                              trace, span, parent))
        else:
            raise CheckFailure(f"{path}: unexpected phase {ph!r}")

    check(spans, f"{path}: no complete events")

    by_span = {}
    for s in spans:
        check(s.span not in by_span,
              f"{path}: span id {s.span:016x} used twice "
              f"('{by_span.get(s.span) and by_span[s.span].name}' and "
              f"'{s.name}')")
        by_span[s.span] = s

    # Causal tree checks, per trace id.
    traces = {}
    for s in spans:
        traces.setdefault(s.trace, []).append(s)
    roots = []
    for trace, members in traces.items():
        trace_roots = [s for s in members if s.parent == 0]
        check(len(trace_roots) == 1,
              f"{path}: trace {trace:032x} has {len(trace_roots)} roots "
              f"({[s.name for s in trace_roots]}); want exactly 1")
        roots.append(trace_roots[0])
        for s in members:
            if s.parent == 0:
                continue
            parent = by_span.get(s.parent)
            check(parent is not None,
                  f"{path}: '{s.name}' (span {s.span:016x}) is an orphan: "
                  f"parent {s.parent:016x} appears nowhere")
            check(parent.trace == s.trace,
                  f"{path}: '{s.name}' parents across traces "
                  f"({s.trace:032x} -> {parent.trace:032x})")
            check(s.ts >= parent.ts - max_skew_us,
                  f"{path}: '{s.name}' starts {parent.ts - s.ts:.1f}us "
                  f"before its parent '{parent.name}' (skew budget "
                  f"{max_skew_us}us) — likely span-id reuse")

    root_counts = {}
    for r in roots:
        root_counts[r.name] = root_counts.get(r.name, 0) + 1
    for name, want in expect_roots.items():
        got = root_counts.get(name, 0)
        check(got == want,
              f"{path}: {got} root spans named '{name}', expected {want} "
              f"(roots seen: {root_counts})")

    print(f"check_trace: OK {path}: {len(spans)} spans, "
          f"{len(traces)} trace(s), roots: {root_counts}")


# ---------------------------------------------------------------------------
# flight-recorder (binary black box) mode
#
# Layout mirrored from src/obs/flight_recorder.cc; all little-endian.

FILE_MAGIC = b"EFDTFREC"
FOOTER_MAGIC = b"EFDTCRSH"
HEADER_BYTES = 4096
NAME_BYTES = 64
SLOT_HEADER_BYTES = 64
RECORD_BYTES = 64
REASON_CLAIMED = 0xFFFFFFFF

HEADER_FMT = "<8s6IQiI192s"   # magic..crash_reason
SLOT_FMT = "<QII"             # next_seq, tid, active
RECORD_FMT = "<4Q2qIIQ"       # FlightRecord
FOOTER_FMT = "<8siI180s"      # CrashFooter


def load_flight(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        print(f"check_trace: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return blob


def validate_flight(path, blob, min_records, expect_signal):
    check(len(blob) >= HEADER_BYTES, f"{path}: shorter than the header")
    (magic, version, record_bytes, ring_records, max_threads, max_names,
     name_bytes, dropped, crash_signal, reason_len, reason_raw) = \
        struct.unpack_from(HEADER_FMT, blob, 0)
    check(magic == FILE_MAGIC, f"{path}: bad magic {magic!r}")
    check(version == 1, f"{path}: unsupported version {version}")
    check(record_bytes == RECORD_BYTES and name_bytes == NAME_BYTES,
          f"{path}: geometry mismatch (record={record_bytes}, "
          f"name={name_bytes})")
    check(0 < ring_records <= 1 << 20, f"{path}: ring_records {ring_records}")
    check(0 < max_threads <= 4096, f"{path}: max_threads {max_threads}")
    check(0 < max_names <= 65536, f"{path}: max_names {max_names}")

    mapped = (HEADER_BYTES + max_names * NAME_BYTES +
              max_threads * (SLOT_HEADER_BYTES + ring_records * RECORD_BYTES))
    check(len(blob) >= mapped,
          f"{path}: file truncated: {len(blob)} < mapped size {mapped}")

    crash_reason = ""
    if reason_len not in (0, REASON_CLAIMED):
        check(reason_len <= len(reason_raw),
              f"{path}: crash_reason_len {reason_len} exceeds field")
        crash_reason = reason_raw[:reason_len].decode("utf-8", "replace")

    names = {}
    for i in range(max_names):
        off = HEADER_BYTES + i * NAME_BYTES
        raw = blob[off:off + NAME_BYTES].split(b"\0", 1)[0]
        if raw:
            names[i] = raw.decode("utf-8", "replace")

    slots_base = HEADER_BYTES + max_names * NAME_BYTES
    stride = SLOT_HEADER_BYTES + ring_records * RECORD_BYTES
    total_records = 0
    active_threads = 0
    for slot in range(max_threads):
        base = slots_base + slot * stride
        next_seq, tid, active = struct.unpack_from(SLOT_FMT, blob, base)
        if not active:
            continue
        active_threads += 1
        retained = 0
        lo = next_seq - min(next_seq, ring_records)
        for seq in range(lo, next_seq):
            off = base + SLOT_HEADER_BYTES + (seq % ring_records) * RECORD_BYTES
            rec = struct.unpack_from(RECORD_FMT, blob, off)
            (trace_hi, trace_lo, span_id, parent, start_ns, dur_ns,
             name_id, _flags, rec_seq) = rec
            if rec_seq != seq:
                continue  # torn by crash mid-write; tolerated by design
            retained += 1
            check(span_id != 0,
                  f"{path}: slot {slot} seq {seq}: span_id 0")
            # name_id beyond the table is legal (the engine writes global
            # intern ids; only the first max_names get mirrored bytes),
            # so no range check — Name() just resolves to unknown.
            check(dur_ns >= 0,
                  f"{path}: slot {slot} seq {seq}: negative duration")
        total_records += retained
        # A crash can tear at most the records in flight, one per thread.
        window = next_seq - lo
        check(retained >= max(0, window - 1),
              f"{path}: slot {slot} (tid {tid}): only {retained} of "
              f"{window} retained records parse — ring corrupt")

    check(total_records >= min_records,
          f"{path}: {total_records} retained records < required "
          f"{min_records}")

    has_footer = False
    footer_signal = 0
    footer_reason = ""
    if len(blob) >= mapped + struct.calcsize(FOOTER_FMT):
        fmagic, fsignal, freason_len, freason_raw = struct.unpack_from(
            FOOTER_FMT, blob, mapped)
        if fmagic == FOOTER_MAGIC:
            has_footer = True
            footer_signal = fsignal
            if freason_len <= len(freason_raw):
                footer_reason = freason_raw[:freason_len].decode(
                    "utf-8", "replace")

    if expect_signal is not None:
        check(crash_signal == expect_signal or footer_signal == expect_signal,
              f"{path}: expected crash signal {expect_signal}, header says "
              f"{crash_signal}, footer says "
              f"{footer_signal if has_footer else '(none)'}")

    print(f"check_trace: OK {path} (flight): {active_threads} thread(s), "
          f"{total_records} retained records, {len(names)} names, "
          f"dropped={dropped}, crash_signal={crash_signal}, "
          f"reason={crash_reason!r}, "
          f"footer={'%d %r' % (footer_signal, footer_reason) if has_footer else 'absent'}")


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description="Validate ensemfdet trace JSON or flight-recorder dumps")
    parser.add_argument("path", help="trace JSON, or dump file with --flight")
    parser.add_argument("--flight", action="store_true",
                        help="parse a binary flight-recorder dump")
    parser.add_argument("--expect-root", action="append", default=[],
                        metavar="NAME=COUNT",
                        help="require exactly COUNT root spans named NAME")
    parser.add_argument("--max-skew-us", type=float, default=100.0,
                        help="child-before-parent slack in microseconds")
    parser.add_argument("--min-records", type=int, default=1,
                        help="flight mode: minimum retained records")
    parser.add_argument("--expect-crash-signal", type=int, default=None,
                        help="flight mode: require this crash signal marker")
    args = parser.parse_args()

    expect_roots = {}
    for spec in args.expect_root:
        name, eq, count = spec.partition("=")
        if not eq or not count.isdigit():
            parser.error(f"--expect-root wants NAME=COUNT, got {spec!r}")
        expect_roots[name] = int(count)

    try:
        if args.flight:
            validate_flight(args.path, load_flight(args.path),
                            args.min_records, args.expect_crash_signal)
        else:
            validate_json(args.path, load_trace(args.path), expect_roots,
                          args.max_skew_us)
    except CheckFailure as failure:
        print(f"check_trace: FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

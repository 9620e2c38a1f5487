// The span ring (DESIGN.md "Flight recorder"): the one place a completed
// TraceSpan is recorded.
//
// Every completed TraceSpan leaves one fixed-size 64-byte binary record
// in a per-thread lock-free ring. Recording costs one thread-local ring
// write, no locks, and is covered by the CI-gated 2% BENCH_obs budget.
// The ring lives in one of two places, with the same layout and the same
// record path:
//
//   * a pre-sized memory-mapped file (`path` set; CLI --flight-recorder):
//     the crash black box. The last-N spans per thread survive *any*
//     process death, including SIGKILL where no handler can run: the
//     kernel's page cache keeps the mapped writes regardless of how the
//     process exits. On fatal signals (SIGSEGV/SIGBUS/SIGILL/SIGFPE/
//     SIGABRT) an installed handler additionally stamps the crash signal
//     into the mapped header and appends a footer through an
//     async-signal-safe path: a pre-opened fd and pwrite() only — no
//     malloc, no locks, no stdio. ENSEMFDET_CHECK failures and
//     WAL-recovery IOErrors reach the same dump through
//     DumpFlightRecorder(), which may also msync (those run in normal, not
//     signal, context).
//   * anonymous memory (`path` empty; CLI --trace-out alone): no fd, no
//     footer, no signal handlers. The CLI sizes it for the whole run and
//     exports it as the Chrome timeline at exit (trace.h
//     WriteChromeTrace over SnapshotFlightRecorder()).
//
// Layout (little-endian, offsets fixed by the header):
//   [FlightFileHeader: 4096 B]  magic/version/geometry + crash marker
//   [name table: max_names x 64 B]  interned span names, NUL-terminated
//   [thread slots: max_threads x (64 B slot header + ring_records x 64 B)]
//   [optional crash footer, appended by the signal/CHECK hook]
// Threads claim a slot on their first record (one atomic increment) and
// keep it for the process lifetime; `seq` in the slot header counts every
// record the thread ever wrote, so record i lives at seq % ring_records
// and the reader can tell retained from overwritten history.
//
// With ENSEMFDET_METRICS=OFF recording compiles out (there are no spans);
// Install refuses so callers can warn, but the reader still works — a
// metrics-off binary can inspect dumps produced elsewhere.
#ifndef ENSEMFDET_OBS_FLIGHT_RECORDER_H_
#define ENSEMFDET_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace_context.h"

namespace ensemfdet {
namespace obs {

/// One completed span in the ring. Exactly 64 bytes; written in place
/// into the mapped ring, read back verbatim by ReadFlightDump,
/// SnapshotFlightRecorder and tools/check_trace.py --flight.
struct FlightRecord {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  int64_t start_ns = 0;     // TraceNowNs() at span open
  int64_t duration_ns = 0;
  uint32_t name_id = 0;     // index into the dump's name table
  uint32_t flags = 0;       // reserved
  uint64_t seq = 0;         // per-thread monotone record number
};
static_assert(sizeof(FlightRecord) == 64,
              "FlightRecord is the on-disk ring format; keep it 64 bytes");

struct FlightRecorderOptions {
  std::string path;              // empty: anonymous memory, no black box
  uint32_t ring_records = 2048;  // retained spans per thread (<= 2^20)
  uint32_t max_threads = 32;     // ring slots (<= 4096); extra threads
                                 // drop records into dropped_records
  uint32_t max_names = 256;      // name-table capacity (<= 65536)
};

/// Maps the ring and turns on recording. With a `path`, creates
/// (truncates) the black-box file, maps it shared and installs the
/// fatal-signal handlers; without one, maps anonymous memory. Reinstall
/// is allowed (tests): the previous mapping is leaked deliberately so
/// threads racing a reinstall never write through a dead pointer. Fails
/// with InvalidArgument on a geometry the reader would refuse, and with
/// FailedPrecondition when metrics are compiled out.
Status InstallFlightRecorder(const FlightRecorderOptions& options);

bool FlightRecorderInstalled();

/// Marks `reason` in the black box and appends the crash footer via the
/// pre-opened fd, then msyncs the mapping. Safe from normal (non-signal)
/// context; the fatal-signal path uses an internal async-signal-safe
/// variant. No-op unless a file-backed recorder is installed.
void DumpFlightRecorder(const char* reason);

namespace internal {
#if !defined(ENSEMFDET_METRICS_DISABLED)
extern std::atomic<bool> g_flight_active;
inline bool FlightActive() {
  return g_flight_active.load(std::memory_order_relaxed);
}
void RecordFlightSpanSlow(const char* name, int64_t start_ns,
                          int64_t duration_ns, const TraceContext& ctx,
                          uint64_t parent_span_id);
#else
inline bool FlightActive() { return false; }
inline void RecordFlightSpanSlow(const char*, int64_t, int64_t,
                                 const TraceContext&, uint64_t) {}
#endif
}  // namespace internal

/// Hot-path hook (TraceSpan destructor): one relaxed load when no
/// recorder is installed; otherwise a thread-local slot lookup and one
/// 64-byte ring write.
inline void RecordFlightSpan(const char* name, int64_t start_ns,
                             int64_t duration_ns, const TraceContext& ctx,
                             uint64_t parent_span_id) {
  if (name == nullptr || !internal::FlightActive()) return;
  internal::RecordFlightSpanSlow(name, start_ns, duration_ns, ctx,
                                 parent_span_id);
}

/// Decoded ring, oldest-to-newest per thread.
struct FlightDumpThread {
  uint32_t tid = 0;              // CurrentThreadTraceId() of the writer
  uint64_t total_records = 0;    // ever written; > records.size() ⇒ lost
  std::vector<FlightRecord> records;
};

struct FlightDump {
  uint32_t ring_records = 0;
  uint32_t max_threads = 0;
  uint32_t max_names = 0;
  int32_t crash_signal = 0;      // 0 = no crash marker (e.g. SIGKILL)
  std::string crash_reason;
  bool has_footer = false;
  int32_t footer_signal = 0;
  std::string footer_reason;
  uint64_t dropped_records = 0;  // threads beyond max_threads
  std::vector<std::string> names;  // name_id → name ("" when unseen)
  std::vector<FlightDumpThread> threads;

  const std::string& Name(uint32_t id) const;
};

/// Parses a black-box file (works in every build config, and on dumps
/// from processes that died mid-write — records are fixed-size and
/// self-describing). Per thread it keeps the newest run of records whose
/// stamped seq matches their slot, so retained seqs are contiguous and a
/// torn record (and anything older) is dropped, never reported.
Result<FlightDump> ReadFlightDump(const std::string& path);

/// Parses the installed ring in place through the same parser as
/// ReadFlightDump. Each slot's next_seq is loaded with acquire before the
/// records below it are copied; call it only when no span is in flight
/// (the CLI waits for its pool to go idle). FailedPrecondition when no
/// ring is installed.
Result<FlightDump> SnapshotFlightRecorder();

}  // namespace obs
}  // namespace ensemfdet

#endif  // ENSEMFDET_OBS_FLIGHT_RECORDER_H_

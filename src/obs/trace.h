// Scoped timing + causal span emission. TraceSpan measures the enclosing
// scope's wall time, records it into a Histogram (Unit::kSeconds,
// nanosecond observations), and stamps the span with causal identity
// from trace_context.h: a span opened while a context is installed
// parents to that context's innermost span; opened with no context it
// starts a fresh trace and becomes a root.
//
// Two sinks, both written by the destructor:
//   * Histogram — always (runtime-enabled); tail recordings carry an
//     exemplar trace id (metrics.h) linking a p999 back to its span tree.
//   * The span ring — when installed (flight_recorder.h): one 64-byte
//     ring write per span. The ring is the crash black box
//     (--flight-recorder) and the source of the Chrome timeline:
//     WriteChromeTrace exports a snapshot of it as trace_event JSON
//     (chrome://tracing / Perfetto), one complete event ("ph":"X") per
//     record with trace/span/parent ids in args.
//
// Span names are interned into a process-lifetime table — dynamic
// (stack- or heap-built) names are safe, the ring records hold the
// interned id, never the caller's pointer.
#ifndef ENSEMFDET_OBS_TRACE_H_
#define ENSEMFDET_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace ensemfdet {
namespace obs {

/// Nanoseconds since the process's trace epoch (first use).
int64_t TraceNowNs();

/// The calling thread's stable id (dense, first-use order). The flight
/// recorder labels ring slots with it; the timeline export writes it as
/// each event's "tid".
int32_t CurrentThreadTraceId();

/// Interns `name`, returning a stable id (> 0) valid for the process
/// lifetime; returns 0 (rendered "(unknown)") once the table is full.
/// Safe for dynamic strings — the table owns a copy.
uint32_t InternSpanName(std::string_view name);
/// The interned string for `id`; "(unknown)" for 0 or out-of-range ids.
const char* InternedSpanName(uint32_t id);

/// Writes `dump` (a SnapshotFlightRecorder() or ReadFlightDump result) as
/// Chrome trace_event JSON, one complete event per line: per thread,
/// oldest record first, with the slot's tid and trace_id / span_id /
/// parent_span_id args. IOError when `path` cannot be written.
Status WriteChromeTrace(const FlightDump& dump, const std::string& path);

/// RAII scope timer. On destruction records elapsed nanoseconds into
/// `histogram` (if non-null) and writes a ring record (if `name` is
/// non-null and a ring is installed).
///
/// Link::kParent (default): the span installs itself as the thread's
/// current context, so spans opened inside it become its children.
/// Link::kDetached: the span records its parent but leaves the current
/// context alone — for infrastructure wrappers (ThreadPool's pool_task)
/// whose presence must not change the *detection* tree's shape across
/// pool widths.
class TraceSpan {
 public:
  enum class Link { kParent, kDetached };

  explicit TraceSpan(Histogram* histogram, const char* name = nullptr,
                     Link link = Link::kParent) {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    if (internal::RuntimeEnabled()) {
      histogram_ = histogram;
      name_ = name;
      start_ns_ = TraceNowNs();
      const TraceContext parent = CurrentTraceContext();
      parent_span_id_ = parent.span_id;
      if (parent.valid()) {
        ctx_.trace_hi = parent.trace_hi;
        ctx_.trace_lo = parent.trace_lo;
      } else {
        const TraceContext fresh = NewRootContext();
        ctx_.trace_hi = fresh.trace_hi;
        ctx_.trace_lo = fresh.trace_lo;
      }
      ctx_.span_id = NewSpanId();
      if (link == Link::kParent) {
        prev_ = parent;
        SetCurrentTraceContext(ctx_);
        pushed_ = true;
      }
      active_ = true;
    }
#else
    (void)histogram;
    (void)name;
    (void)link;
#endif
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    if (!active_) return;
    const int64_t elapsed_ns = TraceNowNs() - start_ns_;
    // The histogram's tail exemplar points at this span, not at the
    // current context: a detached span is never current.
    if (histogram_ != nullptr && internal::RuntimeEnabled()) {
      histogram_->Record(elapsed_ns, &ctx_);
    }
    RecordFlightSpan(name_, start_ns_, elapsed_ns, ctx_, parent_span_id_);
    if (pushed_) SetCurrentTraceContext(prev_);
#endif
  }

  /// This span's identity (test hook; {0,...} when inactive).
  TraceContext context() const {
#if !defined(ENSEMFDET_METRICS_DISABLED)
    return ctx_;
#else
    return {};
#endif
  }

 private:
#if !defined(ENSEMFDET_METRICS_DISABLED)
  Histogram* histogram_ = nullptr;
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
  TraceContext ctx_;
  TraceContext prev_;
  uint64_t parent_span_id_ = 0;
  bool active_ = false;
  bool pushed_ = false;
#endif
};

}  // namespace obs
}  // namespace ensemfdet

#endif  // ENSEMFDET_OBS_TRACE_H_

// Tests for causal trace-context propagation (src/obs/trace_context.h):
// span parenting, automatic per-job roots, cross-thread context capture
// through ThreadPool, and — the load-bearing invariant — that one
// detection's span tree has the SAME shape at every pool width, because
// members parent to the job root through the captured context and the
// pool's own wrapper spans are detached. Spans are read back from the
// one place they are recorded: an in-memory span ring, fresh per test,
// through SnapshotFlightRecorder. Also pins span-name interning.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace ensemfdet {
namespace obs {
namespace {

// Installs a fresh in-memory span ring: the spans read back afterwards
// are only those recorded since.
void InstallFreshRing() {
  FlightRecorderOptions options;  // no path: anonymous memory
  options.ring_records = 256;
  options.max_threads = 16;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());
}

// One span read back from the ring.
struct RingSpan {
  std::string name;
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

// Every span in the installed ring; call only when none is in flight.
std::vector<RingSpan> RingSpans() {
  std::vector<RingSpan> spans;
  auto dump = SnapshotFlightRecorder();
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
  if (!dump.ok()) return spans;
  for (const FlightDumpThread& thread : dump->threads) {
    for (const FlightRecord& r : thread.records) {
      spans.push_back({dump->Name(r.name_id), r.trace_hi, r.trace_lo,
                       r.span_id, r.parent_span_id});
    }
  }
  return spans;
}

class TraceContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
    SetMetricsRuntimeEnabled(true);
    InstallFreshRing();
  }
  void TearDown() override { SetMetricsRuntimeEnabled(true); }
};

TEST_F(TraceContextTest, NewRootContextIsValidAndUnique) {
  const TraceContext a = NewRootContext();
  const TraceContext b = NewRootContext();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a == b);
  // A fresh root context carries no parent span: the first span opened
  // under it becomes the tree root rather than parenting to a phantom.
  EXPECT_EQ(a.span_id, 0u);
  EXPECT_FALSE(a.trace_hi == b.trace_hi && a.trace_lo == b.trace_lo);
}

TEST_F(TraceContextTest, ScopedContextInstallsAndRestores) {
  const TraceContext before = CurrentTraceContext();
  const TraceContext root = NewRootContext();
  {
    ScopedTraceContext scope(root);
    EXPECT_TRUE(CurrentTraceContext() == root);
    {
      ScopedTraceContext inner(NewRootContext());
      EXPECT_FALSE(CurrentTraceContext() == root);
    }
    EXPECT_TRUE(CurrentTraceContext() == root);
  }
  EXPECT_TRUE(CurrentTraceContext() == before);
}

TEST_F(TraceContextTest, SpanIdsUniqueAcrossThreadsAndBlocks) {
  // Each thread allocates past the 2^16 thread-local block size, so the
  // test crosses block refills; the union must still be duplicate-free
  // and 0 must never be issued.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 70'000;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      ids[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(NewSpanId());
    });
  }
  for (auto& th : threads) th.join();
  std::vector<uint64_t> all;
  for (auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_NE(all.front(), 0u);
}

TEST_F(TraceContextTest, NestedSpansParentCorrectly) {
  Histogram h;
  {
    ScopedTraceContext root(NewRootContext());
    TraceSpan outer(&h, "outer_stage");
    { TraceSpan inner(&h, "inner_stage"); }
  }
  const auto events = RingSpans();
  const RingSpan* outer = nullptr;
  const RingSpan* inner = nullptr;
  for (const auto& e : events) {
    if (e.name == "outer_stage") outer = &e;
    if (e.name == "inner_stage") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
  EXPECT_EQ(inner->trace_hi, outer->trace_hi);
  EXPECT_EQ(inner->trace_lo, outer->trace_lo);
  EXPECT_NE(inner->span_id, outer->span_id);
}

TEST_F(TraceContextTest, SpanAutoRootsWithoutInstalledContext) {
  // A span opened with no current context becomes its own root: every
  // detection is traceable even when the caller never set one up.
  SetCurrentTraceContext(TraceContext{});
  Histogram h;
  { TraceSpan orphanless(&h, "auto_root_span"); }
  const auto events = RingSpans();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].parent_span_id, 0u);
  EXPECT_TRUE(events[0].trace_hi != 0 || events[0].trace_lo != 0);
  EXPECT_NE(events[0].span_id, 0u);
}

TEST_F(TraceContextTest, DetachedSpanDoesNotBecomeParent) {
  Histogram h;
  {
    ScopedTraceContext root(NewRootContext());
    TraceSpan job(&h, "job_span");
    TraceSpan wrapper(&h, "wrapper_span", TraceSpan::Link::kDetached);
    // The detached wrapper must not have become the current parent.
    { TraceSpan child(&h, "child_span"); }
  }
  const auto events = RingSpans();
  std::map<std::string, const RingSpan*> by_name;
  for (const auto& e : events) by_name[e.name] = &e;
  ASSERT_EQ(by_name.count("job_span"), 1u);
  ASSERT_EQ(by_name.count("wrapper_span"), 1u);
  ASSERT_EQ(by_name.count("child_span"), 1u);
  EXPECT_EQ(by_name["child_span"]->parent_span_id,
            by_name["job_span"]->span_id);
  EXPECT_EQ(by_name["wrapper_span"]->parent_span_id,
            by_name["job_span"]->span_id);
}

TEST_F(TraceContextTest, DetachedSpanExemplarNamesItself) {
  // A detached span never becomes the current context, so the tail
  // exemplar of its histogram must come from the span, not the context.
  Histogram h;
  TraceContext wrapper_ctx;
  {
    ScopedTraceContext root(NewRootContext());
    TraceSpan job(nullptr, "job_span");
    TraceSpan wrapper(&h, "wrapper_span", TraceSpan::Link::kDetached);
    wrapper_ctx = wrapper.context();
  }
  const TraceContext exemplar = h.ExemplarContext();
  EXPECT_EQ(exemplar.span_id, wrapper_ctx.span_id);
  EXPECT_EQ(exemplar.trace_hi, wrapper_ctx.trace_hi);
  EXPECT_EQ(exemplar.trace_lo, wrapper_ctx.trace_lo);
}

// The canonical shape of the span forest in `events`, ignoring pool
// wrapper spans: one line per span, "<root-path> of names", sorted. Two
// runs with the same logical structure produce the same string
// regardless of thread count, timing, or id values.
std::string CanonicalShape(const std::vector<RingSpan>& events) {
  std::map<uint64_t, const RingSpan*> by_span;
  for (const auto& e : events) {
    if (e.name != "pool_task") by_span[e.span_id] = &e;
  }
  std::vector<std::string> lines;
  for (const auto& [id, e] : by_span) {
    std::string path = e->name;
    uint64_t parent = e->parent_span_id;
    while (parent != 0) {
      auto it = by_span.find(parent);
      if (it == by_span.end()) {
        path = "(orphan)/" + path;
        break;
      }
      path = it->second->name + "/" + path;
      parent = it->second->parent_span_id;
    }
    lines.push_back(path);
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  for (const auto& line : lines) out << line << "\n";
  return out.str();
}

// A detection-shaped workload: a root job span fanning 12 member spans
// out over the pool via ParallelForWorkStealing, each member opening a
// nested stage.
std::string RunJobAndCollectShape(int pool_width) {
  InstallFreshRing();
  ThreadPool pool(pool_width);
  Histogram h;
  {
    ScopedTraceContext root(NewRootContext());
    TraceSpan job(&h, "test_job");
    pool.ParallelForWorkStealing(0, 12, [&](int64_t) {
      TraceSpan member(&h, "test_member");
      TraceSpan stage(&h, "test_member_stage");
    });
  }
  // A helper that woke after every item was claimed may still be closing
  // its pool_task span; read the ring only once the pool is idle.
  pool.WaitIdle();
  return CanonicalShape(RingSpans());
}

TEST_F(TraceContextTest, SpanTreeShapeIdenticalAcrossPoolWidths) {
  // THE propagation contract: members parent to the job root through the
  // context captured at Enqueue, and pool wrapper spans are detached, so
  // the causal tree's shape is bit-identical at widths 1, 2 and 4 — only
  // which thread ran what may differ.
  const std::string shape1 = RunJobAndCollectShape(1);
  const std::string shape2 = RunJobAndCollectShape(2);
  const std::string shape4 = RunJobAndCollectShape(4);
  EXPECT_FALSE(shape1.empty());
  EXPECT_EQ(shape1, shape2);
  EXPECT_EQ(shape1, shape4);
  // And the shape is exactly the fan-out we wrote: 1 root + 12 members,
  // each with one nested stage.
  EXPECT_EQ(std::count(shape1.begin(), shape1.end(), '\n'), 25);
  EXPECT_NE(shape1.find("test_job/test_member/test_member_stage"),
            std::string::npos);
}

TEST_F(TraceContextTest, InternedNameOutlivesDynamicString) {
  // Interning copies, so a name built on the heap and scribbled over
  // right after must still read back intact.
  uint32_t id = 0;
  {
    std::string dynamic = "dynamic_span_";
    dynamic += std::to_string(12345);
    id = InternSpanName(dynamic);
    dynamic.assign(64, 'X');  // scribble over the old buffer
  }
  EXPECT_STREQ(InternedSpanName(id), "dynamic_span_12345");
}

TEST_F(TraceContextTest, InternSeesThroughReusedBuffer) {
  // The intern cache is keyed by the caller's pointer and length. A
  // buffer rewritten in place with another name of the same length is
  // the same key, and must still intern as the new name.
  std::string name = "aaaa_span";
  const char* buffer = name.data();
  const uint32_t a = InternSpanName(name);
  name = "bbbb_span";
  ASSERT_EQ(name.data(), buffer) << "assignment reallocated";
  const uint32_t b = InternSpanName(name);
  EXPECT_NE(a, b);
  EXPECT_STREQ(InternedSpanName(a), "aaaa_span");
  EXPECT_STREQ(InternedSpanName(b), "bbbb_span");
}

TEST_F(TraceContextTest, SpansOverOneNameBufferRecordEachName) {
  // Dynamic span names built into one reused buffer: each span records
  // the name the buffer held while it was open.
  Histogram h;
  char name[16];
  for (int i = 0; i < 3; ++i) {
    std::snprintf(name, sizeof(name), "member_%d", i);
    TraceSpan span(&h, name);
  }
  std::multiset<std::string> names;
  for (const RingSpan& span : RingSpans()) names.insert(span.name);
  EXPECT_EQ(names, (std::multiset<std::string>{"member_0", "member_1",
                                                "member_2"}));
}

TEST_F(TraceContextTest, InternRoundTripsIds) {
  const uint32_t a = InternSpanName("intern_round_trip_a");
  const uint32_t b = InternSpanName("intern_round_trip_b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(InternSpanName("intern_round_trip_a"), a);
  EXPECT_STREQ(InternedSpanName(a), "intern_round_trip_a");
  EXPECT_STREQ(InternedSpanName(0), "(unknown)");
}

}  // namespace
}  // namespace obs
}  // namespace ensemfdet

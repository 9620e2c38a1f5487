// Tests for causal trace-context propagation (src/obs/trace_context.h):
// span parenting, automatic per-job roots, cross-thread context capture
// through ThreadPool, and — the load-bearing invariant — that one
// detection's span tree has the SAME shape at every pool width, because
// members parent to the job root through the captured context and the
// pool's own wrapper spans are detached.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace ensemfdet {
namespace obs {
namespace {

class TraceContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
    SetMetricsRuntimeEnabled(true);
    SetTraceEnabled(true);
    DrainTraceEvents();  // clear residue from other tests in this binary
  }
  void TearDown() override {
    if (!kMetricsCompiledIn) return;
    SetTraceEnabled(false);
    DrainTraceEvents();
    SetMetricsRuntimeEnabled(true);
  }
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
  const auto events = DrainTraceEvents();
  const CollectedTraceEvent* outer = nullptr;
  const CollectedTraceEvent* inner = nullptr;
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
  const auto events = DrainTraceEvents();
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
  const auto events = DrainTraceEvents();
  std::map<std::string, const CollectedTraceEvent*> by_name;
  for (const auto& e : events) by_name[e.name] = &e;
  ASSERT_EQ(by_name.count("job_span"), 1u);
  ASSERT_EQ(by_name.count("wrapper_span"), 1u);
  ASSERT_EQ(by_name.count("child_span"), 1u);
  EXPECT_EQ(by_name["child_span"]->parent_span_id,
            by_name["job_span"]->span_id);
  EXPECT_EQ(by_name["wrapper_span"]->parent_span_id,
            by_name["job_span"]->span_id);
}

// The canonical shape of the span forest in `events`, ignoring pool
// wrapper spans and flows: one line per span, "<root-path> of names",
// sorted. Two runs with the same logical structure produce the same
// string regardless of thread count, timing, or id values.
std::string CanonicalShape(const std::vector<CollectedTraceEvent>& events) {
  std::map<uint64_t, const CollectedTraceEvent*> by_span;
  for (const auto& e : events) {
    if (e.ph == 'X' && e.name != "pool_task") by_span[e.span_id] = &e;
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
  // A helper that woke after every item was claimed may still be
  // emitting its pool_task/flow events; drain only once the pool is idle.
  pool.WaitIdle();
  return CanonicalShape(DrainTraceEvents());
}

TEST_F(TraceContextTest, SpanTreeShapeIdenticalAcrossPoolWidths) {
  // THE propagation contract: members parent to the job root through the
  // context captured at Enqueue, and pool wrapper spans are detached, so
  // the causal tree's shape is bit-identical at widths 1, 2 and 4 — only
  // which thread ran what (and the flow arrows) may differ.
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

TEST_F(TraceContextTest, PoolFlowEventsPairUp) {
  ThreadPool pool(2);
  Histogram h;
  {
    ScopedTraceContext root(NewRootContext());
    TraceSpan job(&h, "flow_job");
    pool.ParallelForWorkStealing(0, 8, [&](int64_t) {
      TraceSpan member(&h, "flow_member");
    });
  }
  pool.WaitIdle();  // let straggler helpers land their 'f' endpoints
  const auto events = DrainTraceEvents();
  std::map<uint64_t, std::pair<int, int>> flows;  // id -> (s, f)
  for (const auto& e : events) {
    if (e.ph == 's') flows[e.span_id].first++;
    if (e.ph == 'f') flows[e.span_id].second++;
  }
  ASSERT_FALSE(flows.empty()) << "pool enqueues under a traced context "
                                 "must emit flow arrows";
  for (const auto& [id, counts] : flows) {
    EXPECT_EQ(counts.first, 1) << "flow " << id;
    EXPECT_EQ(counts.second, 1) << "flow " << id;
  }
}

TEST_F(TraceContextTest, InternedNameOutlivesDynamicString) {
  // Regression guard for the AppendTraceEvent footgun: the old buffer
  // stored the caller's const char* verbatim, so any non-literal name
  // dangled by flush time. Interning copies, so a name built on the
  // stack and destroyed immediately must still read back intact.
  {
    std::string dynamic = "dynamic_span_";
    dynamic += std::to_string(12345);
    AppendTraceEvent(dynamic, 1000, 2000);
    dynamic.assign(64, 'X');  // scribble over the old buffer
  }
  const auto events = DrainTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "dynamic_span_12345");
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

// Tests for the span ring (src/obs/flight_recorder.h): the mmap-backed
// black box every TraceSpan writes into, and its in-memory form. Covers
// install + read-back, ring wraparound retention, explicit dumps
// (CHECK/WAL path), reinstallability, reader robustness against garbage,
// the in-memory ring and its snapshot (which must equal the file reader's
// view of a file-backed ring), and — via fork — the fatal-signal path end
// to end: a child that dies of SIGSEGV must leave a parseable dump with
// the signal stamped in it.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

#if defined(__unix__) || defined(__APPLE__)
#define ENSEMFDET_TEST_POSIX 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace ensemfdet {
namespace obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
#if !defined(ENSEMFDET_TEST_POSIX)
    GTEST_SKIP() << "flight recorder is POSIX-only";
#endif
    SetMetricsRuntimeEnabled(true);
  }

  // Fresh file per test: reinstalling swaps the black box wholesale, so
  // each test reads only its own records.
  std::string NewPath(const char* tag) {
    return ::testing::TempDir() + "/flight_" + tag + "_" +
           std::to_string(::getpid()) + ".bin";
  }
};

// Opens a span with an installed root context so the record carries a
// valid trace id.
void EmitSpan(Histogram* h, const char* name) {
  ScopedTraceContext root(NewRootContext());
  TraceSpan span(h, name);
}

TEST_F(FlightRecorderTest, InstallRecordAndReadBack) {
  const std::string path = NewPath("basic");
  FlightRecorderOptions options;
  options.path = path;
  options.ring_records = 64;
  options.max_threads = 8;
  options.max_names = 32;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());
  EXPECT_TRUE(FlightRecorderInstalled());

  Histogram h;
  for (int i = 0; i < 5; ++i) EmitSpan(&h, "flight_basic_span");

  auto dump = ReadFlightDump(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->ring_records, 64u);
  EXPECT_EQ(dump->crash_signal, 0);
  EXPECT_FALSE(dump->has_footer);
  size_t total = 0;
  bool found_name = false;
  for (const auto& thread : dump->threads) {
    total += thread.records.size();
    for (const auto& r : thread.records) {
      EXPECT_NE(r.span_id, 0u);
      EXPECT_GE(r.duration_ns, 0);
      EXPECT_TRUE(r.trace_hi != 0 || r.trace_lo != 0);
      if (dump->Name(r.name_id) == "flight_basic_span") found_name = true;
    }
  }
  EXPECT_EQ(total, 5u);
  EXPECT_TRUE(found_name);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, RingWrapsAndRetainsNewestRecords) {
  const std::string path = NewPath("wrap");
  FlightRecorderOptions options;
  options.path = path;
  options.ring_records = 8;
  options.max_threads = 4;
  options.max_names = 16;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());

  Histogram h;
  for (int i = 0; i < 100; ++i) EmitSpan(&h, "flight_wrap_span");

  auto dump = ReadFlightDump(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  // All 100 spans ran on this thread: one slot, total count preserved,
  // exactly the last ring_records retained, in order, newest last.
  ASSERT_EQ(dump->threads.size(), 1u);
  const FlightDumpThread& thread = dump->threads[0];
  EXPECT_EQ(thread.total_records, 100u);
  ASSERT_EQ(thread.records.size(), 8u);
  for (size_t i = 0; i < thread.records.size(); ++i) {
    EXPECT_EQ(thread.records[i].seq, 92 + i);
  }
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, ExplicitDumpStampsReasonAndFooter) {
  const std::string path = NewPath("dump");
  FlightRecorderOptions options;
  options.path = path;
  options.ring_records = 16;
  options.max_threads = 4;
  options.max_names = 16;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());

  Histogram h;
  EmitSpan(&h, "flight_dump_span");
  DumpFlightRecorder("wal recovery: synthetic IOError for test");
  // First writer wins: a second dump must not clobber the first reason.
  DumpFlightRecorder("second reason that must not appear");

  auto dump = ReadFlightDump(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->crash_signal, 0);
  EXPECT_EQ(dump->crash_reason, "wal recovery: synthetic IOError for test");
  EXPECT_TRUE(dump->has_footer);
  EXPECT_EQ(dump->footer_signal, 0);
  EXPECT_EQ(dump->footer_reason,
            "wal recovery: synthetic IOError for test");
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, ReinstallSwitchesToFreshBlackBox) {
  const std::string path_a = NewPath("reinstall_a");
  const std::string path_b = NewPath("reinstall_b");
  FlightRecorderOptions options;
  options.ring_records = 16;
  options.max_threads = 4;
  options.max_names = 16;

  options.path = path_a;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());
  Histogram h;
  EmitSpan(&h, "flight_before_reinstall");

  options.path = path_b;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());
  EmitSpan(&h, "flight_after_reinstall");

  auto dump_b = ReadFlightDump(path_b);
  ASSERT_TRUE(dump_b.ok()) << dump_b.status().ToString();
  std::set<std::string> names_b;
  for (const auto& t : dump_b->threads) {
    for (const auto& r : t.records) names_b.insert(dump_b->Name(r.name_id));
  }
  EXPECT_TRUE(names_b.count("flight_after_reinstall"));
  EXPECT_FALSE(names_b.count("flight_before_reinstall"));
  // The orphaned first box stays parseable.
  EXPECT_TRUE(ReadFlightDump(path_a).ok());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(FlightRecorderTest, ReaderRejectsGarbage) {
  const std::string path = NewPath("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a flight recorder dump at all";
  }
  EXPECT_FALSE(ReadFlightDump(path).ok());
  EXPECT_FALSE(ReadFlightDump(path + ".does_not_exist").ok());
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, InMemoryRingRecordsWithoutAFile) {
  FlightRecorderOptions options;  // no path: anonymous memory
  options.ring_records = 8;
  options.max_threads = 4;
  options.max_names = 32;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());
  EXPECT_TRUE(FlightRecorderInstalled());

  Histogram h;
  for (int i = 0; i < 11; ++i) EmitSpan(&h, "flight_memory_span");
  // No black box to stamp: an explicit dump is a no-op.
  DumpFlightRecorder("must not appear in an in-memory ring");

  auto dump = SnapshotFlightRecorder();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->ring_records, 8u);
  EXPECT_EQ(dump->max_threads, 4u);
  EXPECT_TRUE(dump->crash_reason.empty());
  EXPECT_FALSE(dump->has_footer);
  EXPECT_EQ(dump->dropped_records, 0u);
  ASSERT_EQ(dump->threads.size(), 1u);
  const FlightDumpThread& thread = dump->threads[0];
  EXPECT_EQ(thread.tid, static_cast<uint32_t>(CurrentThreadTraceId()));
  EXPECT_EQ(thread.total_records, 11u);
  ASSERT_EQ(thread.records.size(), 8u);
  for (size_t i = 0; i < thread.records.size(); ++i) {
    EXPECT_EQ(thread.records[i].seq, 3 + i);
    EXPECT_EQ(dump->Name(thread.records[i].name_id), "flight_memory_span");
  }
}

TEST_F(FlightRecorderTest, InstallRejectsGeometryTheReaderRefuses) {
  FlightRecorderOptions options;
  options.ring_records = (1u << 20) + 1;
  EXPECT_EQ(InstallFlightRecorder(options).code(),
            StatusCode::kInvalidArgument);
  options.ring_records = 16;
  options.max_threads = 0;
  EXPECT_EQ(InstallFlightRecorder(options).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FlightRecorderTest, SnapshotOfFileRingEqualsReadBack) {
  const std::string path = NewPath("snapshot");
  FlightRecorderOptions options;
  options.path = path;
  options.ring_records = 16;
  options.max_threads = 4;
  options.max_names = 32;
  ASSERT_TRUE(InstallFlightRecorder(options).ok());
  Histogram h;
  for (int i = 0; i < 20; ++i) {
    EmitSpan(&h, i % 2 == 0 ? "flight_snapshot_even" : "flight_snapshot_odd");
  }

  auto live = SnapshotFlightRecorder();
  auto file = ReadFlightDump(path);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(live->ring_records, file->ring_records);
  EXPECT_EQ(live->max_threads, file->max_threads);
  EXPECT_EQ(live->max_names, file->max_names);
  EXPECT_EQ(live->crash_signal, file->crash_signal);
  EXPECT_EQ(live->crash_reason, file->crash_reason);
  EXPECT_EQ(live->has_footer, file->has_footer);
  EXPECT_EQ(live->dropped_records, file->dropped_records);
  EXPECT_EQ(live->names, file->names);
  ASSERT_EQ(live->threads.size(), file->threads.size());
  for (size_t t = 0; t < live->threads.size(); ++t) {
    const FlightDumpThread& a = live->threads[t];
    const FlightDumpThread& b = file->threads[t];
    EXPECT_EQ(a.tid, b.tid);
    EXPECT_EQ(a.total_records, b.total_records);
    ASSERT_EQ(a.records.size(), b.records.size());
    EXPECT_EQ(std::memcmp(a.records.data(), b.records.data(),
                          a.records.size() * sizeof(FlightRecord)),
              0);
  }
  EXPECT_EQ(live->threads[0].records.size(), 16u);
  std::remove(path.c_str());
}

#if defined(ENSEMFDET_TEST_POSIX)
TEST_F(FlightRecorderTest, SignalDumpSmokeAcrossFork) {
  // End-to-end fatal-signal drill: a forked child installs its own black
  // box, records spans, and dies of SIGSEGV. The parent requires (a) the
  // child really died of SIGSEGV — the handler re-raises with default
  // disposition — and (b) the dump parses with the signal stamped and
  // the pre-crash spans retained. Fork happens before this binary spawns
  // any helper threads, so the child is single-threaded and safe.
  const std::string path = NewPath("signal");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: no gtest plumbing from here on; _exit on any failure so a
    // broken path never reports as a (crashed, hence "passing") run.
    FlightRecorderOptions options;
    options.path = path;
    options.ring_records = 32;
    options.max_threads = 4;
    options.max_names = 16;
    if (!InstallFlightRecorder(options).ok()) _exit(10);
    Histogram h;
    for (int i = 0; i < 7; ++i) EmitSpan(&h, "flight_presignal_span");
    ::raise(SIGSEGV);
    _exit(11);  // unreachable when the handler re-raises correctly
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with code "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  auto dump = ReadFlightDump(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->crash_signal, SIGSEGV);
  EXPECT_TRUE(dump->has_footer);
  EXPECT_EQ(dump->footer_signal, SIGSEGV);
  size_t total = 0;
  bool found_name = false;
  for (const auto& thread : dump->threads) {
    total += thread.records.size();
    for (const auto& r : thread.records) {
      if (dump->Name(r.name_id) == "flight_presignal_span") {
        found_name = true;
      }
    }
  }
  EXPECT_EQ(total, 7u);
  EXPECT_TRUE(found_name);
  std::remove(path.c_str());
}
#endif  // ENSEMFDET_TEST_POSIX

}  // namespace
}  // namespace obs
}  // namespace ensemfdet

// Property/fuzz coverage of the span-ring parser: the one parser behind
// ReadFlightDump (post-mortem black boxes, trace-report --flight) and
// SnapshotFlightRecorder (the live ring the --trace-out timeline is
// exported from). Hundreds of deterministic random mutations of a valid
// dump — bit flips (biased toward the header, the slot headers and the
// name table), truncations, garbage extension, zeroed ranges, and edits
// of the header geometry, a slot's record count and the crash-reason
// length — must each yield a clean Status, or a dump whose retained
// records form a contiguous seq run ending at the slot's count and whose
// names resolve within the name table. CI runs this file under
// ASan+UBSan (the sanitizer matrix), which is the real gate: an
// out-of-bounds read on a crafted geometry fails the build.
//
// Header offsets below are the version-1 file format (DESIGN.md "Flight
// recorder (the black box)"; tools/check_trace.py HEADER_FMT).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace ensemfdet {
namespace obs {
namespace {

constexpr uint32_t kRingRecords = 8;
constexpr uint32_t kMaxThreads = 4;
constexpr uint32_t kMaxNames = 16;
constexpr size_t kHeaderBytes = 4096;
constexpr size_t kSlotsOffset = kHeaderBytes + kMaxNames * 64;
constexpr size_t kSlotStride = 64 + kRingRecords * 64;
// FileHeader field offsets.
constexpr size_t kGeometryFields[] = {8, 12, 16, 20, 24, 28};  // u32 each
constexpr size_t kReasonLenOffset = 44;

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Poke(std::vector<char>* bytes, size_t offset, T value) {
  if (offset + sizeof(T) > bytes->size()) return;
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// A valid black box: three threads, one of them wrapped, five names, a
// crash reason and a footer.
std::vector<char> BuildDump(const std::string& path) {
  FlightRecorderOptions options;
  options.path = path;
  options.ring_records = kRingRecords;
  options.max_threads = kMaxThreads;
  options.max_names = kMaxNames;
  EXPECT_TRUE(InstallFlightRecorder(options).ok());
  Histogram h;
  auto emit = [&h](int count, const char* name) {
    for (int i = 0; i < count; ++i) {
      ScopedTraceContext root(NewRootContext());
      TraceSpan outer(&h, name);
      TraceSpan inner(&h, "fuzz_inner");
    }
  };
  emit(7, "fuzz_main");  // 14 records: the main thread's ring wraps
  std::thread a([&] { emit(2, "fuzz_worker_a"); });
  a.join();
  std::thread b([&] { emit(1, "fuzz_worker_b"); });
  b.join();
  DumpFlightRecorder("fuzz seed dump");
  return ReadBytes(path);
}

// One random mutation of the dump's bytes.
void Mutate(std::vector<char>* bytes, Rng& rng) {
  const uint64_t size = bytes->size();
  switch (rng.NextBounded(7)) {
    case 0: {  // flip a bit: header, slot headers and names, or anywhere
      if (size == 0) return;
      uint64_t offset = 0;
      switch (rng.NextBounded(3)) {
        case 0:
          offset = rng.NextBounded(std::min<uint64_t>(size, 256));
          break;
        case 1:
          offset = kSlotsOffset + rng.NextBounded(kMaxThreads) * kSlotStride +
                   rng.NextBounded(16);
          break;
        default:
          offset = rng.NextBounded(size);
      }
      if (offset >= size) return;
      (*bytes)[offset] =
          static_cast<char>((*bytes)[offset] ^ (1 << rng.NextBounded(8)));
      break;
    }
    case 1:  // truncate
      bytes->resize(rng.NextBounded(size + 1));
      break;
    case 2: {  // extend with garbage (a torn or forged footer)
      const uint64_t n = 1 + rng.NextBounded(256);
      for (uint64_t i = 0; i < n; ++i) {
        bytes->push_back(static_cast<char>(rng.NextBounded(256)));
      }
      break;
    }
    case 3: {  // zero a range
      if (size == 0) return;
      const uint64_t start = rng.NextBounded(size);
      const uint64_t len =
          1 + rng.NextBounded(std::min<uint64_t>(size - start, 128));
      std::fill_n(bytes->begin() + static_cast<std::ptrdiff_t>(start), len,
                  '\0');
      break;
    }
    case 4: {  // geometry edit: version, sizes, ring/thread/name counts
      static constexpr uint32_t kValues[] = {
          0,       1,         2,         7,     9,     63,    64,
          65,      kRingRecords, kMaxThreads, kMaxNames, 4095, 4096,
          4097,    65535,     65536,     65537, 1u << 20, (1u << 20) + 1,
          0xffffffffu};
      const size_t field = kGeometryFields[rng.NextBounded(6)];
      const uint32_t value =
          rng.NextBounded(4) == 0
              ? static_cast<uint32_t>(rng.NextUint64())
              : kValues[rng.NextBounded(std::size(kValues))];
      Poke(bytes, field, value);
      break;
    }
    case 5: {  // a slot's record count: small, near the ring, or wild
      const size_t slot = kSlotsOffset + rng.NextBounded(kMaxThreads) *
                                             kSlotStride;
      uint64_t value = 0;
      switch (rng.NextBounded(3)) {
        case 0:
          value = rng.NextBounded(3 * kRingRecords);
          break;
        case 1:
          value = ~uint64_t{0} - rng.NextBounded(4);
          break;
        default:
          value = rng.NextUint64();
      }
      Poke(bytes, slot, value);
      break;
    }
    case 6: {  // crash-reason length
      static constexpr uint32_t kLens[] = {0, 1, 191, 192, 193, 4096,
                                           0xfffffffeu, 0xffffffffu};
      Poke(bytes, kReasonLenOffset, kLens[rng.NextBounded(std::size(kLens))]);
      break;
    }
  }
}

// The parser's contract on any input it accepts.
void ExpectSoundDump(const FlightDump& dump, int iteration) {
  EXPECT_GT(dump.ring_records, 0u);
  EXPECT_EQ(dump.names.size(), dump.max_names) << "iteration " << iteration;
  EXPECT_LE(dump.threads.size(), dump.max_threads);
  EXPECT_LE(dump.crash_reason.size(), 192u);
  for (const std::string& name : dump.names) EXPECT_LT(name.size(), 64u);
  for (const FlightDumpThread& thread : dump.threads) {
    EXPECT_LE(thread.records.size(), dump.ring_records);
    EXPECT_LE(thread.records.size(), thread.total_records);
    for (size_t i = 0; i < thread.records.size(); ++i) {
      const FlightRecord& r = thread.records[i];
      // Contiguous, and ending at the slot's count.
      EXPECT_EQ(r.seq, thread.total_records - thread.records.size() + i)
          << "iteration " << iteration;
      const std::string& name = dump.Name(r.name_id);
      if (r.name_id < dump.names.size() && !dump.names[r.name_id].empty()) {
        EXPECT_EQ(&name, &dump.names[r.name_id]);
      } else {
        EXPECT_EQ(name, "(unknown)") << "iteration " << iteration;
      }
    }
  }
}

TEST(FlightDumpFuzz, RandomMutationsAlwaysYieldCleanStatuses) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  SetMetricsRuntimeEnabled(true);
  const std::string pristine_path =
      ::testing::TempDir() + "/flight_fuzz_pristine.bin";
  const std::vector<char> pristine = BuildDump(pristine_path);
  ASSERT_EQ(pristine.size(),
            kSlotsOffset + kMaxThreads * kSlotStride + 196u);  // + footer
  {
    auto dump = ReadFlightDump(pristine_path);
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    ASSERT_EQ(dump->threads.size(), 3u);
    EXPECT_EQ(dump->threads[0].total_records, 14u);
    EXPECT_EQ(dump->threads[0].records.size(), kRingRecords);
    EXPECT_TRUE(dump->has_footer);
    ExpectSoundDump(*dump, -1);
  }

  const std::string path = ::testing::TempDir() + "/flight_fuzz_mutated.bin";
  Rng rng(4242);
  int parsed = 0;
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<char> bytes = pristine;
    const uint64_t mutations = 1 + rng.NextBounded(3);
    for (uint64_t m = 0; m < mutations; ++m) Mutate(&bytes, rng);
    WriteBytes(path, bytes);
    auto dump = ReadFlightDump(path);
    if (dump.ok()) {
      ++parsed;
      ExpectSoundDump(*dump, iteration);
    } else {
      EXPECT_EQ(dump.status().code(), StatusCode::kIOError)
          << "iteration " << iteration;
    }
  }
  // Both outcomes must be exercised, or the mutator is mis-aimed.
  EXPECT_GT(parsed, 40);
  EXPECT_LT(parsed, 360);
  std::remove(path.c_str());
  std::remove(pristine_path.c_str());
}

// A record whose stamped seq disagrees with its position is torn: the
// parser keeps only the newer records, so no hole appears.
TEST(FlightDumpFuzz, TornRecordDropsItselfAndOlderRecords) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  SetMetricsRuntimeEnabled(true);
  const std::string path = ::testing::TempDir() + "/flight_fuzz_torn.bin";
  std::vector<char> bytes = BuildDump(path);
  // Main thread (slot 0): 14 records, seqs 6..13 retained. Tear seq 9.
  const size_t record = kSlotsOffset + 64 + (9 % kRingRecords) * 64;
  Poke<uint64_t>(&bytes, record + 56, 12345);
  WriteBytes(path, bytes);
  auto dump = ReadFlightDump(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const FlightDumpThread& thread = dump->threads[0];
  EXPECT_EQ(thread.total_records, 14u);
  ASSERT_EQ(thread.records.size(), 4u);
  EXPECT_EQ(thread.records.front().seq, 10u);
  ExpectSoundDump(*dump, -1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace ensemfdet

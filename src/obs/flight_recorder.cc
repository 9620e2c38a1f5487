#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define ENSEMFDET_FLIGHT_POSIX 1
#endif

namespace ensemfdet {
namespace obs {

namespace {

constexpr char kFileMagic[8] = {'E', 'F', 'D', 'T', 'F', 'R', 'E', 'C'};
constexpr char kFooterMagic[8] = {'E', 'F', 'D', 'T', 'C', 'R', 'S', 'H'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kHeaderBytes = 4096;
constexpr uint32_t kNameBytes = 64;
constexpr uint32_t kSlotHeaderBytes = 64;
constexpr uint32_t kReasonClaimed = 0xffffffffu;

// Page 0 of the black box. All mutation after install goes through
// std::atomic_ref (the fatal-signal handler on one thread races the
// rings' owner threads and a post-mortem reader in another process).
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t record_bytes;
  uint32_t ring_records;
  uint32_t max_threads;
  uint32_t max_names;
  uint32_t name_bytes;
  uint64_t dropped_records;  // spans from threads beyond max_threads
  int32_t crash_signal;      // 0 until a fatal signal stamps it
  uint32_t crash_reason_len;  // kReasonClaimed while being written
  char crash_reason[192];
};
static_assert(sizeof(FileHeader) <= kHeaderBytes, "header must fit page 0");

struct SlotHeader {
  uint64_t next_seq;  // records ever written; owner-thread store-release
  uint32_t tid;       // CurrentThreadTraceId() of the owner
  uint32_t active;
  uint8_t pad[48];
};
static_assert(sizeof(SlotHeader) == kSlotHeaderBytes, "on-disk layout");

// Written once at a fixed offset (end of the mapped region) through the
// pre-opened fd — the only I/O the async-signal-safe dump path does.
struct CrashFooter {
  char magic[8];
  int32_t signal;
  uint32_t reason_len;
  char reason[180];
};

size_t SlotStride(const FlightRecorderOptions& opts) {
  return kSlotHeaderBytes +
         static_cast<size_t>(opts.ring_records) * sizeof(FlightRecord);
}

#if !defined(ENSEMFDET_METRICS_DISABLED) && defined(ENSEMFDET_FLIGHT_POSIX)

size_t MappedBytes(const FlightRecorderOptions& opts) {
  return kHeaderBytes + static_cast<size_t>(opts.max_names) * kNameBytes +
         static_cast<size_t>(opts.max_threads) * SlotStride(opts);
}

struct FlightState {
  int fd = -1;                // pre-opened; the crash path pwrite()s it
  uint8_t* base = nullptr;
  size_t mapped_bytes = 0;
  FileHeader* header = nullptr;
  char* names = nullptr;
  // One claim per name-table slot: the first thread to reference a name
  // mirrors it, everyone after skips (in-process only, not in the file).
  std::unique_ptr<std::atomic<bool>[]> name_claimed;
  uint8_t* slots = nullptr;
  FlightRecorderOptions opts;
  std::atomic<uint32_t> next_slot{0};
  std::atomic<bool> footer_written{false};
  // The state this one replaced. Retired states are never freed — a
  // thread or signal handler racing a reinstall through a cached pointer
  // still writes into live (just orphaned) memory — but each stays owned
  // by its successor, so all of them remain reachable from the global.
  std::unique_ptr<FlightState> retired;
};

// Swapped on (re)install; the installed state owns every state before it.
std::atomic<FlightState*> g_flight_state{nullptr};
std::atomic<uint64_t> g_flight_epoch{0};

struct ThreadSlotCache {
  uint64_t epoch = 0;
  uint8_t* slot = nullptr;
};
thread_local ThreadSlotCache t_flight_slot;

// Async-signal-safe byte copy (memcpy is fine on every libc we target,
// but a manual loop removes the doubt).
void RawCopy(char* dst, const char* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[i];
}

size_t RawLen(const char* s, size_t cap) {
  size_t n = 0;
  while (n < cap && s[n] != '\0') ++n;
  return n;
}

// Stamps the crash reason into the mapped header, first writer wins
// (a CHECK failure's message should not be clobbered by the SIGABRT
// that follows it). Async-signal-safe: atomics + byte stores.
void MarkReasonOnce(FlightState* s, const char* reason) {
  std::atomic_ref<uint32_t> len_ref(s->header->crash_reason_len);
  uint32_t expected = 0;
  if (!len_ref.compare_exchange_strong(expected, kReasonClaimed,
                                       std::memory_order_acq_rel)) {
    return;
  }
  const size_t cap = sizeof(s->header->crash_reason);
  const size_t n = RawLen(reason, cap);
  RawCopy(s->header->crash_reason, reason, n);
  len_ref.store(static_cast<uint32_t>(n), std::memory_order_release);
}

// The write()-only half of the dump: one pwrite of the footer through
// the fd opened at install time. First writer wins here too.
void WriteFooterOnce(FlightState* s, int sig, const char* reason) {
  bool expected = false;
  if (!s->footer_written.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;
  }
  CrashFooter footer;
  RawCopy(footer.magic, kFooterMagic, sizeof(footer.magic));
  footer.signal = sig;
  const size_t n = RawLen(reason, sizeof(footer.reason));
  footer.reason_len = static_cast<uint32_t>(n);
  for (size_t i = 0; i < sizeof(footer.reason); ++i) footer.reason[i] = '\0';
  RawCopy(footer.reason, reason, n);
  // Best effort by construction: if this write is lost the mapped rings
  // are still intact, so no error handling beyond the attempt.
  (void)pwrite(s->fd, &footer, sizeof(footer),
               static_cast<off_t>(s->mapped_bytes));
}

// Fatal-signal path: everything here is async-signal-safe (atomic
// stores into the mapping, pwrite on the pre-opened fd), then the
// default disposition is restored and the signal re-raised so the exit
// status is the one the drill/supervisor expects.
void FatalSignalHandler(int sig) {
  FlightState* s = g_flight_state.load(std::memory_order_acquire);
  if (s != nullptr) {
    std::atomic_ref<int32_t>(s->header->crash_signal)
        .store(sig, std::memory_order_relaxed);
    MarkReasonOnce(s, "fatal signal");
    WriteFooterOnce(s, sig, "fatal signal");
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

void InstallSignalHandlersOnce() {
  static const bool installed = [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = &FatalSignalHandler;
    sigemptyset(&action.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
      sigaction(sig, &action, nullptr);
    }
    return true;
  }();
  (void)installed;
}

// Claims a ring slot for the calling thread (one atomic increment,
// once per thread per install).
uint8_t* AcquireSlot(FlightState* s) {
  const uint32_t index =
      s->next_slot.fetch_add(1, std::memory_order_relaxed);
  if (index >= s->opts.max_threads) return nullptr;
  uint8_t* slot = s->slots + static_cast<size_t>(index) * SlotStride(s->opts);
  SlotHeader* header = reinterpret_cast<SlotHeader*>(slot);
  header->tid = static_cast<uint32_t>(CurrentThreadTraceId());
  std::atomic_ref<uint32_t>(header->active)
      .store(1, std::memory_order_release);
  return slot;
}

// Mirrors an interned name into the file's name table the first time a
// record references it. Exactly one thread claims and copies each slot,
// so writers never race each other on its bytes; a reader of the file
// that races the copy (a post-mortem dump) sees at worst a truncated
// name.
void EnsureNameMirrored(FlightState* s, uint32_t name_id) {
  if (name_id == 0 || name_id >= s->opts.max_names) return;
  std::atomic<bool>& claimed = s->name_claimed[name_id];
  if (claimed.load(std::memory_order_relaxed) ||
      claimed.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  char* slot = s->names + static_cast<size_t>(name_id) * kNameBytes;
  const char* name = InternedSpanName(name_id);
  const size_t n = RawLen(name, kNameBytes - 1);
  RawCopy(slot, name, n);
}

#endif  // !ENSEMFDET_METRICS_DISABLED && ENSEMFDET_FLIGHT_POSIX

}  // namespace

namespace internal {
#if !defined(ENSEMFDET_METRICS_DISABLED)
std::atomic<bool> g_flight_active{false};

void RecordFlightSpanSlow(const char* name, int64_t start_ns,
                          int64_t duration_ns, const TraceContext& ctx,
                          uint64_t parent_span_id) {
#if defined(ENSEMFDET_FLIGHT_POSIX)
  FlightState* s = g_flight_state.load(std::memory_order_acquire);
  if (s == nullptr) return;
  const uint64_t epoch = g_flight_epoch.load(std::memory_order_relaxed);
  ThreadSlotCache& cache = t_flight_slot;
  if (cache.epoch != epoch) {
    cache.epoch = epoch;
    cache.slot = AcquireSlot(s);
  }
  if (cache.slot == nullptr) {
    std::atomic_ref<uint64_t>(s->header->dropped_records)
        .fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SlotHeader* slot_header = reinterpret_cast<SlotHeader*>(cache.slot);
  std::atomic_ref<uint64_t> seq_ref(slot_header->next_seq);
  const uint64_t seq = seq_ref.load(std::memory_order_relaxed);
  FlightRecord* ring =
      reinterpret_cast<FlightRecord*>(cache.slot + kSlotHeaderBytes);
  FlightRecord& record = ring[seq % s->opts.ring_records];
  record.trace_hi = ctx.trace_hi;
  record.trace_lo = ctx.trace_lo;
  record.span_id = ctx.span_id;
  record.parent_span_id = parent_span_id;
  record.start_ns = start_ns;
  record.duration_ns = duration_ns;
  record.name_id = InternSpanName(name);
  record.flags = 0;
  record.seq = seq;
  EnsureNameMirrored(s, record.name_id);
  // Publish the record before the count: a dumper that reads next_seq
  // sees fully-written records for everything below it.
  seq_ref.store(seq + 1, std::memory_order_release);
#else
  (void)name;
  (void)start_ns;
  (void)duration_ns;
  (void)ctx;
  (void)parent_span_id;
#endif
}
#endif  // !ENSEMFDET_METRICS_DISABLED
}  // namespace internal

Status InstallFlightRecorder(const FlightRecorderOptions& options) {
#if defined(ENSEMFDET_METRICS_DISABLED)
  (void)options;
  return Status::FailedPrecondition(
      "flight recorder unavailable: metrics compiled out "
      "(ENSEMFDET_METRICS=OFF)");
#elif !defined(ENSEMFDET_FLIGHT_POSIX)
  (void)options;
  return Status::NotImplemented(
      "flight recorder requires a POSIX mmap/signal environment");
#else
  if (options.path.empty()) {
    return Status::InvalidArgument("flight recorder path is empty");
  }
  if (options.ring_records == 0 || options.max_threads == 0 ||
      options.max_names == 0) {
    return Status::InvalidArgument(
        "flight recorder geometry must be non-zero "
        "(ring_records/max_threads/max_names)");
  }
  const int fd = open(options.path.c_str(), O_RDWR | O_CREAT | O_TRUNC
#if defined(O_CLOEXEC)
                                                | O_CLOEXEC
#endif
                      ,
                      0644);
  if (fd < 0) {
    return Status::IOError("open(" + options.path +
                           ") failed: " + std::strerror(errno));
  }
  const size_t bytes = MappedBytes(options);
  if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("ftruncate(" + options.path + ") failed: " + err);
  }
  void* base =
      mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("mmap(" + options.path + ") failed: " + err);
  }

  auto* state = new FlightState();  // reachable from g_flight_state
  state->fd = fd;
  state->base = static_cast<uint8_t*>(base);
  state->mapped_bytes = bytes;
  state->opts = options;
  state->header = reinterpret_cast<FileHeader*>(state->base);
  state->names = reinterpret_cast<char*>(state->base + kHeaderBytes);
  state->name_claimed =
      std::make_unique<std::atomic<bool>[]>(options.max_names);
  state->slots = state->base + kHeaderBytes +
                 static_cast<size_t>(options.max_names) * kNameBytes;

  FileHeader* header = state->header;
  std::memcpy(header->magic, kFileMagic, sizeof(header->magic));
  header->version = kFormatVersion;
  header->record_bytes = sizeof(FlightRecord);
  header->ring_records = options.ring_records;
  header->max_threads = options.max_threads;
  header->max_names = options.max_names;
  header->name_bytes = kNameBytes;

  InstallSignalHandlersOnce();
  state->retired.reset(
      g_flight_state.exchange(state, std::memory_order_acq_rel));
  g_flight_epoch.fetch_add(1, std::memory_order_relaxed);
  internal::g_flight_active.store(true, std::memory_order_release);
  return Status::OK();
#endif
}

bool FlightRecorderInstalled() {
#if !defined(ENSEMFDET_METRICS_DISABLED) && defined(ENSEMFDET_FLIGHT_POSIX)
  return g_flight_state.load(std::memory_order_acquire) != nullptr;
#else
  return false;
#endif
}

void DumpFlightRecorder(const char* reason) {
#if !defined(ENSEMFDET_METRICS_DISABLED) && defined(ENSEMFDET_FLIGHT_POSIX)
  FlightState* s = g_flight_state.load(std::memory_order_acquire);
  if (s == nullptr) return;
  if (reason == nullptr) reason = "dump requested";
  MarkReasonOnce(s, reason);
  WriteFooterOnce(s, 0, reason);
  // Normal (non-signal) context: schedule writeback for durability
  // across an OS crash too. Not needed for cross-process visibility —
  // the page cache already gives readers the latest bytes.
  (void)msync(s->base, s->mapped_bytes, MS_ASYNC);
#else
  (void)reason;
#endif
}

const std::string& FlightDump::Name(uint32_t id) const {
  static const std::string unknown = "(unknown)";
  if (id >= names.size() || names[id].empty()) return unknown;
  return names[id];
}

Result<FlightDump> ReadFlightDump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("open(" + path +
                           ") failed: " + std::strerror(errno));
  }
  auto fail = [&](const std::string& message) -> Status {
    std::fclose(f);
    return Status::IOError("flight dump " + path + ": " + message);
  };

  FileHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    return fail("truncated header");
  }
  if (std::memcmp(header.magic, kFileMagic, sizeof(header.magic)) != 0) {
    return fail("bad magic");
  }
  if (header.version != kFormatVersion) {
    return fail("unsupported version " + std::to_string(header.version));
  }
  if (header.record_bytes != sizeof(FlightRecord) ||
      header.name_bytes != kNameBytes) {
    return fail("geometry mismatch (record/name sizes)");
  }
  // Corrupt geometry must not translate into absurd allocations.
  if (header.ring_records == 0 || header.ring_records > (1u << 20) ||
      header.max_threads == 0 || header.max_threads > 4096 ||
      header.max_names == 0 || header.max_names > 65536) {
    return fail("implausible geometry");
  }

  FlightDump dump;
  dump.ring_records = header.ring_records;
  dump.max_threads = header.max_threads;
  dump.max_names = header.max_names;
  dump.crash_signal = header.crash_signal;
  dump.dropped_records = header.dropped_records;
  if (header.crash_reason_len != 0 &&
      header.crash_reason_len != kReasonClaimed) {
    const size_t n = std::min<size_t>(header.crash_reason_len,
                                      sizeof(header.crash_reason));
    dump.crash_reason.assign(header.crash_reason, n);
  }

  if (std::fseek(f, kHeaderBytes, SEEK_SET) != 0) {
    return fail("seek to name table failed");
  }
  dump.names.resize(header.max_names);
  std::vector<char> name_buf(kNameBytes);
  for (uint32_t i = 0; i < header.max_names; ++i) {
    if (std::fread(name_buf.data(), kNameBytes, 1, f) != 1) {
      return fail("truncated name table");
    }
    name_buf[kNameBytes - 1] = '\0';
    dump.names[i] = name_buf.data();
  }

  FlightRecorderOptions geometry;
  geometry.ring_records = header.ring_records;
  geometry.max_threads = header.max_threads;
  geometry.max_names = header.max_names;
  const size_t stride = SlotStride(geometry);
  std::vector<uint8_t> slot_buf(stride);
  for (uint32_t t = 0; t < header.max_threads; ++t) {
    if (std::fread(slot_buf.data(), stride, 1, f) != 1) {
      return fail("truncated thread slot " + std::to_string(t));
    }
    const SlotHeader* slot =
        reinterpret_cast<const SlotHeader*>(slot_buf.data());
    if (slot->active == 0 && slot->next_seq == 0) continue;
    FlightDumpThread thread;
    thread.tid = slot->tid;
    thread.total_records = slot->next_seq;
    const FlightRecord* ring = reinterpret_cast<const FlightRecord*>(
        slot_buf.data() + kSlotHeaderBytes);
    const uint64_t total = slot->next_seq;
    const uint64_t first =
        total > header.ring_records ? total - header.ring_records : 0;
    thread.records.reserve(static_cast<size_t>(total - first));
    for (uint64_t seq = first; seq < total; ++seq) {
      const FlightRecord& record = ring[seq % header.ring_records];
      // A record whose stamped seq disagrees with its slot was torn by
      // the crash (overwrite in flight); drop it rather than report
      // garbage.
      if (record.seq != seq) continue;
      thread.records.push_back(record);
    }
    dump.threads.push_back(std::move(thread));
  }

  // Footer, if the crash hook got far enough to append one (a SIGKILL
  // leaves only the rings — that is the point of mapping them).
  CrashFooter footer;
  if (std::fread(&footer, sizeof(footer), 1, f) == 1 &&
      std::memcmp(footer.magic, kFooterMagic, sizeof(footer.magic)) == 0) {
    dump.has_footer = true;
    dump.footer_signal = footer.signal;
    const size_t n =
        std::min<size_t>(footer.reason_len, sizeof(footer.reason));
    dump.footer_reason.assign(footer.reason, n);
  }
  std::fclose(f);
  return dump;
}

}  // namespace obs
}  // namespace ensemfdet

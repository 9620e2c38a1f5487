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
// Geometry the parser accepts (and Install therefore allows): corrupt
// headers must not translate into absurd reads.
constexpr uint32_t kMaxRingRecords = 1u << 20;
constexpr uint32_t kMaxThreads = 4096;
constexpr uint32_t kMaxNames = 65536;

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

size_t SlotStride(uint32_t ring_records) {
  return kSlotHeaderBytes +
         static_cast<size_t>(ring_records) * sizeof(FlightRecord);
}

size_t MappedBytes(uint32_t ring_records, uint32_t max_threads,
                   uint32_t max_names) {
  return kHeaderBytes + static_cast<size_t>(max_names) * kNameBytes +
         static_cast<size_t>(max_threads) * SlotStride(ring_records);
}

#if !defined(ENSEMFDET_METRICS_DISABLED) && defined(ENSEMFDET_FLIGHT_POSIX)

struct FlightState {
  int fd = -1;                // pre-opened; the crash path pwrite()s it;
                              // -1 for an in-memory ring (no black box)
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
  if (s != nullptr && s->fd >= 0) {
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
  uint8_t* slot = s->slots + static_cast<size_t>(index) *
                                 SlotStride(s->opts.ring_records);
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
  if (options.ring_records == 0 || options.ring_records > kMaxRingRecords ||
      options.max_threads == 0 || options.max_threads > kMaxThreads ||
      options.max_names == 0 || options.max_names > kMaxNames) {
    return Status::InvalidArgument(
        "flight recorder geometry out of range (ring_records 1.." +
        std::to_string(kMaxRingRecords) + ", max_threads 1.." +
        std::to_string(kMaxThreads) + ", max_names 1.." +
        std::to_string(kMaxNames) + ")");
  }
  const size_t bytes = MappedBytes(options.ring_records, options.max_threads,
                                   options.max_names);
  int fd = -1;
  void* base = MAP_FAILED;
  if (options.path.empty()) {
    // Untouched pages cost address space only: a slot sized for a long
    // run stays small for a short one.
    base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      return Status::IOError("mmap(" + std::to_string(bytes) +
                             " anonymous bytes) failed: " +
                             std::strerror(errno));
    }
  } else {
    fd = open(options.path.c_str(), O_RDWR | O_CREAT | O_TRUNC
#if defined(O_CLOEXEC)
                                        | O_CLOEXEC
#endif
              ,
              0644);
    if (fd < 0) {
      return Status::IOError("open(" + options.path +
                             ") failed: " + std::strerror(errno));
    }
    if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      const std::string err = std::strerror(errno);
      close(fd);
      return Status::IOError("ftruncate(" + options.path +
                             ") failed: " + err);
    }
    base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      close(fd);
      return Status::IOError("mmap(" + options.path + ") failed: " + err);
    }
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

  if (fd >= 0) InstallSignalHandlersOnce();
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
  if (s == nullptr || s->fd < 0) return;
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

namespace {

// The one parser over ring bytes: a dump file read into memory
// (ReadFlightDump) or the installed ring's own mapping
// (SnapshotFlightRecorder). The header's geometry is checked against
// `size` before any slot is read, so corrupt input is a Status, never an
// out-of-bounds read. `data` is 8-byte aligned (every offset below is a
// multiple of 64), so each slot's next_seq is loaded in place with
// acquire: the records below it were written before its owner's release
// store.
Result<FlightDump> ParseFlightDump(const uint8_t* data, size_t size,
                                   const std::string& source) {
  auto fail = [&source](const std::string& message) -> Status {
    return Status::IOError("flight dump " + source + ": " + message);
  };
  FileHeader header;
  if (size < kHeaderBytes) return fail("truncated header");
  std::memcpy(&header, data, sizeof(header));
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
  if (header.ring_records == 0 || header.ring_records > kMaxRingRecords ||
      header.max_threads == 0 || header.max_threads > kMaxThreads ||
      header.max_names == 0 || header.max_names > kMaxNames) {
    return fail("implausible geometry");
  }
  const size_t mapped =
      MappedBytes(header.ring_records, header.max_threads, header.max_names);
  if (size < mapped) {
    return fail("truncated: " + std::to_string(size) + " of " +
                std::to_string(mapped) + " bytes");
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

  const uint8_t* names = data + kHeaderBytes;
  const uint8_t* slots =
      names + static_cast<size_t>(header.max_names) * kNameBytes;
  const size_t stride = SlotStride(header.ring_records);
  for (uint32_t t = 0; t < header.max_threads; ++t) {
    // In place, not copied: the owner thread's counters are read through
    // atomic_ref (the parser only reads; the cast drops const for it).
    auto* slot = reinterpret_cast<SlotHeader*>(
        const_cast<uint8_t*>(slots + static_cast<size_t>(t) * stride));
    const uint64_t total = std::atomic_ref<uint64_t>(slot->next_seq)
                               .load(std::memory_order_acquire);
    const uint32_t active = std::atomic_ref<uint32_t>(slot->active)
                                .load(std::memory_order_acquire);
    if (active == 0 && total == 0) continue;
    FlightDumpThread thread;
    thread.tid = slot->tid;
    thread.total_records = total;
    const FlightRecord* ring = reinterpret_cast<const FlightRecord*>(
        reinterpret_cast<const uint8_t*>(slot) + kSlotHeaderBytes);
    // Keep the newest contiguous run. A record whose stamped seq
    // disagrees with its position was torn (a crash caught the overwrite
    // of the oldest record) or corrupted; it and everything older are
    // dropped, so retained seqs never have a hole.
    uint64_t first =
        total > header.ring_records ? total - header.ring_records : 0;
    for (uint64_t seq = total; seq > first; --seq) {
      if (ring[(seq - 1) % header.ring_records].seq != seq - 1) {
        first = seq;
        break;
      }
    }
    thread.records.reserve(static_cast<size_t>(total - first));
    for (uint64_t seq = first; seq < total; ++seq) {
      thread.records.push_back(ring[seq % header.ring_records]);
    }
    dump.threads.push_back(std::move(thread));
  }

  // Names after the slots: a name is mirrored before the first record
  // naming it is published.
  dump.names.resize(header.max_names);
  for (uint32_t i = 0; i < header.max_names; ++i) {
    const char* name = reinterpret_cast<const char*>(
        names + static_cast<size_t>(i) * kNameBytes);
    dump.names[i].assign(name, std::find(name, name + kNameBytes - 1, '\0'));
  }

  // Footer, if the crash hook got far enough to append one (a SIGKILL
  // leaves only the rings — that is the point of mapping them).
  CrashFooter footer;
  if (size >= mapped + sizeof(footer)) {
    std::memcpy(&footer, data + mapped, sizeof(footer));
    if (std::memcmp(footer.magic, kFooterMagic, sizeof(footer.magic)) == 0) {
      dump.has_footer = true;
      dump.footer_signal = footer.signal;
      const size_t n =
          std::min<size_t>(footer.reason_len, sizeof(footer.reason));
      dump.footer_reason.assign(footer.reason, n);
    }
  }
  return dump;
}

}  // namespace

Result<FlightDump> ReadFlightDump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("open(" + path +
                           ") failed: " + std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read(" + path + ") failed");
  return ParseFlightDump(bytes.data(), bytes.size(), path);
}

Result<FlightDump> SnapshotFlightRecorder() {
#if !defined(ENSEMFDET_METRICS_DISABLED) && defined(ENSEMFDET_FLIGHT_POSIX)
  FlightState* s = g_flight_state.load(std::memory_order_acquire);
  if (s != nullptr) {
    return ParseFlightDump(s->base, s->mapped_bytes,
                           s->opts.path.empty() ? "(memory)" : s->opts.path);
  }
#endif
  return Status::FailedPrecondition("no flight recorder installed");
}

}  // namespace obs
}  // namespace ensemfdet

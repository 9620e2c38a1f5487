#include "obs/trace.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

namespace ensemfdet {
namespace obs {

namespace {

int32_t ThreadTraceId() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Interned span names: id → leaked C string, published with release so
// lock-free readers (the flight recorder's name mirror) never see a
// half-written entry. Id 0 is the "(unknown)" sentinel; the
// table is bounded — span names are code-shaped (a few dozen in
// practice), so hitting the cap means a caller is interning unbounded
// data, and collapsing to "(unknown)" beats unbounded growth.
constexpr uint32_t kMaxSpanNames = 1024;
std::atomic<const char*> g_name_table[kMaxSpanNames];
std::mutex g_intern_mu;
std::map<std::string, uint32_t, std::less<>>& InternIndex() {
  static auto* index = new std::map<std::string, uint32_t, std::less<>>();
  return *index;
}
std::atomic<uint32_t> g_name_count{1};

void AppendHex(std::string* out, uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  out->append(buf);
}

}  // namespace

int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

int32_t CurrentThreadTraceId() { return ThreadTraceId(); }

uint32_t InternSpanName(std::string_view name) {
  // Fast path: span names are almost always string literals, so a tiny
  // thread-local cache keyed by the *pointer* turns the steady state
  // into two loads and a short compare. The compare is what makes a
  // reused buffer safe: a caller may rewrite the same bytes with another
  // name of the same length, so a hit counts only when the interned copy
  // still equals `name`. Other names take the mutex below.
  struct CacheEntry {
    const char* data;
    size_t size;
    uint32_t id;
    const char* interned;  // the table's copy for `id`
  };
  thread_local CacheEntry cache[8] = {};
  const size_t slot =
      (reinterpret_cast<uintptr_t>(name.data()) >> 4) & (8 - 1);
  const CacheEntry& hit = cache[slot];
  if (hit.id != 0 && hit.data == name.data() && hit.size == name.size() &&
      std::string_view(hit.interned, hit.size) == name) {
    return hit.id;
  }

  uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(g_intern_mu);
    auto& index = InternIndex();
    auto it = index.find(name);
    if (it != index.end()) {
      id = it->second;
    } else {
      const uint32_t next = g_name_count.load(std::memory_order_relaxed);
      if (next < kMaxSpanNames) {
        char* copy = static_cast<char*>(std::malloc(name.size() + 1));
        if (copy != nullptr) {
          std::memcpy(copy, name.data(), name.size());
          copy[name.size()] = '\0';
          g_name_table[next].store(copy, std::memory_order_release);
          g_name_count.store(next + 1, std::memory_order_release);
          index.emplace(std::string(name), next);
          id = next;
        }
      }
    }
  }
  // Id 0 (table full) is not cached: it has no copy to compare against.
  if (id != 0) {
    cache[slot] = CacheEntry{name.data(), name.size(), id,
                             InternedSpanName(id)};
  }
  return id;
}

const char* InternedSpanName(uint32_t id) {
  if (id == 0 || id >= kMaxSpanNames) return "(unknown)";
  const char* name = g_name_table[id].load(std::memory_order_acquire);
  return name != nullptr ? name : "(unknown)";
}

Status WriteChromeTrace(const FlightDump& dump, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot write trace to " + path + ": " +
                           std::strerror(errno));
  }
  // Chrome trace_event JSON array format, one event per line (ts/dur are
  // microseconds); the causal ids ride in args.
  std::fputs("[", f);
  bool first = true;
  for (const FlightDumpThread& thread : dump.threads) {
    for (const FlightRecord& r : thread.records) {
      std::string ids = "{\"trace_id\":\"";
      AppendHex(&ids, r.trace_hi);
      AppendHex(&ids, r.trace_lo);
      ids += "\",\"span_id\":\"";
      AppendHex(&ids, r.span_id);
      ids += "\",\"parent_span_id\":\"";
      AppendHex(&ids, r.parent_span_id);
      ids += "\"}";
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
                   first ? "" : ",", dump.Name(r.name_id).c_str(), thread.tid,
                   r.start_ns / 1e3, r.duration_ns / 1e3, ids.c_str());
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  if (std::fclose(f) != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace ensemfdet

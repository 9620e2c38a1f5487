// Differential test of the peel loop's two-tier queue (detail::PeelHeap)
// against the seed IndexedMinHeap: identical random Append / AddTo /
// PopMin / Clear scripts must produce identical pop sequences. Sizes
// run from empty to 50 000, keys include heavy ties and +0.0, one
// queue instance serves many builds, and some scripts Clear mid-peel the
// way a mass-exhausted peel does.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/csr_peeler.h"
#include "referee/indexed_heap.h"

namespace ensemfdet {
namespace {

using detail::PeelHeap;

enum class KeyKind {
  kTied,        // a handful of grid values, many of them +0.0
  kContinuous,  // uniform in [0, 1000)
  kWideRange,   // exponents spread over ~2^-40 .. 2^40, plus +0.0
};

double DrawKey(KeyKind kind, Rng* rng) {
  switch (kind) {
    case KeyKind::kTied:
      return 0.5 * static_cast<double>(rng->NextBounded(6));
    case KeyKind::kContinuous:
      return 1000.0 * rng->NextDouble();
    case KeyKind::kWideRange:
      if (rng->NextBounded(16) == 0) return 0.0;
      return std::ldexp(rng->NextDouble(),
                        static_cast<int>(rng->NextBounded(81)) - 40);
  }
  return 0.0;
}

// A decrement (never positive, as in peeling) an update may apply to
// `key`: exactly to zero, a −0.0 no-op, a grid step (keeps ties alive),
// or a random fraction of the key's magnitude.
double DrawDelta(double key, Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return key > 0.0 ? -key : -0.0;
    case 1:
      return -0.0;
    case 2:
      return -0.5;
    default:
      return -std::abs(key) * rng->NextDouble();
  }
}

// Runs one build of a random script on `queue` (reused across calls)
// and a fresh IndexedMinHeap, asserting the two agree pop for pop.
// With `clear_at` ≥ 0 the script stops after that many pops and Clears.
void RunScript(PeelHeap* queue, int64_t n, KeyKind kind, double update_rate,
               int64_t clear_at, uint64_t seed) {
  SCOPED_TRACE("n=" + std::to_string(n) + " kind=" +
               std::to_string(static_cast<int>(kind)) + " seed=" +
               std::to_string(seed));
  Rng rng(seed);
  // Ascending ids with random gaps, as the peelers' dense slots are a
  // strictly increasing sequence.
  const int64_t capacity = 2 * n + 1;
  queue->EnsureCapacity(capacity);
  IndexedMinHeap reference(capacity);
  std::vector<int64_t> contained;  // for picking update targets
  int64_t id = -1;
  for (int64_t i = 0; i < n; ++i) {
    id += 1 + static_cast<int64_t>(rng.NextBounded(2));
    const double key = DrawKey(kind, &rng);
    queue->Append(id, key);
    reference.Push(id, key);
    contained.push_back(id);
  }
  queue->Build();
  ASSERT_EQ(queue->size(), n);

  int64_t pops = 0;
  while (!reference.empty()) {
    if (pops == clear_at) {
      queue->Clear();
      EXPECT_TRUE(queue->empty());
      return;
    }
    if (rng.NextDouble() < update_rate) {
      // `contained` may hold popped ids; skip those lazily.
      const size_t pick = rng.NextBounded(contained.size());
      const int64_t target = contained[pick];
      if (!reference.Contains(target)) {
        contained[pick] = contained.back();
        contained.pop_back();
        continue;
      }
      const double delta = DrawDelta(reference.KeyOf(target), &rng);
      queue->AddTo(target, delta);
      reference.AddToKey(target, delta);
      continue;
    }
    const int64_t expected = reference.PopMin();
    ASSERT_EQ(queue->PopMin(), expected) << "pop " << pops;
    ++pops;
    ASSERT_EQ(queue->size(), reference.size());
  }
  EXPECT_TRUE(queue->empty());
  EXPECT_LE(queue->sorted_pops(), pops);
}

TEST(PeelHeapTest, MatchesIndexedMinHeapAcrossSizes) {
  PeelHeap queue;  // one instance for every build below
  uint64_t seed = 1;
  for (int64_t n : {0, 1, 2, 1023, 1024, 1025, 50000}) {
    for (KeyKind kind :
         {KeyKind::kTied, KeyKind::kContinuous, KeyKind::kWideRange}) {
      for (double update_rate : {0.0, 0.3, 0.8}) {
        RunScript(&queue, n, kind, update_rate, /*clear_at=*/-1, seed++);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(PeelHeapTest, ClearMidPeelThenRebuild) {
  PeelHeap queue;
  uint64_t seed = 100;
  for (int64_t n : {2, 1023, 1024, 1025, 50000}) {
    for (KeyKind kind : {KeyKind::kTied, KeyKind::kWideRange}) {
      // Clear at the start, a third of the way in, and just before the
      // end; each is followed by a full build on the same instance.
      for (int64_t clear_at : {int64_t{0}, n / 3, n - 1}) {
        RunScript(&queue, n, kind, 0.5, clear_at, seed++);
        if (HasFatalFailure()) return;
        RunScript(&queue, n, kind, 0.5, /*clear_at=*/-1, seed++);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(PeelHeapTest, UntouchedEntriesPopFromTheSortedRun) {
  for (int64_t n : {5, 4000}) {
    PeelHeap queue(n);
    Rng rng(static_cast<uint64_t>(n));
    for (int64_t id = 0; id < n; ++id) {
      queue.Append(id, DrawKey(KeyKind::kTied, &rng));
    }
    queue.Build();
    queue.AddTo(n - 1, -1.0);  // the one entry that moves to the heap
    for (int64_t i = 0; i < n; ++i) queue.PopMin();
    EXPECT_EQ(queue.sorted_pops(), n - 1) << "n=" << n;
  }
}

}  // namespace
}  // namespace ensemfdet

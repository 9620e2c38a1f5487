#include "referee/indexed_heap.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ensemfdet {
namespace {

TEST(IndexedMinHeapTest, StartsEmpty) {
  IndexedMinHeap h(10);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0);
  EXPECT_FALSE(h.Contains(0));
}

TEST(IndexedMinHeapTest, PushPopSingle) {
  IndexedMinHeap h(5);
  h.Push(3, 1.5);
  EXPECT_TRUE(h.Contains(3));
  EXPECT_EQ(h.size(), 1);
  EXPECT_EQ(h.PeekMin(), 3);
  EXPECT_EQ(h.PopMin(), 3);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.Contains(3));
}

TEST(IndexedMinHeapTest, PopsInKeyOrder) {
  IndexedMinHeap h(5);
  h.Push(0, 3.0);
  h.Push(1, 1.0);
  h.Push(2, 2.0);
  h.Push(3, 5.0);
  h.Push(4, 4.0);
  std::vector<int64_t> order;
  while (!h.empty()) order.push_back(h.PopMin());
  EXPECT_EQ(order, (std::vector<int64_t>{1, 2, 0, 4, 3}));
}

TEST(IndexedMinHeapTest, TiesBreakBySmallerId) {
  IndexedMinHeap h(4);
  h.Push(2, 1.0);
  h.Push(0, 1.0);
  h.Push(3, 1.0);
  h.Push(1, 1.0);
  std::vector<int64_t> order;
  while (!h.empty()) order.push_back(h.PopMin());
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(IndexedMinHeapTest, KeyOfReflectsUpdates) {
  IndexedMinHeap h(3);
  h.Push(0, 2.0);
  EXPECT_DOUBLE_EQ(h.KeyOf(0), 2.0);
  h.UpdateKey(0, 7.0);
  EXPECT_DOUBLE_EQ(h.KeyOf(0), 7.0);
  h.AddToKey(0, -3.0);
  EXPECT_DOUBLE_EQ(h.KeyOf(0), 4.0);
}

TEST(IndexedMinHeapTest, DecreaseKeyReordersHeap) {
  IndexedMinHeap h(3);
  h.Push(0, 1.0);
  h.Push(1, 2.0);
  h.Push(2, 3.0);
  h.UpdateKey(2, 0.5);
  EXPECT_EQ(h.PopMin(), 2);
  EXPECT_EQ(h.PopMin(), 0);
}

TEST(IndexedMinHeapTest, IncreaseKeyReordersHeap) {
  IndexedMinHeap h(3);
  h.Push(0, 1.0);
  h.Push(1, 2.0);
  h.Push(2, 3.0);
  h.UpdateKey(0, 10.0);
  EXPECT_EQ(h.PopMin(), 1);
  EXPECT_EQ(h.PopMin(), 2);
  EXPECT_EQ(h.PopMin(), 0);
}

TEST(IndexedMinHeapTest, RemoveMiddleElement) {
  IndexedMinHeap h(5);
  for (int64_t i = 0; i < 5; ++i) h.Push(i, static_cast<double>(i));
  h.Remove(2);
  EXPECT_FALSE(h.Contains(2));
  EXPECT_EQ(h.size(), 4);
  std::vector<int64_t> order;
  while (!h.empty()) order.push_back(h.PopMin());
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 3, 4}));
}

TEST(IndexedMinHeapTest, RemoveLastDoesNotCorrupt) {
  IndexedMinHeap h(3);
  h.Push(0, 1.0);
  h.Push(1, 2.0);
  h.Push(2, 3.0);
  h.Remove(2);  // last heap slot
  EXPECT_EQ(h.PopMin(), 0);
  EXPECT_EQ(h.PopMin(), 1);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMinHeapTest, ReinsertAfterRemove) {
  IndexedMinHeap h(2);
  h.Push(0, 1.0);
  h.Remove(0);
  h.Push(0, 5.0);
  EXPECT_DOUBLE_EQ(h.KeyOf(0), 5.0);
  EXPECT_EQ(h.PopMin(), 0);
}

TEST(IndexedMinHeapTest, RandomizedAgainstSort) {
  Rng rng(21);
  constexpr int kN = 500;
  IndexedMinHeap h(kN);
  std::vector<double> keys(kN);
  for (int64_t i = 0; i < kN; ++i) {
    keys[static_cast<size_t>(i)] = rng.NextDouble();
    h.Push(i, keys[static_cast<size_t>(i)]);
  }
  // Random updates.
  for (int t = 0; t < 2000; ++t) {
    int64_t id = static_cast<int64_t>(rng.NextBounded(kN));
    double k = rng.NextDouble() * 10.0 - 5.0;
    keys[static_cast<size_t>(id)] = k;
    h.UpdateKey(id, k);
  }
  // Extraction order must match a sort by (key, id).
  std::vector<int64_t> expected(kN);
  for (int64_t i = 0; i < kN; ++i) expected[static_cast<size_t>(i)] = i;
  std::sort(expected.begin(), expected.end(), [&keys](int64_t a, int64_t b) {
    if (keys[static_cast<size_t>(a)] != keys[static_cast<size_t>(b)]) {
      return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(b)];
    }
    return a < b;
  });
  std::vector<int64_t> actual;
  while (!h.empty()) actual.push_back(h.PopMin());
  EXPECT_EQ(actual, expected);
}

TEST(IndexedMinHeapTest, RandomizedWithInterleavedRemovals) {
  Rng rng(22);
  constexpr int kN = 200;
  IndexedMinHeap h(kN);
  std::vector<bool> in(kN, false);
  for (int64_t i = 0; i < kN; ++i) {
    h.Push(i, rng.NextDouble());
    in[static_cast<size_t>(i)] = true;
  }
  int64_t size = kN;
  for (int t = 0; t < 1000; ++t) {
    int64_t id = static_cast<int64_t>(rng.NextBounded(kN));
    if (in[static_cast<size_t>(id)]) {
      if (rng.NextBernoulli(0.5)) {
        h.Remove(id);
        in[static_cast<size_t>(id)] = false;
        --size;
      } else {
        h.UpdateKey(id, rng.NextDouble());
      }
    } else {
      h.Push(id, rng.NextDouble());
      in[static_cast<size_t>(id)] = true;
      ++size;
    }
    ASSERT_EQ(h.size(), size);
  }
  // Remaining extraction is sorted by key.
  double prev = -1.0;
  while (!h.empty()) {
    int64_t id = h.PeekMin();
    double k = h.KeyOf(id);
    EXPECT_GE(k, prev);
    prev = k;
    h.PopMin();
  }
}

TEST(IndexedMinHeapDeathTest, PopEmptyAborts) {
  IndexedMinHeap h(1);
  EXPECT_DEATH((void)h.PopMin(), "Check failed");
}

}  // namespace
}  // namespace ensemfdet

// Indexed binary min-heap with decrease/increase-key — the "minimal heap"
// of paper §IV-B that gives the peeler its O(log(|U|+|V|)) per-update,
// O(k̂·|E|·log(|U|+|V|)) total bound.
//
// Items are dense ids in [0, capacity); each id may be in the heap at most
// once, and a position index supports UpdateKey/Remove by id in O(log n).
// Ties break toward the smaller id so peeling is fully deterministic.
//
// Test-only: the seed peeler's heap, kept as the referee that
// tests/peel_heap_test.cc pins the production peel queue
// (detail::PeelHeap in detect/csr_peeler.h) against.
#ifndef ENSEMFDET_TESTS_REFEREE_INDEXED_HEAP_H_
#define ENSEMFDET_TESTS_REFEREE_INDEXED_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ensemfdet {

class IndexedMinHeap {
 public:
  /// Heap over ids [0, capacity), initially empty.
  explicit IndexedMinHeap(int64_t capacity);

  int64_t size() const { return static_cast<int64_t>(heap_.size()); }
  bool empty() const { return heap_.empty(); }
  bool Contains(int64_t id) const { return pos_[static_cast<size_t>(id)] >= 0; }

  /// Current key of a contained id.
  double KeyOf(int64_t id) const;

  /// Inserts id with the given key; id must not be contained.
  void Push(int64_t id, double key);

  /// Smallest-key id (ties: smallest id). Heap must be nonempty.
  int64_t PeekMin() const;

  /// Removes and returns the smallest-key id.
  int64_t PopMin();

  /// Changes a contained id's key (either direction).
  void UpdateKey(int64_t id, double key);

  /// Adds `delta` to a contained id's key.
  void AddToKey(int64_t id, double delta);

  /// Removes a contained id.
  void Remove(int64_t id);

 private:
  struct Entry {
    double key;
    int64_t id;
  };

  bool Less(const Entry& a, const Entry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void Place(size_t i, Entry e);

  std::vector<Entry> heap_;
  std::vector<int64_t> pos_;  // id → heap index, -1 if absent
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_TESTS_REFEREE_INDEXED_HEAP_H_

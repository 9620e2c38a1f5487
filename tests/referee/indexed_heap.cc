#include "referee/indexed_heap.h"

#include "common/logging.h"

namespace ensemfdet {

IndexedMinHeap::IndexedMinHeap(int64_t capacity)
    : pos_(static_cast<size_t>(capacity), -1) {
  heap_.reserve(static_cast<size_t>(capacity));
}

double IndexedMinHeap::KeyOf(int64_t id) const {
  ENSEMFDET_DCHECK(Contains(id));
  return heap_[static_cast<size_t>(pos_[static_cast<size_t>(id)])].key;
}

void IndexedMinHeap::Place(size_t i, Entry e) {
  heap_[i] = e;
  pos_[static_cast<size_t>(e.id)] = static_cast<int64_t>(i);
}

void IndexedMinHeap::SiftUp(size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!Less(e, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

void IndexedMinHeap::SiftDown(size_t i) {
  Entry e = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Less(heap_[child + 1], heap_[child])) ++child;
    if (!Less(heap_[child], e)) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, e);
}

void IndexedMinHeap::Push(int64_t id, double key) {
  ENSEMFDET_DCHECK(id >= 0 &&
                   id < static_cast<int64_t>(pos_.size()));
  ENSEMFDET_DCHECK(!Contains(id)) << "id " << id << " already in heap";
  heap_.push_back({key, id});
  pos_[static_cast<size_t>(id)] = static_cast<int64_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
}

int64_t IndexedMinHeap::PeekMin() const {
  ENSEMFDET_CHECK(!heap_.empty());
  return heap_[0].id;
}

int64_t IndexedMinHeap::PopMin() {
  ENSEMFDET_CHECK(!heap_.empty());
  int64_t id = heap_[0].id;
  Remove(id);
  return id;
}

void IndexedMinHeap::UpdateKey(int64_t id, double key) {
  ENSEMFDET_DCHECK(Contains(id));
  size_t i = static_cast<size_t>(pos_[static_cast<size_t>(id)]);
  double old_key = heap_[i].key;
  heap_[i].key = key;
  if (key < old_key) {
    SiftUp(i);
  } else {
    SiftDown(i);
  }
}

void IndexedMinHeap::AddToKey(int64_t id, double delta) {
  UpdateKey(id, KeyOf(id) + delta);
}

void IndexedMinHeap::Remove(int64_t id) {
  ENSEMFDET_DCHECK(Contains(id));
  size_t i = static_cast<size_t>(pos_[static_cast<size_t>(id)]);
  pos_[static_cast<size_t>(id)] = -1;
  Entry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    Place(i, last);
    SiftUp(i);
    SiftDown(static_cast<size_t>(pos_[static_cast<size_t>(last.id)]));
  }
}

}  // namespace ensemfdet

#include "detect/csr_peeler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace ensemfdet {

namespace detail {

PeelHeap::PeelHeap(int64_t capacity) { EnsureCapacity(capacity); }

bool PeelHeap::EnsureCapacity(int64_t capacity) {
  bool grew = false;
  if (pos_.size() < static_cast<size_t>(capacity)) {
    pos_.reserve(static_cast<size_t>(capacity));
    pos_.resize(static_cast<size_t>(capacity), -1);
    grew = true;
  }
  // Reserved, not resized: a peel touches only as many entries as it has
  // participants.
  if (run_.capacity() < static_cast<size_t>(capacity)) {
    run_.reserve(static_cast<size_t>(capacity));
    grew = true;
  }
  if (heap_.capacity() < static_cast<size_t>(capacity)) {
    heap_.reserve(static_cast<size_t>(capacity));
    grew = true;
  }
  if (radix_counts_.empty()) {
    radix_counts_.resize(kRadixPasses * kRadixBuckets);
    grew = true;
  }
  return grew;
}

int64_t PeelHeap::CapacityBytes() const {
  return static_cast<int64_t>(run_.capacity() * sizeof(Entry) +
                              heap_.capacity() * sizeof(Entry) +
                              pos_.capacity() * sizeof(int64_t) +
                              radix_counts_.capacity() * sizeof(uint32_t));
}

void PeelHeap::Place(size_t i, Entry e) {
  heap_[i] = e;
  pos_[static_cast<size_t>(e.id)] = static_cast<int64_t>(i);
}

void PeelHeap::Append(int64_t id, double key) {
  ENSEMFDET_DCHECK(id >= 0 && id < static_cast<int64_t>(pos_.size()));
  ENSEMFDET_DCHECK(run_.empty() || run_.back().id < id);
  ENSEMFDET_DCHECK(!std::signbit(key));
  ENSEMFDET_DCHECK(run_live_ == 0 && heap_.empty());
  run_.push_back({key, id});
}

void PeelHeap::Build() {
  ENSEMFDET_DCHECK(run_head_ == 0 && run_live_ == 0 && heap_.empty());
  RadixSortRun();
  for (size_t i = 0; i < run_.size(); ++i) {
    pos_[static_cast<size_t>(run_[i].id)] = -2 - static_cast<int64_t>(i);
  }
  run_live_ = static_cast<int64_t>(run_.size());
  sorted_pops_ = 0;
}

void PeelHeap::RadixSortRun() {
  const size_t n = run_.size();
  if (n < 2) return;
  // One histogram pass for every digit; a digit shared by all keys (the
  // sign/exponent digit usually is) skips its scatter pass.
  std::fill(radix_counts_.begin(), radix_counts_.end(), 0u);
  for (const Entry& e : run_) {
    const uint64_t bits = std::bit_cast<uint64_t>(e.key);
    for (int d = 0; d < kRadixPasses; ++d) {
      ++radix_counts_[d * kRadixBuckets +
                      ((bits >> (d * kRadixBits)) & (kRadixBuckets - 1))];
    }
  }
  heap_.resize(n);
  for (int d = 0; d < kRadixPasses; ++d) {
    uint32_t* counts = radix_counts_.data() + d * kRadixBuckets;
    const int shift = d * kRadixBits;
    const uint64_t first_digit =
        (std::bit_cast<uint64_t>(run_[0].key) >> shift) & (kRadixBuckets - 1);
    if (counts[first_digit] == n) continue;
    uint32_t offset = 0;
    for (size_t b = 0; b < kRadixBuckets; ++b) {
      const uint32_t count = counts[b];
      counts[b] = offset;
      offset += count;
    }
    for (const Entry& e : run_) {
      const uint64_t digit =
          (std::bit_cast<uint64_t>(e.key) >> shift) & (kRadixBuckets - 1);
      heap_[counts[digit]++] = e;
    }
    run_.swap(heap_);
  }
  heap_.clear();
}

void PeelHeap::RetireRunEntry() {
  if (--run_live_ == 0) {
    run_.clear();
    run_head_ = 0;
  }
}

size_t PeelHeap::MinChild(size_t i) const {
  const size_t n = heap_.size();
  const size_t first = kArity * i + 1;
  if (first >= n) return n;
  const size_t last = std::min(first + kArity, n);
  size_t best = first;
  for (size_t c = first + 1; c < last; ++c) {
    if (Less(heap_[c], heap_[best])) best = c;
  }
  return best;
}

void PeelHeap::SiftUp(size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Less(e, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

int64_t PeelHeap::PopHeap() {
  const int64_t id = heap_[0].id;
  pos_[static_cast<size_t>(id)] = -1;  // keeps AddTo's misuse DCHECK live
  Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Bottom-up reinsertion: walk the root hole to a leaf along smallest
    // children (no comparison against `last` on the way down), then sift
    // the displaced last entry up from the leaf hole — it rarely rises.
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      const size_t child = MinChild(i);
      if (child >= n) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, last);
    SiftUp(i);
  }
  return id;
}

int64_t PeelHeap::PopMin() {
  ENSEMFDET_CHECK(!empty());
  if (run_live_ > 0) {
    // A live entry lies ahead, so the stale-slot skip needs no bound.
    while (run_[run_head_].id == kMoved) ++run_head_;
    const Entry& front = run_[run_head_];
    if (heap_.empty() || Less(front, heap_[0])) {
      const int64_t id = front.id;
      pos_[static_cast<size_t>(id)] = -1;
      ++run_head_;
      ++sorted_pops_;
      RetireRunEntry();
      return id;
    }
  }
  return PopHeap();
}

void PeelHeap::Clear() {
  // O(size): invalidate contained positions so AddTo on a cleared id
  // still trips its DCHECK instead of mutating an unrelated entry later.
  for (const Entry& e : heap_) pos_[static_cast<size_t>(e.id)] = -1;
  for (size_t i = run_head_; i < run_.size(); ++i) {
    if (run_[i].id != kMoved) pos_[static_cast<size_t>(run_[i].id)] = -1;
  }
  heap_.clear();
  run_.clear();
  run_head_ = 0;
  run_live_ = 0;
}

void PeelHeap::AddTo(int64_t id, double delta) {
  const int64_t pos = pos_[static_cast<size_t>(id)];
  ENSEMFDET_DCHECK(pos != -1);
  ENSEMFDET_DCHECK(delta <= 0.0);
  // Same arithmetic as the seed heap's add-to-key: key ← key + delta.
  if (pos >= 0) {
    const size_t i = static_cast<size_t>(pos);
    heap_[i].key = heap_[i].key + delta;
    SiftUp(i);
    return;
  }
  // First update since Build: move the entry from its run slot (left
  // stale) into the heap.
  Entry& slot = run_[static_cast<size_t>(-2 - pos)];
  const Entry moved{slot.key + delta, id};
  slot.id = kMoved;
  RetireRunEntry();
  heap_.push_back(moved);
  SiftUp(heap_.size() - 1);
}

}  // namespace detail

namespace {

// Resize-to-fit helpers that count growth events: vectors only grow, to
// exactly the size asked for (no doubling slack — an arena is sized by
// the largest member it serves), and new elements are value-initialized
// (zero), so the PeelScratch all-zero invariants hold over the freshly
// grown extent.
template <typename T>
void GrowTo(std::vector<T>* v, int64_t n, int64_t* grew) {
  if (v->size() < static_cast<size_t>(n)) {
    v->reserve(static_cast<size_t>(n));
    v->resize(static_cast<size_t>(n));
    ++*grew;
  }
}

template <typename T>
void ReserveTo(std::vector<T>* v, int64_t n, int64_t* grew) {
  if (v->capacity() < static_cast<size_t>(n)) {
    v->reserve(static_cast<size_t>(n));
    ++*grew;
  }
}

template <typename T>
int64_t Bytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

// Sizes the per-slot view rows and the member node lists for a mask of
// `mask_size` edges, and the parent-merchant map for a graph of
// `parent_merchants` merchants.
void GrowViewRows(PeelScratch* s, int64_t mask_size, int64_t parent_merchants) {
  int64_t grew = 0;
  GrowTo(&s->view_weight_of, mask_size, &grew);
  GrowTo(&s->view_user_dense, mask_size, &grew);
  GrowTo(&s->view_merchant_dense, mask_size, &grew);
  GrowTo(&s->view_merchant_slot, mask_size, &grew);
  GrowTo(&s->view_alive, mask_size, &grew);
  GrowTo(&s->view_alive_m, mask_size, &grew);
  GrowTo(&s->view_user_mass, mask_size, &grew);
  GrowTo(&s->view_merchant_mass, mask_size, &grew);
  GrowTo(&s->view_merchant_user_dense, mask_size, &grew);
  ReserveTo(&s->member_users, mask_size, &grew);
  ReserveTo(&s->member_merchants, mask_size, &grew);
  ReserveTo(&s->member_user_offsets, mask_size + 1, &grew);
  GrowTo(&s->parent_merchant_member, parent_merchants, &grew);
  s->grow_events += grew;
}

// Sizes every node-indexed array for a view of `users` + `merchants`
// member nodes.
void GrowNodeArrays(PeelScratch* s, int64_t users, int64_t merchants) {
  const int64_t nodes = users + merchants;
  int64_t grew = 0;
  GrowTo(&s->user_degree, users, &grew);
  GrowTo(&s->merchant_degree, merchants, &grew);
  GrowTo(&s->col_weight, merchants, &grew);
  GrowTo(&s->priority, nodes, &grew);
  GrowTo(&s->removed, nodes, &grew);
  if (s->heap.EnsureCapacity(nodes)) ++grew;
  ReserveTo(&s->incident_users, users, &grew);
  ReserveTo(&s->incident_merchants, merchants, &grew);
  ReserveTo(&s->removal_order, nodes, &grew);
  GrowTo(&s->in_block_merchant, merchants, &grew);
  GrowTo(&s->member_merchant_offsets, merchants + 1, &grew);
  s->grow_events += grew;
}

}  // namespace

int64_t PeelScratch::CapacityBytes() const {
  return Bytes(user_degree) + Bytes(merchant_degree) + Bytes(col_weight) +
         Bytes(priority) + Bytes(removed) + heap.CapacityBytes() +
         Bytes(incident_users) + Bytes(incident_merchants) +
         Bytes(removal_order) + Bytes(in_block_merchant) +
         Bytes(view_weight_of) + Bytes(view_user_dense) +
         Bytes(view_merchant_dense) + Bytes(view_merchant_slot) +
         Bytes(view_alive) + Bytes(view_alive_m) + Bytes(view_user_mass) +
         Bytes(view_merchant_mass) + Bytes(view_merchant_user_dense) +
         Bytes(member_users) + Bytes(member_merchants) +
         Bytes(member_user_offsets) + Bytes(member_merchant_offsets) +
         Bytes(parent_merchant_member);
}

CsrPeeler::CsrPeeler(const CsrGraph& graph, PeelScratch* scratch)
    : graph_(&graph), s_(scratch) {
  ENSEMFDET_DCHECK(scratch != nullptr);
}

void CsrPeeler::SetResidualView(std::span<const EdgeId> mask) {
  const CsrGraph& graph = *graph_;
  PeelScratch& s = *s_;
  ENSEMFDET_CHECK(static_cast<int64_t>(mask.size()) <= kMaxViewEdges)
      << "residual view of " << mask.size() << " edges";
  view_mask_ = mask;
  const int64_t mask_size = static_cast<int64_t>(mask.size());
  GrowViewRows(&s, mask_size, graph.num_merchants());

  // Pass 1 — the one pass of parent-array gathers per member: edge
  // weights, member-dense user numbering (the ascending mask groups by
  // user, so users are runs and come out ascending), user rows, and
  // distinct-merchant collection with per-merchant counts.
  s.member_users.clear();
  s.member_merchants.clear();
  s.member_user_offsets.clear();
  for (int64_t i = 0; i < mask_size; ++i) {
    const EdgeId e = mask[static_cast<size_t>(i)];
    ENSEMFDET_DCHECK(e >= 0 && e < graph.num_edges());
    ENSEMFDET_DCHECK(i == 0 || mask[static_cast<size_t>(i - 1)] < e);
    s.view_weight_of[static_cast<size_t>(i)] = graph.edge_weight(e);
    const UserId u = graph.edge_user(e);
    if (s.member_users.empty() || s.member_users.back() != u) {
      ENSEMFDET_DCHECK(s.member_users.empty() || s.member_users.back() < u);
      s.member_user_offsets.push_back(static_cast<uint32_t>(i));
      s.member_users.push_back(u);
    }
    s.view_user_dense[static_cast<size_t>(i)] =
        static_cast<int32_t>(s.member_users.size() - 1);
    const MerchantId v = graph.edge_merchant(e);
    if (s.parent_merchant_member[v]++ == 0) s.member_merchants.push_back(v);
  }
  s.member_user_offsets.push_back(static_cast<uint32_t>(mask_size));
  const int64_t num_member_users =
      static_cast<int64_t>(s.member_users.size());
  s.member_user_count = num_member_users;
  GrowNodeArrays(&s, num_member_users,
                 static_cast<int64_t>(s.member_merchants.size()));

  // Member-dense merchant numbering (ascending parent order) and
  // counting-sorted merchant rows. While filling, offsets[j + 1] is
  // merchant j's cursor, starting at its row begin and ending at its row
  // end — which is merchant j + 1's begin, so the offsets come out final.
  std::sort(s.member_merchants.begin(), s.member_merchants.end());
  uint32_t offset = 0;
  s.member_merchant_offsets[0] = 0;
  for (size_t j = 0; j < s.member_merchants.size(); ++j) {
    const MerchantId v = s.member_merchants[j];
    s.member_merchant_offsets[j + 1] = offset;
    offset += s.parent_merchant_member[v];
    s.parent_merchant_member[v] = static_cast<uint32_t>(j);
  }
  for (int64_t i = 0; i < mask_size; ++i) {
    const MerchantId v = graph.edge_merchant(mask[static_cast<size_t>(i)]);
    const uint32_t j = s.parent_merchant_member[v];
    const uint32_t slot = s.member_merchant_offsets[j + 1]++;
    s.view_merchant_dense[static_cast<size_t>(i)] =
        static_cast<int32_t>(num_member_users + j);
    s.view_merchant_slot[static_cast<size_t>(i)] = slot;
    s.view_merchant_user_dense[slot] = s.view_user_dense[static_cast<size_t>(i)];
  }
  for (MerchantId v : s.member_merchants) s.parent_merchant_member[v] = 0;
  std::fill_n(s.view_alive.begin(), mask_size, uint8_t{1});
  std::fill_n(s.view_alive_m.begin(), mask_size, uint8_t{1});
}

PeelResult CsrPeeler::PeelAliveInView(const DensityConfig& config,
                                      double weight_scale, bool keep_trace) {
  PeelResult result;
  PeelScratch& s = *s_;
  const int64_t mask_size = static_cast<int64_t>(view_mask_.size());
  if (mask_size == 0) return result;
  const int64_t num_users = s.member_user_count;  // member-space Uₘ

  s.incident_users.clear();
  s.incident_merchants.clear();

  // Streaming initialization over the slot-aligned view, entirely in
  // member-dense id space: the alive slots of the ascending mask ARE the
  // residual list in ascending order, so every first-touch and
  // accumulation below happens in exactly the order the seed peeler
  // performs it on the compacted residual, and the member numbering is
  // monotone in parent id, so all id-based tie-breaks agree too.
  for (int64_t i = 0; i < mask_size; ++i) {
    if (!s.view_alive[static_cast<size_t>(i)]) continue;
    const int32_t mu = s.view_user_dense[static_cast<size_t>(i)];
    const int32_t mj = s.view_merchant_dense[static_cast<size_t>(i)] -
                       static_cast<int32_t>(num_users);
    if (s.user_degree[mu]++ == 0) {
      s.incident_users.push_back(static_cast<UserId>(mu));
      s.priority[mu] = 0.0;
    }
    if (s.merchant_degree[mj]++ == 0) {
      s.priority[static_cast<size_t>(num_users + mj)] = 0.0;
    }
  }
  // Incident merchants, ascending: a compact scan of the member merchant
  // range beats sorting a collected list (degrees are all-zero outside
  // the alive set).
  const int64_t num_member_merchants =
      static_cast<int64_t>(s.member_merchants.size());
  for (int64_t mj = 0; mj < num_member_merchants; ++mj) {
    if (s.merchant_degree[static_cast<size_t>(mj)] > 0) {
      s.incident_merchants.push_back(static_cast<MerchantId>(mj));
      s.col_weight[static_cast<size_t>(mj)] = MerchantColumnWeight(
          static_cast<double>(s.merchant_degree[static_cast<size_t>(mj)]),
          config);
    }
  }
  if (s.incident_users.empty() && s.incident_merchants.empty()) {
    return result;  // no alive edges
  }

  // Edge masses, accumulated in ascending slot order so `mass` and the
  // priorities sum in exactly the seed's order. Each mass is the seed's
  // (w · scale) · colw — two IEEE multiplies in that order. Only alive
  // slots get a mass; the pop loop checks the alive flags before it reads
  // one.
  double mass = 0.0;
  for (int64_t i = 0; i < mask_size; ++i) {
    if (!s.view_alive[static_cast<size_t>(i)]) continue;
    const int32_t mu = s.view_user_dense[static_cast<size_t>(i)];
    const int32_t packed_mv = s.view_merchant_dense[static_cast<size_t>(i)];
    const double w =
        (s.view_weight_of[static_cast<size_t>(i)] * weight_scale) *
        s.col_weight[static_cast<size_t>(packed_mv - num_users)];
    s.view_user_mass[static_cast<size_t>(i)] = w;
    s.view_merchant_mass[static_cast<size_t>(
        s.view_merchant_slot[static_cast<size_t>(i)])] = w;
    s.priority[static_cast<size_t>(mu)] += w;
    s.priority[static_cast<size_t>(packed_mv)] += w;
    mass += w;
  }

  // Heap over member packed ids (users then merchants, each ascending —
  // monotone in parent packed id, so (key, id) ties break exactly like
  // the seed). PopMin is a pure function of that total order, so the
  // sorted-run build yields the exact pop sequence of one-by-one pushes.
  ENSEMFDET_DCHECK(s.heap.empty());
  for (UserId mu : s.incident_users) {
    s.heap.Append(mu, s.priority[mu]);
    s.removed[mu] = 0;
  }
  for (MerchantId mj : s.incident_merchants) {
    const int64_t id = num_users + mj;
    s.heap.Append(id, s.priority[static_cast<size_t>(id)]);
    s.removed[static_cast<size_t>(id)] = 0;
  }
  s.heap.Build();
  int64_t alive = s.heap.size();
  const int64_t peel_steps = alive;

  s.removal_order.clear();
  if (keep_trace) result.trace.reserve(static_cast<size_t>(peel_steps));

  double best_phi = -1.0;
  int64_t best_prefix = 0;  // number of removals before the best state

  for (int64_t t = 0; t < peel_steps; ++t) {
    const double phi =
        alive > 0 ? std::max(0.0, mass) / static_cast<double>(alive) : 0.0;
    if (keep_trace) result.trace.push_back(phi);
    if (phi > best_phi) {
      best_phi = phi;
      best_prefix = t;
    }

    // Mass exhaustion: every mass update subtracts a nonnegative edge
    // mass, so `mass` is non-increasing and once ≤ 0 every future φ is
    // exactly 0 — with the strict `>` above, best_prefix can never move
    // again. The remaining pops are a zero-key tail; skip them (and bulk-
    // clear the heap) unless the caller wants the full trace.
    if (!keep_trace && mass <= 0.0) break;

    const int64_t victim = s.heap.PopMin();
    s.removed[static_cast<size_t>(victim)] = 1;
    --alive;
    s.removal_order.push_back(victim);

    if (victim < num_users) {
      for (uint32_t idx = s.member_user_offsets[static_cast<size_t>(victim)];
           idx < s.member_user_offsets[static_cast<size_t>(victim) + 1];
           ++idx) {
        if (!s.view_alive[static_cast<size_t>(idx)]) continue;
        const int32_t other = s.view_merchant_dense[static_cast<size_t>(idx)];
        if (s.removed[static_cast<size_t>(other)]) continue;  // edge dead
        const double w = s.view_user_mass[static_cast<size_t>(idx)];
        mass -= w;
        s.heap.AddTo(other, -w);
      }
    } else {
      const int64_t mj = victim - num_users;
      for (uint32_t idx = s.member_merchant_offsets[static_cast<size_t>(mj)];
           idx < s.member_merchant_offsets[static_cast<size_t>(mj) + 1];
           ++idx) {
        if (!s.view_alive_m[static_cast<size_t>(idx)]) continue;
        const int32_t mu =
            s.view_merchant_user_dense[static_cast<size_t>(idx)];
        if (s.removed[static_cast<size_t>(mu)]) continue;
        const double w = s.view_merchant_mass[static_cast<size_t>(idx)];
        mass -= w;
        s.heap.AddTo(mu, -w);
      }
    }
  }

  if (!s.heap.empty()) s.heap.Clear();  // mass-exhausted early exit
  s.peel_pops += static_cast<int64_t>(s.removal_order.size());
  s.peel_sorted_pops += s.heap.sorted_pops();

  // Extraction in member ids (ascending ⇒ parent-ascending after the
  // caller's translation). The block is every incident node not removed
  // within the best prefix: un-flag the removal suffix, and `removed` is
  // 0 exactly on the block — nodes the mass-exhausted exit never popped
  // are still 0 from the queue build.
  for (size_t t = static_cast<size_t>(best_prefix);
       t < s.removal_order.size(); ++t) {
    s.removed[static_cast<size_t>(s.removal_order[t])] = 0;
  }
  for (UserId mu : s.incident_users) {
    if (!s.removed[mu]) result.users.push_back(mu);
  }
  for (MerchantId mj : s.incident_merchants) {
    if (!s.removed[static_cast<size_t>(num_users + mj)]) {
      result.merchants.push_back(mj);
    }
  }
  result.score = best_phi;
  if (keep_trace) {
    // Translate member packed ids to parent packed ids for the contract.
    result.removal_order.reserve(s.removal_order.size());
    for (int64_t id : s.removal_order) {
      result.removal_order.push_back(
          id < num_users
              ? static_cast<int64_t>(s.member_users[static_cast<size_t>(id)])
              : graph_->num_users() +
                    static_cast<int64_t>(s.member_merchants[static_cast<size_t>(
                        id - num_users)]));
    }
  }

  // Restore the arena invariants (degrees zero, heap empty); view_alive
  // stays with the caller.
  for (UserId mu : s.incident_users) s.user_degree[mu] = 0;
  for (MerchantId mj : s.incident_merchants) s.merchant_degree[mj] = 0;
  ENSEMFDET_DCHECK(s.heap.empty());
  return result;
}

PeelResult PeelDensestBlockCsr(const CsrGraph& graph,
                               const DensityConfig& config, bool keep_trace) {
  std::vector<EdgeId> all(static_cast<size_t>(graph.num_edges()));
  std::iota(all.begin(), all.end(), EdgeId{0});
  PeelScratch scratch;
  CsrPeeler peeler(graph, &scratch);
  peeler.SetResidualView(all);
  PeelResult result =
      peeler.PeelAliveInView(config, /*weight_scale=*/1.0, keep_trace);
  for (UserId& u : result.users) u = scratch.member_users[u];
  for (MerchantId& v : result.merchants) v = scratch.member_merchants[v];
  return result;
}

}  // namespace ensemfdet

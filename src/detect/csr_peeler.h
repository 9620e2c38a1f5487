// CSR-native greedy densest-block peeling (the FRAUDAR-style greedy of
// paper Algorithm 1, lines 3-8) that peels **in place** over an immutable
// CsrGraph plus an alive-edge set, instead of materializing a compacted
// BipartiteGraph per call.
//
// This is what makes iterated FDET cheap: each block iteration used to
// rebuild a subgraph (sort + two hash maps + two CSR constructions) just
// to peel it once; CsrPeeler reuses one set of flat scratch arrays
// (degrees, priorities, removal flags, a peel queue) across iterations.
//
// There is one peel path. SetResidualView() regroups an edge mask — a
// sampled ensemble member's, or every edge for whole-graph FDET — into
// compact slot-aligned rows in member-dense node ids (one pass of parent
// gathers), after which PeelAliveInView() runs every FDET iteration
// touching only residual-sized, mostly L1-resident arrays: per-call
// initialization is O(|mask|) streaming — not O(|U| + |V|) and not
// O(parent-degree sums) — so peeling a sampled residual of a huge shared
// parent costs what peeling the equivalent materialized child would,
// without building it. The scratch arrays live in a PeelScratch arena
// sized by the view, which callers may own externally: the ensemble hot
// loop keeps one arena per worker thread, so running FDET on thousands of
// sampled residuals performs zero arena allocations after warm-up
// (DESIGN.md §"Ensemble hot loop").
//
// Bit-exactness contract: for the same residual edge set,
// PeelAliveInView() performs the identical floating-point operations in
// the identical order as the seed adjacency-list peeler over the
// compacted subgraph (same per-node accumulation order, same heap
// insertion order, same smaller-id tie-breaks under the order-isomorphic
// id relabeling), so scores, block node sets, traces, and removal orders
// match it exactly. The seed peeler and its binary heap survive only as
// test referees (tests/referee/greedy_peeler.h, indexed_heap.h);
// tests/csr_parity_test.cc, tests/ensemble_parity_test.cc and
// tests/peel_heap_test.cc pin this.
#ifndef ENSEMFDET_DETECT_CSR_PEELER_H_
#define ENSEMFDET_DETECT_CSR_PEELER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "detect/density.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

/// Output of one peel: the densest block found plus the full peeling trace
/// (used by tests and the Fig 1 bench).
struct PeelResult {
  /// Users/merchants of the argmax-φ prefix, ascending ids (graph-local).
  std::vector<UserId> users;
  std::vector<MerchantId> merchants;
  /// φ of that block under the entry-time column weights.
  double score = 0.0;
  /// trace[t] = φ(H_{n-t}) before the t-th removal; trace[0] = φ(G).
  std::vector<double> trace;
  /// Node removal order as packed ids (user u → u; merchant v → |U|+v).
  std::vector<int64_t> removal_order;
};

namespace detail {

// Two-tier indexed priority queue over (key, id) — the peel loop's queue.
//
// Most peel participants are popped with the key they were built with
// (degree-1 users go before their merchant ever loses an edge), so the
// queue keeps two tiers:
//   * the *run*: every appended entry, sorted once by Build() into
//     (key, id) order and consumed front to back — a sequential read per
//     pop instead of a sift;
//   * the *heap*: a 4-ary indexed min-heap holding only the entries whose
//     key changed. The first AddTo on an entry moves it out of the run
//     (its run slot goes stale and is skipped when it reaches the front);
//     later AddTos sift it up in place. Arity 4 puts all four children of
//     a node in one cache line (4 × 16-byte entries).
// PopMin returns the smaller of the run front and the heap top.
//
// Build sorts with a stable LSD radix sort on the key bits. Build-time
// keys are sums of validated positive masses — never negative, never
// −0.0 — so their IEEE bit patterns order exactly like their values; ids
// are appended in ascending order, so the stable sort breaks key ties by
// smaller id.
//
// Ids are *dense per-peel slots* (0..n-1 in Append order), not graph node
// ids: the caller appends participants in ascending packed-node order and
// keeps a slot↔node mapping, so every array a pop or update touches
// (run, heap, positions) is sized to the residual — L1-resident for
// sampled ensemble members — instead of to the whole parent graph.
//
// Output-equivalence note: PopMin returns the *global* minimum under the
// total order (key, then smaller id) of the alive entries, so the pop
// sequence is a pure function of the key arithmetic — identical to the
// seed peeler's binary heap regardless of tiers, arity or internal
// layout; and because the dense slot assignment is monotone in packed
// node id, (key, slot) ties break exactly like (key, node). AddTo applies
// `key + delta` exactly like the seed heap's add-to-key, preserving
// bit-exact parity with the seed peeler.
class PeelHeap {
 public:
  /// Empty queue with zero id capacity; call EnsureCapacity before use.
  PeelHeap() = default;
  /// Queue over ids [0, capacity), initially empty.
  explicit PeelHeap(int64_t capacity);

  /// Grows the id capacity to at least `capacity` (never shrinks).
  /// Returns true if backing storage actually grew.
  bool EnsureCapacity(int64_t capacity);

  bool empty() const { return size() == 0; }
  int64_t size() const {
    return run_live_ + static_cast<int64_t>(heap_.size());
  }

  /// Appends an entry for `id` (ids strictly ascending within one build;
  /// `key` ≥ +0.0). Call Build() after the last append and before any
  /// PopMin/AddTo; the queue must be empty when the first append of a
  /// build happens.
  void Append(int64_t id, double key);
  /// Sorts everything appended so far into the run.
  void Build();

  /// Removes and returns the smallest-(key, id) entry.
  int64_t PopMin();

  /// Adds `delta` (≤ 0 during peeling) to a contained id's key.
  void AddTo(int64_t id, double delta);

  /// Discards every remaining entry in O(size) without sifting — used
  /// when a peel proves no further pop can matter (mass exhausted).
  void Clear();

  /// Pops served from the sorted run since the last Build().
  int64_t sorted_pops() const { return sorted_pops_; }

  /// Id capacity (the extent of the position index).
  int64_t capacity() const { return static_cast<int64_t>(pos_.size()); }
  /// Bytes of buffer capacity the queue holds.
  int64_t CapacityBytes() const;

 private:
  static constexpr size_t kArity = 4;
  static constexpr int kRadixBits = 11;
  static constexpr int kRadixPasses = (64 + kRadixBits - 1) / kRadixBits;
  static constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;
  /// Run-slot id marking an entry that AddTo moved into the heap.
  static constexpr int64_t kMoved = -1;
  struct Entry {
    double key;
    int64_t id;
  };
  static bool Less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
  /// Stable LSD radix sort of run_ by key bits (heap_ is the scratch
  /// buffer; it is empty at build time).
  void RadixSortRun();
  /// Index of the smallest child of `i`, or `size` when `i` is a leaf.
  size_t MinChild(size_t i) const;
  void SiftUp(size_t i);
  void Place(size_t i, Entry e);
  /// Pops the heap top (heap nonempty).
  int64_t PopHeap();
  /// Drops the run once its last live entry is gone.
  void RetireRunEntry();

  std::vector<Entry> run_;   // sorted at Build; consumed from run_head_
  size_t run_head_ = 0;
  int64_t run_live_ = 0;     // run entries neither popped nor moved
  std::vector<Entry> heap_;  // entries whose key changed since Build
  /// Dense id → heap index (≥ 0), run index i encoded as −2−i, or −1
  /// when not contained.
  std::vector<int64_t> pos_;
  std::vector<uint32_t> radix_counts_;  // kRadixPasses × kRadixBuckets
  int64_t sorted_pops_ = 0;
};

}  // namespace detail

/// The most edges one residual view holds: each edge adds at most one
/// user and one merchant, so every member-dense packed id (Uₘ + j) fits
/// int32 and every row offset fits uint32.
inline constexpr int64_t kMaxViewEdges =
    std::numeric_limits<int32_t>::max() / 2;

/// Externally ownable arena of every buffer CsrPeeler (and the masked FDET
/// driver, detect/fdet.h) needs, sized by the *member* it serves — the
/// residual view's edge count and its Uₘ + Vₘ incident nodes — never by
/// the parent graph, save one 32-bit word per parent merchant. Buffers
/// grow to the largest view served and never shrink; `grow_events` counts
/// growths, so a warm arena reused across many peels reports zero further
/// allocations — summed into each member's `arena_grow_events`
/// (ensemble/ensemfdet.h).
///
/// Invariants between uses (established on fresh storage and restored by
/// every peel / view build): `user_degree`, `merchant_degree`,
/// `in_block_merchant` and `parent_merchant_member` are all-zero over
/// their extent and the heap is empty.
///
/// @note Thread-safety: an arena is mutable state — one per thread.
struct PeelScratch {
  /// Node-indexed peel arrays in member-dense ids: users 0..Uₘ-1,
  /// merchants 0..Vₘ-1, packed ids (priority, removed, heap) Uₘ + j.
  std::vector<int64_t> user_degree;
  std::vector<int64_t> merchant_degree;
  std::vector<double> col_weight;
  std::vector<double> priority;
  /// Popped during the current peel; after it, 0 exactly on the block.
  std::vector<uint8_t> removed;
  detail::PeelHeap heap;
  /// Nodes incident to the current peel's alive edges, ascending.
  std::vector<UserId> incident_users;
  std::vector<MerchantId> incident_merchants;
  std::vector<int64_t> removal_order;
  /// Block-membership flags for the FDET driver's edge removal.
  std::vector<uint8_t> in_block_merchant;
  /// Residual view (CsrPeeler::SetResidualView): the member's edge mask
  /// renumbered once into *member-dense* node ids — mask-incident users
  /// 0..Uₘ-1 and merchants 0..Vₘ-1, both ascending in parent id — with
  /// every per-slot array compact and slot-aligned. One pass of parent
  /// gathers per member; after it, PeelAliveInView and the masked FDET
  /// driver stream only these residual-sized (mostly L1-resident) arrays,
  /// exactly like peeling a materialized child, without building one.
  /// The member numbering is monotone in parent id on each side, so
  /// member-space heap tie-breaks, sorts, and ascending outputs map
  /// 1:1 onto parent-space ones.
  std::vector<double> view_weight_of;        ///< edge weight per mask slot
  std::vector<int32_t> view_user_dense;      ///< member user id per slot
  std::vector<int32_t> view_merchant_dense;  ///< packed Uₘ+j per slot
  std::vector<uint32_t> view_merchant_slot;  ///< mask slot → merchant slot
  std::vector<uint8_t> view_alive;           ///< per mask slot (driver-owned)
  std::vector<uint8_t> view_alive_m;         ///< same flag per merchant slot
  std::vector<double> view_user_mass;        ///< per-peel mass per mask slot
  std::vector<double> view_merchant_mass;    ///< per-peel mass per m-slot
  std::vector<int32_t> view_merchant_user_dense;  ///< member user per m-slot
  std::vector<UserId> member_users;          ///< member user → parent user
  std::vector<MerchantId> member_merchants;  ///< member merchant → parent
  /// Row offsets: member user mu owns mask slots [off[mu], off[mu + 1]),
  /// member merchant j owns merchant slots [off[j], off[j + 1]).
  std::vector<uint32_t> member_user_offsets;
  std::vector<uint32_t> member_merchant_offsets;
  /// Parent merchant → in-view degree, then member id, while a view is
  /// being built; all-zero otherwise.
  std::vector<uint32_t> parent_merchant_member;
  /// Uₘ of the current view (member merchant packed ids start here).
  int64_t member_user_count = 0;

  /// Cumulative count of buffer growth events; stays flat once the arena
  /// is warm for the views it serves.
  int64_t grow_events = 0;
  /// Peel-queue pops, and those served from the sorted run, accumulated
  /// per peel and not yet flushed to the metrics registry (the FDET
  /// drivers flush and zero them once per call).
  int64_t peel_pops = 0;
  int64_t peel_sorted_pops = 0;

  /// Bytes of buffer capacity the arena holds.
  int64_t CapacityBytes() const;
};

/// Peeler over the residual view of one immutable CsrGraph.
///
/// @note Thread-safety: the referenced CsrGraph is shared and immutable,
///       but the scratch arena is mutable — one arena per thread.
class CsrPeeler {
 public:
  /// Borrows `graph` and an external arena (both must outlive the peeler).
  /// Construction allocates nothing; buffers grow per view.
  CsrPeeler(const CsrGraph& graph, PeelScratch* scratch);

  /// Caches `mask` (ascending, duplicate-free parent edge ids, at most
  /// kMaxViewEdges of them; borrowed — it must outlive the view) as the
  /// residual view: one pass of parent gathers renumbers the incident
  /// nodes into member-dense ids and builds slot-aligned endpoint/weight
  /// rows in the arena — no allocation when warm, no hash maps, no graph
  /// construction. Every slot starts alive. Subsequent PeelAliveInView()
  /// calls run entirely over these compact arrays.
  void SetResidualView(std::span<const EdgeId> mask);

  /// Peels the subgraph formed by the view's alive slots (only nodes
  /// incident to an alive edge take part, as in a compacted subgraph)
  /// down to nothing, returning the argmax-φ prefix block. Every edge
  /// weight is scaled by `weight_scale` on the fly — bit-identical to
  /// peeling a materialized subgraph whose stored weights were
  /// pre-multiplied by the same factor (Theorem 1's 1/p reweighting
  /// without a reweighted copy). The caller removes edges between calls by
  /// clearing both per-slot alive copies (`view_alive` and, at
  /// `view_merchant_slot`, `view_alive_m`) — exactly FDET's loop.
  ///
  /// The result is in *member-dense* ids (result.users are member user
  /// ids, result.merchants member merchant ids) — translate through
  /// `member_users` / `member_merchants`; removal_order holds parent
  /// packed ids. Under that order-preserving translation the output is
  /// bit-identical to the seed PeelDensestBlock
  /// (tests/referee/greedy_peeler.h) over the subgraph compacted from
  /// the alive edges: they are the ascending alive slots of the mask, and
  /// member numbering is monotone in parent id.
  ///
  /// @pre SetResidualView() was called for this mask.
  PeelResult PeelAliveInView(const DensityConfig& config, double weight_scale,
                             bool keep_trace = false);

 private:
  const CsrGraph* graph_;
  PeelScratch* s_;
  std::span<const EdgeId> view_mask_;
};

/// One-shot CSR peel of every edge of `graph`, node ids in `graph`'s own
/// space. Only nodes with at least one edge take part, so the result is
/// bit-identical to the seed PeelDensestBlock over the subgraph of
/// `graph`'s edges (SubgraphFromEdges over all of them) with ids mapped
/// back — trace and removal order included (tests/referee/greedy_peeler.h
/// holds that referee).
PeelResult PeelDensestBlockCsr(const CsrGraph& graph,
                               const DensityConfig& config,
                               bool keep_trace = false);

}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_CSR_PEELER_H_

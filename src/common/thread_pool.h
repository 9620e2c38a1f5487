// Fixed-size thread pool used to run the N sample→FDET jobs of ENSEMFDET in
// parallel (Algorithm 2, "begin run in parallel").
//
// Design notes:
//  - Tasks are type-erased std::function<void()>; callers wanting results
//    use Submit() which wraps the callable in a std::packaged_task and
//    returns a std::future.
//  - ParallelForWorkStealing runs fn(i) once per index, in no fixed order
//    on no fixed thread; randomized workloads that Split() their RNG by
//    item index therefore produce identical results at any thread count —
//    this is what makes the ensemble's output independent of parallelism,
//    a property tested in ensemble tests.
#ifndef ENSEMFDET_COMMON_THREAD_POOL_H_
#define ENSEMFDET_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace_context.h"

namespace ensemfdet {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>=1; pass 0 to use hardware_concurrency).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    Enqueue([task]() { (*task)(); });
    return fut;
  }

  /// Runs fn(i) for every i in [begin, end) across the pool and blocks
  /// until all complete. Each participant (the caller plus up to
  /// num_threads() pool helpers) owns a deque seeded with a contiguous
  /// slice of [begin, end); owners claim items off their own front, and a
  /// participant that runs dry steals the upper half of a victim's back
  /// range, so a skewed per-item cost (ensemble members, residual
  /// components) does not strand its tail on one worker. The caller
  /// participates, so a worker may call this without deadlocking the
  /// pool. fn must be safe to invoke concurrently for distinct i; the
  /// first failing item's exception is rethrown on the calling thread.
  /// Helpers ride the normal Enqueue path, so the causal-trace shape is
  /// the same at every width (detached pool_task wrappers only).
  /// Deterministic outputs are the caller's job: fn(i) must depend only
  /// on i, never on which thread or in which order items run.
  void ParallelForWorkStealing(int64_t begin, int64_t end,
                               const std::function<void(int64_t)>& fn);

  /// Blocks until every task enqueued so far has finished.
  void WaitIdle();

 private:
  struct Pending {
    std::function<void()> fn;
    int64_t enqueue_ns;  // obs trace clock at enqueue; -1 = not stamped
    // Submitter's causal context, captured at enqueue and reinstalled
    // around execution — this is the cross-thread hop that keeps one
    // detection's span tree connected (DESIGN.md "Causal tracing"); the
    // worker's pool_task span parents to it.
    obs::TraceContext ctx;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<Pending> queue_;
  std::mutex mu_;
  std::condition_variable cv_;        // task available or shutting down
  std::condition_variable idle_cv_;   // all work drained
  int64_t in_flight_ = 0;             // queued + executing
  bool shutdown_ = false;
};

/// Runs fn(i) for every i in [0, n): ParallelForWorkStealing on `pool`
/// when it has more than one thread and there is more than one item, a
/// plain loop on the calling thread otherwise (`pool` may be null). The
/// dispatch every skew-heavy call site shares (ensemble members,
/// partitioned-FDET components, streaming (component, member) pairs);
/// outputs are identical either way as long as fn(i) depends only on i.
template <typename Fn>
void ForEachOnPool(ThreadPool* pool, int64_t n, const Fn& fn) {
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelForWorkStealing(0, n, fn);
  } else {
    for (int64_t i = 0; i < n; ++i) fn(i);
  }
}

/// Process-wide default pool, sized from ENSEMFDET_THREADS env var if set,
/// otherwise hardware concurrency. Intended for examples/benches; library
/// components accept an explicit pool.
ThreadPool& DefaultThreadPool();

/// The worker count DefaultThreadPool() has, or will have once first
/// used; reading it does not start the pool.
int DefaultThreadPoolWidth();

}  // namespace ensemfdet

#endif  // ENSEMFDET_COMMON_THREAD_POOL_H_

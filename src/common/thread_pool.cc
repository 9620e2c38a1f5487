#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ensemfdet {

namespace {

// Resolved once; recording through raw pointers afterwards is lock-free.
// Worker utilization is derivable on the scrape side:
// sum(task_run_seconds) / (workers * uptime).
struct PoolMetrics {
  obs::Counter* tasks_total;
  obs::Gauge* queue_depth;
  obs::Gauge* workers;
  obs::Histogram* task_wait_seconds;
  obs::Histogram* task_run_seconds;
};

PoolMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static PoolMetrics m{
      reg.GetCounter("ensemfdet_pool_tasks_total",
                     "Tasks enqueued on the shared thread pool."),
      reg.GetGauge("ensemfdet_pool_queue_depth",
                   "Tasks waiting in the pool queue right now."),
      reg.GetGauge("ensemfdet_pool_workers",
                   "Worker threads of the most recently created pool."),
      reg.GetHistogram("ensemfdet_pool_task_wait_seconds",
                       obs::Histogram::Unit::kSeconds,
                       "Queue wait from enqueue to execution start."),
      reg.GetHistogram("ensemfdet_pool_task_run_seconds",
                       obs::Histogram::Unit::kSeconds,
                       "Task execution time on a worker thread."),
  };
  return m;
}

int HardwareWidth() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 4;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = HardwareWidth();
  // Width of the most recently created pool; in practice one default
  // pool serves the whole process (examples, CLI, service).
  Metrics().workers->Set(num_threads);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  const int64_t enqueue_ns =
      obs::MetricsRuntimeEnabled() ? obs::TraceNowNs() : -1;
  // Capture the submitter's causal context so the worker can reinstall
  // it: spans the task opens then parent to the submitting span, not to
  // whatever the worker ran last.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ENSEMFDET_CHECK(!shutdown_) << "Submit after shutdown";
    queue_.push_back(Pending{std::move(task), enqueue_ns, ctx});
    ++in_flight_;
  }
  PoolMetrics& m = Metrics();
  m.tasks_total->Increment();
  m.queue_depth->Add(1);
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    int64_t enqueue_ns = -1;
    obs::TraceContext ctx;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front().fn);
      enqueue_ns = queue_.front().enqueue_ns;
      ctx = queue_.front().ctx;
      queue_.pop_front();
    }
    PoolMetrics& m = Metrics();
    m.queue_depth->Add(-1);
    if (enqueue_ns >= 0) {
      m.task_wait_seconds->Record(obs::TraceNowNs() - enqueue_ns);
    }
    {
      // Install the submitter's context (or clear a stale one: ctx may
      // be invalid) for the task's duration. pool_task is detached — it
      // times the scheduling layer without inserting itself into the
      // detection tree, so the tree's *shape* is identical at any pool
      // width (only pool_task wrappers vary).
      obs::ScopedTraceContext scope(ctx);
      obs::TraceSpan span(m.task_run_seconds, "pool_task",
                         obs::TraceSpan::Link::kDetached);
      task();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {

// Shared state of one ParallelForWorkStealing. Per-participant deques of
// [lo, hi) ranges under per-deque mutexes (items are whole ensemble
// members or residual components — coarse enough that a mutex per claim
// is noise next to the item itself). Owners pop single items off their
// own front; thieves take the upper half of a victim's back range, so
// the two ends never contend for the same items and a stolen slice is
// itself re-stealable. Heap-allocated (shared_ptr) because enqueued
// helper lambdas can outlive the caller's stack frame: a helper that
// wakes after every item is claimed still scans the deques before
// returning.
struct WorkStealState {
  struct Range {
    int64_t lo;
    int64_t hi;
  };
  struct ParticipantDeque {
    std::mutex mu;
    std::deque<Range> ranges;
  };

  explicit WorkStealState(int64_t num_participants)
      : deques(static_cast<size_t>(num_participants)) {}

  std::vector<ParticipantDeque> deques;
  int64_t total = 0;
  const std::function<void(int64_t)>* fn = nullptr;

  std::atomic<int64_t> completed{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::mutex done_mu;
  std::condition_variable done_cv;

  // Claims one item off participant p's own front. The remainder stays
  // in the deque, visible to thieves while p executes the item.
  bool PopOwnFront(size_t p, int64_t* item) {
    ParticipantDeque& d = deques[p];
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.ranges.empty()) return false;
    Range& front = d.ranges.front();
    *item = front.lo++;
    if (front.lo >= front.hi) d.ranges.pop_front();
    return true;
  }

  // Steals the upper half of some victim's back range into p's deque.
  // Scans victims round-robin from p+1 so contention spreads instead of
  // piling onto participant 0. The victim lock is released before the
  // own-deque lock is taken — holding both would be an AB/BA deadlock
  // between two participants stealing from each other.
  bool StealHalf(size_t p) {
    const size_t n = deques.size();
    for (size_t step = 1; step < n; ++step) {
      ParticipantDeque& victim = deques[(p + step) % n];
      Range stolen{0, 0};
      {
        std::lock_guard<std::mutex> lock(victim.mu);
        if (victim.ranges.empty()) continue;
        Range& back = victim.ranges.back();
        const int64_t len = back.hi - back.lo;
        if (len >= 2) {
          const int64_t mid = back.lo + len / 2;
          stolen = {mid, back.hi};
          back.hi = mid;
        } else {
          stolen = back;
          victim.ranges.pop_back();
        }
      }
      std::lock_guard<std::mutex> own_lock(deques[p].mu);
      deques[p].ranges.push_back(stolen);
      return true;
    }
    return false;
  }

  void RunItem(int64_t item) {
    try {
      (*fn)(item);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_all();
    }
  }

  // Work until no claimable item remains anywhere. Items currently
  // *executing* on other participants are invisible here, so returning
  // means "nothing left to help with", not "all complete" — the caller
  // separately waits on completed == total.
  void Participate(size_t p) {
    int64_t item;
    for (;;) {
      if (PopOwnFront(p, &item)) {
        RunItem(item);
      } else if (!StealHalf(p)) {
        return;
      }
    }
  }
};

}  // namespace

void ThreadPool::ParallelForWorkStealing(
    int64_t begin, int64_t end, const std::function<void(int64_t)>& fn) {
  if (begin >= end) return;
  const int64_t total = end - begin;
  if (total == 1) {
    fn(begin);
    return;
  }

  // Participant 0 is the caller; every pool thread that picks up a helper
  // task gets its own deque slot.
  const int64_t num_helpers =
      std::min<int64_t>(total - 1, static_cast<int64_t>(num_threads()));
  const int64_t num_participants = num_helpers + 1;

  auto state = std::make_shared<WorkStealState>(num_participants);
  state->total = total;
  state->fn = &fn;

  // Seed each deque with a contiguous slice — the static split is only
  // the starting point; stealing erases any skew it embodies.
  for (int64_t p = 0; p < num_participants; ++p) {
    const int64_t lo = begin + p * total / num_participants;
    const int64_t hi = begin + (p + 1) * total / num_participants;
    if (lo < hi) {
      state->deques[static_cast<size_t>(p)].ranges.push_back({lo, hi});
    }
  }

  for (int64_t h = 1; h < num_participants; ++h) {
    Enqueue([state, h] { state->Participate(static_cast<size_t>(h)); });
  }
  state->Participate(0);

  std::unique_lock<std::mutex> lock(state->done_mu);
  state->done_cv.wait(lock, [&] {
    return state->completed.load(std::memory_order_acquire) == total;
  });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

ThreadPool& DefaultThreadPool() {
  static ThreadPool pool(DefaultThreadPoolWidth());
  return pool;
}

int DefaultThreadPoolWidth() {
  const int env = GetEnvInt("ENSEMFDET_THREADS", 0);
  return env > 0 ? env : HardwareWidth();
}

}  // namespace ensemfdet

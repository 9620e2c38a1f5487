// DetectionService: the async job front-end that turns the EnsemFDet
// library into a servable engine.
//
// Callers Submit() detection requests against graphs published in a
// GraphRegistry and get back a JobId immediately; the work itself is
// scheduled onto a shared ThreadPool. Poll() is the non-blocking state
// probe, Wait() blocks until completion, Cancel() withdraws a job that has
// not started. One service instance multiplexes any number of concurrent
// clients.
//
// Contracts (see DESIGN.md §Service layer):
//
//  * Snapshot isolation — the graph is resolved to a GraphSnapshot at
//    Submit() time; re-publishing the name afterwards does not affect the
//    job.
//  * Backpressure — at most `Options::max_pending_jobs` jobs may be
//    queued+running; Submit() beyond that fails fast with
//    ResourceExhausted instead of queueing unboundedly.
//  * Memoization — EnsemFDet jobs are keyed by (graph fingerprint, config
//    hash) in a ResultCache; a repeat request over an unchanged graph
//    completes without recomputation and is flagged `cache_hit`.
//  * Determinism — results depend only on (snapshot, config): the
//    ensemble splits its RNG per member, so reports are bit-identical at
//    any pool width and any submission interleaving.
//  * No pool deadlock — jobs run *on* pool workers and fan out on the
//    same pool; ThreadPool::ParallelForWorkStealing has the caller
//    participate in its own items, so a full pool still makes progress.
#ifndef ENSEMFDET_SERVICE_DETECTION_SERVICE_H_
#define ENSEMFDET_SERVICE_DETECTION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ensemble/ensemfdet.h"
#include "ingest/ingest_batch.h"
#include "ingest/streaming_detector.h"
#include "service/graph_registry.h"
#include "service/result_cache.h"
#include "storage/wal_writer.h"
#include "stream/windowed_detector.h"

namespace ensemfdet {

/// Which detection engine a job runs.
enum class DetectorKind {
  kEnsemFDet,  ///< the paper's ensemble (cacheable)
  kFraudar,    ///< FRAUDAR baseline
  kHits,       ///< HITS baseline
  kSpoken,     ///< SPOKEN baseline
  kFbox,       ///< FBOX baseline
};

/// Stable lower_snake name ("ensemfdet", "fraudar", ...).
const char* DetectorKindName(DetectorKind kind);

/// Inverse of DetectorKindName; NotFound for unknown names.
Result<DetectorKind> ParseDetectorKind(const std::string& name);

struct JobRequest {
  /// Registry name of the graph to detect over.
  std::string graph_name;
  DetectorKind detector = DetectorKind::kEnsemFDet;
  /// Per-job ensemble configuration (kEnsemFDet jobs).
  EnsemFDetConfig ensemble;
  /// Consult/populate the ResultCache (kEnsemFDet jobs only).
  bool use_cache = true;
};

using JobId = uint64_t;

// ---------------------------------------------------------------------------
// Streaming sessions: the incremental-ingest job kind. A session owns a
// WindowedDetector wired onto a DynamicGraphStore; clients push
// IngestBatches (async, per-session FIFO) and poll for the latest
// dirty-scoped detection report. Every fired detection's GraphVersion is
// registered in the GraphRegistry under `publish_name` (when set), so the
// live window stays queryable by ordinary batch jobs, and the aggregated
// report is inserted into the ResultCache keyed on
// (version content fingerprint, streaming-salted config hash) — content
// keys, independent of the base/delta split the store happened to be at.
// ---------------------------------------------------------------------------

using StreamId = uint64_t;

/// Durable-ingest options of a streaming session (DESIGN.md §"Durable
/// ingest"). When `dir` is set, every IngestBatch is appended to a
/// CRC-framed WAL (storage/wal_writer.h) and made durable per `fsync`
/// BEFORE IngestBatch returns OK — the OK is the ack, and an acked batch
/// survives a process kill (and, under kAlways, a power loss). A crashed
/// session is rebuilt by reopening with `recover = true`: the WAL suffix
/// after the resume checkpoint's embedded position is replayed through
/// the detector, reproducing bit-identical reports (detection randomness
/// is content-derived).
struct StreamWalOptions {
  /// WAL directory (.efw segments); empty = session is not WAL-backed.
  std::string dir;
  storage::WalFsyncPolicy fsync = storage::WalFsyncPolicy::kBatch;
  /// Group-commit interval under WalFsyncPolicy::kBatch.
  int64_t group_commit_records = 16;
  /// Segment rotation threshold in bytes.
  uint64_t segment_bytes = 4ull << 20;
  /// Replay the log through the detector before accepting new batches.
  /// With a `resume_checkpoint` set, the checkpoint must embed a WAL
  /// position (it was taken by SaveStreamCheckpoint on this WAL) and
  /// replay starts strictly after it; without one the whole log replays
  /// into a fresh detector. After OpenStream, StreamState::wal_last_seq
  /// says which batches are already applied — producers resend batches
  /// after it (WAL seq == 1-based batch number).
  bool recover = false;
};

struct StreamSessionConfig {
  /// Window/ensemble/reorder configuration of the session's detector.
  WindowedDetectorConfig detector;
  /// Registry name each detected GraphVersion is (re-)published under;
  /// empty = don't register.
  std::string publish_name;
  /// Insert each fired detection's report into the ResultCache.
  bool cache_reports = true;
  /// Backpressure: max batches queued (not yet applied) per session.
  int64_t max_queued_batches = 64;
  /// When set, the session resumes from a kStoreCheckpoint .efg snapshot
  /// (WindowedDetector::ResumeFromCheckpoint) instead of an empty window:
  /// window contents, detection clock, and reorder buffer pick up where
  /// the checkpointed session stood, and — because detection randomness
  /// is content-derived — subsequent reports are bit-identical to an
  /// uninterrupted session over the same stream. OpenStream fails with
  /// the reader's Status on a missing/corrupt/mismatched checkpoint.
  std::string resume_checkpoint;
  /// Durable ingest (see StreamWalOptions). With both `wal.recover` and
  /// `resume_checkpoint` set, the checkpoint restores the bulk of the
  /// state and the WAL replays only the suffix past it.
  StreamWalOptions wal;
};

/// Hash of everything that affects a streaming session's detection output
/// (the ensemble config, the dirty-scoping knobs) plus a streaming-mode
/// salt: streamed reports aggregate per-component ensembles, which is a
/// different (content-seeded) computation than batch EnsemFDet::Run, so
/// the two must never share ResultCache entries for the same graph.
uint64_t HashStreamingConfig(const WindowedDetectorConfig& config);

/// Snapshot of a session's progress (PollReport / WaitReport result).
struct StreamState {
  StreamId id = 0;
  /// Detections fired so far; the sequence number of `report`.
  uint64_t reports_generated = 0;
  int64_t events_ingested = 0;
  int64_t batches_pending = 0;  ///< queued or mid-apply
  bool closed = false;
  /// First error the session hit (sticky; later batches are dropped).
  Status error;

  /// Latest detection (nullptr before the first fired detection).
  std::shared_ptr<const EnsemFDetReport> report;
  uint64_t report_epoch = 0;
  uint64_t report_fingerprint = 0;
  /// Dirty-scoping diagnostics of the latest detection.
  StreamingDetectionStats report_stats;

  // Durable ingest (all zero for sessions without a WAL).
  /// Newest seq durably in the WAL. Right after a recovering OpenStream
  /// this is the resume point: batches 1..wal_last_seq are already
  /// applied, the producer resends from batch wal_last_seq + 1.
  uint64_t wal_last_seq = 0;
  /// Newest seq whose batch is fully applied to the detector.
  uint64_t wal_applied_seq = 0;
  /// Records replayed out of the WAL by a recovering OpenStream.
  uint64_t wal_records_recovered = 0;
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// "queued" / "running" / "done" / "failed" / "cancelled".
const char* JobStateName(JobState state);

/// What a completed job produced.
struct JobResult {
  JobId id = 0;
  DetectorKind detector = DetectorKind::kEnsemFDet;
  std::string graph_name;
  uint64_t graph_fingerprint = 0;
  uint64_t graph_version = 0;
  /// HashEnsemFDetConfig of the job's config (kEnsemFDet jobs).
  uint64_t config_hash = 0;
  /// True iff the report came out of the ResultCache.
  bool cache_hit = false;
  /// Wall-clock spent producing the result (≈0 on cache hits).
  double seconds = 0.0;

  /// Ensemble report (kEnsemFDet jobs).
  std::shared_ptr<const EnsemFDetReport> report;
  /// Per-user suspiciousness (baseline jobs): hub scores for HITS, SVD
  /// scores for SPOKEN/FBOX, densest-containing-block φ for FRAUDAR.
  std::vector<double> user_scores;
};

/// Async detection front-end (see file comment for the four contracts).
///
/// @note Thread-safety: every public method is safe to call concurrently
///       from any number of client threads; internal state is guarded by
///       one mutex and job execution happens outside it. The referenced
///       GraphRegistry and ThreadPool must outlive the service.
class DetectionService {
 public:
  struct Options {
    /// Backpressure bound: max jobs queued+running at once (≥ 1).
    int64_t max_pending_jobs = 64;
    /// ResultCache capacity in reports.
    size_t cache_capacity = 128;
    /// Completed/failed/cancelled jobs retained for Poll/Wait before the
    /// oldest are forgotten (≥ 1).
    int64_t max_finished_jobs = 1024;
  };

  /// Neither `registry` nor `pool` is owned; both must outlive the
  /// service. Pass pool = nullptr to run jobs inline on Submit() (useful
  /// for single-threaded determinism tests).
  DetectionService(GraphRegistry* registry, ThreadPool* pool);
  DetectionService(GraphRegistry* registry, ThreadPool* pool,
                   Options options);
  /// Blocks until every in-flight job has drained.
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Validates and enqueues a job. Fails with ResourceExhausted when the
  /// pending bound is hit, NotFound when the graph is not published,
  /// InvalidArgument on a malformed request.
  ///
  /// @pre `request.graph_name` is published in the registry at call time
  ///      (the snapshot — CSR and fingerprint — is captured here; later
  ///      re-publishes don't affect the job).
  /// @post On OK, pending_jobs() was below max_pending_jobs and the job
  ///       is queued (or already finished, when pool == nullptr).
  Result<JobId> Submit(JobRequest request);

  /// Non-blocking state probe. NotFound for unknown/forgotten ids.
  Result<JobState> Poll(JobId id) const;

  /// Blocks until the job leaves the queue/running states. Returns the
  /// result for kDone, the job's failure Status for kFailed, and
  /// FailedPrecondition for kCancelled.
  ///
  /// @note May be called from any number of threads for the same id; all
  ///       waiters receive the same shared immutable JobResult.
  Result<std::shared_ptr<const JobResult>> Wait(JobId id);

  /// Withdraws a queued job. FailedPrecondition if it already started or
  /// finished; NotFound for unknown ids.
  ///
  /// @post On OK the job never runs and Wait(id) returns
  ///       FailedPrecondition. Running jobs are never preempted.
  Status Cancel(JobId id);

  /// Convenience: Submit + Wait.
  Result<std::shared_ptr<const JobResult>> Detect(JobRequest request);

  // --- Streaming sessions (see the StreamSessionConfig block comment).

  /// Validates the config and opens a session. InvalidArgument on bad
  /// window/interval/ensemble/backpressure parameters.
  Result<StreamId> OpenStream(StreamSessionConfig config);

  /// Enqueues a batch onto the session's FIFO and returns immediately
  /// (with pool == nullptr the batch is applied inline). Batches are
  /// applied in submission order by at most one worker at a time, so the
  /// underlying detector needs no locking of its own. Fails with
  /// ResourceExhausted when `max_queued_batches` is hit, NotFound for
  /// unknown streams, FailedPrecondition once closed, or the session's
  /// sticky error if it already failed.
  Status IngestBatch(StreamId id, ensemfdet::IngestBatch batch);

  /// Non-blocking snapshot of the session's progress and latest report.
  Result<StreamState> PollReport(StreamId id) const;

  /// Blocks until `reports_generated >= min_reports`, the queue fully
  /// drains after a CloseStream/FinishStream, or the session errors
  /// (sticky error returned as the state's `error`, not as this call's
  /// Status — the state up to the failure is still meaningful).
  Result<StreamState> WaitReport(StreamId id, uint64_t min_reports);

  /// Drains the queue, forces a final detection over the current window
  /// (reorder buffer flushed), registers/caches it like any fired
  /// detection, closes and removes the session, and returns the final
  /// state. The session id is invalid afterwards.
  Result<StreamState> FinishStream(StreamId id);

  /// Drains the queue and removes the session without a final detection.
  Status CloseStream(StreamId id);

  /// Drains the session's queue, then checkpoints its detector state
  /// (window + delta-log + detection clock + reorder buffer) to `path`
  /// as a kStoreCheckpoint .efg snapshot. The session stays open and
  /// usable; a later OpenStream with `resume_checkpoint = path` resumes
  /// it bit-exactly (see StreamSessionConfig). Blocks until the queue is
  /// idle; fails on closed/unknown streams or with the session's sticky
  /// error.
  Status SaveStreamCheckpoint(StreamId id, const std::string& path);

  /// Sessions currently open.
  int64_t open_streams() const;

  /// Jobs currently queued or running.
  int64_t pending_jobs() const;

  ResultCacheStats cache_stats() const { return cache_.stats(); }
  ResultCache& cache() { return cache_; }
  GraphRegistry& registry() { return *registry_; }
  const Options& options() const { return options_; }

 private:
  struct Job {
    JobId id = 0;
    JobRequest request;
    GraphSnapshot snapshot;  // resolved at Submit time
    JobState state = JobState::kQueued;
    Status error;            // set when state == kFailed
    std::shared_ptr<const JobResult> result;  // set when state == kDone
    int64_t submit_ns = -1;  // obs trace clock at Submit; -1 = not stamped
  };

  /// One streaming session. The service mutex guards every field except
  /// `detector`, which is touched only by the single active drainer (the
  /// `draining` flag arbitrates) — batches apply FIFO without holding the
  /// service lock during detection.
  struct QueuedBatch {
    ensemfdet::IngestBatch batch;
    int64_t enqueue_ns = -1;  // obs trace clock at IngestBatch; -1 = off
    uint64_t wal_seq = 0;     // this batch's WAL record (0 = no WAL)
  };

  struct StreamSession {
    StreamId id = 0;
    StreamSessionConfig config;
    uint64_t config_hash = 0;  // HashStreamingConfig(config.detector)
    WindowedDetector detector;
    std::deque<QueuedBatch> queue;
    bool draining = false;
    bool closed = false;
    Status error;  // sticky
    uint64_t reports = 0;
    int64_t events = 0;
    std::shared_ptr<const EnsemFDetReport> latest;
    uint64_t latest_epoch = 0;
    uint64_t latest_fingerprint = 0;
    StreamingDetectionStats latest_stats;

    /// Durable ingest. `wal_mu` is taken BEFORE the service mutex (never
    /// after) and held across validate → Append → enqueue, so WAL order
    /// is exactly queue (= apply) order; it also serializes truncation
    /// and close against appends. The writer is touched only under it.
    std::mutex wal_mu;
    std::optional<storage::WalWriter> wal;
    uint64_t wal_last_seq = 0;     // newest durable seq (guarded by mu_)
    uint64_t wal_applied_seq = 0;  // newest applied seq (guarded by mu_)
    uint64_t wal_recovered = 0;    // records replayed at open

    StreamSession(StreamSessionConfig cfg, ThreadPool* pool)
        : config(std::move(cfg)),
          config_hash(HashStreamingConfig(config.detector)),
          detector(config.detector, pool) {}
  };

  /// OpenStream's durable-ingest leg: recovers/creates the session's WAL
  /// (replaying the unapplied suffix through the detector when
  /// `wal.recover` is set) and installs the writer. The session is not
  /// yet visible to other threads.
  Status OpenSessionWal(const std::shared_ptr<StreamSession>& session);
  /// Applies queued batches for one session until its queue is empty;
  /// runs on a pool worker (or inline when pool == nullptr).
  void DrainStream(const std::shared_ptr<StreamSession>& session);
  /// Registers/caches one fired detection and publishes it as the
  /// session's latest report.
  void RecordStreamReport(const std::shared_ptr<StreamSession>& session,
                          EnsemFDetReport report);
  Result<std::shared_ptr<StreamSession>> FindStream(StreamId id) const;
  /// Locked helper: snapshot a session into a StreamState.
  StreamState StreamStateLocked(const StreamSession& session) const;
  /// Blocks until the session's queue is drained and no drainer runs.
  void WaitStreamIdle(std::unique_lock<std::mutex>* lock,
                      const std::shared_ptr<StreamSession>& session);

  /// Submit, returning the job handle itself (Detect waits on the handle
  /// directly so finished-job retention can never evict it mid-wait).
  Result<std::shared_ptr<Job>> SubmitJob(JobRequest request);
  /// Blocks until `job` reaches a terminal state and interprets it.
  Result<std::shared_ptr<const JobResult>> WaitOnJob(
      const std::shared_ptr<Job>& job);
  /// Executes one job on the calling thread (a pool worker, or the
  /// submitter when pool == nullptr).
  void RunJob(const std::shared_ptr<Job>& job);
  Result<JobResult> Execute(const Job& job);
  Result<JobResult> ExecuteEnsemble(const Job& job);
  Result<JobResult> ExecuteBaseline(const Job& job);
  void FinishLocked(const std::shared_ptr<Job>& job, JobState state);

  GraphRegistry* const registry_;
  ThreadPool* const pool_;
  const Options options_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable job_done_cv_;   // a job changed state
  std::condition_variable drained_cv_;    // task_in_flight_ hit zero
  JobId next_id_ = 1;
  int64_t pending_ = 0;         // queued + running
  int64_t tasks_in_flight_ = 0; // pool lambdas not yet returned
  bool shutting_down_ = false;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_;
  std::deque<JobId> finished_order_;  // retention FIFO

  StreamId next_stream_id_ = 1;
  std::unordered_map<StreamId, std::shared_ptr<StreamSession>> streams_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_SERVICE_DETECTION_SERVICE_H_

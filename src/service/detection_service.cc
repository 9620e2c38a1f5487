#include "service/detection_service.h"

#include <algorithm>
#include <utility>

#include "baselines/fbox.h"
#include "baselines/fraudar.h"
#include "baselines/hits.h"
#include "baselines/spoken.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"
#include "ingest/wal_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/wal_reader.h"

namespace ensemfdet {

namespace {

// Service-layer instruments: per-job submit→start→finish latency split,
// backpressure rejections (job queue and stream queues share one
// counter), per-session ingest lag (batch enqueue → drain pickup), and the
// registry publish of each stream report's window.
struct ServiceMetrics {
  obs::Counter* jobs_submitted_total;
  obs::Counter* jobs_done_total;
  obs::Counter* jobs_failed_total;
  obs::Counter* jobs_cancelled_total;
  obs::Counter* backpressure_rejections_total;
  obs::Counter* stream_batches_total;
  obs::Counter* stream_reports_total;
  obs::Gauge* open_streams;
  obs::Histogram* job_queue_wait_seconds;
  obs::Histogram* job_run_seconds;
  obs::Histogram* job_total_seconds;
  obs::Histogram* stream_ingest_lag_seconds;
  obs::Histogram* stream_publish_seconds;
};

ServiceMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static ServiceMetrics m{
      reg.GetCounter("ensemfdet_service_jobs_submitted_total"),
      reg.GetCounter("ensemfdet_service_jobs_done_total"),
      reg.GetCounter("ensemfdet_service_jobs_failed_total"),
      reg.GetCounter("ensemfdet_service_jobs_cancelled_total"),
      reg.GetCounter("ensemfdet_service_backpressure_rejections_total"),
      reg.GetCounter("ensemfdet_service_stream_batches_total"),
      reg.GetCounter("ensemfdet_service_stream_reports_total"),
      reg.GetGauge("ensemfdet_service_open_streams"),
      reg.GetHistogram("ensemfdet_service_job_queue_wait_seconds"),
      reg.GetHistogram("ensemfdet_service_job_run_seconds"),
      reg.GetHistogram("ensemfdet_service_job_total_seconds"),
      reg.GetHistogram("ensemfdet_service_stream_ingest_lag_seconds"),
      reg.GetHistogram("ensemfdet_service_stream_publish_seconds"),
  };
  return m;
}

}  // namespace

const char* DetectorKindName(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kEnsemFDet:
      return "ensemfdet";
    case DetectorKind::kFraudar:
      return "fraudar";
    case DetectorKind::kHits:
      return "hits";
    case DetectorKind::kSpoken:
      return "spoken";
    case DetectorKind::kFbox:
      return "fbox";
  }
  return "unknown";
}

Result<DetectorKind> ParseDetectorKind(const std::string& name) {
  for (DetectorKind kind :
       {DetectorKind::kEnsemFDet, DetectorKind::kFraudar, DetectorKind::kHits,
        DetectorKind::kSpoken, DetectorKind::kFbox}) {
    if (name == DetectorKindName(kind)) return kind;
  }
  return Status::NotFound("unknown detector '" + name + "'");
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

DetectionService::DetectionService(GraphRegistry* registry, ThreadPool* pool)
    : DetectionService(registry, pool, Options()) {}

DetectionService::DetectionService(GraphRegistry* registry, ThreadPool* pool,
                                   Options options)
    : registry_(registry),
      pool_(pool),
      options_([&options] {
        options.max_pending_jobs = std::max<int64_t>(1, options.max_pending_jobs);
        options.max_finished_jobs =
            std::max<int64_t>(1, options.max_finished_jobs);
        return options;
      }()),
      cache_(options_.cache_capacity) {
  ENSEMFDET_CHECK(registry_ != nullptr) << "DetectionService needs a registry";
}

DetectionService::~DetectionService() {
  std::unique_lock<std::mutex> lock(mu_);
  shutting_down_ = true;
  drained_cv_.wait(lock, [this] { return tasks_in_flight_ == 0; });
}

namespace {

Status ValidateEnsembleConfig(const EnsemFDetConfig& config) {
  if (config.num_samples < 1) {
    return Status::InvalidArgument("ensemble num_samples must be >= 1");
  }
  if (!(config.ratio > 0.0) || config.ratio > 1.0) {
    return Status::InvalidArgument("ensemble ratio must be in (0, 1]");
  }
  return Status::OK();
}

}  // namespace

Result<JobId> DetectionService::Submit(JobRequest request) {
  ENSEMFDET_ASSIGN_OR_RETURN(std::shared_ptr<Job> job,
                             SubmitJob(std::move(request)));
  return job->id;
}

Result<std::shared_ptr<DetectionService::Job>> DetectionService::SubmitJob(
    JobRequest request) {
  // Validate and resolve the snapshot outside the service lock.
  if (request.detector == DetectorKind::kEnsemFDet) {
    ENSEMFDET_RETURN_NOT_OK(ValidateEnsembleConfig(request.ensemble));
  }
  ENSEMFDET_ASSIGN_OR_RETURN(GraphSnapshot snapshot,
                             registry_->Get(request.graph_name));

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->snapshot = std::move(snapshot);
  job->submit_ns = obs::MetricsRuntimeEnabled() ? obs::TraceNowNs() : -1;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    if (pending_ >= options_.max_pending_jobs) {
      Metrics().backpressure_rejections_total->Increment();
      return Status::ResourceExhausted(
          "detection queue full (" +
          std::to_string(options_.max_pending_jobs) +
          " jobs pending); retry later");
    }
    job->id = next_id_++;
    ++pending_;
    ++tasks_in_flight_;
    jobs_[job->id] = job;
  }
  Metrics().jobs_submitted_total->Increment();

  if (pool_ != nullptr) {
    pool_->Submit([this, job] { RunJob(job); });
  } else {
    RunJob(job);  // inline execution: Submit returns after completion
  }
  return job;
}

void DetectionService::RunJob(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job->state == JobState::kCancelled) {
      // Cancel() already finalized the job; just retire the task.
      if (--tasks_in_flight_ == 0) drained_cv_.notify_all();
      return;
    }
    job->state = JobState::kRunning;
  }

  ServiceMetrics& metrics = Metrics();
  const int64_t start_ns =
      job->submit_ns >= 0 ? obs::TraceNowNs() : int64_t{-1};
  if (start_ns >= 0) {
    metrics.job_queue_wait_seconds->Record(start_ns - job->submit_ns);
  }

  // A throw out of Execute (e.g. rethrown from a pool fan-out) must become a
  // failed job, not a lost task: the destructor waits on tasks_in_flight_.
  Result<JobResult> outcome = [&]() -> Result<JobResult> {
    try {
      // Fresh trace per job: service_job becomes the root every span of
      // this detection (including ensemble member fan-out on other
      // threads) parents back to — "why was this job slow?" is one
      // span tree in the exported timeline.
      obs::ScopedTraceContext trace_root(obs::NewRootContext());
      obs::TraceSpan run_span(metrics.job_run_seconds, "service_job");
      return Execute(*job);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("detection job threw: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("detection job threw a non-exception");
    }
  }();

  if (job->submit_ns >= 0) {
    metrics.job_total_seconds->Record(obs::TraceNowNs() - job->submit_ns);
  }
  (outcome.ok() ? metrics.jobs_done_total : metrics.jobs_failed_total)
      ->Increment();

  std::lock_guard<std::mutex> lock(mu_);
  if (outcome.ok()) {
    auto result = std::make_shared<JobResult>(std::move(outcome).value());
    result->id = job->id;
    job->result = std::move(result);
    FinishLocked(job, JobState::kDone);
  } else {
    job->error = outcome.status();
    FinishLocked(job, JobState::kFailed);
  }
  if (--tasks_in_flight_ == 0) drained_cv_.notify_all();
}

// Called with mu_ held; moves the job to a terminal state, applies the
// finished-job retention bound, and wakes waiters.
void DetectionService::FinishLocked(const std::shared_ptr<Job>& job,
                                    JobState state) {
  job->state = state;
  // Finished jobs only serve Poll/Wait (state/result/error): drop the
  // graph snapshot and request payload now, so retention doesn't pin
  // whole graphs in memory for up to max_finished_jobs completions.
  job->snapshot.csr.reset();
  job->request = JobRequest();
  --pending_;
  finished_order_.push_back(job->id);
  while (static_cast<int64_t>(finished_order_.size()) >
         options_.max_finished_jobs) {
    jobs_.erase(finished_order_.front());
    finished_order_.pop_front();
  }
  job_done_cv_.notify_all();
}

Result<JobResult> DetectionService::Execute(const Job& job) {
  if (job.request.detector == DetectorKind::kEnsemFDet) {
    return ExecuteEnsemble(job);
  }
  return ExecuteBaseline(job);
}

Result<JobResult> DetectionService::ExecuteEnsemble(const Job& job) {
  JobResult result;
  result.detector = DetectorKind::kEnsemFDet;
  result.graph_name = job.snapshot.name;
  result.graph_fingerprint = job.snapshot.fingerprint;
  result.graph_version = job.snapshot.version;
  result.config_hash = HashEnsemFDetConfig(job.request.ensemble);

  if (job.request.use_cache) {
    if (auto cached =
            cache_.Lookup(result.graph_fingerprint, result.config_hash)) {
      result.cache_hit = true;
      result.report = std::move(cached);
      return result;
    }
  }

  WallTimer timer;
  EnsemFDet detector(job.request.ensemble);
  // Run the zero-materialization hot path on the snapshot's shared CSR
  // (built once at publish time) — no per-job conversion.
  ENSEMFDET_CHECK(job.snapshot.csr != nullptr);
  ENSEMFDET_ASSIGN_OR_RETURN(EnsemFDetReport report,
                             detector.Run(*job.snapshot.csr, pool_));
  result.seconds = timer.ElapsedSeconds();
  auto shared = std::make_shared<const EnsemFDetReport>(std::move(report));
  if (job.request.use_cache) {
    cache_.Insert(result.graph_fingerprint, result.config_hash, shared);
  }
  result.report = std::move(shared);
  return result;
}

Result<JobResult> DetectionService::ExecuteBaseline(const Job& job) {
  JobResult result;
  result.detector = job.request.detector;
  result.graph_name = job.snapshot.name;
  result.graph_fingerprint = job.snapshot.fingerprint;
  result.graph_version = job.snapshot.version;

  // FRAUDAR peels the snapshot's CSR directly. HITS, SPOKEN and FBOX take
  // the adjacency form, which the registry does not hold: each such job
  // converts once and the copy dies with the job. ToBipartite() is an
  // exact round trip, so the scores equal a run on the published graph.
  ENSEMFDET_CHECK(job.snapshot.csr != nullptr);
  const CsrGraph& csr = *job.snapshot.csr;
  WallTimer timer;
  switch (job.request.detector) {
    case DetectorKind::kFraudar: {
      ENSEMFDET_ASSIGN_OR_RETURN(FraudarResult fraudar,
                                 RunFraudar(csr, FraudarConfig{}));
      // Suspiciousness = φ of the densest detected block containing the
      // user (blocks are disjoint, so "densest" is "its" block).
      result.user_scores.assign(static_cast<size_t>(csr.num_users()), 0.0);
      for (const DetectedBlock& block : fraudar.blocks) {
        for (UserId u : block.users) {
          result.user_scores[u] = std::max(result.user_scores[u], block.score);
        }
      }
      break;
    }
    case DetectorKind::kHits: {
      ENSEMFDET_ASSIGN_OR_RETURN(HitsResult hits,
                                 RunHits(csr.ToBipartite(), {}));
      result.user_scores = std::move(hits.user_hub_scores);
      break;
    }
    case DetectorKind::kSpoken: {
      ENSEMFDET_ASSIGN_OR_RETURN(SpokenResult spoken,
                                 RunSpoken(csr.ToBipartite(), {}));
      result.user_scores = std::move(spoken.user_scores);
      break;
    }
    case DetectorKind::kFbox: {
      ENSEMFDET_ASSIGN_OR_RETURN(FboxResult fbox,
                                 RunFbox(csr.ToBipartite(), {}));
      result.user_scores = std::move(fbox.user_scores);
      break;
    }
    case DetectorKind::kEnsemFDet:
      return Status::Internal("ensemble job routed to ExecuteBaseline");
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Result<JobState> DetectionService::Poll(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job #" + std::to_string(id) +
                            " (unknown or past retention)");
  }
  return it->second->state;
}

Result<std::shared_ptr<const JobResult>> DetectionService::Wait(JobId id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job #" + std::to_string(id) +
                              " (unknown or past retention)");
    }
    job = it->second;
  }
  return WaitOnJob(job);
}

Result<std::shared_ptr<const JobResult>> DetectionService::WaitOnJob(
    const std::shared_ptr<Job>& job) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_done_cv_.wait(lock, [&job] {
      return job->state != JobState::kQueued &&
             job->state != JobState::kRunning;
    });
  }
  // Terminal states are never mutated again, so reading outside mu_ is
  // safe once the wait observed one under the lock.
  switch (job->state) {
    case JobState::kDone:
      return job->result;
    case JobState::kFailed:
      return job->error;
    case JobState::kCancelled:
      return Status::FailedPrecondition("job #" + std::to_string(job->id) +
                                        " was cancelled");
    default:
      return Status::Internal("job in non-terminal state after wait");
  }
}

Status DetectionService::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job #" + std::to_string(id) +
                            " (unknown or past retention)");
  }
  const std::shared_ptr<Job>& job = it->second;
  if (job->state != JobState::kQueued) {
    return Status::FailedPrecondition(
        "job #" + std::to_string(id) + " is " + JobStateName(job->state) +
        "; only queued jobs can be cancelled");
  }
  FinishLocked(job, JobState::kCancelled);
  Metrics().jobs_cancelled_total->Increment();
  return Status::OK();
}

Result<std::shared_ptr<const JobResult>> DetectionService::Detect(
    JobRequest request) {
  // Wait on the handle, not the id: retention may forget the id before we
  // get to it, but it can never evict a Job we still hold.
  ENSEMFDET_ASSIGN_OR_RETURN(std::shared_ptr<Job> job,
                             SubmitJob(std::move(request)));
  return WaitOnJob(job);
}

int64_t DetectionService::pending_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

// ---------------------------------------------------------------------------
// Streaming sessions.
// ---------------------------------------------------------------------------

uint64_t HashStreamingConfig(const WindowedDetectorConfig& config) {
  // The ensemble hash covers method/N/S/reweight/seed and the full FDET
  // config; the streaming-mode salt keeps these keys disjoint from batch
  // EnsemFDet::Run entries over the same graph (different computation:
  // per-component content-seeded ensembles vs one global ensemble).
  uint64_t h = HashEnsemFDetConfig(config.ensemble);
  h = HashCombine(h, HashValue<uint64_t>(0x73747265616d6a62ull));  // salt
  h = HashCombine(h, HashValue(config.min_component_edges));
  return h;
}

Result<StreamId> DetectionService::OpenStream(StreamSessionConfig config) {
  const WindowedDetectorConfig& d = config.detector;
  if (d.num_users < 1 || d.num_merchants < 1) {
    return Status::InvalidArgument("stream universes must be non-empty");
  }
  if (d.window <= 0 || d.detection_interval <= 0) {
    return Status::InvalidArgument(
        "window and detection_interval must be positive");
  }
  if (d.max_out_of_order < 0) {
    return Status::InvalidArgument("max_out_of_order must be >= 0");
  }
  if (d.min_component_edges < 1) {
    return Status::InvalidArgument("min_component_edges must be >= 1");
  }
  if (d.component_cache_capacity < 1) {
    return Status::InvalidArgument("component_cache_capacity must be >= 1");
  }
  // The store knobs too: the detector constructs its DynamicGraphStore
  // lazily, and a bad value must be a synchronous InvalidArgument here,
  // not a sticky async session error on the first batch.
  if (!(d.compaction_factor > 0.0)) {
    return Status::InvalidArgument("compaction_factor must be positive");
  }
  if (d.min_compaction_delta < 1) {
    return Status::InvalidArgument("min_compaction_delta must be >= 1");
  }
  ENSEMFDET_RETURN_NOT_OK(ValidateEnsembleConfig(d.ensemble));
  if (config.max_queued_batches < 1) {
    return Status::InvalidArgument("max_queued_batches must be >= 1");
  }
  if (config.wal.dir.empty() && config.wal.recover) {
    return Status::InvalidArgument(
        "wal.recover requires a wal.dir to recover from");
  }
  if (!config.wal.dir.empty() && config.wal.group_commit_records < 1) {
    return Status::InvalidArgument("wal.group_commit_records must be >= 1");
  }

  auto session = std::make_shared<StreamSession>(std::move(config), pool_);
  if (!session->config.resume_checkpoint.empty()) {
    // Restore before the session is visible: a bad checkpoint fails the
    // open synchronously instead of poisoning the first batch.
    ENSEMFDET_RETURN_NOT_OK(session->detector.ResumeFromCheckpoint(
        session->config.resume_checkpoint));
  }
  if (!session->config.wal.dir.empty()) {
    ENSEMFDET_RETURN_NOT_OK(OpenSessionWal(session));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutting_down_) {
    return Status::FailedPrecondition("service is shutting down");
  }
  session->id = next_stream_id_++;
  streams_[session->id] = session;
  Metrics().open_streams->Add(1);
  return session->id;
}

Status DetectionService::OpenSessionWal(
    const std::shared_ptr<StreamSession>& session) {
  const StreamWalOptions& w = session->config.wal;
  storage::WalWriterOptions options;
  options.fsync = w.fsync;
  options.group_commit_records = w.group_commit_records;
  options.segment_bytes = w.segment_bytes;
  // Open first: this repairs a torn tail physically, so the replay below
  // sees exactly the records the writer will append after.
  ENSEMFDET_ASSIGN_OR_RETURN(storage::WalWriter writer,
                             storage::WalWriter::Open(w.dir, options));

  uint64_t after_seq = 0;
  if (w.recover) {
    if (!session->config.resume_checkpoint.empty()) {
      if (!session->detector.has_resumed_wal_position()) {
        return Status::InvalidArgument(
            "checkpoint " + session->config.resume_checkpoint +
            " carries no WAL position; it was not taken from a WAL-backed "
            "session, so recovery cannot tell where log replay resumes");
      }
      after_seq = session->detector.resumed_wal_position();
    }
    int64_t recovered_events = 0;
    Result<storage::WalReplayStats> replayed = storage::ReplayWal(
        w.dir, after_seq,
        [&](const storage::WalRecordView& record) -> Status {
          ENSEMFDET_ASSIGN_OR_RETURN(
              ensemfdet::IngestBatch batch,
              ingest::DecodeIngestBatch(record.payload));
          for (const Transaction& tx : batch.transactions) {
            ENSEMFDET_ASSIGN_OR_RETURN(
                std::optional<EnsemFDetReport> fired,
                session->detector.Ingest(tx));
            ++recovered_events;
            if (fired.has_value()) {
              // Re-fires exactly the detections the crashed run acked
              // after its checkpoint: registry/cache re-publication is
              // idempotent and the reports are bit-identical.
              RecordStreamReport(session, *std::move(fired));
            }
          }
          return Status::OK();
        });
    if (!replayed.ok() && replayed.status().code() == StatusCode::kIOError) {
      // A WAL that fails to replay is exactly the moment the black box
      // exists for: preserve the last-N spans (what recovery was doing)
      // before the error propagates.
      obs::DumpFlightRecorder(replayed.status().message().c_str());
    }
    ENSEMFDET_RETURN_NOT_OK(replayed.status());
    session->events += recovered_events;
    session->wal_recovered = replayed->records_replayed;
    session->wal_applied_seq = std::max(after_seq, replayed->last_seq);
  } else if (writer.last_seq() != 0) {
    return Status::FailedPrecondition(
        "WAL directory " + w.dir + " already holds records through seq " +
        std::to_string(writer.last_seq()) +
        "; open with wal.recover to resume it");
  }
  if (writer.next_seq() <= session->wal_applied_seq) {
    obs::DumpFlightRecorder("wal recovery: log ends before checkpoint seq");
    return Status::IOError(
        "WAL directory " + w.dir + " ends at seq " +
        std::to_string(writer.last_seq()) +
        " but the checkpoint reflects seq " +
        std::to_string(session->wal_applied_seq) +
        " — the log was deleted out from under its checkpoint");
  }
  session->wal_last_seq = writer.last_seq();
  session->wal.emplace(std::move(writer));
  return Status::OK();
}

Status DetectionService::SaveStreamCheckpoint(StreamId id,
                                              const std::string& path) {
  std::shared_ptr<StreamSession> session;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ENSEMFDET_ASSIGN_OR_RETURN(session, FindStream(id));
    if (session->closed) {
      return Status::FailedPrecondition("stream #" + std::to_string(id) +
                                        " is closed");
    }
    if (!session->error.ok()) return session->error;
    WaitStreamIdle(&lock, session);
    // Re-check after the wait: a concurrent CloseStream/FinishStream may
    // have closed (and removed) the session while the lock was released.
    if (session->closed) {
      return Status::FailedPrecondition("stream #" + std::to_string(id) +
                                        " is closed");
    }
    if (!session->error.ok()) return session->error;
    // Claim the detector so no drainer can mutate it while the
    // checkpoint is written (file IO must not run under the mutex).
    session->draining = true;
  }
  // wal_applied_seq is stable while the detector is claimed (only the
  // drainer advances it, and none can run): the position embedded in the
  // checkpoint is exactly the state being written.
  const Status saved = [&]() -> Status {
    if (!session->wal.has_value()) {
      return session->detector.SaveCheckpoint(path);
    }
    storage::WalPositionRecord position;
    {
      std::lock_guard<std::mutex> lock(mu_);
      position.last_applied_seq = session->wal_applied_seq;
    }
    // Order is the crash-safety invariant (pinned by the lockstep test in
    // tests/storage_checkpoint_test.cc): the checkpoint must be durably
    // on disk BEFORE any segment it covers is removed, or a crash between
    // the two loses acked records.
    ENSEMFDET_RETURN_NOT_OK(
        session->detector.SaveCheckpoint(path, &position));
    std::lock_guard<std::mutex> wal_lock(session->wal_mu);
    return session->wal->TruncateThrough(position.last_applied_seq);
  }();
  bool restart_drain = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Batches that queued while the detector was claimed found
    // `draining` set and did not start a drainer — restart one here.
    if (session->queue.empty()) {
      session->draining = false;
    } else {
      restart_drain = true;
      ++tasks_in_flight_;
    }
    job_done_cv_.notify_all();
  }
  if (restart_drain) {
    if (pool_ != nullptr) {
      pool_->Submit([this, session] { DrainStream(session); });
    } else {
      DrainStream(session);
    }
  }
  return saved;
}

Result<std::shared_ptr<DetectionService::StreamSession>>
DetectionService::FindStream(StreamId id) const {
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return Status::NotFound("no stream #" + std::to_string(id));
  }
  return it->second;
}

Status DetectionService::IngestBatch(StreamId id,
                                     ensemfdet::IngestBatch batch) {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    ENSEMFDET_ASSIGN_OR_RETURN(session, FindStream(id));
  }

  // WAL-backed sessions serialize producers on wal_mu (taken before mu_,
  // never after), held across validate → Append → enqueue: WAL order is
  // exactly queue order, so replay order is apply order. The append (file
  // IO) runs outside mu_; the capacity check below stays valid across the
  // gap because every other producer of this session also needs wal_mu,
  // and the drainer only shrinks the queue.
  const bool durable = session->wal.has_value();
  std::unique_lock<std::mutex> wal_lock;
  if (durable) wal_lock = std::unique_lock<std::mutex>(session->wal_mu);

  bool start_drain = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (session->closed) {
      return Status::FailedPrecondition("stream #" + std::to_string(id) +
                                        " is closed");
    }
    if (!session->error.ok()) return session->error;
    if (static_cast<int64_t>(session->queue.size()) >=
        session->config.max_queued_batches) {
      Metrics().backpressure_rejections_total->Increment();
      return Status::ResourceExhausted(
          "stream #" + std::to_string(id) + " queue full (" +
          std::to_string(session->config.max_queued_batches) +
          " batches pending); retry later");
    }
    if (!durable) {
      session->queue.push_back(QueuedBatch{
          std::move(batch),
          obs::MetricsRuntimeEnabled() ? obs::TraceNowNs() : int64_t{-1},
          /*wal_seq=*/0});
      Metrics().stream_batches_total->Increment();
      if (!session->draining) {
        session->draining = true;
        start_drain = true;
        ++tasks_in_flight_;
      }
    }
  }

  if (durable) {
    // Durability before the ack AND before the batch becomes applicable:
    // returning OK is the ack, and the fsync policy has run inside
    // Append. On failure nothing was enqueued — the producer must not
    // treat the batch as taken — and the error is sticky (the log tail
    // state is unknown, so later appends could interleave with a retry).
    const std::vector<std::byte> payload =
        ingest::EncodeIngestBatch(batch);
    Result<uint64_t> seq =
        session->wal->Append(payload.data(), payload.size(),
                             ingest::WalRecordTimestamp(batch));
    std::lock_guard<std::mutex> lock(mu_);
    if (!seq.ok()) {
      if (session->error.ok()) session->error = seq.status();
      job_done_cv_.notify_all();
      return seq.status();
    }
    if (session->closed) {
      // Closed while appending. The record is durable; a recovery will
      // apply it, and wal_last_seq-based resend skips it — consistent
      // either way. This session, though, will never apply it.
      return Status::FailedPrecondition("stream #" + std::to_string(id) +
                                        " is closed");
    }
    session->wal_last_seq = *seq;
    session->queue.push_back(QueuedBatch{
        std::move(batch),
        obs::MetricsRuntimeEnabled() ? obs::TraceNowNs() : int64_t{-1},
        *seq});
    Metrics().stream_batches_total->Increment();
    if (!session->draining) {
      session->draining = true;
      start_drain = true;
      ++tasks_in_flight_;
    }
  }

  if (durable) wal_lock.unlock();
  if (start_drain) {
    if (pool_ != nullptr) {
      pool_->Submit([this, session] { DrainStream(session); });
    } else {
      DrainStream(session);  // inline: returns once the queue is empty
    }
  }
  return Status::OK();
}

void DetectionService::DrainStream(
    const std::shared_ptr<StreamSession>& session) {
  while (true) {
    ensemfdet::IngestBatch batch;
    int64_t enqueue_ns = -1;
    uint64_t wal_seq = 0;
    bool failed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (session->queue.empty()) {
        session->draining = false;
        job_done_cv_.notify_all();
        if (--tasks_in_flight_ == 0) drained_cv_.notify_all();
        return;
      }
      batch = std::move(session->queue.front().batch);
      enqueue_ns = session->queue.front().enqueue_ns;
      wal_seq = session->queue.front().wal_seq;
      session->queue.pop_front();
      failed = !session->error.ok();
    }
    if (failed) continue;  // sticky error: drop the remaining batches
    if (enqueue_ns >= 0) {
      Metrics().stream_ingest_lag_seconds->Record(obs::TraceNowNs() -
                                                  enqueue_ns);
    }

    int64_t applied = 0;
    Status error;
    for (const Transaction& tx : batch.transactions) {
      // A throw out of detection must become a session error, not a lost
      // drain task (the destructor waits on tasks_in_flight_).
      Result<std::optional<EnsemFDetReport>> fired =
          [&]() -> Result<std::optional<EnsemFDetReport>> {
        try {
          return session->detector.Ingest(tx);
        } catch (const std::exception& e) {
          return Status::Internal(std::string("stream ingest threw: ") +
                                  e.what());
        } catch (...) {
          return Status::Internal("stream ingest threw a non-exception");
        }
      }();
      if (!fired.ok()) {
        error = fired.status();
        break;
      }
      ++applied;
      if (fired->has_value()) {
        RecordStreamReport(session, *std::move(*fired));
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    session->events += applied;
    // The WAL position only advances past fully applied batches: a batch
    // that errored mid-way must be re-replayed (deterministically failing
    // again) rather than silently half-skipped by the next checkpoint.
    if (error.ok() && wal_seq > session->wal_applied_seq) {
      session->wal_applied_seq = wal_seq;
    }
    if (!error.ok() && session->error.ok()) session->error = error;
    if (!error.ok()) job_done_cv_.notify_all();
  }
}

void DetectionService::RecordStreamReport(
    const std::shared_ptr<StreamSession>& session, EnsemFDetReport report) {
  auto shared = std::make_shared<const EnsemFDetReport>(std::move(report));
  // The drainer has exclusive detector access; last_version/last_stats are
  // the detection that produced `report`.
  const std::optional<GraphVersion>& version =
      session->detector.last_version();
  const std::optional<StreamingDetectionStats>& stats =
      session->detector.last_stats();
  ENSEMFDET_CHECK(version.has_value() && stats.has_value());
  const uint64_t fingerprint = version->ContentFingerprint();

  if (!session->config.publish_name.empty()) {
    Result<GraphSnapshot> published = [&] {
      obs::TraceSpan span(Metrics().stream_publish_seconds,
                          "service_stream_publish");
      return registry_->PublishVersion(session->config.publish_name,
                                       *version);
    }();
    if (!published.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (session->error.ok()) session->error = published.status();
      job_done_cv_.notify_all();
      return;
    }
  }
  if (session->config.cache_reports) {
    cache_.Insert(fingerprint, session->config_hash, shared);
  }

  Metrics().stream_reports_total->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  session->latest = std::move(shared);
  ++session->reports;
  session->latest_epoch = version->epoch();
  session->latest_fingerprint = fingerprint;
  session->latest_stats = *stats;
  job_done_cv_.notify_all();
}

// Called with mu_ held.
StreamState DetectionService::StreamStateLocked(
    const StreamSession& session) const {
  StreamState state;
  state.id = session.id;
  state.reports_generated = session.reports;
  state.events_ingested = session.events;
  state.batches_pending = static_cast<int64_t>(session.queue.size()) +
                          (session.draining ? 1 : 0);
  state.closed = session.closed;
  state.error = session.error;
  state.report = session.latest;
  state.report_epoch = session.latest_epoch;
  state.report_fingerprint = session.latest_fingerprint;
  state.report_stats = session.latest_stats;
  state.wal_last_seq = session.wal_last_seq;
  state.wal_applied_seq = session.wal_applied_seq;
  state.wal_records_recovered = session.wal_recovered;
  return state;
}

Result<StreamState> DetectionService::PollReport(StreamId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ENSEMFDET_ASSIGN_OR_RETURN(std::shared_ptr<StreamSession> session,
                             FindStream(id));
  return StreamStateLocked(*session);
}

Result<StreamState> DetectionService::WaitReport(StreamId id,
                                                 uint64_t min_reports) {
  std::unique_lock<std::mutex> lock(mu_);
  ENSEMFDET_ASSIGN_OR_RETURN(std::shared_ptr<StreamSession> session,
                             FindStream(id));
  job_done_cv_.wait(lock, [&] {
    return session->reports >= min_reports || !session->error.ok() ||
           (session->closed && session->queue.empty() &&
            !session->draining);
  });
  return StreamStateLocked(*session);
}

// Called with mu_ held (released while waiting).
void DetectionService::WaitStreamIdle(
    std::unique_lock<std::mutex>* lock,
    const std::shared_ptr<StreamSession>& session) {
  job_done_cv_.wait(*lock, [&] {
    return session->queue.empty() && !session->draining;
  });
}

Result<StreamState> DetectionService::FinishStream(StreamId id) {
  std::shared_ptr<StreamSession> session;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ENSEMFDET_ASSIGN_OR_RETURN(session, FindStream(id));
    if (session->closed) {
      return Status::FailedPrecondition("stream #" + std::to_string(id) +
                                        " is closed");
    }
    session->closed = true;  // no new batches
    WaitStreamIdle(&lock, session);
    // Claim the detector for the final detection (nothing else can start
    // a drainer now: the queue is empty and the session is closed).
    session->draining = true;
  }

  Status final_error;
  if (session->error.ok()) {
    Result<EnsemFDetReport> final_report = session->detector.DetectNow();
    if (final_report.ok()) {
      RecordStreamReport(session, *std::move(final_report));
    } else {
      final_error = final_report.status();
    }
  }
  if (session->wal.has_value()) {
    // Final group-commit sync + close; a failure here means the tail may
    // not be durable and must surface to the caller.
    std::lock_guard<std::mutex> wal_lock(session->wal_mu);
    Status wal_closed = session->wal->Close();
    if (!wal_closed.ok() && final_error.ok()) final_error = wal_closed;
  }

  std::lock_guard<std::mutex> lock(mu_);
  session->draining = false;
  if (!final_error.ok() && session->error.ok()) {
    session->error = final_error;
  }
  StreamState state = StreamStateLocked(*session);
  streams_.erase(id);
  Metrics().open_streams->Add(-1);
  job_done_cv_.notify_all();
  return state;
}

Status DetectionService::CloseStream(StreamId id) {
  std::unique_lock<std::mutex> lock(mu_);
  ENSEMFDET_ASSIGN_OR_RETURN(std::shared_ptr<StreamSession> session,
                             FindStream(id));
  session->closed = true;
  WaitStreamIdle(&lock, session);
  streams_.erase(id);
  Metrics().open_streams->Add(-1);
  job_done_cv_.notify_all();
  return Status::OK();
}

int64_t DetectionService::open_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(streams_.size());
}

}  // namespace ensemfdet

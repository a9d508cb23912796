#include "runtime/engine.hpp"

#include <string>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "cache/request_key.hpp"
#include "common/logging.hpp"
#include "obs/registry.hpp"

namespace mdac::runtime {

const char* to_string(CompletionStatus s) {
  switch (s) {
    case CompletionStatus::kDecided: return "decided";
    case CompletionStatus::kShedQueueFull: return "shed-queue-full";
    case CompletionStatus::kShedDeadline: return "shed-deadline";
    case CompletionStatus::kShutdown: return "shutdown";
  }
  return "?";
}

// ---------------------------------------------------------------------
// EngineMetrics
// ---------------------------------------------------------------------

std::size_t EngineMetrics::caller_stripe() {
  static std::atomic<std::size_t> next_stripe{0};
  thread_local const std::size_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kCallerStripes;
  return stripe;
}

void EngineMetrics::record_shed(CompletionStatus cause, std::size_t worker) {
  switch (cause) {
    case CompletionStatus::kShedQueueFull: shed_queue_full_.add(1, shard(worker)); break;
    case CompletionStatus::kShedDeadline: shed_deadline_.add(1, shard(worker)); break;
    case CompletionStatus::kShutdown: shed_shutdown_.add(1, shard(worker)); break;
    case CompletionStatus::kDecided: break;  // not a shed
  }
}

void EngineMetrics::reset() {
  for (obs::Counter* c : {&submitted_, &decided_, &l1_hits_, &l2_hits_, &cache_misses_,
                          &l2_retries_, &version_evictions_, &shed_queue_full_,
                          &shed_deadline_, &shed_shutdown_, &batches_,
                          &batched_requests_, &adoptions_}) {
    c->reset();
  }
  latency_.reset();
  queue_depth_.store(0, std::memory_order_relaxed);
}

EngineMetrics::Snapshot EngineMetrics::snapshot() const {
  Snapshot s;
  s.submitted = submitted_.value();
  s.decided = decided_.value();
  s.l1_hits = l1_hits_.value();
  s.l2_hits = l2_hits_.value();
  s.cache_hits = s.l1_hits + s.l2_hits;
  s.cache_misses = cache_misses_.value();
  s.l2_read_retries = l2_retries_.value();
  s.version_evictions = version_evictions_.value();
  s.shed_queue_full = shed_queue_full_.value();
  s.shed_deadline = shed_deadline_.value();
  s.shed_shutdown = shed_shutdown_.value();
  s.batches = batches_.value();
  s.snapshot_adoptions = adoptions_.value();
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.queue_capacity = queue_capacity_;
  s.worker_ops.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) s.worker_ops.push_back(decided_.value(i));
  s.mean_batch_size = s.batches > 0 ? static_cast<double>(batched_requests_.value()) /
                                          static_cast<double>(s.batches)
                                    : 0.0;
  const obs::Histogram::Snapshot latency = latency_.snapshot();
  s.latency_buckets = latency.counts;
  s.latency_sum_ns = latency.sum;
  s.latency_p50_ns = latency.percentile(0.50);
  s.latency_p90_ns = latency.percentile(0.90);
  s.latency_p99_ns = latency.percentile(0.99);
  return s;
}

// ---------------------------------------------------------------------
// DecisionEngine
// ---------------------------------------------------------------------

DecisionEngine::DecisionEngine(SnapshotPublisher& publisher, EngineConfig config,
                               cache::DecisionCache* cache)
    : publisher_(publisher),
      config_(config),
      cache_(cache),
      metrics_(std::max<std::size_t>(1, config.workers),
               std::max<std::size_t>(1, config.queue_capacity)) {
  config_.workers = std::max<std::size_t>(1, config_.workers);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  adopted_versions_ = std::make_unique<AdoptedVersion[]>(config_.workers);
  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

DecisionEngine::~DecisionEngine() { shutdown(Drain::kDrain); }

EngineResult DecisionEngine::shed_result(CompletionStatus status) {
  EngineResult r;
  r.status = status;
  const char* message = kShutdownMessage;
  if (status == CompletionStatus::kShedQueueFull) message = kShedQueueFullMessage;
  if (status == CompletionStatus::kShedDeadline) message = kShedDeadlineMessage;
  r.decision = core::Decision::indeterminate(core::IndeterminateExtent::kDP,
                                             core::Status::processing_error(message));
  return r;
}

std::future<EngineResult> DecisionEngine::submit(core::RequestContext request) {
  return submit(std::move(request), config_.default_deadline_ms);
}

std::future<EngineResult> DecisionEngine::submit(core::RequestContext request,
                                                 common::Duration deadline_ms) {
  auto promise = std::make_shared<std::promise<EngineResult>>();
  std::future<EngineResult> result = promise->get_future();
  submit(
      std::move(request),
      [promise](EngineResult r) { promise->set_value(std::move(r)); }, deadline_ms);
  return result;
}

void DecisionEngine::submit(core::RequestContext request, Callback callback) {
  submit(std::move(request), std::move(callback), config_.default_deadline_ms);
}

void DecisionEngine::submit(core::RequestContext request, Callback callback,
                            common::Duration deadline_ms) {
  metrics_.record_submitted();
  Job job;
  job.request = std::move(request);
  job.callback = std::move(callback);
  admit(job, SteadyClock::now(), deadline_ms);
  const CompletionStatus shed = enqueue(job);
  if (shed != CompletionStatus::kDecided) {
    // Deterministic admission control: the submitter learns immediately,
    // on its own thread, that this request was refused.
    invoke_callback(job.callback, shed_on_submit(job, shed));
  }
}

EngineResult DecisionEngine::decide(const core::RequestContext& request) {
  metrics_.record_caller_submitted();
  Job job;  // the request is copied in only on a miss
  admit(job, SteadyClock::now(), config_.default_deadline_ms);
  if (stopping_.load(std::memory_order_acquire)) {
    return shed_on_submit(job, CompletionStatus::kShutdown);
  }
  if (cache_ != nullptr) {
    const std::uint64_t version = publisher_.current_version();
    job.key = cache::fingerprint(request);
    std::uint64_t retries = 0;
    // Group 0: the caller has no worker, so it probes one fixed group;
    // with several groups, hits are those filled by group 0's workers.
    std::optional<core::Decision> hit =
        version != 0 ? cache_->lookup(job.key, version, 0, &retries) : std::nullopt;
    if (hit.has_value()) {
      const auto latency = SteadyClock::now() - job.enqueued;
      metrics_.record_caller_hit(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(latency).count()),
          retries);
      if (job.trace != nullptr) {
        if (obs::Span* s =
                job.trace->record(obs::SpanKind::kCacheProbe, obs::monotonic_ns())) {
          s->a = 2;  // L2, probed by the caller
          s->b = retries;
        }
      }
      EngineResult r;
      r.decision = std::move(*hit);
      r.snapshot_version = version;
      r.cache_hit = true;
      r.cache_level = 2;
      r.trace_id = job.trace_id;
      publish_trace(job, r, obs::Trace::kNoWorker);
      return r;
    }
    metrics_.record_caller_retries(retries);
  }
  job.request = request;
  Waiter waiter;
  job.callback = [&waiter](EngineResult r) { waiter.complete(std::move(r)); };
  const CompletionStatus shed = enqueue(job);
  if (shed != CompletionStatus::kDecided) return shed_on_submit(job, shed);
  return waiter.wait();
}

void DecisionEngine::Waiter::complete(EngineResult result) {
  result_ = std::move(result);
  state_.store(kReady, std::memory_order_release);
  state_.notify_one();
  // Last touch of the caller's frame: once released, it may return.
  state_.store(kReleased, std::memory_order_release);
}

EngineResult DecisionEngine::Waiter::wait() {
  std::uint32_t state = kPending;
  while ((state = state_.load(std::memory_order_acquire)) != kReleased) {
    if (state == kPending) {
      state_.wait(kPending, std::memory_order_acquire);
    } else {
      std::this_thread::yield();  // completer is between notify and release
    }
  }
  return std::move(result_);
}

void DecisionEngine::admit(Job& job, SteadyClock::time_point now,
                           common::Duration deadline_ms) {
  job.enqueued = now;
  job.deadline = deadline_ms > 0 ? now + std::chrono::milliseconds(deadline_ms)
                                 : SteadyClock::time_point::max();
  if (config_.tracer != nullptr) {
    // Admission: one relaxed fetch_add on the untraced path; only a
    // head-sampled request allocates its span recorder.
    const obs::TraceHandle handle = config_.tracer->admit();
    job.trace_id = handle.id;
    if (handle.sampled) {
      job.trace = std::make_unique<obs::Trace>();
      job.trace->trace_id = handle.id;
      job.trace->started_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now.time_since_epoch())
              .count());
      job.trace->record(obs::SpanKind::kAdmission, job.trace->started_ns);
    }
  }
}

CompletionStatus DecisionEngine::enqueue(Job& job) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed)) return CompletionStatus::kShutdown;
    if (queue_.size() >= config_.queue_capacity) return CompletionStatus::kShedQueueFull;
    queue_.push_back(std::move(job));
    metrics_.set_queue_depth(queue_.size());
  }
  ready_.notify_one();
  return CompletionStatus::kDecided;
}

EngineResult DecisionEngine::shed_on_submit(Job& job, CompletionStatus cause) {
  metrics_.record_shed(cause);
  EngineResult result = shed_result(cause);
  result.trace_id = job.trace_id;
  publish_trace(job, result, obs::Trace::kNoWorker);
  return result;
}

void DecisionEngine::shutdown(Drain drain) {
  std::lock_guard shutdown_lock(shutdown_mutex_);
  std::vector<Job> discarded;
  {
    std::lock_guard lock(mutex_);
    stopping_.store(true, std::memory_order_release);
    if (drain == Drain::kDiscard) {
      discarded.reserve(queue_.size());
      while (!queue_.empty()) {
        discarded.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics_.set_queue_depth(0);
    }
  }
  ready_.notify_all();
  for (Job& job : discarded) {
    metrics_.record_shed(CompletionStatus::kShutdown);
    EngineResult result = shed_result(CompletionStatus::kShutdown);
    result.trace_id = job.trace_id;
    publish_trace(job, result, obs::Trace::kNoWorker);
    invoke_callback(job.callback, std::move(result));
  }
  if (!joined_) {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }
}

std::size_t DecisionEngine::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

bool DecisionEngine::pop_batch(Worker& worker) {
  std::unique_lock lock(mutex_);
  ready_.wait(lock, [this] {
    return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
  });
  if (queue_.empty()) return false;  // stopping and drained
  const std::size_t n = std::min(config_.max_batch, queue_.size());
  worker.jobs.clear();
  worker.jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    worker.jobs.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  metrics_.set_queue_depth(queue_.size());
  // More work than one batch: wake a sibling before evaluating.
  const bool more = !queue_.empty();
  lock.unlock();
  if (more) ready_.notify_one();
  return true;
}

void DecisionEngine::adopt_snapshot(std::size_t index, Worker& worker) {
  const std::uint64_t version = publisher_.current_version();
  const std::uint64_t held = worker.snapshot ? worker.snapshot->version() : 0;
  if (held == version) return;
  auto latest = publisher_.current();
  if (latest == nullptr) return;  // nothing published yet
  if (worker.snapshot && latest->version() == worker.snapshot->version()) return;
  worker.snapshot = std::move(latest);
  // A fresh replica per snapshot honours core::Pdp's one-thread contract
  // and rebinds it to the new immutable store; dropping the old
  // shared_ptr is the RCU grace edge for the replaced snapshot.
  worker.pdp = std::make_unique<core::Pdp>(worker.snapshot->store(), config_.pdp);
  if (config_.resolver != nullptr) worker.pdp->set_resolver(config_.resolver);
  if (config_.functions != nullptr) worker.pdp->set_functions(config_.functions);
  metrics_.record_adoption(index);
  // The L1's entries all carry the replaced version — drop them now
  // (rather than letting version-mismatch lookups age them out) so the
  // memory is reclaimed at the adoption edge.
  worker.l1.flush();
  // Publish this worker's new floor, then sweep the shared cache up to
  // the *minimum* adopted version: entries under versions no worker
  // serves any more are unreachable and only waste slots.
  adopted_versions_[index].version.store(worker.snapshot->version(),
                                         std::memory_order_release);
  maybe_sweep_cache(index);
}

void DecisionEngine::maybe_sweep_cache(std::size_t index) {
  if (cache_ == nullptr) return;
  std::uint64_t min_adopted = 0;
  for (std::size_t i = 0; i < config_.workers; ++i) {
    const std::uint64_t v = adopted_versions_[i].version.load(std::memory_order_acquire);
    if (v == 0) continue;  // never adopted: holds no cache entries
    if (min_adopted == 0 || v < min_adopted) min_adopted = v;
  }
  if (min_adopted == 0) return;
  // One adopting worker wins the CAS and runs the sweep; concurrent
  // adopters at the same or a lower watermark skip it. A worker lagging
  // on an old snapshot keeps the watermark down, so its L2 entries
  // survive until it moves on — the sweep is conservative by
  // construction.
  std::uint64_t prev = swept_below_.load(std::memory_order_relaxed);
  while (min_adopted > prev &&
         !swept_below_.compare_exchange_weak(prev, min_adopted,
                                             std::memory_order_acq_rel)) {
  }
  if (min_adopted > prev) {
    const std::size_t removed = cache_->evict_older_than(min_adopted);
    metrics_.record_version_evictions(removed, index);
  }
}

void DecisionEngine::complete(Job& job, EngineResult result, std::size_t worker_index,
                              bool count_as_decided) {
  if (count_as_decided) {
    const auto latency = SteadyClock::now() - job.enqueued;
    metrics_.record_decided(
        worker_index,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(latency).count()));
  } else {
    metrics_.record_shed(result.status, worker_index);
  }
  result.trace_id = job.trace_id;
  publish_trace(job, result, static_cast<std::uint32_t>(worker_index));
  invoke_callback(job.callback, std::move(result));
}

void DecisionEngine::publish_trace(Job& job, const EngineResult& result,
                                   std::uint32_t worker) {
  obs::DecisionTracer* tracer = config_.tracer;
  if (tracer == nullptr || job.trace_id == 0) return;
  const bool anomaly = result.status != CompletionStatus::kDecided ||
                       result.decision.is_indeterminate();
  obs::Trace* trace = job.trace.get();
  obs::Trace synthesized;
  if (trace == nullptr) {
    // Tail sampling: the admission wasn't head-sampled, but the outcome
    // is one an operator always wants to see. Reconstruct the trace from
    // what this completion site knows; allocation on the anomaly path is
    // acceptable (anomalies are the exception, not the throughput).
    if (!anomaly || !tracer->always_sample_anomalies()) return;
    synthesized.trace_id = job.trace_id;
    synthesized.started_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            job.enqueued.time_since_epoch())
            .count());
    synthesized.record(obs::SpanKind::kAdmission, synthesized.started_ns);
    trace = &synthesized;
  }
  trace->anomaly = anomaly;
  trace->finished_ns = obs::monotonic_ns();
  trace->worker = worker;
  trace->snapshot_version = result.snapshot_version;
  trace->cache_level = result.cache_level;
  trace->decision = result.decision.type;
  switch (result.status) {
    case CompletionStatus::kDecided:
      trace->outcome = obs::TraceOutcome::kDecided;
      break;
    case CompletionStatus::kShedQueueFull:
      trace->outcome = obs::TraceOutcome::kShedQueueFull;
      break;
    case CompletionStatus::kShedDeadline:
      trace->outcome = obs::TraceOutcome::kShedDeadline;
      break;
    case CompletionStatus::kShutdown:
      trace->outcome = obs::TraceOutcome::kShutdown;
      break;
  }
  if (obs::Span* s = trace->record(obs::SpanKind::kOutcome, trace->finished_ns)) {
    s->set_tag(to_string(result.status));
  }
  tracer->publish(*trace);
  job.trace.reset();
}

void DecisionEngine::invoke_callback(Callback& callback, EngineResult result) {
  // A throwing completion callback must never take down its caller — a
  // worker (and with it every queued request), shutdown()'s discard
  // loop, or a submitter mid-shed. catch (...) on purpose: the promise
  // path never throws, and arbitrary user callbacks can throw anything.
  const std::uint64_t trace_id = result.trace_id;
  try {
    callback(std::move(result));
  } catch (const std::exception& e) {
    common::log_error("runtime: completion callback threw",
                      {{"trace", trace_id}, {"what", e.what()}});
  } catch (...) {
    common::log_error("runtime: completion callback threw a non-exception value",
                      {{"trace", trace_id}});
  }
}

void DecisionEngine::process_batch(std::size_t index, Worker& worker) {
  metrics_.record_batch(index, worker.jobs.size());
  adopt_snapshot(index, worker);
  const std::uint64_t version = worker.snapshot ? worker.snapshot->version() : 0;
  // Cache keys are (request fingerprint, snapshot version) in both
  // modes: a republication makes every old entry unreachable (and the
  // adoption-time sweep reclaims it) instead of serving decisions from
  // withdrawn policy — the "every decision is consistent with exactly
  // one snapshot" model extends to cache hits, with no invalidation
  // stampede on publish. The worker's private L1 is probed first (zero
  // synchronisation), then the shared store; an L2 hit is promoted into
  // the L1.
  const bool use_l1 = cache_ != nullptr && worker.l1_enabled &&
                      cache_->mode() == cache::DecisionCache::Mode::kTwoLevel;

  worker.requests.clear();
  worker.pending.clear();
  worker.pending_keys.clear();
  const auto now = SteadyClock::now();
  const auto now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch())
          .count());
  for (std::size_t i = 0; i < worker.jobs.size(); ++i) {
    Job& job = worker.jobs[i];
    if (job.trace != nullptr) {  // null on the untraced hot path
      if (obs::Span* s = job.trace->record(obs::SpanKind::kQueueWait, now_ns)) {
        s->a = now_ns >= job.trace->started_ns ? now_ns - job.trace->started_ns : 0;
      }
      if (obs::Span* s = job.trace->record(obs::SpanKind::kBatch, now_ns)) {
        s->a = index;
        s->b = worker.jobs.size();
      }
    }
    if (job.deadline < now) {
      complete(job, shed_result(CompletionStatus::kShedDeadline), index,
               /*count_as_decided=*/false);
      continue;
    }
    if (cache_ != nullptr && worker.snapshot != nullptr) {
      const cache::RequestKey key =
          job.key == cache::RequestKey{} ? cache::fingerprint(job.request) : job.key;
      if (use_l1) {
        if (const core::Decision* hit = worker.l1.lookup(key, version)) {
          metrics_.record_l1_hit(index);
          if (job.trace != nullptr) {
            if (obs::Span* s = job.trace->record(obs::SpanKind::kCacheProbe,
                                                 obs::monotonic_ns())) {
              s->a = 1;  // L1
            }
          }
          EngineResult r;
          r.decision = *hit;
          r.snapshot_version = version;
          r.cache_hit = true;
          r.cache_level = 1;
          complete(job, std::move(r), index, /*count_as_decided=*/true);
          continue;
        }
      }
      std::uint64_t retries = 0;
      if (auto hit = cache_->lookup(key, version, worker.group, &retries)) {
        metrics_.record_l2_hit(index, retries);
        if (use_l1) worker.l1.insert(key, version, *hit);
        if (job.trace != nullptr) {
          if (obs::Span* s = job.trace->record(obs::SpanKind::kCacheProbe,
                                               obs::monotonic_ns())) {
            s->a = 2;  // L2
            s->b = retries;
          }
        }
        EngineResult r;
        r.decision = std::move(*hit);
        r.snapshot_version = version;
        r.cache_hit = true;
        r.cache_level = 2;
        complete(job, std::move(r), index, /*count_as_decided=*/true);
        continue;
      }
      metrics_.record_cache_miss(index, retries);
      if (job.trace != nullptr) {
        if (obs::Span* s = job.trace->record(obs::SpanKind::kCacheProbe,
                                             obs::monotonic_ns())) {
          s->a = 0;  // miss
          s->b = retries;
        }
      }
      worker.pending_keys.push_back(key);
    }
    worker.pending.push_back(i);
    worker.requests.push_back(std::move(job.request));
  }
  if (worker.pending.empty()) return;

  if (worker.pdp == nullptr) {
    // No snapshot was ever published: answer fail-safe, don't crash the
    // service (the PEP's deny bias turns this into deny).
    for (std::size_t i = 0; i < worker.pending.size(); ++i) {
      EngineResult r;
      r.decision = core::Decision::indeterminate(
          core::IndeterminateExtent::kDP,
          core::Status::processing_error(kNoSnapshotMessage));
      complete(worker.jobs[worker.pending[i]], std::move(r), index,
               /*count_as_decided=*/true);
    }
    return;
  }

  // Evaluation failures are data (core::Status), so a throw here is
  // exceptional (resource exhaustion, a resolver bug). Either way the
  // worker must survive — catch (...) because a shared resolver is user
  // code and can throw anything — and the batch is answered fail-safe.
  std::vector<core::PdpResult> results;
  std::string evaluation_error;
  try {
    results = worker.pdp->evaluate_batch(std::span<const core::RequestContext>(
        worker.requests.data(), worker.requests.size()));
  } catch (const std::exception& e) {
    evaluation_error = std::string("evaluation failed: ") + e.what();
  } catch (...) {
    evaluation_error = "evaluation failed: non-exception value thrown";
  }
  if (!evaluation_error.empty()) {
    common::log_error("runtime: batch evaluation threw",
                      {{"worker", static_cast<std::uint64_t>(index)},
                       {"batch", static_cast<std::uint64_t>(worker.pending.size())},
                       {"error", evaluation_error}});
    for (const std::size_t job_index : worker.pending) {
      EngineResult r;
      r.decision = core::Decision::indeterminate(
          core::IndeterminateExtent::kDP,
          core::Status::processing_error(evaluation_error));
      complete(worker.jobs[job_index], std::move(r), index, /*count_as_decided=*/true);
    }
    return;
  }
  for (std::size_t i = 0; i < worker.pending.size(); ++i) {
    Job& evaluated = worker.jobs[worker.pending[i]];
    if (evaluated.trace != nullptr) {
      if (obs::Span* s =
              evaluated.trace->record(obs::SpanKind::kEvaluate, obs::monotonic_ns())) {
        s->a = index;
        s->b = results[i].partitions_probed;
        s->c = results[i].compile.compiled_policies;
      }
    }
    EngineResult r;
    r.decision = std::move(results[i].decision);
    r.snapshot_version = version;
    if (cache_ != nullptr && (r.decision.is_permit() || r.decision.is_deny())) {
      // pending_keys[i] was filled alongside pending[i] (cache_ non-null
      // implies the lookup path ran): the fingerprint is computed once
      // per request, shared by the probe and both fills.
      cache_->insert(worker.pending_keys[i], version, r.decision, worker.group);
      if (use_l1) worker.l1.insert(worker.pending_keys[i], version, r.decision);
    }
    complete(worker.jobs[worker.pending[i]], std::move(r), index,
             /*count_as_decided=*/true);
  }
}

namespace {

/// Pins the calling thread to `core`. Linux-only; other platforms are a
/// graceful no-op returning false.
bool pin_current_thread(std::size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace

void DecisionEngine::worker_loop(std::size_t index) {
  // Placement first, allocation second: pinning before the Worker (Pdp
  // replica, L1, scratch) is constructed means first-touch lands every
  // worker-local page on the core the worker will run on. Pinning is
  // skipped wholesale when the host has fewer cores than workers —
  // oversubscribed workers must stay migratable or they serialise on
  // whatever cores the pins happen to share.
  if (config_.pin_workers) {
    const std::size_t cores = std::thread::hardware_concurrency();
    if (cores >= config_.workers && pin_current_thread(index % cores)) {
      pinned_workers_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  Worker worker(config_.l1_capacity);
  // Workers map onto the shared cache's placement groups in contiguous
  // blocks (workers 0..k-1 → group 0, …): each group's slot table is
  // only ever touched by its own workers, and duplication of hot
  // decisions across groups is the intended trade for locality.
  if (cache_ != nullptr && cache_->group_count() > 1) {
    worker.group = index * cache_->group_count() / config_.workers;
  }
  while (pop_batch(worker)) {
    process_batch(index, worker);
    worker.jobs.clear();
  }
}

std::uint64_t DecisionEngine::register_metrics(obs::Registry& registry) const {
  return registry.add_collector([this](obs::MetricSink& sink) {
    const EngineMetrics::Snapshot s = metrics_.snapshot();
    sink.counter("mdac_engine_submitted_total", "Requests submitted to the engine.",
                 static_cast<double>(s.submitted));
    sink.counter("mdac_engine_decided_total",
                 "Requests completed with a decision (evaluated or cache-served).",
                 static_cast<double>(s.decided));
    sink.counter("mdac_engine_cache_hits_total",
                 "Decision-cache hits by level (l1 = worker-private, l2 = shared).",
                 static_cast<double>(s.l1_hits), {{"level", "l1"}});
    sink.counter("mdac_engine_cache_hits_total",
                 "Decision-cache hits by level (l1 = worker-private, l2 = shared).",
                 static_cast<double>(s.l2_hits), {{"level", "l2"}});
    sink.counter("mdac_engine_cache_misses_total",
                 "Decision-cache lookups answered by evaluation.",
                 static_cast<double>(s.cache_misses));
    sink.counter("mdac_engine_l2_read_retries_total",
                 "Seqlock re-reads on the shared cache level.",
                 static_cast<double>(s.l2_read_retries));
    sink.counter("mdac_engine_version_evictions_total",
                 "Cache entries reclaimed by the snapshot-version sweep.",
                 static_cast<double>(s.version_evictions));
    sink.counter("mdac_engine_sheds_total", "Requests shed by cause.",
                 static_cast<double>(s.shed_queue_full), {{"cause", "queue-full"}});
    sink.counter("mdac_engine_sheds_total", "Requests shed by cause.",
                 static_cast<double>(s.shed_deadline), {{"cause", "deadline"}});
    sink.counter("mdac_engine_sheds_total", "Requests shed by cause.",
                 static_cast<double>(s.shed_shutdown), {{"cause", "shutdown"}});
    sink.counter("mdac_engine_batches_total", "Micro-batches drained by workers.",
                 static_cast<double>(s.batches));
    sink.counter("mdac_engine_snapshot_adoptions_total",
                 "Snapshot adoptions across all workers.",
                 static_cast<double>(s.snapshot_adoptions));
    sink.gauge("mdac_engine_queue_depth", "Instantaneous submission-queue depth.",
               static_cast<double>(s.queue_depth));
    sink.gauge("mdac_engine_queue_capacity", "Admission bound of the queue.",
               static_cast<double>(s.queue_capacity));
    for (std::size_t i = 0; i < s.worker_ops.size(); ++i) {
      sink.counter("mdac_engine_worker_ops_total", "Decisions completed per worker.",
                   static_cast<double>(s.worker_ops[i]),
                   {{"worker", std::to_string(i)}});
    }
    sink.histogram("mdac_engine_latency_ns",
                   "Completion latency (enqueue to callback), log2 ns buckets.",
                   metrics_.latency().snapshot());
  });
}

std::function<core::Decision(const core::RequestContext&)> engine_decision_source(
    DecisionEngine& engine) {
  return [&engine](const core::RequestContext& request) {
    return std::move(engine.decide(request).decision);
  };
}

}  // namespace mdac::runtime

// mdac::runtime::DecisionEngine — the multi-threaded decision-engine
// runtime over snapshot-published policy state (runtime/snapshot.hpp).
//
// The paper's dependability argument (§3) has one PDP service answering
// many domains' PEPs concurrently; core::Pdp is deliberately
// single-threaded (see the thread-safety contract in core/pdp.hpp). The
// engine bridges the two without weakening either side:
//
//   * N worker threads, each owning a *private* core::Pdp replica — the
//     documented one-Pdp-per-thread shape — bound to an immutable
//     PolicySnapshot. Workers adopt the latest snapshot only at batch
//     boundaries, so every decision is computed against exactly one
//     published policy state.
//   * A bounded MPMC submission queue with micro-batching: a worker
//     drains up to `max_batch` requests at once into
//     Pdp::evaluate_batch, which amortises the staleness probe and keeps
//     the per-request scratch warm.
//   * Deterministic overload shedding: a submission that finds the queue
//     at capacity is *immediately* completed with Indeterminate{DP} and
//     a distinct status message (kShedQueueFullMessage) instead of
//     queueing unboundedly — the PEP's fail-safe deny bias then applies
//     (pep::EnforcementPoint treats Indeterminate as deny). Per-request
//     deadlines shed the same way at dequeue time: a request that waited
//     past its deadline is answered, not silently evaluated late.
//   * Graceful drain on shutdown: `shutdown(Drain::kDrain)` stops
//     admission, lets the workers empty the queue, then joins them;
//     `Drain::kDiscard` completes queued requests with kShutdown.
//   * EngineMetrics: queue depth, sheds by cause, per-worker ops, batch
//     sizes and completion-latency percentiles — the saturation signals
//     a dependability::HeartbeatMonitor-style health check or the bench
//     harness reads to observe overload (shed_rate / saturation). The
//     counts live in sharded obs::Counter / obs::Histogram instruments.
//
// An optional cache::DecisionCache is shared across all workers: hits
// complete without touching a Pdp, misses are filled with definitive
// decisions. Entries are keyed by (request fingerprint, snapshot
// version), so policy republication implicitly invalidates. Two shapes
// (see ARCHITECTURE.md §"Decision cache"):
//
//   * mutex-sharded mode — the original single-level path; every worker
//     hits the shared sharded store directly.
//   * two-level mode — each worker fronts the shared seqlock L2 with a
//     private zero-synchronisation L1 (cache::WorkerL1Cache), allocated
//     on the worker thread at startup (first-touch) and flushed at
//     snapshot adoption; L2 lookups are lock-free seqlock reads, and
//     workers map onto the cache's placement *groups* so a worker only
//     ever touches slots of its own group.
//
// In both modes the engine sweeps entries of withdrawn versions on
// snapshot adoption (DecisionCache::evict_older_than with the minimum
// version any worker still serves), so long-running engines don't
// accumulate unreachable entries.
//
// Two ways in:
//
//   * `submit` (callback or future form) — every request crosses to a
//     worker. Completion callbacks run on a worker thread — except
//     shed-on-submit (queue full / shutdown), which completes on the
//     submitting thread before `submit` returns; that is what makes
//     shedding deterministic.
//   * `decide` (blocking; what engine_decision_source wraps) — the
//     caller fingerprints the request once and probes the shared cache
//     on its own thread at the publisher's current version (placement
//     group 0 when the cache has several). A hit returns at once, never
//     touching the queue; only a miss is enqueued, carrying the
//     fingerprint so the worker does not recompute it, and the caller
//     blocks on a waiter on its own stack until a worker completes it.
//     Workers remain the only writers of the cache: an entry under
//     version v was filled by a worker that evaluated snapshot v, so a
//     caller-side hit names exactly one published snapshot, and a
//     decide() that starts after publish() returns probes the new
//     version (revocation is visible no later than on the worker path).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "core/pdp.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/snapshot.hpp"

namespace mdac::runtime {

/// Status messages carried by shed decisions. Distinct from every
/// evaluation-produced status so a PEP (or operator) can tell "the
/// engine refused under load" from "the policy tree failed".
inline constexpr const char* kShedQueueFullMessage = "overload-shed: queue full";
inline constexpr const char* kShedDeadlineMessage = "overload-shed: deadline exceeded";
inline constexpr const char* kShutdownMessage = "overload-shed: engine shut down";
inline constexpr const char* kNoSnapshotMessage = "no policy snapshot published";

/// Every shed status above shares this prefix — the stable contract
/// remote dispatchers classify on (see pep::classify_reply): a shed is
/// the *replica* saying "alive but refusing under load", which is a
/// retryable signal for a replicated client, not a decision to enforce.
inline constexpr std::string_view kShedStatusPrefix = "overload-shed: ";

constexpr bool is_shed_status(std::string_view message) {
  return message.size() >= kShedStatusPrefix.size() &&
         message.substr(0, kShedStatusPrefix.size()) == kShedStatusPrefix;
}

enum class CompletionStatus {
  kDecided,        ///< evaluated (or served from the shared cache)
  kShedQueueFull,  ///< admission control: queue was at capacity
  kShedDeadline,   ///< waited past its deadline before a worker got to it
  kShutdown,       ///< engine stopped before this request was evaluated
};

const char* to_string(CompletionStatus s);

struct EngineResult {
  CompletionStatus status = CompletionStatus::kDecided;
  core::Decision decision;
  /// Version of the snapshot the decision was computed against (0 for
  /// sheds). Cache hits carry it too: cache keys are scoped to the
  /// snapshot version, so a hit is always an entry some worker filled
  /// under the SAME snapshot — a republication makes old entries
  /// unreachable instead of serving withdrawn policy.
  std::uint64_t snapshot_version = 0;
  bool cache_hit = false;
  /// Which cache level served the hit: 0 = evaluated (or not cached),
  /// 1 = worker-private L1, 2 = shared L2 / mutex-sharded store.
  std::uint8_t cache_level = 0;
  /// Trace id assigned at admission when an obs::DecisionTracer is
  /// configured (0 otherwise) — the correlation key for explain traces
  /// and structured log lines.
  std::uint64_t trace_id = 0;

  bool decided() const { return status == CompletionStatus::kDecided; }
};

/// Aggregated engine counters, kept in obs::Counter / obs::Histogram
/// instruments (relaxed atomics) and read as a consistent-enough
/// snapshot by health checks, the bench harness and the registry
/// collector. Every instrument has `workers + 8` shards under one rule:
/// a call naming a worker writes that worker's shard, any other call
/// writes the calling thread's caller stripe (shard `workers + stripe`,
/// fixed per thread), so neither workers nor decide() callers on
/// different cores share a counter line.
class EngineMetrics {
 public:
  struct Snapshot {
    std::uint64_t submitted = 0;
    std::uint64_t decided = 0;
    /// l1_hits + l2_hits (l1 is always 0 for mutex-sharded caches, which
    /// count every hit as l2 — the shared level).
    std::uint64_t cache_hits = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t cache_misses = 0;      // lookups answered by evaluation
    std::uint64_t l2_read_retries = 0;   // seqlock re-reads (two-level mode)
    std::uint64_t version_evictions = 0; // entries reclaimed by the sweep
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t shed_shutdown = 0;
    std::uint64_t batches = 0;
    std::uint64_t snapshot_adoptions = 0;
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
    std::vector<std::uint64_t> worker_ops;  // decided per worker
    double mean_batch_size = 0;
    /// Approximate completion-latency percentiles (enqueue → callback)
    /// from a log2-bucketed histogram: right within ~1.5x of a bucket.
    double latency_p50_ns = 0;
    double latency_p90_ns = 0;
    double latency_p99_ns = 0;
    /// The latency histogram's log2 buckets and sum, folded over shards.
    std::array<std::uint64_t, obs::Histogram::kBuckets> latency_buckets{};
    std::uint64_t latency_sum_ns = 0;

    std::uint64_t sheds() const {
      return shed_queue_full + shed_deadline + shed_shutdown;
    }
    /// Fraction of submissions shed — the overload signal a
    /// HeartbeatMonitor-style health check keys on.
    double shed_rate() const {
      return submitted > 0 ? static_cast<double>(sheds()) / static_cast<double>(submitted)
                           : 0.0;
    }
    /// Instantaneous queue fill fraction (1.0 = at the admission bound).
    double saturation() const {
      return queue_capacity > 0
                 ? static_cast<double>(queue_depth) / static_cast<double>(queue_capacity)
                 : 0.0;
    }
  };

  EngineMetrics(std::size_t workers, std::size_t queue_capacity)
      : workers_(workers), queue_capacity_(queue_capacity) {}

  /// The `worker` argument below defaults to the calling thread's
  /// caller stripe; the engine passes the worker index from a worker.
  static constexpr std::size_t kCallerThread = static_cast<std::size_t>(-1);

  void record_submitted() { submitted_.add(1, shard(kCallerThread)); }
  void record_shed(CompletionStatus cause, std::size_t worker = kCallerThread);
  void record_l1_hit(std::size_t worker) { l1_hits_.add(1, shard(worker)); }
  void record_l2_hit(std::size_t worker, std::uint64_t retries) {
    const std::size_t s = shard(worker);
    l2_hits_.add(1, s);
    if (retries != 0) l2_retries_.add(retries, s);
  }
  void record_cache_miss(std::size_t worker, std::uint64_t retries) {
    const std::size_t s = shard(worker);
    cache_misses_.add(1, s);
    if (retries != 0) l2_retries_.add(retries, s);
  }
  void record_version_evictions(std::uint64_t count,
                                std::size_t worker = kCallerThread) {
    version_evictions_.add(count, shard(worker));
  }
  void record_batch(std::size_t worker, std::size_t batch_size) {
    const std::size_t s = shard(worker);
    batches_.add(1, s);
    batched_requests_.add(batch_size, s);
  }
  void record_decided(std::size_t worker, std::uint64_t latency_ns) {
    const std::size_t s = shard(worker);
    decided_.add(1, s);
    latency_.observe(latency_ns, s);
  }
  /// decide()'s counters, written to the calling thread's caller stripe.
  void record_caller_submitted() { record_submitted(); }
  /// A decide() served by the caller-side L2 probe: one decision, one L2
  /// hit and a latency sample.
  void record_caller_hit(std::uint64_t latency_ns, std::uint64_t retries) {
    const std::size_t s = shard(kCallerThread);
    decided_.add(1, s);
    l2_hits_.add(1, s);
    if (retries != 0) l2_retries_.add(retries, s);
    latency_.observe(latency_ns, s);
  }
  /// Seqlock re-reads of a caller-side probe that missed (the miss
  /// itself is counted by the worker that then probes and evaluates).
  void record_caller_retries(std::uint64_t retries) {
    if (retries != 0) l2_retries_.add(retries, shard(kCallerThread));
  }
  void record_adoption(std::size_t worker = kCallerThread) {
    adoptions_.add(1, shard(worker));
  }
  void set_queue_depth(std::size_t depth) {
    queue_depth_.store(depth, std::memory_order_relaxed);
  }

  Snapshot snapshot() const;
  /// The completion-latency histogram (what the registry collector
  /// renders as mdac_engine_latency_ns).
  const obs::Histogram& latency() const { return latency_; }

  /// Zeroes every counter and the latency histogram (queue capacity is
  /// configuration and stays). Benchmark support: call only while the
  /// engine is QUIESCENT (no submissions in flight, workers parked) so
  /// warmup traffic can be excluded from the measured window; resetting
  /// under load loses concurrent increments.
  void reset();

 private:
  static constexpr std::size_t kCallerStripes = 8;

  /// The shard rule above: a worker's index, else workers + the calling
  /// thread's stripe.
  std::size_t shard(std::size_t worker) const {
    return worker < workers_ ? worker : workers_ + caller_stripe();
  }
  static std::size_t caller_stripe();

  std::size_t workers_;
  std::size_t queue_capacity_;
  std::size_t shards_ = workers_ + kCallerStripes;
  // Worker shards of decided_ are the per-worker op counts.
  obs::Counter submitted_{shards_}, decided_{shards_}, l1_hits_{shards_},
      l2_hits_{shards_}, cache_misses_{shards_}, l2_retries_{shards_},
      version_evictions_{shards_}, shed_queue_full_{shards_}, shed_deadline_{shards_},
      shed_shutdown_{shards_}, batches_{shards_}, batched_requests_{shards_},
      adoptions_{shards_};
  /// Completion latency (enqueue → callback), log2 ns buckets.
  obs::Histogram latency_{shards_};
  std::atomic<std::size_t> queue_depth_{0};
};

struct EngineConfig {
  /// Worker threads, each with a private core::Pdp replica.
  std::size_t workers = 2;
  /// Admission bound: submissions beyond this are shed deterministically.
  std::size_t queue_capacity = 1024;
  /// Max requests one worker drains per batch (micro-batching into
  /// Pdp::evaluate_batch).
  std::size_t max_batch = 32;
  /// Configuration for every worker's Pdp replica.
  core::PdpConfig pdp;
  /// Optional shared PIP hook wired into every replica. Unlike a
  /// single-threaded Pdp's resolver, this one is consulted from all
  /// worker threads concurrently — it MUST be thread-safe. Not owned.
  core::AttributeResolver* resolver = nullptr;
  /// Optional function registry override (not owned; default: standard).
  const core::FunctionRegistry* functions = nullptr;
  /// Default per-request deadline in ms, measured from submission;
  /// <= 0 means no deadline. A request still queued when its deadline
  /// passes is shed (kShedDeadline) instead of evaluated late.
  common::Duration default_deadline_ms = 0;
  /// Pin worker i to core i (pthread affinity). Placement pass for
  /// many-core hosts: keeps each worker's first-touch allocations (Pdp
  /// replica, L1, scratch) and its L2 slot traffic on one core's node.
  /// Graceful no-op on non-Linux platforms and on hosts with fewer
  /// cores than workers (oversubscribed workers must stay migratable);
  /// `DecisionEngine::workers_pinned()` reports what actually stuck.
  bool pin_workers = false;
  /// Per-worker L1 capacity (entries) when the shared cache is in
  /// two-level mode; 0 disables the L1 (L2-only). Ignored for
  /// mutex-sharded caches, which have no worker-local level.
  std::size_t l1_capacity = 256;
  /// Optional decision tracer (not owned; must outlive the engine).
  /// When set, every submission is assigned a trace id
  /// (EngineResult::trace_id) and the tracer's sampling policy decides
  /// which requests additionally record explain-trace spans. Untraced
  /// requests pay one relaxed fetch_add plus null checks — see the
  /// hot-path cost contract in obs/trace.hpp.
  obs::DecisionTracer* tracer = nullptr;
};

class DecisionEngine {
 public:
  using Callback = std::function<void(EngineResult)>;

  enum class Drain {
    kDrain,    ///< stop admission, finish everything queued, then join
    kDiscard,  ///< stop admission, complete queued requests as kShutdown
  };

  /// Workers start immediately and serve `publisher`'s current snapshot
  /// (requests submitted before the first publish are answered
  /// Indeterminate{DP} kNoSnapshotMessage — fail-safe, not a crash).
  /// `cache`, if given, is shared across all workers; it must outlive
  /// the engine, and its clock must be thread-safe (common::WallClock —
  /// see common/clock.hpp).
  explicit DecisionEngine(SnapshotPublisher& publisher, EngineConfig config = {},
                          cache::DecisionCache* cache = nullptr);

  /// Drains and joins (shutdown(Drain::kDrain)).
  ~DecisionEngine();

  DecisionEngine(const DecisionEngine&) = delete;
  DecisionEngine& operator=(const DecisionEngine&) = delete;

  /// Submits with the config's default deadline. The future completes
  /// with kDecided, or with a shed result whose decision is
  /// Indeterminate{DP} carrying the distinct shed status. All submit
  /// overloads are safe from any number of threads, including
  /// concurrently with shutdown().
  std::future<EngineResult> submit(core::RequestContext request);
  /// As above with an explicit deadline (ms from now; <= 0 = none).
  std::future<EngineResult> submit(core::RequestContext request,
                                   common::Duration deadline_ms);

  /// Callback forms. Decided / deadline-shed callbacks run on a worker
  /// thread; queue-full and shutdown sheds complete on the submitting
  /// thread before submit returns (deterministic admission control).
  void submit(core::RequestContext request, Callback callback);
  void submit(core::RequestContext request, Callback callback,
              common::Duration deadline_ms);

  /// Blocking decision with the config's default deadline. A stopping
  /// engine answers the kShutdown shed (never a cached decision). With a
  /// cache, the calling thread probes it at publisher.current_version()
  /// — a lock-free seqlock read in two-level mode, a shard-locked read
  /// in mutex-sharded mode, group 0 of a multi-group cache — and a hit
  /// returns with that snapshot_version and cache_level 2. A miss is
  /// queued like submit() (a full queue sheds it here, on the caller's
  /// thread) and the call blocks until a worker completes it. A hit is
  /// counted like a worker's L2 hit (submitted, decided, l2_hits, a
  /// latency sample) and, when sampled, traced with worker =
  /// obs::Trace::kNoWorker. Safe from any number of threads.
  EngineResult decide(const core::RequestContext& request);

  /// Idempotent; safe to call concurrently with submissions (in-flight
  /// racers are either admitted and drained, or shed as kShutdown).
  void shutdown(Drain drain = Drain::kDrain);

  bool accepting() const { return !stopping_.load(std::memory_order_acquire); }
  std::size_t worker_count() const { return config_.workers; }
  std::size_t queue_capacity() const { return config_.queue_capacity; }
  std::size_t queue_depth() const;
  /// Workers whose core pinning actually took effect (0 when
  /// pin_workers is off, the platform is unsupported, or cores <
  /// workers — the graceful no-op cases).
  std::size_t workers_pinned() const {
    return pinned_workers_.load(std::memory_order_acquire);
  }

  /// Live counters; see EngineMetrics::Snapshot for the health-check
  /// surface (shed_rate, saturation, latency percentiles). Safe from any
  /// thread; the snapshot is consistent-enough (relaxed reads), not a
  /// linearisation point.
  EngineMetrics::Snapshot metrics() const { return metrics_.snapshot(); }

  /// See EngineMetrics::reset — quiescent engines only (bench warmup).
  void reset_metrics() { metrics_.reset(); }

  /// Registers the engine's counters, gauges and the completion-latency
  /// histogram with a metrics registry (mdac_engine_*); returns the
  /// collector id (obs::Registry::remove_collector). The engine must
  /// outlive the registry or be unregistered first.
  std::uint64_t register_metrics(obs::Registry& registry) const;

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// Completion slot of a blocking decide(), on the caller's stack; its
  /// job's callback captures only its address, which std::function
  /// stores without allocating.
  class Waiter {
   public:
    /// Completer side: writes the result, moves pending → ready,
    /// notifies, and only then → released — the caller returns only once
    /// it reads released, so this never touches a dead frame.
    void complete(EngineResult result);
    /// Caller side: blocks until complete() has released the slot.
    EngineResult wait();

   private:
    static constexpr std::uint32_t kPending = 0;
    static constexpr std::uint32_t kReady = 1;
    static constexpr std::uint32_t kReleased = 2;
    EngineResult result_;
    std::atomic<std::uint32_t> state_{kPending};
  };

  struct Job {
    core::RequestContext request;
    Callback callback;
    /// Fingerprint from decide()'s caller-side probe, so the worker does
    /// not recompute it; all-zero = not computed (submit()). A real
    /// all-zero fingerprint is merely computed again.
    cache::RequestKey key;
    SteadyClock::time_point enqueued;
    SteadyClock::time_point deadline;  // time_point::max() = none
    /// Trace id from tracer admission (0 = no tracer configured).
    std::uint64_t trace_id = 0;
    /// Span recorder, allocated only for head-sampled requests; null on
    /// the untraced hot path (spans gate on this pointer).
    std::unique_ptr<obs::Trace> trace;
  };

  /// One worker's execution state: the adopted snapshot and the private
  /// Pdp replica bound to it, plus reusable batch scratch and the
  /// zero-synchronisation L1. Constructed inside worker_loop — on the
  /// worker's own thread — so first-touch places all of it on the
  /// worker's NUMA node when pinning is on.
  struct Worker {
    explicit Worker(std::size_t l1_capacity)
        : l1(l1_capacity == 0 ? 1 : l1_capacity), l1_enabled(l1_capacity > 0) {}

    std::shared_ptr<const PolicySnapshot> snapshot;
    std::unique_ptr<core::Pdp> pdp;
    cache::WorkerL1Cache l1;
    bool l1_enabled;
    std::size_t group = 0;  // L2 placement group this worker hits
    std::vector<Job> jobs;
    std::vector<core::RequestContext> requests;  // contiguous, for evaluate_batch
    std::vector<std::size_t> pending;            // jobs[i] awaiting evaluation
    std::vector<cache::RequestKey> pending_keys; // fingerprints, parallel to pending
  };

  void worker_loop(std::size_t index);
  /// Stamps admission time, deadline and (with a tracer) the trace id
  /// and, for head-sampled requests, the span recorder.
  void admit(Job& job, SteadyClock::time_point now, common::Duration deadline_ms);
  /// Queues `job`, or returns the shed cause (queue full / stopping)
  /// without touching it beyond the check.
  CompletionStatus enqueue(Job& job);
  /// Completes a shed-on-submit on the calling thread: counts the shed,
  /// publishes the trace and returns the shed result.
  EngineResult shed_on_submit(Job& job, CompletionStatus cause);
  /// Pops up to max_batch jobs into `worker.jobs`; false = exit.
  bool pop_batch(Worker& worker);
  /// Re-binds `worker` to the newest snapshot if it changed (the batch
  /// boundary of the RCU scheme); flushes the worker's L1 and triggers
  /// the shared-cache version sweep on change.
  void adopt_snapshot(std::size_t index, Worker& worker);
  /// Sweeps shared-cache entries older than the minimum snapshot version
  /// any worker has adopted (lagging workers pin the watermark — their
  /// entries must survive until they move on).
  void maybe_sweep_cache(std::size_t index);
  void process_batch(std::size_t index, Worker& worker);
  void complete(Job& job, EngineResult result, std::size_t worker_index,
                bool count_as_decided);
  /// Runs `callback`, containing anything it throws (every completion
  /// path — worker, shutdown discard, shed-on-submit — goes through
  /// here so no user callback can unwind engine internals).
  static void invoke_callback(Callback& callback, EngineResult result);
  static EngineResult shed_result(CompletionStatus status);
  /// Finalises and publishes the job's explain trace (if any): stamps
  /// outcome/summary fields, tail-synthesizes a trace for unsampled
  /// anomalies, no-op without a tracer. `worker` = Trace::kNoWorker for
  /// completions that never reached one (shed-on-submit, discard).
  void publish_trace(Job& job, const EngineResult& result, std::uint32_t worker);

  SnapshotPublisher& publisher_;
  EngineConfig config_;
  cache::DecisionCache* cache_;
  EngineMetrics metrics_;

  /// Per-worker adopted snapshot version, padded so the release store at
  /// adoption never contends with neighbours' slots. 0 = never adopted
  /// (excluded from the sweep minimum: a worker that has served nothing
  /// holds no cache entries, and its first adoption takes the newest
  /// version, which is never below an already-swept watermark).
  struct alignas(64) AdoptedVersion {
    std::atomic<std::uint64_t> version{0};
  };
  std::unique_ptr<AdoptedVersion[]> adopted_versions_;
  /// Versions below this have been swept from the shared cache; CAS'd
  /// so exactly one adopting worker runs each sweep.
  std::atomic<std::uint64_t> swept_below_{0};
  std::atomic<std::size_t> pinned_workers_{0};

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Job> queue_;
  std::atomic<bool> stopping_{false};
  bool joined_ = false;
  std::mutex shutdown_mutex_;  // serialises shutdown() callers
  std::vector<std::thread> threads_;
};

/// A pep::EnforcementPoint::DecisionSource over DecisionEngine::decide:
/// the drop-in way to put an existing PEP behind the runtime. Cache hits
/// are served on the PEP's own thread; misses block until a worker
/// evaluates them. Sheds surface as Indeterminate{DP}, so the PEP's
/// deny bias applies unchanged.
std::function<core::Decision(const core::RequestContext&)> engine_decision_source(
    DecisionEngine& engine);

}  // namespace mdac::runtime

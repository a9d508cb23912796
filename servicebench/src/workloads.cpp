#include "workloads.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <future>
#include <latch>
#include <memory>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include <sched.h>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "core/pdp.hpp"
#include "corpus.hpp"
#include "dependability/replicated_pdp.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "pep/pep.hpp"
#include "replay.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

namespace servicebench {

namespace {

namespace cache = mdac::cache;
namespace common = mdac::common;
namespace dependability = mdac::dependability;
namespace net = mdac::net;
namespace obs = mdac::obs;
namespace pep = mdac::pep;
namespace runtime = mdac::runtime;

// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetups = 5;
// hot_pep: distinct requests, Zipf-skewed; eight times one worker's L1.
constexpr std::size_t kHotPool = 2048;
constexpr double kSkew = 0.9;
constexpr std::size_t kSequence = 1 << 16;  // per-thread index sequence (power of two)
// cold_sets / policy_churn: submissions kept outstanding.
constexpr std::ptrdiff_t kColdWindow = 128;
constexpr std::ptrdiff_t kChurnWindow = 32;
constexpr std::size_t kChurnPool = 4096;
// One probe update per this many reads. Pacing updates by reads rather
// than by wall time keeps the reads-per-update (and so the cache hit
// ratio) the same in every run: with a wall-clock interval, a slow
// stretch means fewer reads per update, more misses, and slower still.
constexpr std::uint64_t kReadsPerUpdate = 4096;
constexpr std::uint64_t kProbeEvery = 16;  // every 16th read asks about the probe policy
// remote_failover: requests per simulator round, paced on the sim clock.
constexpr int kRemoteRound = 200;
constexpr common::Duration kRemotePaceMs = 20;
constexpr common::TimePoint kFaultHorizon = common::TimePoint{1} << 50;
constexpr std::size_t kSimPrefix = 4000;   // sim_p99_ms covers these first decisions
constexpr std::size_t kReplayRounds = 5;   // re-driven on a fresh cluster, must match
constexpr std::size_t kReplaySample = 2048;
// Thread shapes, fixed so the workload is the same on every host (the
// shapes nproc - 1 and nproc - 2 give on the 4-CPU reference host); all
// of them share the one CPU of confine_to_one_cpu().
constexpr std::size_t kPepThreads = 3;   // hot_pep: PEPs over one engine worker
constexpr std::size_t kColdWorkers = 2;  // cold_sets (see README, Worker scaling)
constexpr std::size_t kChurnWorkers = 2; // policy_churn, beside its reader and PAP thread

/// Restricts the calling thread, and so every thread it starts later, to
/// the lowest CPU it may run on.
///
/// Every workload runs on one CPU. Spread over the virtual CPUs of a
/// shared host, each cross-thread handoff pays for the hypervisor waking
/// an idle or preempted virtual CPU, and that cost follows the other
/// tenants' load: a ten-run set swung 0.34 (hot_pep), 0.26 (cold_sets)
/// and 0.55 (policy_churn) in (q3 - q1) / median. On one CPU the same
/// workloads stayed within about 5%.
void confine_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

// ---------------------------------------------------------------------
// Inputs, a pure function of the seed
// ---------------------------------------------------------------------

FlatInput flat_input(Rng& rng, std::uint32_t subject, bool granted_only) {
  FlatInput in;
  in.domain = rng.below(kDomains);
  in.role = rng.below(granted_only ? kFlatRoles : 2 * kFlatRoles);
  in.write = rng.below(4) == 0;
  in.subject = subject;
  in.resource = static_cast<std::uint32_t>(rng.below(64));
  return in;
}

std::vector<FlatInput> flat_pool(Rng& rng, std::size_t n, bool granted_only) {
  std::vector<FlatInput> pool;
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(flat_input(rng, static_cast<std::uint32_t>(i), granted_only));
  }
  return pool;
}

TreeInput tree_input(Rng& rng, std::uint64_t subject) {
  TreeInput in;
  in.domain = rng.below(kDomains);
  in.service = rng.below(kTreeServices);
  in.role = rng.below(2 * kTreeRoles);
  in.subject = subject;
  return in;
}

std::size_t tree_slot(int domain, int service, int role) {
  return static_cast<std::size_t>((domain * kTreeServices + service) * 2 * kTreeRoles + role);
}

std::vector<TreeExpectation> tree_table() {
  std::vector<TreeExpectation> table(tree_slot(kDomains, 0, 0));
  for (int d = 0; d < kDomains; ++d)
    for (int s = 0; s < kTreeServices; ++s)
      for (int r = 0; r < 2 * kTreeRoles; ++r) table[tree_slot(d, s, r)] = tree_oracle(d, s, r);
  return table;
}

/// tree_subject() without the allocation, for checks on worker threads.
struct SubjectText {
  explicit SubjectText(std::uint64_t subject) {
    constexpr std::string_view kPrefix = "user-";
    kPrefix.copy(buffer, kPrefix.size());
    length = static_cast<std::size_t>(
        std::to_chars(buffer + kPrefix.size(), buffer + sizeof buffer, subject).ptr - buffer);
  }
  std::string_view view() const { return {buffer, length}; }
  char buffer[32];
  std::size_t length = 0;
};

// ---------------------------------------------------------------------
// Exactly-once ledger: one bit per request sequence number
// ---------------------------------------------------------------------

class CompletionLedger {
 public:
  CompletionLedger() : chunks_(kMaxChunks) {}

  /// Submitting thread, before the request with `seq` is submitted.
  void expect(std::uint64_t seq) {
    const std::uint64_t chunk = seq >> kChunkBits;
    if (chunk >= kMaxChunks) throw std::runtime_error("completion ledger full");
    if (!chunks_[chunk]) {
      chunks_[chunk] = std::make_unique<std::atomic<std::uint64_t>[]>(kWordsPerChunk);
    }
  }
  /// Any thread; false when `seq` had already completed.
  bool complete(std::uint64_t seq) {
    const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
    auto& word = chunks_[seq >> kChunkBits][(seq & kChunkMask) >> 6];
    return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
  }
  /// Sequence numbers below `issued` that never completed.
  std::uint64_t missing(std::uint64_t issued) const {
    std::uint64_t count = 0;
    for (std::uint64_t seq = 0; seq < issued; ++seq) {
      const auto& word = chunks_[seq >> kChunkBits][(seq & kChunkMask) >> 6];
      if ((word.load(std::memory_order_relaxed) & (std::uint64_t{1} << (seq & 63))) == 0) ++count;
    }
    return count;
  }

 private:
  static constexpr unsigned kChunkBits = 20;
  static constexpr std::uint64_t kChunkMask = (std::uint64_t{1} << kChunkBits) - 1;
  static constexpr std::size_t kWordsPerChunk = (std::size_t{1} << kChunkBits) / 64;
  static constexpr std::size_t kMaxChunks = 1024;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> chunks_;
};

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Per-layer figures of a traced run; 0 where the workload's measured
/// path does not reach the layer.
struct Layers {
  double source_call_us = 0;
  double submit_us = 0;
  double queue_wait_us = 0;
  double cache_probe_us = 0;
  double engine_evaluate_us = 0;
  double mean_batch = 0;
  double adoption_lag_ms = 0;
  double publish_ms = 0;
  double version_evictions = 0;
  double l1_hit_ratio = 0;
  double l2_hit_ratio = 0;
  double miss_ratio = 0;
  double l2_read_retries = 0;
  double l2_evictions = 0;
  double l2_rejected_oversize = 0;
  ReplayFigures replay;
  double enforce_us = 0;
  double pep_self_us = 0;
  double pap_submit_ms = 0;
  double pap_issue_ms = 0;
  double update_visible_ms = 0;
  double ingest_s = 0;
  double tries_per_decision = 0;
  double retryable_replies = 0;
  double undecodable_replies = 0;
  double backoffs = 0;
  double breaker_skips = 0;
  double traced_decisions_per_s = 0;
};

std::vector<Metric> per_layer_metrics(const Layers& l) {
  const ReplayFigures& r = l.replay;
  return {
      {"runtime.source_call_us", l.source_call_us, "us"},
      {"runtime.submit_us", l.submit_us, "us"},
      {"runtime.queue_wait_us", l.queue_wait_us, "us"},
      {"runtime.cache_probe_us", l.cache_probe_us, "us"},
      {"runtime.evaluate_us", l.engine_evaluate_us, "us"},
      {"runtime.mean_batch", l.mean_batch, "count"},
      {"runtime.adoption_lag_ms", l.adoption_lag_ms, "ms"},
      {"runtime.publish_ms", l.publish_ms, "ms"},
      {"runtime.version_evictions", l.version_evictions, "count"},
      {"cache.l1_hit_ratio", l.l1_hit_ratio, "ratio"},
      {"cache.l2_hit_ratio", l.l2_hit_ratio, "ratio"},
      {"cache.miss_ratio", l.miss_ratio, "ratio"},
      {"cache.l2_read_retries", l.l2_read_retries, "count/1k"},
      {"cache.l2_evictions", l.l2_evictions, "count/1k"},
      {"cache.l2_rejected_oversize", l.l2_rejected_oversize, "count/1k"},
      {"cache.fingerprint_ns", r.fingerprint_ns, "ns"},
      {"cache.l2_lookup_ns", r.l2_lookup_ns, "ns"},
      {"core.evaluate_us", r.evaluate_us, "us"},
      {"core.evaluate_allocs", r.evaluate_allocs, "count"},
      {"pep.enforce_us", l.enforce_us, "us"},
      {"pep.self_us", l.pep_self_us, "us"},
      {"pap.submit_ms", l.pap_submit_ms, "ms"},
      {"pap.issue_ms", l.pap_issue_ms, "ms"},
      {"pap.update_visible_ms", l.update_visible_ms, "ms"},
      {"pap.ingest_s", l.ingest_s, "s"},
      {"analysis.lint_ms", r.lint_ms, "ms"},
      {"xml.request_encode_us", r.request_encode_us, "us"},
      {"xml.request_decode_us", r.request_decode_us, "us"},
      {"xml.decision_encode_us", r.decision_encode_us, "us"},
      {"xml.decision_decode_us", r.decision_decode_us, "us"},
      {"dependability.tries_per_decision", l.tries_per_decision, "count"},
      {"dependability.retryable_replies", l.retryable_replies, "count/1k"},
      {"dependability.undecodable_replies", l.undecodable_replies, "count/1k"},
      {"dependability.backoffs", l.backoffs, "count/1k"},
      {"dependability.breaker_skips", l.breaker_skips, "count/1k"},
      {"obs.traced_decisions_per_s", l.traced_decisions_per_s, "1/s"},
  };
}

/// End-to-end metrics of an untraced run, or the per-layer ones of a
/// traced run (whose throughput is the tracing-overhead figure).
void finish(RunResult& result, const Options& o, const std::vector<double>& setup_s,
            const Windows& windows, const Timing& latency, Layers layers,
            const std::string& latency_name) {
  if (windows.ops == 0) throw std::runtime_error("no decision completed");
  const double decisions_per_s = static_cast<double>(windows.ops) / windows.wall_s;
  char line[200];
  std::snprintf(line, sizeof line, "setup_s: median of %zu set-ups, %.4g .. %.4g s",
                setup_s.size(), *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
  result.notes.push_back(line);
  std::vector<double> rates = windows.ops_per_s;
  std::snprintf(line, sizeof line,
                "decisions: %llu in %.3f s; %zu windows of 100 ms: p25 %.6g, p50 %.6g, p75 %.6g /s",
                static_cast<unsigned long long>(windows.ops), windows.wall_s, rates.size(),
                quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75));
  result.notes.push_back(line);
  // Not a result metric: on one busy CPU it is 1e6 / decisions_per_s.
  std::snprintf(line, sizeof line, "cpu_us_per_decision: %.6g (process CPU over the window)",
                windows.cpu_s * 1e6 / static_cast<double>(windows.ops));
  result.notes.push_back(line);
  Timing us = latency;
  us.p50 /= 1e3;
  us.p99 /= 1e3;
  us.tail /= 1e3;
  result.notes.push_back(describe(latency_name, us, "us"));
  if (o.trace) {
    layers.traced_decisions_per_s = decisions_per_s;
    result.metrics = per_layer_metrics(layers);
  } else {
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"rss_mb", peak_rss_mib(), "MiB"},
        {"decisions_per_s", decisions_per_s, "1/s"},
    };
  }
}

void write_spans(const SpanLog& log, const Options& o, RunResult& result,
                 std::vector<SpanRecord>& spans) {
  spans = log.collect();
  if (!SpanLog::write_csv(spans, o.trace_path)) {
    throw std::runtime_error("cannot write spans to " + o.trace_path);
  }
  result.notes.push_back("spans: " + std::to_string(spans.size()) + " written to " +
                         o.trace_path + " (" + std::to_string(log.dropped()) +
                         " past the per-thread cap not kept)");
}

template <typename Deployment, typename Make>
std::unique_ptr<Deployment> timed_setups(Make&& make, std::vector<double>& setup_s) {
  std::unique_ptr<Deployment> kept;
  for (int i = 0; i < kSetups; ++i) {
    kept.reset();
    const std::uint64_t start = now_ns();
    kept = make();
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return kept;
}

// ---------------------------------------------------------------------
// Engine deployments (hot_pep, cold_sets, policy_churn)
// ---------------------------------------------------------------------

struct EngineDeployment {
  common::WallClock clock;
  std::unique_ptr<pap::PolicyRepository> repository;
  runtime::SnapshotPublisher publisher;
  std::unique_ptr<obs::DecisionTracer> tracer;
  std::unique_ptr<cache::DecisionCache> cache;
  std::unique_ptr<runtime::DecisionEngine> engine;  // last: stopped first
  double ingest_s = 0;
};

/// PAP ingest of `documents`, one publish, a two-level cache and an
/// engine of `workers` workers. Traced runs attach a tracer that samples
/// every request.
std::unique_ptr<EngineDeployment> deploy_engine(const std::vector<PolicyDocument>& documents,
                                                std::size_t workers, bool traced) {
  auto d = std::make_unique<EngineDeployment>();
  d->repository = std::make_unique<pap::PolicyRepository>(d->clock);
  const std::uint64_t start = now_ns();
  ingest(*d->repository, documents);
  d->ingest_s = static_cast<double>(now_ns() - start) / 1e9;
  d->publisher.publish_from(*d->repository);
  if (traced) {
    d->tracer = std::make_unique<obs::DecisionTracer>(
        obs::ObsConfig{.sample_every_n = 1, .ring_capacity = 16384});
  }
  d->cache = std::make_unique<cache::DecisionCache>(
      cache::DecisionCache::TwoLevelConfig{.capacity = 4096});
  runtime::EngineConfig config;
  config.workers = workers;
  config.tracer = d->tracer.get();
  d->engine = std::make_unique<runtime::DecisionEngine>(d->publisher, config, d->cache.get());
  return d;
}

/// Engine and cache counters at one instant.
struct EngineCounters {
  runtime::EngineMetrics::Snapshot engine;
  cache::SeqlockCacheStats cache;
};

EngineCounters counters(const EngineDeployment& d) {
  return {d.engine->metrics(), d.cache->seqlock_stats()};
}

/// Cache and batching figures over [from, to]: ratios over the requests
/// decided in between, counts per 1k of them.
void add_engine_figures(Layers& l, const EngineCounters& from, const EngineCounters& to) {
  const runtime::EngineMetrics::Snapshot& before = from.engine;
  const runtime::EngineMetrics::Snapshot& after = to.engine;
  const auto decided = static_cast<double>(after.decided - before.decided);
  const auto l1 = static_cast<double>(after.l1_hits - before.l1_hits);
  const auto l2 = static_cast<double>(after.l2_hits - before.l2_hits);
  const auto misses = static_cast<double>(after.cache_misses - before.cache_misses);
  const auto retries = static_cast<double>(after.l2_read_retries - before.l2_read_retries);
  const double batched = after.mean_batch_size * static_cast<double>(after.batches) -
                         before.mean_batch_size * static_cast<double>(before.batches);
  const auto batches = static_cast<double>(after.batches - before.batches);
  if (decided > 0) {
    l.l1_hit_ratio = l1 / decided;
    l.l2_hit_ratio = l2 / decided;
    l.miss_ratio = misses / decided;
    l.l2_evictions = static_cast<double>(to.cache.evictions - from.cache.evictions) * 1000 / decided;
    l.l2_rejected_oversize =
        static_cast<double>(to.cache.rejected_oversize - from.cache.rejected_oversize) * 1000 /
        decided;
  }
  if (l1 + l2 + misses > 0) l.l2_read_retries = retries * 1000 / (l1 + l2 + misses);
  if (batches > 0) l.mean_batch = batched / batches;
}

/// In-engine stage medians from the tracer's explain traces: queue wait,
/// dequeue to end of cache probe, end of probe to end of evaluation.
void add_stage_figures(Layers& l, const obs::DecisionTracer& tracer) {
  std::vector<double> wait, probe, evaluate;
  for (const obs::Trace& t : tracer.traces()) {
    const obs::Span* q = nullptr;
    const obs::Span* p = nullptr;
    const obs::Span* e = nullptr;
    for (std::uint32_t i = 0; i < t.span_count; ++i) {
      const obs::Span& s = t.spans[i];
      if (s.kind == obs::SpanKind::kQueueWait) q = &s;
      if (s.kind == obs::SpanKind::kCacheProbe) p = &s;
      if (s.kind == obs::SpanKind::kEvaluate) e = &s;
    }
    if (q != nullptr) wait.push_back(static_cast<double>(q->a));
    if (q != nullptr && p != nullptr) probe.push_back(static_cast<double>(p->at_ns - q->at_ns));
    if (p != nullptr && e != nullptr) evaluate.push_back(static_cast<double>(e->at_ns - p->at_ns));
  }
  l.queue_wait_us = median(std::move(wait)) / 1e3;
  l.cache_probe_us = median(std::move(probe)) / 1e3;
  l.engine_evaluate_us = median(std::move(evaluate)) / 1e3;
}

std::vector<core::RequestContext> contexts(const std::vector<FlatInput>& inputs) {
  std::vector<core::RequestContext> out;
  for (const FlatInput& in : inputs) out.push_back(make_request(in));
  return out;
}

// ---------------------------------------------------------------------
// hot_pep: closed-loop PEPs on the engine's cache-hit path
// ---------------------------------------------------------------------

RunResult run_hot_pep(const Options& o) {
  const std::size_t threads = kPepThreads;
  Rng rng(o.seed);
  const std::vector<FlatInput> pool = flat_pool(rng, kHotPool, /*granted_only=*/true);
  std::vector<core::DecisionType> expect;
  for (const FlatInput& in : pool) expect.push_back(flat_oracle(in));
  std::vector<std::vector<std::uint32_t>> sequences;
  for (std::size_t t = 0; t < threads; ++t) {
    sequences.push_back(zipf_sequence(rng, kHotPool, kSkew, kSequence));
  }
  const std::vector<PolicyDocument> documents = flat_federation_documents();

  std::vector<core::RequestContext> requests;
  std::vector<double> setup_s, ingest_s;
  auto d = timed_setups<EngineDeployment>(
      [&] {
        auto dep = deploy_engine(documents, 1, o.trace);
        ingest_s.push_back(dep->ingest_s);
        requests = contexts(pool);
        // Warm-up: the whole pool once, so both cache levels hold it.
        pep::EnforcementPoint warm(runtime::engine_decision_source(*dep->engine));
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::string why = check_plain(warm.enforce(requests[i]).decision, expect[i]);
          if (!why.empty()) throw std::runtime_error("hot_pep warm-up: " + why);
        }
        return dep;
      },
      setup_s);

  SpanLog log_storage;
  SpanLog* log = o.trace ? &log_storage : nullptr;
  Failure failure;
  std::atomic<bool> stop{false};
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> n{0};
  };
  std::vector<Counter> done(threads);
  LatencyRecorder latency;
  const EngineCounters start = counters(*d);
  std::latch go(static_cast<std::ptrdiff_t>(threads) + 1);
  std::vector<std::thread> pool_threads;
  for (std::size_t t = 0; t < threads; ++t) {
    pool_threads.emplace_back([&, t] {
      const auto engine_source = runtime::engine_decision_source(*d->engine);
      std::uint64_t request_id = 0;
      pep::EnforcementPoint::DecisionSource source = engine_source;
      if (log != nullptr) {
        source = [&](const core::RequestContext& request) {
          ScopedSpan span(log, "runtime.source", request_id);
          return engine_source(request);
        };
      }
      pep::EnforcementPoint gate(source);
      const std::vector<std::uint32_t>& sequence = sequences[t];
      go.arrive_and_wait();
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::uint32_t index = sequence[i & (kSequence - 1)];
        request_id = ((t + 1) << 40) | i;
        const std::uint64_t began = now_ns();
        pep::Enforcement e;
        {
          ScopedSpan span(log, "pep.enforce", request_id);
          e = gate.enforce(requests[index]);
        }
        latency.record(now_ns() - began);
        if (e.decision.is_indeterminate() &&
            runtime::is_shed_status(e.decision.status.message)) {
          done[t].n.store(i + 1, std::memory_order_relaxed);
          continue;  // counted as failed from the engine's shed counters
        }
        std::string why = check_plain(e.decision, expect[index]);
        if (why.empty() && e.allowed != (expect[index] == core::DecisionType::kPermit)) {
          why = "PEP gate disagrees with its decision";
        }
        if (!why.empty()) {
          failure.report("hot_pep: request " + std::to_string(index) + ": " + why);
          break;
        }
        done[t].n.store(i + 1, std::memory_order_relaxed);
      }
    });
  }
  go.arrive_and_wait();
  const Windows windows = sample_windows(
      o.seconds,
      [&] {
        std::uint64_t sum = 0;
        for (const Counter& c : done) sum += c.n.load(std::memory_order_relaxed);
        return sum;
      },
      failure);
  stop.store(true);
  for (auto& th : pool_threads) th.join();
  if (failure.any()) throw std::runtime_error(failure.message());

  RunResult result;
  for (const Counter& c : done) result.attempted += c.n.load();
  const EngineCounters end = counters(*d);
  const runtime::EngineMetrics::Snapshot& before = start.engine;
  const runtime::EngineMetrics::Snapshot& after = end.engine;
  const std::uint64_t sheds = after.sheds() - before.sheds();
  if (after.submitted - before.submitted != result.attempted ||
      after.decided - before.decided + sheds != result.attempted) {
    throw std::runtime_error("hot_pep: " + std::to_string(result.attempted) +
                             " enforcements but the engine saw " +
                             std::to_string(after.submitted - before.submitted) +
                             " submissions and " +
                             std::to_string(after.decided - before.decided) + " decisions");
  }
  result.failed = sheds;

  Layers layers;
  if (log != nullptr) {
    std::vector<SpanRecord> spans;
    write_spans(*log, o, result, spans);
    const SpanSummary summary(spans);
    layers.enforce_us = summary.p50_ns("pep.enforce") / 1e3;
    layers.pep_self_us = summary.self_p50_ns("pep.enforce") / 1e3;
    layers.source_call_us = summary.p50_ns("runtime.source") / 1e3;
    add_engine_figures(layers, start, end);
    add_stage_figures(layers, *d->tracer);
    layers.ingest_s = median(ingest_s);
    layers.replay = replay(*d->repository, requests, documents.back());
  }
  finish(result, o, setup_s, windows, latency.summary(), layers, "enforce_us");
  return result;
}

// ---------------------------------------------------------------------
// Windowed submitter shared by cold_sets and policy_churn
// ---------------------------------------------------------------------

/// Reads submitted in callback form with at most `Window` outstanding;
/// each completion is checked, ledgered and timed.
template <std::ptrdiff_t Window>
struct ReadStream {
  std::counting_semaphore<Window> window{Window};
  CompletionLedger ledger;
  LatencyRecorder latency;
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> shed{0};

  /// Completion side (any thread). `why` is the oracle check's verdict.
  void completed(std::uint64_t seq, std::uint64_t started_ns, const runtime::EngineResult& r,
                 const std::string& why, Failure& failure, const char* workload) {
    const std::uint64_t now = now_ns();
    if (!ledger.complete(seq)) {
      // The first completion already returned this request's permit.
      failure.report(std::string(workload) + ": request " + std::to_string(seq) +
                     " completed twice");
      return;
    }
    if (!r.decided()) {
      shed.fetch_add(1, std::memory_order_relaxed);
    } else if (!why.empty()) {
      failure.report(std::string(workload) + ": request " + std::to_string(seq) + ": " + why);
    }
    latency.record(now - started_ns);
    window.release();
  }

  /// After the submitter stopped: waits for every outstanding request and
  /// checks each submitted one completed.
  void drain(const char* workload) {
    for (std::ptrdiff_t i = 0; i < Window; ++i) window.acquire();
    const std::uint64_t issued = submitted.load();
    if (const std::uint64_t lost = ledger.missing(issued); lost != 0) {
      throw std::runtime_error(std::string(workload) + ": " + std::to_string(lost) + " of " +
                               std::to_string(issued) + " requests never completed");
    }
  }
};

// ---------------------------------------------------------------------
// cold_sets: miss-only set-tree evaluation behind the engine
// ---------------------------------------------------------------------

RunResult run_cold_sets(const Options& o) {
  const std::size_t workers = kColdWorkers;
  const std::vector<TreeExpectation> table = tree_table();
  const std::vector<PolicyDocument> documents = set_tree_documents();
  constexpr std::uint64_t kWarmSubjects = std::uint64_t{1} << 62;

  std::vector<double> setup_s, ingest_s;
  auto d = timed_setups<EngineDeployment>(
      [&] {
        auto dep = deploy_engine(documents, workers, o.trace);
        ingest_s.push_back(dep->ingest_s);
        Rng warm(o.seed ^ 0x5eedULL);
        std::vector<std::pair<TreeInput, std::future<runtime::EngineResult>>> pending;
        for (std::uint64_t i = 0; i < 4 * kColdWindow; ++i) {
          const TreeInput in = tree_input(warm, kWarmSubjects + i);
          pending.emplace_back(in, dep->engine->submit(make_request(in)));
        }
        for (auto& [in, result] : pending) {
          const std::string why = check_tree(result.get().decision,
                                             table[tree_slot(in.domain, in.service, in.role)],
                                             SubjectText(in.subject).view());
          if (!why.empty()) throw std::runtime_error("cold_sets warm-up: " + why);
        }
        return dep;
      },
      setup_s);

  SpanLog log_storage;
  SpanLog* log = o.trace ? &log_storage : nullptr;
  Failure failure;
  std::atomic<bool> stop{false};
  ReadStream<kColdWindow> stream;
  std::vector<core::RequestContext> sample;
  const EngineCounters start = counters(*d);
  std::thread submitter([&] {
    Rng rng(o.seed);
    for (std::uint64_t seq = 0; !stop.load(std::memory_order_relaxed) && !failure.any(); ++seq) {
      stream.window.acquire();
      const TreeInput in = tree_input(rng, seq);
      core::RequestContext request = make_request(in);
      if (log != nullptr && sample.size() < kReplaySample) sample.push_back(request);
      stream.ledger.expect(seq);
      const std::uint64_t started = now_ns();
      ScopedSpan span(log, "runtime.submit", seq + 1);
      const std::uint64_t span_id = span.id();
      d->engine->submit(std::move(request), [&, in, started, span_id](runtime::EngineResult r) {
        const std::string why =
            r.decided() ? check_tree(r.decision, table[tree_slot(in.domain, in.service, in.role)],
                                     SubjectText(in.subject).view())
                        : std::string();
        if (log != nullptr) {
          log->record({log->next_id(), span_id, in.subject + 1, "runtime.complete", started,
                       now_ns()});
        }
        stream.completed(in.subject, started, r, why, failure, "cold_sets");
      });
      stream.submitted.store(seq + 1, std::memory_order_relaxed);
    }
  });
  const Windows windows = sample_windows(
      o.seconds, [&] { return stream.submitted.load(std::memory_order_relaxed); }, failure);
  stop.store(true);
  submitter.join();
  stream.drain("cold_sets");
  if (failure.any()) throw std::runtime_error(failure.message());

  RunResult result;
  result.attempted = stream.submitted.load();
  result.failed = stream.shed.load();
  Layers layers;
  if (log != nullptr) {
    std::vector<SpanRecord> spans;
    write_spans(*log, o, result, spans);
    const SpanSummary summary(spans);
    layers.submit_us = summary.p50_ns("runtime.submit") / 1e3;
    add_engine_figures(layers, start, counters(*d));
    add_stage_figures(layers, *d->tracer);
    layers.ingest_s = median(ingest_s);
    layers.replay = replay(*d->repository, sample, documents.back());
  }
  finish(result, o, setup_s, windows, stream.latency.summary(), layers,
         "submit-to-callback latency");
  return result;
}

// ---------------------------------------------------------------------
// policy_churn: reads beside a PAP re-issuing a probe policy
// ---------------------------------------------------------------------

RunResult run_policy_churn(const Options& o) {
  const std::size_t workers = kChurnWorkers;
  Rng rng(o.seed);
  const std::vector<FlatInput> pool = flat_pool(rng, kChurnPool, /*granted_only=*/false);
  std::vector<core::DecisionType> expect;
  for (const FlatInput& in : pool) expect.push_back(flat_oracle(in));
  const std::vector<std::uint32_t> sequence = zipf_sequence(rng, kChurnPool, kSkew, kSequence);
  std::vector<PolicyDocument> documents = flat_federation_documents();
  documents.push_back(probe_document(true));
  const PolicyDocument probe_docs[2] = {probe_document(false), probe_document(true)};

  // Probe-policy state (1 permit, 0 deny, -1 unknown) of each snapshot
  // version; written before the version is published.
  std::vector<std::atomic<int>> state(1 << 16);
  std::vector<core::RequestContext> requests;
  std::vector<double> setup_s, ingest_s;
  auto d = timed_setups<EngineDeployment>(
      [&] {
        for (auto& s : state) s.store(-1);
        state[1].store(1);  // deploy_engine publishes the ingested corpus as version 1
        auto dep = deploy_engine(documents, workers, o.trace);
        ingest_s.push_back(dep->ingest_s);
        requests = contexts(pool);
        // Warm-up: the pool once, a window's worth at a time.
        for (std::size_t first = 0; first < requests.size(); first += kChurnWindow) {
          std::vector<std::future<runtime::EngineResult>> pending;
          const std::size_t last = std::min(requests.size(), first + kChurnWindow);
          for (std::size_t i = first; i < last; ++i) {
            pending.push_back(dep->engine->submit(requests[i]));
          }
          for (std::size_t i = first; i < last; ++i) {
            const std::string why = check_plain(pending[i - first].get().decision, expect[i]);
            if (!why.empty()) throw std::runtime_error("policy_churn warm-up: " + why);
          }
        }
        return dep;
      },
      setup_s);

  SpanLog log_storage;
  SpanLog* log = o.trace ? &log_storage : nullptr;
  Failure failure;
  std::atomic<bool> stop{false};
  ReadStream<kChurnWindow> stream;
  const core::RequestContext reader_probe = make_probe_request("reader-probe");
  const core::RequestContext pap_probe = make_probe_request("pap-probe");

  auto check_probe = [&](const runtime::EngineResult& r) -> std::string {
    const int s = r.snapshot_version < state.size() ? state[r.snapshot_version].load() : -1;
    if (s < 0) return "decision names unpublished version " + std::to_string(r.snapshot_version);
    return check_plain(r.decision, probe_oracle(s == 1));
  };

  std::vector<double> visible_ms, lag_ms;
  std::uint64_t updates = 0, refused = 0;
  std::atomic<std::uint64_t> updates_due{0};  // raised by the reader every kReadsPerUpdate
  const EngineCounters start = counters(*d);
  std::thread administrator([&] {
    runtime::RepositoryPublisher publisher(*d->repository, d->publisher);
    bool permit = true;
    while (!stop.load() && !failure.any()) {
      for (std::uint64_t due = updates_due.load(); due <= updates && !stop.load();
           due = updates_due.load()) {
        updates_due.wait(due);
      }
      if (stop.load()) break;
      permit = !permit;
      ++updates;
      ScopedSpan update(log, "pap.update", updates);
      const std::uint64_t began = now_ns();
      pap::RepoOutcome outcome;
      {
        ScopedSpan span(log, "pap.submit", updates);
        outcome = publisher.submit(probe_docs[permit].xml, "bench-admin");
      }
      const std::uint64_t version = d->publisher.current_version() + 1;
      if (version >= state.size()) {
        failure.report("policy_churn: snapshot version table full");
        break;
      }
      state[version].store(permit ? 1 : 0);
      std::uint64_t issued_at = 0;
      if (outcome && log != nullptr) {
        {
          ScopedSpan span(log, "pap.issue", updates);
          outcome = d->repository->issue("probe", "bench-admin");
        }
        issued_at = now_ns();
        if (outcome) {
          ScopedSpan span(log, "runtime.publish", updates);
          d->publisher.publish_from(*d->repository);
        }
      } else if (outcome) {
        outcome = publisher.issue("probe", "bench-admin");
        issued_at = now_ns();
      }
      if (!outcome) {
        ++refused;
        permit = !permit;
        continue;
      }
      // Probe until an engine decision reflects the update.
      std::uint64_t adopted_at = 0;
      for (;;) {
        const runtime::EngineResult r = d->engine->submit(pap_probe).get();
        if (!r.decided()) continue;
        if (const std::string why = check_probe(r); !why.empty()) {
          failure.report("policy_churn: administrator probe: " + why);
          return;
        }
        if (r.snapshot_version >= version) {
          adopted_at = now_ns();
          break;
        }
      }
      visible_ms.push_back(static_cast<double>(adopted_at - began) / 1e6);
      lag_ms.push_back(static_cast<double>(adopted_at - issued_at) / 1e6);
    }
  });
  std::thread reader([&] {
    for (std::uint64_t seq = 0; !stop.load(std::memory_order_relaxed) && !failure.any(); ++seq) {
      stream.window.acquire();
      const bool is_probe = seq % kProbeEvery == kProbeEvery - 1;
      const std::uint32_t index = sequence[seq & (kSequence - 1)];
      stream.ledger.expect(seq);
      const std::uint64_t started = now_ns();
      ScopedSpan span(log, "runtime.submit", seq + 1);
      d->engine->submit(is_probe ? reader_probe : requests[index],
                        [&, seq, index, is_probe, started](runtime::EngineResult r) {
                          std::string why;
                          if (r.decided()) {
                            why = is_probe ? check_probe(r) : check_plain(r.decision, expect[index]);
                          }
                          stream.completed(seq, started, r, why, failure, "policy_churn");
                        });
      stream.submitted.store(seq + 1, std::memory_order_relaxed);
      if ((seq + 1) % kReadsPerUpdate == 0) {
        updates_due.fetch_add(1);
        updates_due.notify_one();
      }
    }
  });
  const Windows windows = sample_windows(
      o.seconds, [&] { return stream.submitted.load(std::memory_order_relaxed); }, failure);
  stop.store(true);
  updates_due.fetch_add(1);
  updates_due.notify_all();
  reader.join();
  administrator.join();
  stream.drain("policy_churn");
  if (failure.any()) throw std::runtime_error(failure.message());
  if (visible_ms.empty()) throw std::runtime_error("policy_churn: no update became visible");

  RunResult result;
  result.attempted = stream.submitted.load() + updates;
  result.failed = stream.shed.load() + refused;
  const Timing visible = summarise(visible_ms);
  result.notes.push_back(describe("update_visible_ms", visible, "ms"));
  result.notes.push_back("updates: " + std::to_string(updates) + " (" + std::to_string(refused) +
                         " refused), one per " + std::to_string(kReadsPerUpdate) + " reads");
  const EngineCounters end = counters(*d);
  Layers layers;
  if (log != nullptr) {
    std::vector<SpanRecord> spans;
    write_spans(*log, o, result, spans);
    const SpanSummary summary(spans);
    layers.submit_us = summary.p50_ns("runtime.submit") / 1e3;
    layers.pap_submit_ms = summary.p50_ns("pap.submit") / 1e6;
    layers.pap_issue_ms = summary.p50_ns("pap.issue") / 1e6;
    layers.publish_ms = summary.p50_ns("runtime.publish") / 1e6;
    layers.adoption_lag_ms = median(lag_ms);
    layers.update_visible_ms = visible.p50;
    layers.version_evictions =
        static_cast<double>(end.engine.version_evictions - start.engine.version_evictions) /
        static_cast<double>(visible_ms.size());
    add_engine_figures(layers, start, end);
    add_stage_figures(layers, *d->tracer);
    layers.ingest_s = median(ingest_s);
    layers.replay = replay(*d->repository, requests, probe_docs[1]);
  }
  finish(result, o, setup_s, windows, stream.latency.summary(), layers,
         "read submit-to-callback latency");
  return result;
}

// ---------------------------------------------------------------------
// remote_failover: replicated dispatch over the simulated network
// ---------------------------------------------------------------------

struct Cluster {
  explicit Cluster(std::uint64_t seed) : sim(seed) {}
  common::WallClock clock;
  std::unique_ptr<pap::PolicyRepository> repository;
  net::Simulator sim;
  std::unique_ptr<net::FaultPlan> plan;  // outlives the network it is armed on
  net::Network network{sim};
  std::vector<std::unique_ptr<dependability::PdpReplica>> replicas;
  std::unique_ptr<dependability::ReplicatedPdpClient> client;
  double ingest_s = 0;
};

using OnDecision = std::function<void(const FlatInput&, const core::Decision&,
                                      common::Duration sim_ms, std::uint64_t wall_start_ns)>;

/// Issues `count` requests one at a time, each kRemotePaceMs of simulated
/// time after the previous delivery, and runs the simulator until every
/// one is delivered.
void drive(Cluster& c, Rng& inputs, int count, const OnDecision& on_decision,
           Failure& failure) {
  int remaining = count;
  std::function<void()> issue_next = [&] {
    const FlatInput in = flat_input(inputs, static_cast<std::uint32_t>(inputs.below(1000)),
                                    /*granted_only=*/false);
    const common::TimePoint sim_start = c.sim.now();
    const std::uint64_t wall_start = now_ns();
    auto deliveries = std::make_shared<int>(0);
    c.client->evaluate(make_request(in), [&, in, sim_start, wall_start,
                                          deliveries](core::Decision decision) {
      if (++*deliveries > 1) {
        failure.report("remote_failover: a request was delivered twice");
        return;
      }
      on_decision(in, decision, c.sim.now() - sim_start, wall_start);
      if (--remaining > 0) c.sim.schedule(kRemotePaceMs, issue_next);
    });
  };
  c.sim.schedule(0, issue_next);
  c.sim.run();
  if (remaining != 0 && !failure.any()) {
    failure.report("remote_failover: " + std::to_string(remaining) +
                   " requests never delivered");
  }
}

/// Checks a delivered decision against the oracle; returns whether it
/// was a dispatch fail-safe.
bool check_remote(const FlatInput& in, const core::Decision& decision, Failure& failure) {
  if (dependability::is_dispatch_failsafe(decision)) return true;
  if (const std::string why = check_plain(decision, flat_oracle(in)); !why.empty()) {
    failure.report("remote_failover: " + why);
  }
  return false;
}

std::unique_ptr<Cluster> deploy_cluster(const std::vector<PolicyDocument>& documents,
                                        std::uint64_t seed, Failure& failure) {
  auto c = std::make_unique<Cluster>(seed);
  c->repository = std::make_unique<pap::PolicyRepository>(c->clock);
  const std::uint64_t start = now_ns();
  ingest(*c->repository, documents);
  c->ingest_s = static_cast<double>(now_ns() - start) / 1e9;
  c->network.set_default_link({10, 0, 0.0});
  const std::vector<std::string> ids = {"pdp/0", "pdp/1", "pdp/2"};
  for (const std::string& id : ids) {
    auto store = std::make_shared<core::PolicyStore>();
    c->repository->load_into(store.get());
    c->replicas.push_back(std::make_unique<dependability::PdpReplica>(
        c->network, id, std::make_shared<core::Pdp>(store)));
  }
  c->plan = net::make_named_fault_plan("dup-corrupt", seed, ids, "pep", kFaultHorizon);
  c->plan->arm(c->network);
  dependability::DispatchConfig config;
  config.seed = seed;
  c->client = std::make_unique<dependability::ReplicatedPdpClient>(
      c->network, "pep", ids, dependability::DispatchStrategy::kFailover, config);
  Rng warm(seed ^ 0x5eedULL);
  drive(*c, warm, kRemoteRound,
        [&](const FlatInput& in, const core::Decision& decision, common::Duration,
            std::uint64_t) { check_remote(in, decision, failure); },
        failure);
  if (failure.any()) throw std::runtime_error(failure.message());
  return c;
}

RunResult run_remote_failover(const Options& o) {
  const std::vector<PolicyDocument> documents = flat_federation_documents();
  Failure failure;
  std::vector<double> setup_s, ingest_s;
  auto c = timed_setups<Cluster>(
      [&] {
        auto cluster = deploy_cluster(documents, o.seed, failure);
        ingest_s.push_back(cluster->ingest_s);
        return cluster;
      },
      setup_s);

  SpanLog log_storage;
  SpanLog* log = o.trace ? &log_storage : nullptr;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};
  std::uint64_t failsafes = 0;
  LatencyRecorder wall_ns, sim_ms;
  std::vector<std::pair<common::Duration, core::DecisionType>> prefix;
  std::vector<core::RequestContext> sample;
  const dependability::DispatchStats before = c->client->stats();
  const OnDecision record = [&](const FlatInput& in, const core::Decision& decision,
                                common::Duration sim, std::uint64_t wall_start) {
    const std::uint64_t now = now_ns();
    if (check_remote(in, decision, failure)) ++failsafes;
    const std::uint64_t n = delivered.load(std::memory_order_relaxed);
    if (log != nullptr) {
      log->record({log->next_id(), 0, n + 1, "dependability.dispatch", wall_start, now});
      if (sample.size() < kReplaySample) sample.push_back(make_request(in));
    }
    wall_ns.record(now - wall_start);
    sim_ms.record(static_cast<std::uint64_t>(sim));
    if (prefix.size() < kSimPrefix) prefix.emplace_back(sim, decision.type);
    delivered.store(n + 1, std::memory_order_relaxed);
  };
  std::thread runner([&] {
    try {
      Rng inputs(o.seed);
      while (!stop.load() && !failure.any()) drive(*c, inputs, kRemoteRound, record, failure);
    } catch (const std::exception& e) {
      failure.report(std::string("remote_failover: ") + e.what());
    }
  });
  const Windows windows = sample_windows(
      o.seconds, [&] { return delivered.load(std::memory_order_relaxed); }, failure);
  stop.store(true);
  runner.join();
  if (failure.any()) throw std::runtime_error(failure.message());
  const dependability::DispatchStats after = c->client->stats();
  if (after.requests - before.requests != delivered.load()) {
    throw std::runtime_error("remote_failover: dispatch counted " +
                             std::to_string(after.requests - before.requests) +
                             " requests for " + std::to_string(delivered.load()) + " deliveries");
  }
  if (prefix.size() < kSimPrefix) throw std::runtime_error("remote_failover: run too short");

  // The simulator is deterministic: a fresh cluster with the same seed
  // must deliver the same first decisions at the same simulated latency.
  {
    auto again = deploy_cluster(documents, o.seed, failure);
    Rng inputs(o.seed);
    std::size_t i = 0;
    const OnDecision compare = [&](const FlatInput&, const core::Decision& decision,
                                   common::Duration sim, std::uint64_t) {
      if (prefix[i] != std::make_pair(sim, decision.type)) {
        failure.report("remote_failover: replay of request " + std::to_string(i) +
                       " diverged on the simulator");
      }
      ++i;
    };
    // Same round structure as the measured run: rounds start on an idle
    // simulator, so round boundaries shape the simulated timeline.
    for (std::size_t round = 0; round < kReplayRounds; ++round) {
      drive(*again, inputs, kRemoteRound, compare, failure);
    }
    if (failure.any()) throw std::runtime_error(failure.message());
  }

  RunResult result;
  result.attempted = delivered.load();
  result.failed = failsafes;
  std::vector<double> prefix_ms;
  for (const auto& [sim, type] : prefix) prefix_ms.push_back(static_cast<double>(sim));
  char line[160];
  std::snprintf(line, sizeof line, "sim_p99_ms: %.6g (first %zu decisions; repeats exactly per seed)",
                quantile(prefix_ms, 0.99), kSimPrefix);
  result.notes.push_back(line);
  result.notes.push_back(describe("simulated dispatch latency", sim_ms.summary(), "ms"));

  Layers layers;
  if (log != nullptr) {
    std::vector<SpanRecord> spans;
    write_spans(*log, o, result, spans);
    const auto decisions = static_cast<double>(after.requests - before.requests);
    layers.tries_per_decision = static_cast<double>(after.tries - before.tries) / decisions;
    layers.retryable_replies =
        static_cast<double>(after.retryable_replies - before.retryable_replies) * 1000 / decisions;
    layers.undecodable_replies =
        static_cast<double>(after.undecodable_replies - before.undecodable_replies) * 1000 /
        decisions;
    layers.backoffs = static_cast<double>(after.backoffs - before.backoffs) * 1000 / decisions;
    layers.breaker_skips =
        static_cast<double>(after.breaker_skips - before.breaker_skips) * 1000 / decisions;
    layers.ingest_s = median(ingest_s);
    layers.replay = replay(*c->repository, sample, documents.back());
  }
  finish(result, o, setup_s, windows, wall_ns.summary(), layers, "dispatch wall latency");
  return result;
}

}  // namespace

RunResult run_workload(const Options& options) {
  confine_to_one_cpu();
  if (options.workload == "hot_pep") return run_hot_pep(options);
  if (options.workload == "cold_sets") return run_cold_sets(options);
  if (options.workload == "policy_churn") return run_policy_churn(options);
  if (options.workload == "remote_failover") return run_remote_failover(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

std::string self_test(std::uint64_t seed) {
  std::string problems;
  common::WallClock clock;
  auto note = [&](const std::string& what, const std::string& why) {
    if (!why.empty() && problems.size() < 4000) problems += what + ": " + why + "\n";
  };
  constexpr std::size_t kSample = 4000;

  // Flat federation plus the probe, as policy_churn deploys it.
  {
    pap::PolicyRepository repository(clock);
    std::vector<PolicyDocument> documents = flat_federation_documents();
    documents.push_back(probe_document(true));
    ingest(repository, documents);
    auto store = std::make_shared<core::PolicyStore>();
    repository.load_into(store.get());
    core::Pdp pdp(store);
    Rng rng(seed);
    const std::vector<FlatInput> hot = flat_pool(rng, kSample, /*granted_only=*/true);
    const std::vector<FlatInput> mixed = flat_pool(rng, kSample, /*granted_only=*/false);
    std::size_t counts[4] = {0, 0, 0, 0};
    for (const auto* inputs : {&hot, &mixed}) {
      for (const FlatInput& in : *inputs) {
        const core::Decision d = pdp.evaluate(make_request(in));
        ++counts[static_cast<int>(flat_oracle(in))];
        note("flat federation", check_plain(d, flat_oracle(in)));
      }
    }
    note("probe (permit)", check_plain(pdp.evaluate(make_probe_request("t")), probe_oracle(true)));
    ingest(repository, {probe_document(false)});
    auto reissued = std::make_shared<core::PolicyStore>();
    repository.load_into(reissued.get());
    core::Pdp after(reissued);
    note("probe (deny)", check_plain(after.evaluate(make_probe_request("t")), probe_oracle(false)));
    if (counts[0] == 0 || counts[1] == 0 || counts[2] == 0) {
      note("flat federation", "sample lacks a permit, a deny or a not-applicable");
    }
    std::printf("self-test flat federation: %zu requests (%zu permit, %zu deny, %zu n/a) + probe\n",
                2 * kSample, counts[0], counts[1], counts[2]);
  }

  // Set trees, as cold_sets deploys them.
  {
    pap::PolicyRepository repository(clock);
    ingest(repository, set_tree_documents());
    auto store = std::make_shared<core::PolicyStore>();
    repository.load_into(store.get());
    core::Pdp pdp(store);
    Rng rng(seed);
    std::size_t by_obligations[3] = {0, 0, 0};
    for (std::uint64_t i = 0; i < kSample; ++i) {
      const TreeInput in = tree_input(rng, i);
      const TreeExpectation want = tree_oracle(in.domain, in.service, in.role);
      ++by_obligations[std::min<std::size_t>(want.audit_ids.size(), 2)];
      note("set trees", check_tree(pdp.evaluate(make_request(in)), want, tree_subject(in.subject)));
    }
    if (by_obligations[0] == 0 || by_obligations[1] == 0 || by_obligations[2] == 0) {
      note("set trees", "sample lacks a not-applicable or a permit with one or two audits");
    }
    std::printf("self-test set trees: %zu requests (%zu n/a, %zu with one audit, %zu with two)\n",
                kSample, by_obligations[0], by_obligations[1], by_obligations[2]);
  }
  return problems;
}

}  // namespace servicebench

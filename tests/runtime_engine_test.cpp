// mdac::runtime::DecisionEngine — worker pool over snapshot-published
// policy state: differential correctness against the single-threaded
// Pdp, deterministic overload shedding, deadlines, drain/discard
// shutdown, the shared decision cache, metrics, and the PEP/service
// wiring. The concurrent-churn consistency suite lives in
// tests/runtime_churn_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"
#include "dependability/replicated_pdp.hpp"
#include "obs/trace.hpp"
#include "net/sim.hpp"
#include "pep/pep.hpp"
#include "pep/remote.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"
#include "workload.hpp"

namespace mdac::runtime {
namespace {

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// An AttributeResolver whose resolutions block until opened — the test
/// lever that wedges engine workers inside an evaluation so queueing,
/// shedding and deadlines become observable. Thread-safe (the engine
/// contract for shared resolvers).
class GateResolver : public core::AttributeResolver {
 public:
  std::optional<core::Bag> resolve(core::Category /*category*/,
                                   const std::string& id,
                                   const core::RequestContext& /*request*/) override {
    if (id != "gate") return std::nullopt;
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [this] { return open_; });
    return core::Bag(core::AttributeValue(true));
  }

  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  /// Blocks the calling (test) thread until `n` resolutions are wedged.
  void wait_until_blocked(std::size_t n) {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable open_cv_;
  std::condition_variable entered_cv_;
  bool open_ = false;
  std::size_t entered_ = 0;
};

/// A store whose single policy permits "read" only once the "gate"
/// environment attribute resolves true — every evaluation goes through
/// the resolver.
std::shared_ptr<core::PolicyStore> make_gated_store() {
  auto store = std::make_shared<core::PolicyStore>();
  core::Policy p;
  p.policy_id = "gated";
  core::Rule r;
  r.id = "permit-when-open";
  r.effect = core::Effect::kPermit;
  r.condition = core::designator(core::Category::kEnvironment, "gate",
                                 core::DataType::kBoolean, /*must_be_present=*/true);
  p.rules.push_back(std::move(r));
  store->add(std::move(p));
  return store;
}

core::RequestContext probe_request() {
  return core::RequestContext::make("alice", "doc", "read");
}

/// Seeded federation workload shared with the bench harness: policies
/// split over `domains` administrative domains, single-domain traffic.
std::vector<core::RequestContext> federation_pool(int domains, int policies,
                                                  int roles, std::size_t n) {
  common::Rng rng(20260731);
  std::vector<core::RequestContext> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(bench::random_domain_request(rng, domains, policies, roles));
  }
  return pool;
}

// ---------------------------------------------------------------------
// Snapshot publication
// ---------------------------------------------------------------------

TEST(SnapshotPublisherTest, VersionsAreMonotonicAndCurrentTracksLatest) {
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.current(), nullptr);
  EXPECT_EQ(publisher.current_version(), 0u);

  auto s1 = publisher.publish(bench::make_policy_store(4));
  auto s2 = publisher.publish(bench::make_policy_store(8));
  EXPECT_EQ(s1->version(), 1u);
  EXPECT_EQ(s2->version(), 2u);
  EXPECT_EQ(publisher.current_version(), 2u);
  EXPECT_EQ(publisher.current()->policy_count(), 8u);
  EXPECT_EQ(publisher.publications(), 2u);
  // The replaced snapshot stays alive for its holders (RCU grace).
  EXPECT_EQ(s1->policy_count(), 4u);
}

TEST(SnapshotPublisherTest, PublishFromRepositoryCarriesCompiledArtifacts) {
  common::ManualClock clock;
  pap::PolicyRepository repo(clock);
  core::Policy p;
  p.policy_id = "p1";
  core::Rule r;
  r.id = "permit-all";
  r.effect = core::Effect::kPermit;
  p.rules.push_back(std::move(r));
  ASSERT_TRUE(repo.submit(core::node_to_string(p), "author"));
  ASSERT_TRUE(repo.issue("p1", "admin"));

  SnapshotPublisher publisher;
  auto snapshot = publisher.publish_from(repo);
  EXPECT_EQ(snapshot->policy_count(), 1u);
  EXPECT_EQ(snapshot->source_revision(), repo.revision());
  // The snapshot's store shares the PAP's compile-on-issue artifact.
  EXPECT_EQ(snapshot->store()->compiled("p1"), repo.compiled("p1"));
}

// ---------------------------------------------------------------------
// Differential correctness: engine decisions == single-threaded Pdp
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, DecisionsBitIdenticalToSingleThreadedPdp) {
  constexpr int kDomains = 4;
  constexpr int kPolicies = 64;
  constexpr int kRoles = 3;
  auto store = bench::make_domain_policy_store(kDomains, kPolicies, kRoles);
  const auto pool = federation_pool(kDomains, kPolicies, kRoles, 256);

  // Single-threaded reference decisions first (the store is shared with
  // the snapshot afterwards; both sides only read it).
  core::Pdp reference(store);
  std::vector<core::Decision> expected;
  expected.reserve(pool.size());
  for (const auto& request : pool) expected.push_back(reference.evaluate(request));

  SnapshotPublisher publisher;
  publisher.publish(store);
  EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 1024;
  config.max_batch = 16;
  DecisionEngine engine(publisher, config);

  std::vector<std::future<EngineResult>> futures;
  futures.reserve(pool.size());
  for (const auto& request : pool) futures.push_back(engine.submit(request));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EngineResult result = futures[i].get();
    EXPECT_EQ(result.status, CompletionStatus::kDecided);
    EXPECT_EQ(result.snapshot_version, 1u);
    EXPECT_FALSE(result.cache_hit);
    // Bit-identical: type, extent, status text, obligations, advice.
    EXPECT_EQ(result.decision, expected[i]) << "request " << i;
  }

  engine.shutdown();
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.submitted, pool.size());
  EXPECT_EQ(m.decided, pool.size());
  EXPECT_EQ(m.sheds(), 0u);
  EXPECT_GE(m.snapshot_adoptions, 1u);
  EXPECT_GE(m.batches, 1u);
  std::uint64_t worker_total = 0;
  for (const std::uint64_t ops : m.worker_ops) worker_total += ops;
  EXPECT_EQ(worker_total, pool.size());
}

TEST(DecisionEngineTest, SubmitBeforeFirstPublishIsFailSafeIndeterminate) {
  SnapshotPublisher publisher;
  DecisionEngine engine(publisher, EngineConfig{.workers = 1});
  EngineResult result = engine.submit(probe_request()).get();
  EXPECT_EQ(result.status, CompletionStatus::kDecided);
  EXPECT_TRUE(result.decision.is_indeterminate());
  EXPECT_EQ(result.decision.status.message, kNoSnapshotMessage);
}

// ---------------------------------------------------------------------
// Admission control: deterministic shedding at the queue bound
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, ShedsExactlyTheSubmissionsBeyondTheQueueBound) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());

  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  // Wedge the single worker inside an evaluation...
  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);

  // ...fill the queue to its bound, then overflow it.
  constexpr std::size_t kOverflow = 5;
  std::vector<std::future<EngineResult>> queued;
  for (std::size_t i = 0; i < 4; ++i) queued.push_back(engine.submit(probe_request()));
  EXPECT_EQ(engine.queue_depth(), 4u);
  EXPECT_EQ(engine.metrics().sheds(), 0u);  // no shed below the bound

  std::vector<std::future<EngineResult>> shed;
  for (std::size_t i = 0; i < kOverflow; ++i) shed.push_back(engine.submit(probe_request()));

  // Sheds complete immediately (before the worker is released), with
  // the distinct queue-full status — Indeterminate, so a PEP denies.
  for (auto& f : shed) {
    EngineResult r = f.get();
    EXPECT_EQ(r.status, CompletionStatus::kShedQueueFull);
    EXPECT_TRUE(r.decision.is_indeterminate());
    EXPECT_EQ(r.decision.status.message, kShedQueueFullMessage);
  }
  const EngineMetrics::Snapshot saturated = engine.metrics();
  EXPECT_EQ(saturated.shed_queue_full, kOverflow);
  EXPECT_DOUBLE_EQ(saturated.saturation(), 1.0);
  EXPECT_GT(saturated.shed_rate(), 0.0);

  // Release the worker: everything admitted still gets a real decision.
  gate.open();
  EXPECT_TRUE(wedged.get().decision.is_permit());
  for (auto& f : queued) {
    EngineResult r = f.get();
    EXPECT_EQ(r.status, CompletionStatus::kDecided);
    EXPECT_TRUE(r.decision.is_permit());
  }
  engine.shutdown();
  EXPECT_EQ(engine.metrics().shed_queue_full, kOverflow);  // and no more
}

TEST(DecisionEngineTest, ExpiredDeadlinesShedInsteadOfEvaluatingLate) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());

  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  auto doomed = engine.submit(probe_request(), /*deadline_ms=*/1);
  auto relaxed = engine.submit(probe_request(), /*deadline_ms=*/60'000);

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.open();

  EXPECT_TRUE(wedged.get().decision.is_permit());
  EngineResult late = doomed.get();
  EXPECT_EQ(late.status, CompletionStatus::kShedDeadline);
  EXPECT_EQ(late.decision.status.message, kShedDeadlineMessage);
  EXPECT_EQ(relaxed.get().status, CompletionStatus::kDecided);
  EXPECT_EQ(engine.metrics().shed_deadline, 1u);
}

// ---------------------------------------------------------------------
// Shutdown semantics
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, DrainShutdownCompletesEverythingAdmitted) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(16));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2, .queue_capacity = 512});

  common::Rng rng(7);
  std::vector<std::future<EngineResult>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(engine.submit(bench::random_request(rng, 16, 3)));
  }
  engine.shutdown(DecisionEngine::Drain::kDrain);
  for (auto& f : futures) EXPECT_EQ(f.get().status, CompletionStatus::kDecided);

  // Post-shutdown submissions are shed, not lost.
  EngineResult refused = engine.submit(probe_request()).get();
  EXPECT_EQ(refused.status, CompletionStatus::kShutdown);
  EXPECT_EQ(refused.decision.status.message, kShutdownMessage);
  EXPECT_FALSE(engine.accepting());
}

TEST(DecisionEngineTest, DiscardShutdownCompletesQueuedAsShutdownSheds) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());

  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  std::vector<std::future<EngineResult>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(engine.submit(probe_request()));

  gate.open();  // release before joining; the wedged request completes
  engine.shutdown(DecisionEngine::Drain::kDiscard);

  EXPECT_TRUE(wedged.get().decided());
  std::size_t shutdown_sheds = 0;
  for (auto& f : queued) {
    const EngineResult r = f.get();
    // Either the worker got to it before the discard, or it was
    // completed as a shutdown shed — never dropped on the floor.
    if (r.status == CompletionStatus::kShutdown) {
      EXPECT_EQ(r.decision.status.message, kShutdownMessage);
      ++shutdown_sheds;
    } else {
      EXPECT_EQ(r.status, CompletionStatus::kDecided);
    }
  }
  EXPECT_EQ(engine.metrics().shed_shutdown, shutdown_sheds);
}

// ---------------------------------------------------------------------
// Shared decision cache across workers
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, WorkersShareTheDecisionCache) {
  common::WallClock clock;  // thread-safe; see common/clock.hpp
  cache::DecisionCache cache(clock, /*ttl=*/1'000'000, /*capacity=*/1024);

  SnapshotPublisher publisher;
  auto store = bench::make_policy_store(8);
  core::Pdp reference(store);
  publisher.publish(store);
  DecisionEngine engine(publisher, EngineConfig{.workers = 4}, &cache);

  // A request the store decides definitively (permit) — only definitive
  // decisions are cacheable.
  core::RequestContext request = core::RequestContext::make("u", "res-1", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));
  const core::Decision expected = reference.evaluate(request);
  ASSERT_TRUE(expected.is_permit());

  // First wave fills, second wave must hit regardless of which worker
  // serves it (the cache is shared, mutex-per-shard).
  EngineResult first = engine.submit(request).get();
  EXPECT_EQ(first.decision, expected);
  std::size_t hits = 0;
  for (int i = 0; i < 32; ++i) {
    EngineResult r = engine.submit(request).get();
    EXPECT_EQ(r.decision, expected);
    if (r.cache_hit) ++hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(engine.metrics().cache_hits, hits);
  EXPECT_GE(cache.stats().hits, hits);
}

TEST(DecisionEngineTest, CacheNeverServesDecisionsFromAReplacedSnapshot) {
  common::WallClock clock;
  cache::DecisionCache cache(clock, /*ttl=*/1'000'000, /*capacity=*/1024);

  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));  // v1: res-1/role-0 permits
  // One worker => the republication is adopted at the very next batch.
  DecisionEngine engine(publisher, EngineConfig{.workers = 1}, &cache);

  core::RequestContext request = core::RequestContext::make("u", "res-1", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));

  EngineResult filled = engine.submit(request).get();
  ASSERT_TRUE(filled.decision.is_permit());
  EngineResult hit = engine.submit(request).get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.snapshot_version, 1u);  // hits are snapshot-attributed

  // The policy is withdrawn (empty working set). The cached v1 permit
  // must be unreachable — cache keys are scoped to the snapshot.
  publisher.publish(std::make_shared<core::PolicyStore>());
  EngineResult after = engine.submit(request).get();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_TRUE(after.decision.is_not_applicable());
  EXPECT_EQ(after.snapshot_version, 2u);
  engine.shutdown();
}

// ---------------------------------------------------------------------
// Two-level cache mode: per-worker L1 + shared seqlock L2
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, TwoLevelCacheServesHitsFromBothLevels) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});
  ASSERT_EQ(cache.mode(), cache::DecisionCache::Mode::kTwoLevel);

  SnapshotPublisher publisher;
  auto store = bench::make_policy_store(8);
  core::Pdp reference(store);
  publisher.publish(store);
  // One worker with a one-entry L1 makes every hit's level
  // deterministic: a repeat hits the L1, a request the L1 just evicted
  // hits the L2 and is promoted back.
  EngineConfig config;
  config.workers = 1;
  config.l1_capacity = 1;
  DecisionEngine engine(publisher, config, &cache);

  const auto request_for = [](const char* resource) {
    core::RequestContext r = core::RequestContext::make("u", resource, "read");
    r.add(core::Category::kSubject, core::attrs::kRole,
          core::AttributeValue("role-0"));
    return r;
  };
  const core::RequestContext a = request_for("res-1");
  const core::RequestContext b = request_for("res-2");
  const core::Decision expected_a = reference.evaluate(a);
  ASSERT_TRUE(expected_a.is_permit());

  EngineResult r1 = engine.submit(a).get();  // miss: evaluated, L1 = {a}
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.cache_level, 0);
  EngineResult r2 = engine.submit(a).get();  // repeat: worker-private L1
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.cache_level, 1);
  EXPECT_EQ(r2.decision, expected_a);
  EngineResult r3 = engine.submit(b).get();  // miss: L1 = {b}, a evicted
  EXPECT_FALSE(r3.cache_hit);
  EngineResult r4 = engine.submit(a).get();  // L1 miss -> shared L2 hit
  EXPECT_TRUE(r4.cache_hit);
  EXPECT_EQ(r4.cache_level, 2);
  EXPECT_EQ(r4.decision, expected_a);  // seqlock payload decodes bit-identically
  EngineResult r5 = engine.submit(a).get();  // the L2 hit was promoted
  EXPECT_TRUE(r5.cache_hit);
  EXPECT_EQ(r5.cache_level, 1);

  engine.shutdown();
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.l1_hits, 2u);
  EXPECT_EQ(m.l2_hits, 1u);
  EXPECT_EQ(m.cache_hits, m.l1_hits + m.l2_hits);
  EXPECT_EQ(m.cache_misses, 2u);
}

TEST(DecisionEngineTest, TwoLevelCacheNeverServesDecisionsFromAReplacedSnapshot) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});

  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));  // v1: res-1/role-0 permits
  DecisionEngine engine(publisher, EngineConfig{.workers = 1}, &cache);

  core::RequestContext request = core::RequestContext::make("u", "res-1", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));

  EngineResult filled = engine.submit(request).get();
  ASSERT_TRUE(filled.decision.is_permit());
  EngineResult hit = engine.submit(request).get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.snapshot_version, 1u);

  // Withdraw everything: neither the worker's L1 (flushed at adoption)
  // nor the L2 (version-keyed, swept) may serve the v1 permit.
  publisher.publish(std::make_shared<core::PolicyStore>());
  EngineResult after = engine.submit(request).get();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_TRUE(after.decision.is_not_applicable());
  EXPECT_EQ(after.snapshot_version, 2u);
  engine.shutdown();
  EXPECT_GE(engine.metrics().version_evictions, 1u);
}

/// Satellite: the adoption-time version sweep reclaims exactly the
/// entries of withdrawn snapshot versions — pinned for both cache modes.
void expect_sweep_reclaims_withdrawn_entries(cache::DecisionCache& cache) {
  SnapshotPublisher publisher;
  auto store = bench::make_policy_store(8);
  publisher.publish(store);
  // One worker: adoption (and thus the sweep) happens at the first batch
  // after a publish, deterministically.
  DecisionEngine engine(publisher, EngineConfig{.workers = 1}, &cache);

  constexpr std::size_t kEntries = 16;
  for (std::size_t i = 0; i < kEntries; ++i) {
    core::RequestContext request =
        core::RequestContext::make("u" + std::to_string(i), "res-1", "read");
    request.add(core::Category::kSubject, core::attrs::kRole,
                core::AttributeValue("role-0"));
    EngineResult r = engine.submit(request).get();
    ASSERT_TRUE(r.decision.is_permit());
  }
  ASSERT_EQ(cache.size(), kEntries);
  ASSERT_EQ(engine.metrics().version_evictions, 0u);

  publisher.publish(store);  // v2 (same content, new version)
  core::RequestContext probe = core::RequestContext::make("u0", "res-1", "read");
  probe.add(core::Category::kSubject, core::attrs::kRole,
            core::AttributeValue("role-0"));
  EngineResult after = engine.submit(probe).get();
  EXPECT_FALSE(after.cache_hit);  // v1 entries are unreachable under v2
  EXPECT_EQ(after.snapshot_version, 2u);
  engine.shutdown();
  // The sweep ran at adoption, before the batch's lookups/fills: exactly
  // the kEntries v1 decisions were reclaimed (the probe refilled one
  // entry under v2 afterwards).
  EXPECT_EQ(engine.metrics().version_evictions, kEntries);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecisionEngineTest, VersionSweepReclaimsWithdrawnEntriesTwoLevel) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});
  expect_sweep_reclaims_withdrawn_entries(cache);
}

TEST(DecisionEngineTest, VersionSweepReclaimsWithdrawnEntriesMutexSharded) {
  common::WallClock clock;
  cache::DecisionCache cache(clock, /*ttl=*/1'000'000, /*capacity=*/1024);
  expect_sweep_reclaims_withdrawn_entries(cache);
}

// ---------------------------------------------------------------------
// Worker placement (pin_workers)
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, PinWorkersIsAGracefulNoOpWhenOversubscribed) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  EngineConfig config;
  // More workers than cores: pinning must back off entirely (pinned
  // oversubscribed workers would serialise on shared cores).
  config.workers = std::thread::hardware_concurrency() + 1;
  config.pin_workers = true;
  DecisionEngine engine(publisher, config);
  EXPECT_TRUE(engine.submit(probe_request()).get().decided());
  engine.shutdown();
  EXPECT_EQ(engine.workers_pinned(), 0u);
}

TEST(DecisionEngineTest, PinWorkersPinsWhenCoresSuffice) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  EngineConfig config;
  config.workers = 1;  // hardware_concurrency() >= 1 everywhere
  config.pin_workers = true;
  DecisionEngine engine(publisher, config);
  EXPECT_TRUE(engine.submit(probe_request()).get().decided());
  engine.shutdown();
#ifdef __linux__
  EXPECT_EQ(engine.workers_pinned(), 1u);
#else
  EXPECT_EQ(engine.workers_pinned(), 0u);  // graceful platform no-op
#endif
}

// ---------------------------------------------------------------------
// Publish hook: the version-based flush signal for PEP-side caches
// ---------------------------------------------------------------------

TEST(SnapshotPublisherTest, PublishHooksSeeEveryVersionInOrder) {
  SnapshotPublisher publisher;
  std::vector<std::uint64_t> seen;
  publisher.add_publish_hook([&](std::uint64_t v) { seen.push_back(v); });
  publisher.publish(bench::make_policy_store(2));
  publisher.publish(bench::make_policy_store(2));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(SnapshotPublisherTest, PublishHookFlushesAPepSideDecisionCache) {
  // A PEP-side cache (CachingEvaluator stores under version 0) wired to
  // drop stale decisions whenever policy is republished — the
  // single-consumer flush shape the hook exists for.
  common::WallClock clock;
  cache::DecisionCache cache(clock, /*ttl=*/1'000'000, /*capacity=*/64);
  SnapshotPublisher publisher;
  publisher.add_publish_hook(
      [&cache](std::uint64_t version) { cache.evict_older_than(version); });

  std::size_t evaluations = 0;
  cache::CachingEvaluator evaluator(cache, [&](const core::RequestContext&) {
    ++evaluations;
    return core::Decision::permit();
  });
  evaluator(probe_request());
  evaluator(probe_request());
  EXPECT_EQ(evaluations, 1u);  // second call was a cache hit

  publisher.publish(bench::make_policy_store(2));  // version 1 > 0: flushed
  evaluator(probe_request());
  EXPECT_EQ(evaluations, 2u);  // re-evaluated against the new policy
}

// ---------------------------------------------------------------------
// Wiring: EnforcementPoint and PdpService through the engine
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, EnforcementPointSubmitsThroughEngine) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2});

  pep::EnforcementPoint point(engine_decision_source(engine));
  core::RequestContext allowed = core::RequestContext::make("u", "res-1", "read");
  allowed.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));
  EXPECT_TRUE(point.enforce(allowed).allowed);

  core::RequestContext refused = core::RequestContext::make("u", "res-1", "read");
  refused.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-99"));
  EXPECT_FALSE(point.enforce(refused).allowed);

  // role-99 was denied BY POLICY (the trailing deny rule), not by bias;
  // a shed after shutdown is Indeterminate -> the fail-safe deny bias.
  EXPECT_EQ(point.denials_by_bias(), 0u);
  engine.shutdown();
  const pep::Enforcement e = point.enforce(allowed);
  EXPECT_FALSE(e.allowed);
  EXPECT_EQ(point.denials_by_bias(), 1u);
}

TEST(DecisionEngineTest, PdpServiceServesWireTrafficThroughEngine) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2});

  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  // The service still carries a local replica; the engine overrides it.
  auto local = std::make_shared<core::Pdp>(bench::make_policy_store(4));
  pep::PdpService service(network, "domain/pdp", local);
  service.set_engine(&engine);
  pep::RemotePdpClient client(network, "domain/pep", "domain/pdp");

  core::RequestContext request = core::RequestContext::make("u", "res-2", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-1"));
  std::optional<core::Decision> got;
  client.evaluate(request, [&](core::Decision d) { got = std::move(d); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_permit());
  EXPECT_EQ(service.requests_served(), 1u);
  EXPECT_EQ(engine.metrics().decided, 1u);
}

TEST(DecisionEngineTest, ReplicatedClientTrafficLandsOnEngineBackedReplicas) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2});

  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  auto local_a = std::make_shared<core::Pdp>(bench::make_policy_store(4));
  auto local_b = std::make_shared<core::Pdp>(bench::make_policy_store(4));
  dependability::PdpReplica replica_a(network, "pdp/a", local_a);
  dependability::PdpReplica replica_b(network, "pdp/b", local_b);
  replica_a.service().set_engine(&engine);
  replica_b.service().set_engine(&engine);
  replica_a.set_up(false);  // failover forces the dispatcher to walk on

  dependability::ReplicatedPdpClient client(network, "pep/client", {"pdp/a", "pdp/b"},
                                            dependability::DispatchStrategy::kFailover,
                                            /*per_try_timeout=*/50);
  core::RequestContext request = core::RequestContext::make("u", "res-3", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-2"));
  std::optional<core::Decision> got;
  client.evaluate(request, [&](core::Decision d) { got = std::move(d); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_permit());
  EXPECT_EQ(replica_b.requests_served(), 1u);
  EXPECT_EQ(engine.metrics().decided, 1u);
  EXPECT_EQ(client.stats().failovers, 1u);
}

// ---------------------------------------------------------------------
// Metrics surface
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, MetricsExposeLatencyAndBatchShape) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2, .max_batch = 8});

  common::Rng rng(11);
  std::vector<std::future<EngineResult>> futures;
  for (int i = 0; i < 128; ++i) {
    futures.push_back(engine.submit(bench::random_request(rng, 8, 3)));
  }
  for (auto& f : futures) f.get();
  engine.shutdown();

  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.decided, 128u);
  EXPECT_GT(m.latency_p50_ns, 0.0);
  EXPECT_GE(m.latency_p90_ns, m.latency_p50_ns);
  EXPECT_GE(m.latency_p99_ns, m.latency_p90_ns);
  EXPECT_GT(m.mean_batch_size, 0.0);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.queue_capacity, engine.queue_capacity());
}

// Drives EngineMetrics directly with known samples on two workers and
// two caller threads, and pins every Snapshot field exactly — including
// the log2 bucket-midpoint percentiles (1000 ns reads back as 768) —
// then pins reset() to zero, caller-side counts and histogram included.
TEST(EngineMetricsTest, RecordsFoldIntoAnExactSnapshotAndResetZeroesIt) {
  EngineMetrics metrics(/*workers=*/2, /*queue_capacity=*/64);

  for (int i = 0; i < 7; ++i) metrics.record_submitted();
  metrics.record_batch(0, 3);
  metrics.record_batch(0, 5);
  metrics.record_batch(1, 2);
  for (int i = 0; i < 55; ++i) metrics.record_decided(0, 1000);  // bucket 10
  for (int i = 0; i < 34; ++i) metrics.record_decided(1, 3000);  // bucket 12
  for (int i = 0; i < 3; ++i) metrics.record_l1_hit(0);
  metrics.record_l2_hit(0, /*retries=*/2);
  metrics.record_cache_miss(0, /*retries=*/1);
  metrics.record_cache_miss(0, /*retries=*/1);
  metrics.record_l2_hit(1, 0);
  metrics.record_l2_hit(1, 0);
  metrics.record_cache_miss(1, 0);
  metrics.record_shed(CompletionStatus::kShedQueueFull);
  metrics.record_shed(CompletionStatus::kShedQueueFull);
  metrics.record_shed(CompletionStatus::kShedDeadline);
  for (int i = 0; i < 3; ++i) metrics.record_shed(CompletionStatus::kShutdown);
  metrics.record_shed(CompletionStatus::kDecided);  // not a shed: no-op
  metrics.record_version_evictions(5);
  metrics.record_version_evictions(7);
  for (int i = 0; i < 4; ++i) metrics.record_adoption();
  metrics.set_queue_depth(17);

  std::thread caller_a([&metrics] {
    for (int i = 0; i < 9; ++i) {
      metrics.record_caller_submitted();
      metrics.record_caller_hit(100000, i == 0 ? 3 : 0);  // bucket 17
    }
    metrics.record_caller_retries(4);
    metrics.record_caller_retries(0);
  });
  std::thread caller_b([&metrics] {
    for (int i = 0; i < 3; ++i) metrics.record_caller_submitted();
    metrics.record_caller_hit(5000000, 0);  // bucket 23
    metrics.record_caller_hit(5000000, 0);
  });
  caller_a.join();
  caller_b.join();

  const EngineMetrics::Snapshot m = metrics.snapshot();
  EXPECT_EQ(m.submitted, 19u);
  EXPECT_EQ(m.decided, 100u);
  EXPECT_EQ(m.l1_hits, 3u);
  EXPECT_EQ(m.l2_hits, 14u);
  EXPECT_EQ(m.cache_hits, 17u);
  EXPECT_EQ(m.cache_misses, 3u);
  EXPECT_EQ(m.l2_read_retries, 11u);
  EXPECT_EQ(m.version_evictions, 12u);
  EXPECT_EQ(m.shed_queue_full, 2u);
  EXPECT_EQ(m.shed_deadline, 1u);
  EXPECT_EQ(m.shed_shutdown, 3u);
  EXPECT_EQ(m.sheds(), 6u);
  EXPECT_DOUBLE_EQ(m.shed_rate(), 6.0 / 19.0);
  EXPECT_EQ(m.batches, 3u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 10.0 / 3.0);
  EXPECT_EQ(m.snapshot_adoptions, 4u);
  EXPECT_EQ(m.queue_depth, 17u);
  EXPECT_EQ(m.queue_capacity, 64u);
  EXPECT_DOUBLE_EQ(m.saturation(), 17.0 / 64.0);
  EXPECT_EQ(m.worker_ops, (std::vector<std::uint64_t>{55, 34}));
  std::array<std::uint64_t, 64> buckets{};
  buckets[10] = 55;
  buckets[12] = 34;
  buckets[17] = 9;
  buckets[23] = 2;
  EXPECT_EQ(m.latency_buckets, buckets);
  EXPECT_EQ(m.latency_sum_ns, 55u * 1000 + 34u * 3000 + 9u * 100000 + 2u * 5000000);
  // Bucket i reads back as its midpoint 1.5 * 2^(i-1).
  EXPECT_DOUBLE_EQ(m.latency_p50_ns, 768.0);
  EXPECT_DOUBLE_EQ(m.latency_p90_ns, 98304.0);
  EXPECT_DOUBLE_EQ(m.latency_p99_ns, 6291456.0);

  // Eight more caller threads take eight consecutive stripes, so every
  // stripe holds counts when reset() runs.
  std::vector<std::thread> callers;
  for (int i = 0; i < 8; ++i) {
    callers.emplace_back([&metrics] {
      metrics.record_caller_submitted();
      metrics.record_caller_hit(1000, 1);
      metrics.record_caller_retries(1);
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(metrics.snapshot().decided, 108u);

  metrics.reset();
  const EngineMetrics::Snapshot z = metrics.snapshot();
  EXPECT_EQ(z.submitted, 0u);
  EXPECT_EQ(z.decided, 0u);
  EXPECT_EQ(z.cache_hits, 0u);
  EXPECT_EQ(z.l1_hits, 0u);
  EXPECT_EQ(z.l2_hits, 0u);
  EXPECT_EQ(z.cache_misses, 0u);
  EXPECT_EQ(z.l2_read_retries, 0u);
  EXPECT_EQ(z.version_evictions, 0u);
  EXPECT_EQ(z.shed_queue_full, 0u);
  EXPECT_EQ(z.shed_deadline, 0u);
  EXPECT_EQ(z.shed_shutdown, 0u);
  EXPECT_EQ(z.batches, 0u);
  EXPECT_EQ(z.snapshot_adoptions, 0u);
  EXPECT_EQ(z.queue_depth, 0u);
  EXPECT_EQ(z.queue_capacity, 64u);
  EXPECT_EQ(z.worker_ops, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_DOUBLE_EQ(z.mean_batch_size, 0.0);
  EXPECT_EQ(z.latency_buckets, (std::array<std::uint64_t, 64>{}));
  EXPECT_EQ(z.latency_sum_ns, 0u);
  EXPECT_DOUBLE_EQ(z.latency_p50_ns, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_p90_ns, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_p99_ns, 0.0);

  // Counting resumes after a reset, on workers and caller threads alike.
  metrics.record_decided(1, 1000);
  std::thread([&metrics] {
    metrics.record_caller_submitted();
    metrics.record_caller_hit(1000, 0);
  }).join();
  const EngineMetrics::Snapshot after = metrics.snapshot();
  EXPECT_EQ(after.submitted, 1u);
  EXPECT_EQ(after.decided, 2u);
  EXPECT_EQ(after.l2_hits, 1u);
  EXPECT_EQ(after.worker_ops, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(after.latency_buckets[10], 2u);
  EXPECT_DOUBLE_EQ(after.latency_p50_ns, 768.0);
}

// ---------------------------------------------------------------------
// core::Pdp debug owner-thread contract (satellite)
// ---------------------------------------------------------------------

#ifndef NDEBUG
using PdpThreadContractDeathTest = ::testing::Test;

TEST(PdpThreadContractDeathTest, CrossThreadEvaluateAsserts) {
  // threadsafe style re-execs the test binary for the death assertion —
  // required here because the statement under test spawns a thread.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto store = bench::make_policy_store(2);
  core::Pdp pdp(store);
  pdp.evaluate(probe_request());  // this thread now owns the Pdp
  EXPECT_DEATH(
      {
        std::thread other([&] { pdp.evaluate(probe_request()); });
        other.join();
      },
      "single-threaded");
}

TEST(PdpThreadContractDeathTest, RebindAllowsSerialisedHandOff) {
  auto store = bench::make_policy_store(2);
  core::Pdp pdp(store);
  pdp.evaluate(probe_request());
  pdp.rebind_owner_thread();
  core::Decision moved_result;
  std::thread other([&] { moved_result = pdp.evaluate(probe_request()); });
  other.join();
  EXPECT_FALSE(moved_result.is_indeterminate());
}
#endif  // !NDEBUG

// ---------------------------------------------------------------------
// Decision tracing (mdac::obs)
// ---------------------------------------------------------------------

TEST(DecisionEngineTracingTest, SampledTraceReconstructsDecisionPath) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 256});
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 1});
  EngineConfig config;
  config.workers = 1;
  config.l1_capacity = 64;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config, &cache);

  core::RequestContext request = core::RequestContext::make("u", "res-1", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));
  const EngineResult miss = engine.submit(request).get();
  const EngineResult hit = engine.submit(request).get();
  engine.shutdown();
  ASSERT_TRUE(miss.decision.is_permit());
  ASSERT_NE(miss.trace_id, 0u);
  ASSERT_NE(hit.trace_id, 0u);
  EXPECT_NE(miss.trace_id, hit.trace_id);

  // The evaluated request's trace walks the full path: admission →
  // queue wait → batch membership → cache miss → replica evaluation →
  // outcome, timestamps monotone, summary fields matching the result.
  const auto trace = tracer.find(miss.trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, obs::TraceOutcome::kDecided);
  EXPECT_FALSE(trace->anomaly);
  EXPECT_EQ(trace->worker, 0u);
  EXPECT_EQ(trace->snapshot_version, miss.snapshot_version);
  EXPECT_EQ(trace->cache_level, miss.cache_level);
  std::vector<obs::SpanKind> kinds;
  for (std::size_t i = 0; i < trace->span_count; ++i) {
    const obs::Span& span = trace->spans[i];
    kinds.push_back(span.kind);
    EXPECT_GE(span.at_ns, trace->started_ns);
    if (i > 0) {
      EXPECT_GE(span.at_ns, trace->spans[i - 1].at_ns);
    }
  }
  const std::vector<obs::SpanKind> expected = {
      obs::SpanKind::kAdmission,  obs::SpanKind::kQueueWait,
      obs::SpanKind::kBatch,      obs::SpanKind::kCacheProbe,
      obs::SpanKind::kEvaluate,   obs::SpanKind::kOutcome};
  EXPECT_EQ(kinds, expected);
  EXPECT_GE(trace->finished_ns, trace->started_ns);
  EXPECT_EQ(trace->latency_ns(), trace->finished_ns - trace->started_ns);

  // The repeat hit the worker-private L1: its trace records the serving
  // level and carries no evaluate span.
  const auto hit_trace = tracer.find(hit.trace_id);
  ASSERT_TRUE(hit_trace.has_value());
  EXPECT_EQ(hit_trace->cache_level, 1);
  bool saw_probe = false;
  for (std::size_t i = 0; i < hit_trace->span_count; ++i) {
    const obs::Span& span = hit_trace->spans[i];
    EXPECT_NE(span.kind, obs::SpanKind::kEvaluate);
    if (span.kind == obs::SpanKind::kCacheProbe) {
      saw_probe = true;
      EXPECT_EQ(span.a, 1u);  // a = serving level
    }
  }
  EXPECT_TRUE(saw_probe);
}

TEST(DecisionEngineTracingTest, ShedIsTailSampledEvenWithHeadSamplingOff) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());
  // sample_every_n = 0: no head sampling at all — only the anomaly
  // tail-path can publish.
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 0});
  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.max_batch = 1;
  config.resolver = &gate;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config);

  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  std::vector<std::future<EngineResult>> queued;
  for (int i = 0; i < 2; ++i) queued.push_back(engine.submit(probe_request()));
  const EngineResult shed = engine.submit(probe_request()).get();
  ASSERT_EQ(shed.status, CompletionStatus::kShedQueueFull);
  ASSERT_NE(shed.trace_id, 0u);

  // The shed was synthesized at completion: outcome, anomaly flag and
  // path summary all present despite head sampling being off.
  const auto trace = tracer.find(shed.trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, obs::TraceOutcome::kShedQueueFull);
  EXPECT_TRUE(trace->anomaly);
  EXPECT_EQ(trace->worker, obs::Trace::kNoWorker);
  EXPECT_EQ(trace->snapshot_version, 0u);
  EXPECT_EQ(trace->decision, core::DecisionType::kIndeterminate);
  ASSERT_GE(trace->span_count, 2u);
  EXPECT_EQ(trace->spans[0].kind, obs::SpanKind::kAdmission);
  const obs::Span& outcome = trace->spans[trace->span_count - 1];
  EXPECT_EQ(outcome.kind, obs::SpanKind::kOutcome);
  EXPECT_EQ(outcome.tag_view(), "shed-queue-full");
  EXPECT_EQ(tracer.anomalies_total(), 1u);

  gate.open();
  wedged.get();
  for (auto& f : queued) f.get();
  engine.shutdown();
  // Decided, non-sampled completions stayed unpublished.
  EXPECT_EQ(tracer.published_total(), 1u);
  EXPECT_EQ(tracer.admitted_total(), 4u);
}

TEST(DecisionEngineTracingTest, NoSnapshotFailsafeIsFlaggedAnomalous) {
  SnapshotPublisher publisher;
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 0});
  EngineConfig config;
  config.workers = 1;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config);
  const EngineResult result = engine.submit(probe_request()).get();
  engine.shutdown();
  ASSERT_TRUE(result.decision.is_indeterminate());
  const auto trace = tracer.find(result.trace_id);
  ASSERT_TRUE(trace.has_value());
  // Decided — the engine answered — but Indeterminate, so the trace is
  // an always-sampled anomaly.
  EXPECT_EQ(trace->outcome, obs::TraceOutcome::kDecided);
  EXPECT_TRUE(trace->anomaly);
  EXPECT_EQ(trace->decision, core::DecisionType::kIndeterminate);
}

TEST(DecisionEngineTracingTest, UntracedEngineAssignsNoTraceIds) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(2));
  DecisionEngine engine(publisher, EngineConfig{.workers = 1});
  const EngineResult result = engine.submit(probe_request()).get();
  engine.shutdown();
  EXPECT_EQ(result.trace_id, 0u);
}

// ---------------------------------------------------------------------
// Blocking decide(): caller-side L2 probe, misses through the workers
// ---------------------------------------------------------------------

/// A store whose one policy permits everything under odd `k` and denies
/// everything under even `k`: a decision served across a republication
/// boundary shows as the wrong effect for the version it names.
std::shared_ptr<core::PolicyStore> make_parity_store(int k) {
  auto store = std::make_shared<core::PolicyStore>();
  core::Policy p;
  p.policy_id = "parity";
  core::Rule r;
  r.id = "by-parity";
  r.effect = k % 2 == 1 ? core::Effect::kPermit : core::Effect::kDeny;
  p.rules.push_back(std::move(r));
  store->add(std::move(p));
  return store;
}

core::DecisionType parity_effect(std::uint64_t version) {
  return version % 2 == 1 ? core::DecisionType::kPermit : core::DecisionType::kDeny;
}

void expect_caller_side_hit_then_shutdown_shed(cache::DecisionCache& cache) {
  SnapshotPublisher publisher;
  publisher.publish(make_parity_store(1));
  DecisionEngine engine(publisher, EngineConfig{.workers = 1}, &cache);

  // The first decide misses and is evaluated by the worker, which fills
  // the shared level; the repeat is served on this thread from L2.
  const EngineResult miss = engine.decide(probe_request());
  ASSERT_EQ(miss.status, CompletionStatus::kDecided);
  EXPECT_TRUE(miss.decision.is_permit());
  EXPECT_FALSE(miss.cache_hit);
  const EngineResult hit = engine.decide(probe_request());
  ASSERT_EQ(hit.status, CompletionStatus::kDecided);
  EXPECT_EQ(hit.decision, miss.decision);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.cache_level, 2);
  EXPECT_EQ(hit.snapshot_version, 1u);

  // A caller-side hit counts like a worker hit, outside every worker's
  // own counters.
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.decided, 2u);
  EXPECT_EQ(m.l2_hits, 1u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.worker_ops, std::vector<std::uint64_t>{1});

  // After shutdown the cached request is still refused: a stopping
  // engine never answers from the cache.
  engine.shutdown();
  const EngineResult after = engine.decide(probe_request());
  EXPECT_EQ(after.status, CompletionStatus::kShutdown);
  EXPECT_TRUE(after.decision.is_indeterminate());
  EXPECT_EQ(after.decision.status.message, kShutdownMessage);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(engine.metrics().shed_shutdown, 1u);
  EXPECT_EQ(engine.metrics().submitted, 3u);
}

TEST(DecisionEngineDecideTest, CallerSideHitThenShutdownShedTwoLevel) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 256});
  expect_caller_side_hit_then_shutdown_shed(cache);
}

TEST(DecisionEngineDecideTest, CallerSideHitThenShutdownShedMutexSharded) {
  common::WallClock clock;
  cache::DecisionCache cache(clock, /*ttl=*/1'000'000, /*capacity=*/256);
  expect_caller_side_hit_then_shutdown_shed(cache);
}

TEST(DecisionEngineDecideTest, WithoutACacheEveryDecideReachesAWorker) {
  SnapshotPublisher publisher;
  DecisionEngine engine(publisher, EngineConfig{.workers = 1});
  // Before the first publish: the worker's fail-safe answer.
  const EngineResult early = engine.decide(probe_request());
  EXPECT_TRUE(early.decision.is_indeterminate());
  EXPECT_EQ(early.decision.status.message, kNoSnapshotMessage);
  publisher.publish(make_parity_store(1));
  for (int i = 0; i < 3; ++i) {
    const EngineResult r = engine.decide(probe_request());
    EXPECT_TRUE(r.decision.is_permit());
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.snapshot_version, 1u);
  }
  engine.shutdown();
  EXPECT_EQ(engine.metrics().worker_ops, std::vector<std::uint64_t>{4});
}

TEST(DecisionEngineDecideTest, NoDecisionOlderThanTheLastReturnedPublish) {
  // Sequentially: once publish() has returned, decide() answers from the
  // new version — its first call misses (nothing is cached under it yet)
  // and the repeat hits the entry the worker just filled.
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 256});
  SnapshotPublisher publisher;
  DecisionEngine engine(publisher, EngineConfig{.workers = 2}, &cache);
  for (int k = 1; k <= 12; ++k) {
    publisher.publish(make_parity_store(k));
    for (int i = 0; i < 3; ++i) {
      const EngineResult r = engine.decide(probe_request());
      ASSERT_EQ(r.status, CompletionStatus::kDecided);
      EXPECT_EQ(r.snapshot_version, static_cast<std::uint64_t>(k));
      EXPECT_EQ(r.decision.type, parity_effect(r.snapshot_version));
      EXPECT_EQ(r.cache_hit, i > 0);
    }
  }

  // Concurrently: a reader that saw version v published before calling
  // must get a decision stamped v or newer, and the right one for it.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> calls{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t floor = publisher.current_version();
        const EngineResult r = engine.decide(probe_request());
        calls.fetch_add(1, std::memory_order_relaxed);
        if (r.snapshot_version < floor) stale.fetch_add(1, std::memory_order_relaxed);
        if (r.decision.type != parity_effect(r.snapshot_version)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int k = 13; k <= 60; ++k) {
    publisher.publish(make_parity_store(k));
    // Let the readers decide a few times under each version.
    const std::uint64_t seen = calls.load(std::memory_order_relaxed);
    while (calls.load(std::memory_order_relaxed) < seen + 4) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(DecisionEngineDecideTest, FullQueueShedsAMissOnTheCallersThread) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 256});
  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config, &cache);

  // Wedge the worker, fill the queue to its bound...
  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  std::vector<std::future<EngineResult>> queued;
  for (int i = 0; i < 2; ++i) queued.push_back(engine.submit(probe_request()));
  ASSERT_EQ(engine.queue_depth(), 2u);

  // ...then a decide() that misses the cache returns at once, on this
  // thread, while the only worker is still wedged.
  const EngineResult shed = engine.decide(probe_request());
  EXPECT_EQ(shed.status, CompletionStatus::kShedQueueFull);
  EXPECT_TRUE(shed.decision.is_indeterminate());
  EXPECT_EQ(shed.decision.status.message, kShedQueueFullMessage);
  EXPECT_EQ(engine.metrics().shed_queue_full, 1u);

  gate.open();
  EXPECT_TRUE(wedged.get().decision.is_permit());
  for (auto& f : queued) EXPECT_TRUE(f.get().decision.is_permit());
  engine.shutdown();
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.submitted, 4u);
  EXPECT_EQ(m.decided + m.sheds(), m.submitted);
}

TEST(DecisionEngineDecideTest, SampledCallerSideHitPublishesItsTrace) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 256});
  SnapshotPublisher publisher;
  publisher.publish(make_parity_store(1));
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 1});
  EngineConfig config;
  config.workers = 1;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config, &cache);

  const EngineResult miss = engine.decide(probe_request());
  const EngineResult hit = engine.decide(probe_request());
  engine.shutdown();
  ASSERT_EQ(hit.cache_level, 2);
  ASSERT_NE(miss.trace_id, 0u);
  ASSERT_NE(hit.trace_id, 0u);
  EXPECT_NE(miss.trace_id, hit.trace_id);

  // The miss is traced through the worker as for submit().
  const auto miss_trace = tracer.find(miss.trace_id);
  ASSERT_TRUE(miss_trace.has_value());
  EXPECT_EQ(miss_trace->worker, 0u);
  EXPECT_EQ(miss_trace->cache_level, 0);

  // The hit never reached a worker: admission, the caller's L2 probe,
  // outcome.
  const auto trace = tracer.find(hit.trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, obs::TraceOutcome::kDecided);
  EXPECT_FALSE(trace->anomaly);
  EXPECT_EQ(trace->worker, obs::Trace::kNoWorker);
  EXPECT_EQ(trace->cache_level, 2);
  EXPECT_EQ(trace->snapshot_version, hit.snapshot_version);
  EXPECT_EQ(trace->decision, core::DecisionType::kPermit);
  std::vector<obs::SpanKind> kinds;
  for (std::size_t i = 0; i < trace->span_count; ++i) {
    kinds.push_back(trace->spans[i].kind);
    if (trace->spans[i].kind == obs::SpanKind::kCacheProbe) {
      EXPECT_EQ(trace->spans[i].a, 2u);
    }
  }
  const std::vector<obs::SpanKind> expected = {obs::SpanKind::kAdmission,
                                               obs::SpanKind::kCacheProbe,
                                               obs::SpanKind::kOutcome};
  EXPECT_EQ(kinds, expected);
  EXPECT_GE(trace->finished_ns, trace->started_ns);
}

}  // namespace
}  // namespace mdac::runtime

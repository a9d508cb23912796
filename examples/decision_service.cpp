// A multi-domain decision service on the mdac::runtime engine:
//
//   PAP (RepositoryPublisher) --publishes snapshots--> SnapshotPublisher
//        |                                                  |
//   issue/update/withdraw                         DecisionEngine (N workers,
//        |                                         private Pdp replicas,
//        v                                         bounded queue, shedding)
//   audit log                                               ^
//                                                           |
//   PEP (EnforcementPoint) --engine_decision_source (DecisionEngine::decide:
//                             cache hits on the PEP thread, misses to a worker)
//
// Run it to watch the same PEP traffic flow while the PAP republishes
// policy mid-stream, and to see deterministic shedding once the queue
// bound is hit.
#include <cstdio>
#include <future>
#include <vector>

#include "common/clock.hpp"
#include "core/expression.hpp"
#include "core/serialization.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pap/repository.hpp"
#include "pep/pep.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

using namespace mdac;

namespace {

core::Policy records_policy(bool allow_audit_role) {
  core::Policy p;
  p.policy_id = "records-access";
  p.rule_combining = "first-applicable";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue("patient-records"));
  core::Rule doctors;
  doctors.id = "permit-doctors";
  doctors.effect = core::Effect::kPermit;
  core::Target t;
  t.require(core::Category::kSubject, core::attrs::kRole,
            core::AttributeValue("doctor"));
  doctors.target = std::move(t);
  p.rules.push_back(std::move(doctors));
  if (allow_audit_role) {
    core::Rule auditors;
    auditors.id = "permit-auditors";
    auditors.effect = core::Effect::kPermit;
    core::Target ta;
    ta.require(core::Category::kSubject, core::attrs::kRole,
               core::AttributeValue("auditor"));
    auditors.target = std::move(ta);
    p.rules.push_back(std::move(auditors));
  }
  core::Rule deny;
  deny.id = "deny-rest";
  deny.effect = core::Effect::kDeny;
  p.rules.push_back(std::move(deny));
  return p;
}

core::RequestContext request_as(const char* role) {
  core::RequestContext r =
      core::RequestContext::make("user-1", "patient-records", "read");
  r.add(core::Category::kSubject, core::attrs::kRole, core::AttributeValue(role));
  return r;
}

}  // namespace

int main() {
  // --- PAP side: repository + snapshot publication -------------------
  common::WallClock clock;
  pap::PolicyRepository repo(clock);
  runtime::SnapshotPublisher snapshots;
  runtime::RepositoryPublisher pap(repo, snapshots);

  pap.submit(core::node_to_string(records_policy(/*allow_audit_role=*/false)),
             "hospital-admin");
  pap.issue("records-access", "hospital-admin");

  // --- Runtime: 4 worker replicas over the published snapshot, with
  // the PR-8 two-level decision cache: per-worker L1s in front of a
  // shared seqlock L2, keyed by (request fingerprint, snapshot version)
  // so the republication below implicitly invalidates every cached
  // decision. pin_workers asks for one core per worker (a graceful
  // no-op on small hosts or unsupported platforms).
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 4096});
  // Observability (mdac::obs): head-sample every 100th decision, and
  // tail-sample every shed / fail-safe as an anomaly regardless.
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 100});
  runtime::EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 64;
  config.l1_capacity = 256;
  config.pin_workers = true;
  config.tracer = &tracer;
  runtime::DecisionEngine engine(snapshots, config, &cache);

  // --- PEP side: the ordinary EnforcementPoint, engine-backed --------
  pep::EnforcementPoint pep_point(runtime::engine_decision_source(engine));

  const auto show = [&](const char* role) {
    const pep::Enforcement e = pep_point.enforce(request_as(role));
    std::printf("  %-8s -> %s (%s)\n", role, e.allowed ? "ALLOW" : "DENY",
                e.allowed ? "permit" : e.reason.c_str());
  };

  std::printf("snapshot v%llu (doctors only):\n",
              static_cast<unsigned long long>(snapshots.current_version()));
  show("doctor");
  show("auditor");

  // --- PAP update mid-stream: auditors gain access -------------------
  pap.submit(core::node_to_string(records_policy(/*allow_audit_role=*/true)),
             "hospital-admin");
  pap.issue("records-access", "compliance-officer");
  std::printf("snapshot v%llu (auditors added; workers adopt at the next batch):\n",
              static_cast<unsigned long long>(snapshots.current_version()));
  show("doctor");
  show("auditor");

  // --- Overload: flood past the queue bound and watch the shed path --
  std::vector<std::future<runtime::EngineResult>> flood;
  for (int i = 0; i < 2000; ++i) flood.push_back(engine.submit(request_as("doctor")));
  std::size_t decided = 0;
  std::size_t shed = 0;
  for (auto& f : flood) {
    (f.get().status == runtime::CompletionStatus::kDecided) ? ++decided : ++shed;
  }
  engine.shutdown();
  const runtime::EngineMetrics::Snapshot m = engine.metrics();
  std::printf(
      "flood of %zu: %zu decided, %zu shed (queue bound %zu) — shed decisions are "
      "Indeterminate{DP} '%s', which the PEP denies fail-safe\n",
      flood.size(), decided, shed, engine.queue_capacity(), runtime::kShedQueueFullMessage);
  std::printf(
      "engine metrics: %llu submitted, %llu decided, shed_rate %.2f, mean batch %.1f, "
      "p50 %.0f us\n",
      static_cast<unsigned long long>(m.submitted),
      static_cast<unsigned long long>(m.decided), m.shed_rate(), m.mean_batch_size,
      m.latency_p50_ns / 1000.0);
  std::printf(
      "decision cache: %llu L1 hits, %llu L2 hits, %llu misses, %llu L2 read "
      "retries, %llu version evictions (republication swept v1 entries), "
      "%zu workers pinned\n",
      static_cast<unsigned long long>(m.l1_hits),
      static_cast<unsigned long long>(m.l2_hits),
      static_cast<unsigned long long>(m.cache_misses),
      static_cast<unsigned long long>(m.l2_read_retries),
      static_cast<unsigned long long>(m.version_evictions),
      engine.workers_pinned());

  // --- Explain traces: query the tracer's ring -----------------------
  std::printf(
      "\ntracer: %llu admitted, %llu sampled, %llu published (%llu anomalies)\n",
      static_cast<unsigned long long>(tracer.admitted_total()),
      static_cast<unsigned long long>(tracer.sampled_total()),
      static_cast<unsigned long long>(tracer.published_total()),
      static_cast<unsigned long long>(tracer.anomalies_total()));
  if (const auto worst = tracer.worst_latency()) {
    std::printf("\nworst-latency sampled trace:\n%s", obs::render(*worst).c_str());
  }
  const auto sheds = tracer.with_outcome(obs::TraceOutcome::kShedQueueFull);
  if (!sheds.empty()) {
    std::printf("\none of %zu shed traces (tail-sampled as anomalies):\n%s",
                sheds.size(), obs::render(sheds.front()).c_str());
  }

  // --- Prometheus exposition: what a scrape would return -------------
  obs::Registry registry;
  tracer.register_metrics(registry);
  engine.register_metrics(registry);
  cache.register_metrics(registry);
  std::string page;
  registry.expose(page);
  std::printf("\nscrape preview (first lines of %zu-byte exposition):\n", page.size());
  std::size_t printed = 0, pos = 0;
  while (printed < 12 && pos < page.size()) {
    const std::size_t eol = page.find('\n', pos);
    std::printf("  %s\n", page.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++printed;
  }
  return 0;
}

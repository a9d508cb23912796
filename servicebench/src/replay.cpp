#include "replay.hpp"

#include <memory>
#include <string>

#include "analysis/analysis.hpp"
#include "cache/decision_cache.hpp"
#include "core/compiled.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"
#include "measure.hpp"

namespace servicebench {

namespace {

namespace cache = mdac::cache;
namespace analysis = mdac::analysis;

/// Keeps a computed value alive so the timed call is not optimised away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over `batches` of the ns per call of `op(i)` for i over
/// [0, n), each batch repeating whole passes for at least `batch_ms`.
template <typename Op>
double per_call_ns(std::size_t n, Op&& op, double batch_ms = 20, int batches = 5) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t start = now_ns();
    std::uint64_t calls = 0;
    std::uint64_t elapsed = 0;
    do {
      for (std::size_t i = 0; i < n; ++i) op(i);
      calls += n;
      elapsed = now_ns() - start;
    } while (static_cast<double>(elapsed) < batch_ms * 1e6);
    per_call.push_back(static_cast<double>(elapsed) / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

}  // namespace

ReplayFigures replay(const pap::PolicyRepository& repository,
                     const std::vector<core::RequestContext>& sample,
                     const PolicyDocument& candidate) {
  ReplayFigures out;
  const std::size_t n = sample.size();

  out.fingerprint_ns = per_call_ns(n, [&](std::size_t i) { keep(cache::fingerprint(sample[i])); });

  auto store = std::make_shared<core::PolicyStore>();
  repository.load_into(store.get());
  core::Pdp pdp(store);
  std::vector<core::Decision> decisions;
  decisions.reserve(n);
  for (const auto& request : sample) decisions.push_back(pdp.evaluate(request));

  const std::uint64_t allocs_before = thread_allocations();
  for (const auto& request : sample) keep(pdp.evaluate(request));
  out.evaluate_allocs =
      static_cast<double>(thread_allocations() - allocs_before) / static_cast<double>(n);
  out.evaluate_us = per_call_ns(n, [&](std::size_t i) { keep(pdp.evaluate(sample[i])); }) / 1e3;

  cache::DecisionCache l2(cache::DecisionCache::TwoLevelConfig{.capacity = 4096});
  std::vector<cache::RequestKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(cache::fingerprint(sample[i]));
    l2.insert(keys[i], 1, decisions[i]);
  }
  out.l2_lookup_ns = per_call_ns(n, [&](std::size_t i) { keep(l2.lookup(keys[i], 1)); });

  std::vector<std::string> request_xml, decision_xml;
  for (std::size_t i = 0; i < n; ++i) {
    request_xml.push_back(core::request_to_string(sample[i]));
    decision_xml.push_back(core::decision_to_string(decisions[i]));
  }
  out.request_encode_us =
      per_call_ns(n, [&](std::size_t i) { keep(core::request_to_string(sample[i])); }) / 1e3;
  out.request_decode_us =
      per_call_ns(n, [&](std::size_t i) { keep(core::request_from_string(request_xml[i])); }) /
      1e3;
  out.decision_encode_us =
      per_call_ns(n, [&](std::size_t i) { keep(core::decision_to_string(decisions[i])); }) / 1e3;
  out.decision_decode_us =
      per_call_ns(n, [&](std::size_t i) { keep(core::decision_from_string(decision_xml[i])); }) /
      1e3;

  // The issue-time lint's input: the candidate plus every other issued tree.
  const core::PolicyNodePtr node = core::node_from_string(candidate.xml);
  std::vector<analysis::AnalysisInput> roots{{node.get(), nullptr}};
  for (const std::string& id : repository.policy_ids()) {
    if (id == candidate.id) continue;
    if (const auto artifact = repository.compiled(id)) {
      roots.push_back({&artifact->source(), artifact.get()});
    }
  }
  analysis::AnalyzerOptions options;
  options.resolves = [&](const std::string& id) {
    return id == candidate.id || repository.issued(id) != nullptr;
  };
  options.withdrawn = [&](const std::string& id) {
    return repository.latest(id) != nullptr && repository.issued(id) == nullptr;
  };
  out.lint_ms = per_call_ns(1, [&](std::size_t) { keep(analysis::analyse_roots(roots, options)); },
                            /*batch_ms=*/0, /*batches=*/3) /
                1e6;
  return out;
}

}  // namespace servicebench

// Replay loops of traced runs: a workload's own inputs timed, on one
// thread, through single layers' public functions.
#pragma once

#include <vector>

#include "corpus.hpp"

namespace servicebench {

struct ReplayFigures {
  double fingerprint_ns = 0;      // cache::fingerprint
  double l2_lookup_ns = 0;        // DecisionCache::lookup(key, version), filled cache
  double evaluate_us = 0;         // Pdp::evaluate
  double evaluate_allocs = 0;     // heap allocations per Pdp::evaluate
  double request_encode_us = 0;   // request_to_string
  double request_decode_us = 0;   // request_from_string
  double decision_encode_us = 0;  // decision_to_string
  double decision_decode_us = 0;  // decision_from_string
  double lint_ms = 0;             // analysis::analyse_roots, candidate + issued trees
};

/// `repository` holds the workload's issued corpus; `candidate` is the
/// document whose issue-time lint is replayed (analysed together with
/// every other issued tree, as PolicyRepository::issue does).
ReplayFigures replay(const pap::PolicyRepository& repository,
                     const std::vector<core::RequestContext>& sample,
                     const PolicyDocument& candidate);

}  // namespace servicebench

// Policy corpora, request generators and their closed-form oracles.
//
// Each oracle is written from the generator's definition below, not by
// asking core::Pdp: the self-test (--self-test) compares the two on a
// sample of every workload's inputs, so a mistake in either shows.
//
// Flat federation (hot_pep, policy_churn, remote_failover): for each of
// kDomains domains d and kFlatRoles roles k, one policy
// "domain-<d>:policy-<k>"
// targeted on resource-domain == domain-<d> and role == role-<k>, with
// first-applicable rules
//   permit  action-id == read
//   permit  action-id == write        (only when (d + k) % 3 == 0)
//   deny    everything else.
// So for (domain, role, action): role < kFlatRoles gives Permit for a
// read, Permit for a write when (d + k) % 3 == 0 and Deny otherwise;
// role >= kFlatRoles matches no policy and gives NotApplicable. No
// obligations.
//
// Set trees (cold_sets): per domain d, a root PolicySet "domain-<d>:set"
// (first-applicable, target resource-domain == domain-<d>) holding one
// PolicySet "<root>:svc-<s>" per service s < kTreeServices
// (deny-overrides, target service == svc-<s>), each holding kTreeLeaves
// leaf policies "<service>:policy-<p>" (first-applicable, target
// role == role-<(p + s + d) % kTreeRoles>):
//   permit  action-id == read, obligation "<leaf id>:audit" with
//           who = the request's subject-id
//   deny    everything else.
// So a read by role r < kTreeRoles on (d, s) is a Permit carrying one
// audit obligation per leaf p with (p + s + d) % kTreeRoles == r, in
// ascending p (one or two of them); role r >= kTreeRoles matches no
// leaf and gives NotApplicable.
//
// Probe (policy_churn): policy "probe" targeted on resource-domain ==
// domain-probe with one rule, permit or deny, for action-id == read.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/decision.hpp"
#include "core/request.hpp"
#include "pap/repository.hpp"

namespace servicebench {

namespace core = mdac::core;
namespace pap = mdac::pap;

inline constexpr int kDomains = 8;
inline constexpr int kFlatRoles = 32;
inline constexpr int kTreeServices = 6;
inline constexpr int kTreeLeaves = 4;
inline constexpr int kTreeRoles = 3;

struct PolicyDocument {
  std::string id;
  std::string xml;
};

std::vector<PolicyDocument> flat_federation_documents();
std::vector<PolicyDocument> set_tree_documents();
PolicyDocument probe_document(bool permit);

struct FlatInput {
  int domain = 0;
  int role = 0;  // [0, 2 * kFlatRoles): the upper half is not granted anywhere
  bool write = false;
  std::uint32_t subject = 0;
  std::uint32_t resource = 0;
};
core::RequestContext make_request(const FlatInput& in);
core::DecisionType flat_oracle(const FlatInput& in);

struct TreeInput {
  int domain = 0;
  int service = 0;
  int role = 0;  // [0, 2 * kTreeRoles)
  std::uint64_t subject = 0;
};
core::RequestContext make_request(const TreeInput& in);
std::string tree_subject(std::uint64_t subject);

/// The oracle's answer for one (domain, service, role).
struct TreeExpectation {
  core::DecisionType type = core::DecisionType::kNotApplicable;
  std::vector<std::string> audit_ids;
};
TreeExpectation tree_oracle(int domain, int service, int role);

core::RequestContext make_probe_request(const std::string& subject);
inline core::DecisionType probe_oracle(bool permit) {
  return permit ? core::DecisionType::kPermit : core::DecisionType::kDeny;
}

/// Empty when `d` is exactly `type` with no obligations or advice;
/// otherwise what differs.
std::string check_plain(const core::Decision& d, core::DecisionType type);
/// Empty when `d` matches `want` with every audit obligation's who equal
/// to `who`; otherwise what differs.
std::string check_tree(const core::Decision& d, const TreeExpectation& want,
                       std::string_view who);

/// Submits and issues every document the way an administrator does
/// (default issue-time lint). Throws on a refused submit or issue.
void ingest(pap::PolicyRepository& repository,
            const std::vector<PolicyDocument>& documents);

}  // namespace servicebench

#include "corpus.hpp"

#include <stdexcept>

#include "core/expression.hpp"
#include "core/policy.hpp"
#include "core/serialization.hpp"

namespace servicebench {

namespace {

core::AttributeValue text(const std::string& s) { return core::AttributeValue(s); }

core::Rule action_rule(const std::string& id, core::Effect effect, const char* action) {
  core::Rule rule;
  rule.id = id;
  rule.effect = effect;
  core::Target t;
  t.require(core::Category::kAction, core::attrs::kActionId, text(action));
  rule.target = std::move(t);
  return rule;
}

core::Rule catch_all(const std::string& id, core::Effect effect) {
  core::Rule rule;
  rule.id = id;
  rule.effect = effect;
  return rule;
}

std::string domain_name(int d) { return "domain-" + std::to_string(d); }
std::string role_name(int r) { return "role-" + std::to_string(r); }

std::string tree_root_id(int d) { return domain_name(d) + ":set"; }
std::string tree_service_id(int d, int s) { return tree_root_id(d) + ":svc-" + std::to_string(s); }
std::string tree_leaf_id(int d, int s, int p) {
  return tree_service_id(d, s) + ":policy-" + std::to_string(p);
}

}  // namespace

std::vector<PolicyDocument> flat_federation_documents() {
  std::vector<PolicyDocument> docs;
  for (int d = 0; d < kDomains; ++d) {
    for (int k = 0; k < kFlatRoles; ++k) {
      core::Policy p;
      p.policy_id = domain_name(d) + ":policy-" + std::to_string(k);
      p.rule_combining = "first-applicable";
      p.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                            text(domain_name(d)));
      p.target_spec.require(core::Category::kSubject, core::attrs::kRole,
                            text(role_name(k)));
      p.rules.push_back(action_rule(p.policy_id + ":permit-read", core::Effect::kPermit, "read"));
      if ((d + k) % 3 == 0) {
        p.rules.push_back(
            action_rule(p.policy_id + ":permit-write", core::Effect::kPermit, "write"));
      }
      p.rules.push_back(catch_all(p.policy_id + ":deny-rest", core::Effect::kDeny));
      docs.push_back({p.policy_id, core::node_to_string(p)});
    }
  }
  return docs;
}

std::vector<PolicyDocument> set_tree_documents() {
  std::vector<PolicyDocument> docs;
  for (int d = 0; d < kDomains; ++d) {
    core::PolicySet root;
    root.policy_set_id = tree_root_id(d);
    root.policy_combining = "first-applicable";
    root.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                             text(domain_name(d)));
    for (int s = 0; s < kTreeServices; ++s) {
      core::PolicySet service;
      service.policy_set_id = tree_service_id(d, s);
      service.policy_combining = "deny-overrides";
      service.target_spec.require(core::Category::kResource, "service",
                                  text("svc-" + std::to_string(s)));
      for (int p = 0; p < kTreeLeaves; ++p) {
        core::Policy leaf;
        leaf.policy_id = tree_leaf_id(d, s, p);
        leaf.rule_combining = "first-applicable";
        leaf.target_spec.require(core::Category::kSubject, core::attrs::kRole,
                                 text(role_name((p + s + d) % kTreeRoles)));
        core::Rule permit =
            action_rule(leaf.policy_id + ":permit-read", core::Effect::kPermit, "read");
        core::ObligationExpr audit;
        audit.id = leaf.policy_id + ":audit";
        audit.fulfill_on = core::Effect::kPermit;
        audit.assignments.push_back(core::AttributeAssignmentExpr{
            "who", core::designator(core::Category::kSubject, core::attrs::kSubjectId,
                                    core::DataType::kString)});
        permit.obligations.push_back(std::move(audit));
        leaf.rules.push_back(std::move(permit));
        leaf.rules.push_back(catch_all(leaf.policy_id + ":deny-rest", core::Effect::kDeny));
        service.add(std::move(leaf));
      }
      root.add(std::move(service));
    }
    docs.push_back({root.policy_set_id, core::node_to_string(root)});
  }
  return docs;
}

PolicyDocument probe_document(bool permit) {
  core::Policy p;
  p.policy_id = "probe";
  p.rule_combining = "first-applicable";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                        text("domain-probe"));
  p.rules.push_back(action_rule(permit ? "probe:permit-read" : "probe:deny-read",
                                permit ? core::Effect::kPermit : core::Effect::kDeny, "read"));
  return {p.policy_id, core::node_to_string(p)};
}

core::RequestContext make_request(const FlatInput& in) {
  core::RequestContext req =
      core::RequestContext::make("user-" + std::to_string(in.subject),
                                 "res-" + std::to_string(in.resource),
                                 in.write ? "write" : "read");
  req.add(core::Category::kResource, core::attrs::kResourceDomain, text(domain_name(in.domain)));
  req.add(core::Category::kSubject, core::attrs::kRole, text(role_name(in.role)));
  return req;
}

core::DecisionType flat_oracle(const FlatInput& in) {
  if (in.role >= kFlatRoles) return core::DecisionType::kNotApplicable;
  if (!in.write) return core::DecisionType::kPermit;
  return (in.domain + in.role) % 3 == 0 ? core::DecisionType::kPermit
                                        : core::DecisionType::kDeny;
}

std::string tree_subject(std::uint64_t subject) { return "user-" + std::to_string(subject); }

core::RequestContext make_request(const TreeInput& in) {
  core::RequestContext req = core::RequestContext::make(
      tree_subject(in.subject), "res-" + std::to_string(in.subject % 64), "read");
  req.add(core::Category::kResource, core::attrs::kResourceDomain, text(domain_name(in.domain)));
  req.add(core::Category::kResource, "service", text("svc-" + std::to_string(in.service)));
  req.add(core::Category::kSubject, core::attrs::kRole, text(role_name(in.role)));
  return req;
}

TreeExpectation tree_oracle(int domain, int service, int role) {
  TreeExpectation want;
  if (role >= kTreeRoles) return want;
  for (int p = 0; p < kTreeLeaves; ++p) {
    if ((p + service + domain) % kTreeRoles == role) {
      want.audit_ids.push_back(tree_leaf_id(domain, service, p) + ":audit");
    }
  }
  want.type = want.audit_ids.empty() ? core::DecisionType::kNotApplicable
                                     : core::DecisionType::kPermit;
  return want;
}

core::RequestContext make_probe_request(const std::string& subject) {
  core::RequestContext req = core::RequestContext::make(subject, "probe-resource", "read");
  req.add(core::Category::kResource, core::attrs::kResourceDomain, text("domain-probe"));
  req.add(core::Category::kSubject, core::attrs::kRole, text(role_name(0)));
  return req;
}

std::string check_plain(const core::Decision& d, core::DecisionType type) {
  if (d.type == type && d.obligations.empty() && d.advice.empty()) return {};
  return std::string("got ") + core::to_string(d.type) + " with " +
         std::to_string(d.obligations.size()) + " obligation(s), want " +
         core::to_string(type) + " (" + d.status.message + ")";
}

std::string check_tree(const core::Decision& d, const TreeExpectation& want,
                       std::string_view who) {
  std::string why;
  if (d.type != want.type || !d.advice.empty() ||
      d.obligations.size() != want.audit_ids.size()) {
    why = "shape";
  } else {
    for (std::size_t i = 0; i < want.audit_ids.size() && why.empty(); ++i) {
      const core::ObligationInstance& o = d.obligations[i];
      if (o.id != want.audit_ids[i]) why = "obligation id " + o.id;
      else if (o.assignments.size() != 1 || o.assignments[0].first != "who" ||
               !o.assignments[0].second.is_string() ||
               o.assignments[0].second.as_string() != who) {
        why = "who of " + o.id;
      }
    }
  }
  if (why.empty()) return {};
  return "got " + std::string(core::to_string(d.type)) + " with " +
         std::to_string(d.obligations.size()) + " obligation(s), want " +
         core::to_string(want.type) + " with " + std::to_string(want.audit_ids.size()) +
         " (" + why + ")";
}

void ingest(pap::PolicyRepository& repository,
            const std::vector<PolicyDocument>& documents) {
  for (const PolicyDocument& doc : documents) {
    if (const pap::RepoOutcome submitted = repository.submit(doc.xml, "bench-admin");
        !submitted) {
      throw std::runtime_error("submit " + doc.id + " refused: " + submitted.reason);
    }
    if (const pap::RepoOutcome issued = repository.issue(doc.id, "bench-admin"); !issued) {
      throw std::runtime_error("issue " + doc.id + " refused: " + issued.reason);
    }
  }
}

}  // namespace servicebench

#include "src/cluster/policy_registry.h"

namespace gms {
namespace {

struct NamedPolicy {
  const char* name;
  PolicyKind kind;
};

// Listing order is the order KnownPolicyNames() prints. A kind's first entry
// is its canonical name; "none" (the paper's "native OSF/1" runs) is an alias
// of "local".
constexpr NamedPolicy kPolicies[] = {
    {"gms", PolicyKind::kGms},
    {"nchance", PolicyKind::kNchance},
    {"local", PolicyKind::kLocalLru},
    {"ensemble", PolicyKind::kEnsemble},
    {"none", PolicyKind::kLocalLru},
};

}  // namespace

std::optional<PolicyKind> ParsePolicyName(std::string_view name) {
  for (const NamedPolicy& p : kPolicies) {
    if (name == p.name) {
      return p.kind;
    }
  }
  return std::nullopt;
}

const char* PolicyName(PolicyKind kind) {
  for (const NamedPolicy& p : kPolicies) {
    if (kind == p.kind) {
      return p.name;
    }
  }
  return "unknown";
}

std::string KnownPolicyNames() {
  std::string out;
  for (const NamedPolicy& p : kPolicies) {
    if (!out.empty()) {
      out += ", ";
    }
    out += p.name;
  }
  return out;
}

}  // namespace gms

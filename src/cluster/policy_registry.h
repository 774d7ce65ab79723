// The policy registry: the one place that knows every replacement policy by
// name. Benches and tools parse `--policy=<name>` through this; the cluster
// factory (Cluster::MakeService) maps the kind onto a CacheEngine +
// ReplacementPolicy pair.
#ifndef SRC_CLUSTER_POLICY_REGISTRY_H_
#define SRC_CLUSTER_POLICY_REGISTRY_H_

#include <optional>
#include <string>
#include <string_view>

namespace gms {

// The values are explicit because gtest prints a parameter's bytes into the
// names of the parameterised ctest cases (PolicyMatrixTest,
// ClusterPropertyTest): renumbering a kind renames every case that uses it.
enum class PolicyKind {
  kGms = 1,        // the paper's algorithm
  kNchance = 2,    // N-chance forwarding baseline
  kLocalLru = 3,   // no global cache: the "native OSF/1" baseline
  kEnsemble = 5,   // regret-weighted expert ensemble over ghost caches
};

// "gms" | "nchance" | "local" | "ensemble" → kind, plus "none" as an alias of
// "local"; nullopt for anything else.
std::optional<PolicyKind> ParsePolicyName(std::string_view name);

// The canonical name ParsePolicyName accepts for `kind`.
const char* PolicyName(PolicyKind kind);

// Comma-separated list of every accepted name, for usage/error messages.
std::string KnownPolicyNames();

}  // namespace gms

#endif  // SRC_CLUSTER_POLICY_REGISTRY_H_

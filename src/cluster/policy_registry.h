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

enum class PolicyKind {
  kNone,         // native OSF/1; builds the same engine as kLocalLru
  kGms,          // the paper's algorithm
  kNchance,      // N-chance forwarding baseline
  kLocalLru,     // engine-hosted no-global-cache baseline
  kHybridLfu,    // frequency-aware forwarding (EEvA-inspired)
  kEnsemble,     // regret-weighted expert ensemble over ghost caches
  kAdaptiveGms,  // gms with the ghost-driven adaptive-MinAge extension
};

// "gms" | "nchance" | "local" | "lfu" | "ensemble" | "adaptive" | "none" →
// kind; nullopt for anything else.
std::optional<PolicyKind> ParsePolicyName(std::string_view name);

// The canonical name ParsePolicyName accepts for `kind`.
const char* PolicyName(PolicyKind kind);

// Comma-separated list of every accepted name, for usage/error messages.
std::string KnownPolicyNames();

}  // namespace gms

#endif  // SRC_CLUSTER_POLICY_REGISTRY_H_

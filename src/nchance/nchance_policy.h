// N-chance forwarding (Dahlin et al., OSDI '94) — the comparison baseline of
// section 5.5, with the paper's OSF/1 modifications — as a ReplacementPolicy
// plugin on the shared CacheEngine.
//
// Eviction policy: a node about to replace a page checks whether it is the
// last cached copy in the cluster (a "singlet"); duplicates are discarded,
// singlets are forwarded to a RANDOM node with a recirculation count of
// N = 2. A node receiving a forwarded page picks a victim in this order
// (paper section 5.5): a free page (if allocating one would not trigger
// reclamation), the oldest duplicate, the oldest recirculating page, a very
// old singlet; failing all of those, the forwarded page's count is
// decremented and it is re-forwarded, or dropped at zero. Received pages are
// made the youngest on the receiving node's LRU list.
//
// The two deliberate contrasts with GMS: (1) the target node is chosen at
// random with no global knowledge, and (2) singlets are kept in the cluster
// at the expense of duplicates even when the duplicates are in active use —
// the source of the interference measured in Figures 9-11.
//
// Page location (getpage) is the engine's POD/GCD redirect protocol with the
// same cost model as GMS, so the comparison isolates the replacement and
// targeting policy.
#ifndef SRC_NCHANCE_NCHANCE_POLICY_H_
#define SRC_NCHANCE_NCHANCE_POLICY_H_

#include <cstdint>
#include <optional>

#include "src/common/rng.h"
#include "src/core/cache_engine.h"

namespace gms {

struct NchanceConfig {
  CostModel costs;
  uint8_t recirculation = 2;  // N
  // "Very old singlet" victim threshold.
  SimTime very_old_age = Seconds(60);
  // Accept a forward into a free frame only while doing so would not trigger
  // reclamation (stay above this many free frames).
  uint32_t free_reserve = 4;
  SimTime getpage_timeout = Milliseconds(100);
  double global_age_boost = 1.0;  // N-chance has no age boosting
};

struct NchanceStats {
  uint64_t forwards_sent = 0;
  uint64_t forwards_received = 0;
  uint64_t reforwards = 0;         // bounced onward for lack of a victim
  uint64_t dropped_exhausted = 0;  // recirculation count hit zero
  uint64_t victims_duplicate = 0;
  uint64_t victims_recirculating = 0;
  uint64_t victims_old_singlet = 0;
};

class NchancePolicy final : public ReplacementPolicy {
 public:
  NchancePolicy(uint64_t seed, NchanceConfig config)
      : config_(config), rng_(seed) {}

  void EvictClean(Frame* frame) override;
  bool HandleMessage(Datagram& dgram) override;

  const NchanceStats& nchance_stats() const { return nstats_; }

 private:
  void HandleForward(const NchanceForward& msg);
  void ForwardPage(Uid uid, bool shared, SimTime age, uint8_t count,
                   Frame* frame_to_free, SpanRef span);
  // Uniformly random live peer, or nullopt when this node is alone.
  std::optional<NodeId> RandomTarget();

  NchanceConfig config_;
  Rng rng_;
  NchanceStats nstats_;
};

}  // namespace gms

#endif  // SRC_NCHANCE_NCHANCE_POLICY_H_

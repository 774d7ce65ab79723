// The per-node GMS agent: the shared cache engine bound to the paper's
// epoch/MinAge replacement policy (sections 3 and 4).
//
// One GmsAgent runs on every cluster node. The engine half (CacheEngine)
// owns the node's GCD partition, POD replica, and the getpage/putpage
// protocol; the policy half (GmsPolicy) owns the epoch state machine,
// eviction targeting, and membership. This class is the two bolted
// together plus the GMS-specific boot/introspection surface.
#ifndef SRC_CORE_GMS_AGENT_H_
#define SRC_CORE_GMS_AGENT_H_

#include <cstdint>

#include "src/core/cache_engine.h"
#include "src/core/gms_policy.h"

namespace gms {

class GmsAgent final : public CacheEngine {
 public:
  GmsAgent(Simulator* sim, Network* net, Cpu* cpu, FrameTable* frames,
           NodeId self, uint64_t seed, GmsConfig config = {});

  // Installs the initial membership and starts protocol processing. The
  // designated first initiator kicks off epoch 1; the master (if heartbeats
  // are enabled) starts liveness checks. Must be called exactly once per
  // boot.
  void Start(std::shared_ptr<const PodTable> pod, NodeId master,
             NodeId first_initiator) {
    policy_->PrepareStart(master, first_initiator);
    CacheEngine::Start(std::move(pod));
  }

  // A rebooted or new node announces itself to the master.
  void Join(NodeId master) { policy_->Join(master); }

  // Administrative removal of a node (master only): rebuilds and distributes
  // the POD as if the node had been declared dead by liveness checking.
  void MasterRemoveNode(NodeId node) { policy_->MasterRemoveNode(node); }

  const EpochView& epoch_view() const { return policy_->epoch_view(); }
  NodeId master() const { return policy_->master(); }

 private:
  GmsPolicy* policy_;  // owned by CacheEngine; typed view for the API above
};

}  // namespace gms

#endif  // SRC_CORE_GMS_AGENT_H_

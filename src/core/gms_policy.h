// The paper's algorithm (sections 3 and 4) as a ReplacementPolicy plugin.
//
// GmsPolicy owns the *decisions* of global memory management:
//   * the node's view of the current epoch (MinAge, weights, sampler),
//   * the epoch state machine — initiator and participant sides,
//   * eviction targeting (weighted sampling, MinAge test, duplicate drop),
//   * the dirty-global extension's replication and write-back routing,
//   * master-driven membership, heartbeats, and master election.
// The mechanism it runs on — getpage redirects, the directories, reliable
// control messaging, dispatch — lives in CacheEngine; GmsAgent
// (src/core/gms_agent.h) is the two bolted together.
#ifndef SRC_CORE_GMS_POLICY_H_
#define SRC_CORE_GMS_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/alias.h"
#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/core/cache_engine.h"
#include "src/core/epoch.h"

namespace gms {

struct GmsConfig {
  CostModel costs;
  EpochConfig epoch;
  // A getpage with no reply within this window is treated as a miss (the
  // housing node crashed); the faulting node falls back to disk.
  SimTime getpage_timeout = Milliseconds(100);
  // See cache_engine.h: protocol hardening for lossy networks, off by
  // default (the paper assumes a reliable fabric).
  RetryPolicy retry;
  // Master liveness checking. Off by default: the experiment harness manages
  // membership explicitly; the membership tests and the churn example turn
  // it on.
  bool enable_heartbeats = false;
  SimTime heartbeat_interval = Seconds(1);
  int heartbeat_miss_limit = 3;
  // Master failover (paper section 6: "simple algorithms exist for the
  // remaining nodes to elect a replacement"): when heartbeats from the
  // master stop, the lowest-id surviving node takes over, removes the dead
  // master from the membership, and distributes a new POD.
  bool enable_master_election = false;
  // Start-of-world delay before the first epoch.
  SimTime first_epoch_delay = Milliseconds(1);

  // Dirty-global extension (paper section 6, future work): dirty pages may
  // be sent to global memory without first being written to disk, at the
  // risk of data loss on failure — mitigated by replicating each dirty page
  // in the global memory of `dirty_replicas` nodes. A holder evicting a
  // dirty global page returns it to the backing node for write-back.
  bool dirty_global = false;
  uint32_t dirty_replicas = 2;
};

struct EpochView {
  uint64_t epoch = 0;
  SimTime min_age = 0;
  uint64_t budget = 0;
  SimTime duration = 0;
  NodeId next_initiator;
  double my_weight = 0;
};

class GmsPolicy final : public ReplacementPolicy {
 public:
  GmsPolicy(uint64_t seed, GmsConfig config) : config_(config), rng_(seed) {}

  // Stashes the boot-time roles consumed by OnStart (which CacheEngine::
  // Start invokes with no arguments). The designated first initiator kicks
  // off epoch 1; the master (if heartbeats are enabled) starts liveness
  // checks.
  void PrepareStart(NodeId master, NodeId first_initiator) {
    master_ = master;
    first_initiator_ = first_initiator;
  }

  // --- ReplacementPolicy ---
  void OnStart() override;
  void OnStop() override;
  void EvictClean(Frame* frame) override;
  bool EvictDirty(Frame* frame) override;
  void ApplyGcdAsOwner(const GcdUpdate& update) override;
  bool HandleMessage(const Datagram& dgram) override;
  bool Quiescent() const override { return !collecting_ && !tree_collecting_; }

  // A rebooted or new node announces itself to the master.
  void Join(NodeId master);

  // Administrative removal of a node (master only): rebuilds and distributes
  // the POD as if the node had been declared dead by liveness checking.
  void MasterRemoveNode(NodeId node);

  const EpochView& epoch_view() const { return view_; }
  NodeId master() const { return master_; }

 private:
  // Message handlers (engine dispatch lands here via HandleMessage).
  void HandlePutPage(const PutPage& msg);
  void HandleEpochSummaryReq(const EpochSummaryReq& msg, NodeId from);
  void HandleEpochSummary(const EpochSummary& msg);
  void HandleEpochPartial(const EpochPartial& msg);
  void HandleEpochParams(const EpochParams& msg);
  void HandleEpochStale(const EpochStale& msg);
  void HandleJoinReq(const JoinReq& msg);
  void HandleMemberUpdate(const MemberUpdate& msg);
  void HandleHeartbeat(const Heartbeat& msg, NodeId from);
  void HandleHeartbeatAck(const HeartbeatAck& msg);
  void HandleRepublish(const Republish& msg);

  // Eviction targeting.
  std::optional<NodeId> SampleEvictionTarget();
  void MaterializeWeights();
  void ReportStaleWeights();

  // Epoch machinery.
  void StartEpochAsInitiator();
  void FinishSummaryCollection();
  SimTime RootFanoutUnits(size_t children);
  void BuildOwnSummary(uint64_t epoch, EpochSummary* out) const;
  void AdoptEpochParams(const EpochParams& params);
  void ArmEpochWatchdog();
  void OnEpochSilent();

  // Tree-aggregator side (interior nodes and leaves of the epoch tree).
  void BeginTreeAggregation(const EpochSummaryReq& msg, NodeId from);
  void MaybeCompleteTreeAggregation();
  void SendPartialUp();
  void CancelTreeAggregation();

  // Membership machinery (master side).
  void MasterReconfigure(std::vector<NodeId> live,
                         NodeId joined = kInvalidNode);
  void SendHeartbeats();
  void RepublishAfterPodChange();
  void ArmMasterWatchdog();
  void OnMasterSilent();
  void RetryJoin();

  GmsConfig config_;
  Rng rng_;
  NodeId master_;
  NodeId first_initiator_;  // consumed by OnStart

  // Epoch participant state. The adopted weights stay shared with every
  // other node (adopted_weights_) until this node first draws a target or
  // loses a member; only then does it take the mutable copy the draws
  // consume (weights_, self entry zeroed, summed into remaining_weight_).
  // The sampler is built on the first draw after a weight change, so a node
  // that never evicts to the cluster does no O(N) work per epoch.
  EpochView view_;
  std::shared_ptr<const std::vector<double>> adopted_weights_;
  std::vector<double> weights_;
  AliasSampler sampler_;
  bool sampler_stale_ = false;
  double remaining_weight_ = 0;
  uint64_t putpages_this_epoch_ = 0;  // absorbed by us (next-initiator side)
  uint32_t evictions_since_summary_ = 0;
  bool stale_reported_ = false;
  TimerId epoch_timer_ = 0;

  // Epoch initiator state, one round for every fanout: the root folds its
  // children's summaries (the flat round's star) or partials (a tree) into
  // root_acc_ and plans from it.
  bool collecting_ = false;
  uint64_t collecting_epoch_ = 0;
  EpochPartial root_acc_;
  TimerId collect_timer_ = 0;
  SimTime epoch_started_at_ = 0;
  // Root span of the epoch round this node initiated (trace id derived from
  // the epoch number, so participants join the same trace without any new
  // fields in the size-capped epoch messages).
  SpanRef epoch_span_;

  // Tree-aggregator state (interior node or leaf of the epoch tree; active
  // only between a relayed EpochSummaryReq and the partial going up).
  bool tree_collecting_ = false;
  bool tree_sending_ = false;  // marshal kernel in flight
  uint64_t tree_epoch_ = 0;
  NodeId tree_parent_;         // where our merged partial goes (the relayer)
  size_t tree_expected_ = 0;   // nodes covered by our subtree
  EpochPartial tree_acc_;
  TimerId tree_timer_ = 0;
  // Per-level aggregation span: joins the epoch's trace so trace_spans can
  // attribute latency level by level (label = this node's tree depth).
  SpanRef tree_span_;
  // Down-tree params relay dedup: highest epoch whose params we relayed.
  uint64_t params_relayed_epoch_ = 0;

  // Retry-hardening state (idle unless config_.retry.enabled).
  TimerId join_retry_timer_ = 0;
  int join_attempts_ = 0;
  TimerId epoch_watchdog_ = 0;
  uint64_t watchdog_epoch_ = 0;
  int epoch_watchdog_fires_ = 0;
  bool summaries_rerequested_ = false;
  uint64_t highest_epoch_seen_ = 0;
  TimerId stale_clear_timer_ = 0;

  // Heartbeat state (master side).
  uint64_t hb_seq_ = 0;
  std::unordered_map<uint32_t, int> hb_misses_;
  std::unordered_map<uint32_t, uint64_t> hb_acked_;
  TimerId hb_timer_ = 0;
  TimerId master_watchdog_ = 0;
};

}  // namespace gms

#endif  // SRC_CORE_GMS_POLICY_H_

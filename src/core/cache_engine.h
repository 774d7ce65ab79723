// The mechanism half of the policy/mechanism split: one engine serves every
// replacement policy, and it is what the node/OS layer talks to.
//
// The engine owns everything the paper's low-level substrate provides
// regardless of algorithm (sections 2 and 4):
//   * the getpage redirect protocol — requester, GCD, and housing-node
//     sides, including timeouts and per-attempt retries,
//   * this node's GCD partition and POD replica, and the update/invalidate
//     traffic that maintains them,
//   * the bounded-retry reliability layer (acks, per-sender sequencing,
//     in-order delivery, gap skipping),
//   * causal-span propagation and the shared MemoryServiceStats.
//
// Everything algorithmic — victim choice, eviction targeting, epochs,
// membership, recirculation — lives behind the ReplacementPolicy seam. The
// "native OSF/1" baseline every speedup is measured against is this engine
// with LocalLruPolicy: every getpage misses, every eviction is dropped.
//
// Threading: none. Driven entirely by simulator events; all CPU costs are
// charged to the node's Cpu (Figures 10/13).
#ifndef SRC_CORE_CACHE_ENGINE_H_
#define SRC_CORE_CACHE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/node_id.h"
#include "src/common/uid.h"
#include "src/core/cost_model.h"
#include "src/core/directory.h"
#include "src/core/memory_service.h"
#include "src/core/messages.h"
#include "src/core/replacement_policy.h"
#include "src/mem/backing_tier.h"
#include "src/mem/frame_table.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace gms {

// Bounded-retry reliability layer, for running over a lossy network
// (src/net fault injection). Off by default — the paper assumes a
// reliable fabric, and with `enabled == false` the protocol is
// bit-identical to the unhardened one. When enabled:
//   * GcdUpdate / PutPage / GcdInvalidate / Republish carry sequence
//     numbers and are retransmitted with exponential backoff until acked
//     (receivers ack and dedup, so every handler runs exactly once);
//   * getpage uses shorter per-attempt timeouts and re-issues the request
//     up to max_attempts times before declaring a miss;
//   * epoch collection re-requests missing summaries, participants
//     watchdog a silent initiator, and join requests are re-sent.
struct RetryPolicy {
  bool enabled = false;
  int max_attempts = 6;
  SimTime initial_timeout = Milliseconds(5);
  double backoff = 2.0;
  SimTime max_timeout = Milliseconds(200);
};

// The policy-independent slice of an agent's configuration. Policies that
// need more (epoch constants, recirculation counts) carry their own config.
struct EngineConfig {
  CostModel costs;
  // A getpage with no reply within this window is treated as a miss (the
  // housing node crashed); the faulting node falls back to disk.
  SimTime getpage_timeout = Milliseconds(100);
  RetryPolicy retry;
  // Multiplier applied to global pages' ages (section 3.1: global pages are
  // replaced in preference to local pages of similar age).
  double global_age_boost = 1.0;
  // Whether a served page's dirty bit propagates to the requester (the
  // dirty-global extension); policies without dirty pages in the global
  // cache always reply clean.
  bool propagate_dirty = false;
};

class CacheEngine {
 public:
  CacheEngine(Simulator* sim, Network* net, Cpu* cpu, FrameTable* frames,
              NodeId self, EngineConfig config,
              std::unique_ptr<ReplacementPolicy> policy);
  // GmsAgent derives from the engine and is owned through this type.
  virtual ~CacheEngine() = default;

  // Installs the initial membership and starts protocol processing (the
  // policy's OnStart hook arms its timers). Must be called exactly once per
  // boot. The table is shared read-only (see Pod).
  void Start(std::shared_ptr<const PodTable> pod);

  // --- node/OS interface ---
  // Tries to fetch `uid` from cluster memory. The callback always fires
  // (possibly after a timeout) exactly once, never inside GetPage itself; on
  // a miss the caller reads the page from disk or the file server. `parent`
  // is the caller's causal span (the fault span); with no parent — or
  // tracing off — the engine roots a fresh trace for the operation.
  void GetPage(const Uid& uid, GetPageCallback callback, SpanRef parent = {});
  // Takes ownership of a clean, unreferenced frame the pageout daemon chose
  // to evict, and applies the policy: forward to another node, keep locally
  // as a global page, or discard. The frame is freed (possibly after a
  // marshaling delay). Dirty pages must be written to disk by the caller
  // first (only clean pages ever enter global memory — section 3.3).
  void EvictClean(Frame* frame) { policy_->EvictClean(frame); }
  // Notifies the policy that a page was loaded from backing store into a
  // local frame, so location directories can be updated.
  void OnPageLoaded(Frame* frame);
  // Dirty-global extension (paper section 6 future work, off by default):
  // offers a dirty frame to the policy *instead of* writing it to disk
  // first. Returns true if the policy took ownership (replicating the page
  // into the global memory of multiple nodes and freeing the frame); false
  // means the caller must perform the ordinary disk write-back.
  bool EvictDirty(Frame* frame) { return policy_->EvictDirty(frame); }
  // Tier decision: after a fill from the far tier, should the far copy be
  // evicted (exclusive caching)?
  bool PromoteOnFarFill(const Uid& uid) {
    return policy_->PromoteOnFarFill(uid);
  }

  const MemoryServiceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MemoryServiceStats{}; }
  // Memory-hierarchy accounting, called by the node/OS fill path: one
  // NoteFill per resolved miss, tagged with the tier that supplied the data.
  void NoteFill(FillSource source) {
    switch (source) {
      case FillSource::kZero: stats_.fills_zero++; break;
      case FillSource::kFarMemory: stats_.fills_far++; break;
      case FillSource::kLocalDisk: stats_.fills_disk++; break;
      case FillSource::kNfs: stats_.fills_nfs++; break;
    }
  }
  void NoteFarPromotion() { stats_.far_promotions++; }

  // Called by the cluster when this node crashes (stops timers; the network
  // is taken down separately) or reboots.
  void SetAlive(bool alive);
  bool alive() const { return alive_; }

  // Protocol entry point; the cluster's per-node dispatcher routes all
  // non-NFS datagrams here.
  void OnDatagram(Datagram dgram);

  // Observability: getpage issue/resolution, putpage send/receive, and epoch
  // transitions are traced. Re-wired by the cluster after every reboot (a
  // fresh agent starts tracer-less).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    if (policy_ != nullptr) {
      policy_->tracer_ = tracer;
    }
  }

  // --- introspection (tests, benches) ---
  // Direct GCD mutation for white-box microbenchmark setup (placing a page
  // in a chosen state before timing one operation). Not part of the
  // protocol.
  void ApplyGcdLocal(const GcdUpdate& update) { gcd_.Apply(update); }
  const Pod& pod() const { return pod_; }
  const GcdTable& gcd() const { return gcd_; }
  // True when the engine has no protocol work outstanding: no unacked
  // control messages, no pending getpages, no policy work (e.g. a summary
  // collection). Together with Network::in_flight() == 0 this defines a
  // cluster quiesce (the precondition for the invariant checker).
  bool Quiescent() const {
    if (!unacked_.empty() || !pending_gets_.empty() || !policy_->Quiescent()) {
      return false;
    }
    for (const auto& [node, window] : seen_seqs_) {
      if (!window.held.empty()) {
        return false;  // sequenced messages buffered behind a gap
      }
    }
    return true;
  }
  FrameTable& frames() { return *frames_; }
  NodeId self() const { return self_; }
  ReplacementPolicy* policy() { return policy_.get(); }

  // A rejoined peer is a fresh incarnation whose control-seq streams restart
  // from 1; membership handling drops its old receive window (buffered
  // pre-crash messages included) so the new stream re-initializes.
  void DropPeerSeqWindow(NodeId peer);

  // Attaches this node's far-memory tier (may be null — the default). With a
  // tier attached, clean discards consult the policy's DemoteOnDiscard and
  // write the page into far memory instead of dropping it.
  void set_far_tier(BackingTier* far) { far_ = far; }

 private:
  friend class ReplacementPolicy;

  struct PendingGet {
    Uid uid;
    GetPageCallback callback;
    TimerId timer = 0;
    int attempts = 0;
    SimTime started = 0;  // for the getpage latency histograms
    // Causal tracing: the requester-side span every attempt stamps its
    // request-generation and retry-wait segments on. Owned when GetPage
    // rooted a fresh trace (no enclosing fault) — then ResolveGet also ends
    // it.
    SpanRef span;
    bool owns_trace = false;
  };

  // One sequence-numbered control message awaiting a ProtoAck.
  struct UnackedControl {
    NodeId dst;
    uint32_t type = 0;
    uint32_t bytes = 0;
    MessagePayload payload;
    int attempts = 1;
    TimerId timer = 0;
    Uid uid;  // page involved, for give-up directory cleanup
    // The message is a putpage and `dst` must be de-registered if the
    // transfer is never confirmed (vs. an update where giving up is final).
    bool putpage_target = false;
  };

  // Per-sender receive window: sequence-number dedup plus in-order delivery.
  // Sequenced messages dispatch in per-sender seq order; out-of-order
  // arrivals are buffered in `held` until the gap fills (the sender retries
  // every sequenced message) or the gap timer concedes the sender gave up
  // and skips past it. Ordering matters: a partition backlog of directory
  // updates for the same page, replayed scrambled, would leave the GCD in
  // whatever state the last-timer-to-fire happened to carry.
  struct SeqWindow {
    uint64_t max_contig = 0;  // every seq <= this was seen and dispatched
    // Out-of-order arrivals, sorted by seq. A flat sorted vector: the buffer
    // holds at most a handful of datagrams behind a loss gap, and it is hot
    // under loss — a node-based std::map paid an allocation per buffered
    // message.
    std::vector<std::pair<uint64_t, Datagram>> held;
    TimerId gap_timer = 0;
    // First message from a sender fixes the stream base: a fresh receiver
    // (or a sender's fresh incarnation) cannot know how much history came
    // before it.
    bool initialized = false;

    bool Holds(uint64_t seq) const {
      auto it = std::lower_bound(
          held.begin(), held.end(), seq,
          [](const auto& entry, uint64_t s) { return entry.first < s; });
      return it != held.end() && it->first == seq;
    }
    void Hold(uint64_t seq, Datagram dgram) {
      auto it = std::lower_bound(
          held.begin(), held.end(), seq,
          [](const auto& entry, uint64_t s) { return entry.first < s; });
      held.emplace(it, seq, std::move(dgram));
    }
    uint64_t MinSeq() const { return held.front().first; }
    Datagram TakeMin() {
      Datagram d = std::move(held.front().second);
      held.erase(held.begin());
      return d;
    }
  };

  // Message dispatch.
  void HandleGetPageReq(const GetPageReq& msg);
  void HandleGetPageFwd(const GetPageFwd& msg);
  void HandleGetPageReply(const GetPageReply& msg);
  void HandleGetPageMiss(const GetPageMiss& msg);
  void HandleGcdUpdate(const GcdUpdate& msg);
  void HandleGcdInvalidate(const GcdInvalidate& msg);

  // Getpage plumbing.
  void IssueGetPage(const Uid& uid, uint64_t op_id, SpanRef span);
  void OnGetPageTimeout(uint64_t op_id);
  void ResolveGet(uint64_t op_id, GetPageResult result);
  void LookupInGcd(const Uid& uid, NodeId requester, uint64_t op_id,
                   SpanRef span);

  // Reliable-control plumbing (active only when config_.retry.enabled).
  SimTime RetryTimeoutFor(int attempts) const;
  // Per-destination sequence counter: streams are FIFO per (sender, dst)
  // pair, so a receiver can tell a delivery gap from traffic that simply
  // went to another node.
  uint64_t NextCtlSeq(NodeId dst) { return ++next_ctl_seq_[dst.value]; }
  // Key for the unacked map and ProtoAck matching: (peer, seq) is unique
  // because seqs are per destination.
  static uint64_t AckKey(NodeId peer, uint64_t seq) {
    return (static_cast<uint64_t>(peer.value) << 40) | seq;
  }
  void SendReliable(NodeId dst, uint32_t type, uint32_t bytes,
                    MessagePayload payload, uint64_t seq, const Uid& uid,
                    bool putpage_target);
  void RetryControl(uint64_t key);
  void HandleProtoAck(const ProtoAck& msg);
  // Receive side of sequenced delivery: ack (even duplicates), dedup, and
  // dispatch in per-sender order, buffering past gaps.
  void ReceiveSequenced(NodeId from, uint64_t seq, Datagram dgram);
  void DrainWindow(NodeId from);
  void OnSeqGapTimeout(NodeId from);
  // Worst-case span of a sender's full retry schedule: after this long a
  // missing seq is never coming (the sender gave up or died).
  SimTime GapSkipTimeout() const;
  // Routes one datagram to its protocol handler (post dedup/ordering).
  void Dispatch(const Datagram& dgram);

  // Putpage plumbing shared by forwarding policies.
  void SendPutPage(Frame* frame, NodeId target, uint8_t freq = 0);
  void DiscardFrame(Frame* frame);
  void MaybeDemoteToFar(const Frame& frame);
  void SendGcdUpdate(const Uid& uid, GcdUpdate::Op op, NodeId holder,
                     bool global, NodeId prev = kInvalidNode,
                     SpanRef span = {});

  // Helpers.
  void Send(NodeId dst, uint32_t type, uint32_t bytes, MessagePayload payload);
  SimTime EffectiveAge(const Frame& frame) const;

  Simulator* sim_;
  Network* net_;
  Cpu* cpu_;
  FrameTable* frames_;
  NodeId self_;
  EngineConfig config_;
  MemoryServiceStats stats_;
  Tracer* tracer_ = nullptr;
  bool alive_ = false;
  BackingTier* far_ = nullptr;  // this node's far tier; null = two-level
  std::unique_ptr<ReplacementPolicy> policy_;
  // Policy traits, cached as plain bools so the fault hot path pays no
  // virtual dispatch for them.
  bool uses_remote_cache_ = true;
  bool wants_fault_events_ = false;

  // Directories.
  Pod pod_;
  GcdTable gcd_;

  // Getpage state.
  uint64_t next_op_id_ = 1;
  std::unordered_map<uint64_t, PendingGet> pending_gets_;

  // Reliable-control state (idle unless config_.retry.enabled).
  std::unordered_map<uint32_t, uint64_t> next_ctl_seq_;  // by destination id
  std::unordered_map<uint64_t, UnackedControl> unacked_;  // by AckKey
  std::unordered_map<uint32_t, SeqWindow> seen_seqs_;  // by sender node id
};

// --- ReplacementPolicy forwarders (need the complete CacheEngine) ----------

inline void ReplacementPolicy::Bind(CacheEngine* engine) {
  engine_ = engine;
  sim_ = engine->sim_;
  net_ = engine->net_;
  cpu_ = engine->cpu_;
  frames_ = engine->frames_;
  tracer_ = engine->tracer_;
  self_ = engine->self_;
}

inline void ReplacementPolicy::ApplyGcdAsOwner(const GcdUpdate& update) {
  engine_->gcd_.Apply(update);
}

inline MemoryServiceStats& ReplacementPolicy::stats() {
  return engine_->stats_;
}
inline Pod& ReplacementPolicy::pod() { return engine_->pod_; }
inline GcdTable& ReplacementPolicy::gcd() { return engine_->gcd_; }
inline bool ReplacementPolicy::alive() const { return engine_->alive_; }
inline void ReplacementPolicy::MarkAlive() { engine_->alive_ = true; }
inline void ReplacementPolicy::Send(NodeId dst, uint32_t type, uint32_t bytes,
                                    MessagePayload payload) {
  engine_->Send(dst, type, bytes, std::move(payload));
}
inline void ReplacementPolicy::SendReliable(NodeId dst, uint32_t type,
                                            uint32_t bytes,
                                            MessagePayload payload,
                                            uint64_t seq, const Uid& uid,
                                            bool putpage_target) {
  engine_->SendReliable(dst, type, bytes, std::move(payload), seq, uid,
                        putpage_target);
}
inline void ReplacementPolicy::SendGcdUpdate(const Uid& uid, GcdUpdate::Op op,
                                             NodeId holder, bool global,
                                             NodeId prev, SpanRef span) {
  engine_->SendGcdUpdate(uid, op, holder, global, prev, span);
}
inline void ReplacementPolicy::DiscardFrame(Frame* frame) {
  engine_->DiscardFrame(frame);
}
inline void ReplacementPolicy::SendPutPage(Frame* frame, NodeId target,
                                           uint8_t freq) {
  engine_->SendPutPage(frame, target, freq);
}
inline SimTime ReplacementPolicy::RetryTimeoutFor(int attempts) const {
  return engine_->RetryTimeoutFor(attempts);
}
inline uint64_t ReplacementPolicy::NextCtlSeq(NodeId dst) {
  return engine_->NextCtlSeq(dst);
}
inline SimTime ReplacementPolicy::EffectiveAge(const Frame& frame) const {
  return engine_->EffectiveAge(frame);
}
inline void ReplacementPolicy::NotePutPageReceived(const Uid& uid, SimTime age,
                                                   SpanRef span) {
  engine_->stats_.putpages_received++;
  TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kPutPageRecv, uid,
             static_cast<uint64_t>(ToMicroseconds(age)));
  SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kService);
}
inline void ReplacementPolicy::DropPeerSeqWindow(NodeId peer) {
  engine_->DropPeerSeqWindow(peer);
}
inline void ReplacementPolicy::MaybeDemoteToFar(const Frame& frame) {
  engine_->MaybeDemoteToFar(frame);
}

}  // namespace gms

#endif  // SRC_CORE_CACHE_ENGINE_H_

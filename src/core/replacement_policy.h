// The policy half of the policy/mechanism split (paper sections 2 and 5.1):
// one shared cache engine hosts a family of replacement algorithms.
//
// CacheEngine (src/core/cache_engine.h) owns the mechanism every algorithm
// needs — the getpage redirect protocol, directory lookup and updates, the
// bounded-retry reliability layer, span propagation, and the shared stats —
// and delegates every *decision* to a ReplacementPolicy:
//
//   * what to do with an evicted clean (or dirty) frame,
//   * how to apply directory mutations on the owning node,
//   * which extra message types the node understands,
//   * whether the node participates in the global cache at all.
//
// Four policies implement the interface:
//   * GmsPolicy (src/core/gms_policy.h)        — the paper's epoch/MinAge
//     algorithm with weighted eviction targeting (`gms`),
//   * NchancePolicy (src/nchance)              — N-chance forwarding,
//   * LocalLruPolicy (src/core)                — no global cache: the
//     "native OSF/1" baseline (`local`, alias `none`),
//   * EnsemblePolicy (src/core)                — regret-weighted experts.
//
// A policy is bound to exactly one engine for its whole life. The protected
// mirrors and forwarders below are named after the engine members they reach
// so policy code extracted from the old monolithic agents compiles (and
// behaves) unchanged.
#ifndef SRC_CORE_REPLACEMENT_POLICY_H_
#define SRC_CORE_REPLACEMENT_POLICY_H_

#include <cstdint>

#include "src/common/node_id.h"
#include "src/common/uid.h"
#include "src/core/directory.h"
#include "src/core/memory_service.h"
#include "src/core/messages.h"
#include "src/mem/frame_table.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace gms {

class CacheEngine;

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  // Lifecycle, called from CacheEngine::Start / SetAlive(false). OnStart
  // runs after the engine adopted the POD and marked itself alive; OnStop
  // cancels every policy-owned timer.
  virtual void OnStart() {}
  virtual void OnStop() {}

  // Takes ownership of a clean, unreferenced frame the pageout daemon chose
  // to evict: forward, keep, or discard (see CacheEngine::EvictClean).
  virtual void EvictClean(Frame* frame) = 0;

  // Dirty-global extension hook; false means the caller writes to disk.
  virtual bool EvictDirty(Frame* frame) {
    (void)frame;
    return false;
  }

  // Applies a GCD mutation on this (GCD-owner) node. The default is a plain
  // table apply; GmsPolicy layers race repair (superseded-holder
  // invalidation, dead-node registration drops) on top.
  virtual void ApplyGcdAsOwner(const GcdUpdate& update);

  // Policy-specific protocol messages (putpage absorption, epochs,
  // membership, N-chance forwards). Returns false for types the policy does
  // not understand; the engine then logs an unknown-message warning. The
  // datagram is the engine's to discard after dispatch, so a handler may
  // move out of its payload.
  virtual bool HandleMessage(Datagram& dgram) {
    (void)dgram;
    return false;
  }

  // True when the policy has no protocol work outstanding (part of the
  // cluster quiesce definition).
  virtual bool Quiescent() const { return true; }

  // False for policies with no global cache: getpage short-circuits to a
  // local miss and no directory registrations are sent.
  virtual bool UsesRemoteCache() const { return true; }

  // When true the engine reports every GetPage to OnPageFault before issuing
  // it (the ensemble's ghost bookkeeping). A flag rather than an unconditional
  // virtual call keeps the fault hot path free of dispatch for the policies
  // that do not care.
  virtual bool WantsFaultEvents() const { return false; }
  virtual void OnPageFault(const Uid& uid) { (void)uid; }

  // --- memory-hierarchy decisions ----------------------------------------
  // Should a clean frame being discarded (dropped from the cluster cache) be
  // demoted into the far-memory tier instead of vanishing? Consulted only
  // when a far tier is attached. The default demotes every frame that is the
  // last cached copy; duplicates are already cached elsewhere, so writing
  // them to far memory would waste its bounded capacity.
  virtual bool DemoteOnDiscard(const Frame& frame) {
    return !frame.duplicated();
  }

  // After a getpage miss was filled from the far tier, should the far copy
  // be evicted (exclusive caching)? Default yes: the page is in RAM now.
  virtual bool PromoteOnFarFill(const Uid& uid) {
    (void)uid;
    return true;
  }

  // Called once by the engine's constructor (and never again).
  void Bind(CacheEngine* engine);

 protected:
  // --- engine access for policy code -------------------------------------
  // Mirrors of the engine's infrastructure pointers, bound once.
  Simulator* sim_ = nullptr;
  Network* net_ = nullptr;
  Cpu* cpu_ = nullptr;
  FrameTable* frames_ = nullptr;
  Tracer* tracer_ = nullptr;  // re-pointed by CacheEngine::set_tracer
  NodeId self_;
  CacheEngine* engine_ = nullptr;

  // Forwarders into the engine, named to match the members and methods the
  // policy code used when it lived inside the monolithic agents.
  MemoryServiceStats& stats();
  Pod& pod();
  GcdTable& gcd();
  bool alive() const;
  void MarkAlive();  // Join() re-arms a crashed node before the POD knows
  void Send(NodeId dst, uint32_t type, uint32_t bytes, MessagePayload payload);
  void SendReliable(NodeId dst, uint32_t type, uint32_t bytes,
                    MessagePayload payload, uint64_t seq, const Uid& uid,
                    bool putpage_target);
  void SendGcdUpdate(const Uid& uid, GcdUpdate::Op op, NodeId holder,
                     bool global, NodeId prev = kInvalidNode,
                     SpanRef span = {});
  void DiscardFrame(Frame* frame);
  void SendPutPage(Frame* frame, NodeId target, uint8_t freq = 0);
  SimTime RetryTimeoutFor(int attempts) const;
  uint64_t NextCtlSeq(NodeId dst);
  SimTime EffectiveAge(const Frame& frame) const;
  // Shared arrival instrumentation for putpage-like transfers (stats counter
  // + trace event + service span step) — the piece PR 4 had duplicated
  // between the two agents.
  void NotePutPageReceived(const Uid& uid, SimTime age, SpanRef span);
  void DropPeerSeqWindow(NodeId peer);
  // Demotes a clean frame into the far tier if one is attached and
  // DemoteOnDiscard agrees; a no-op otherwise. Call before Free()ing a frame
  // the policy decided to drop from the cluster cache.
  void MaybeDemoteToFar(const Frame& frame);

 private:
  friend class CacheEngine;
};

}  // namespace gms

#endif  // SRC_CORE_REPLACEMENT_POLICY_H_

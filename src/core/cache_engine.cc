#include "src/core/cache_engine.h"

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/log.h"

namespace gms {

CacheEngine::CacheEngine(Simulator* sim, Network* net, Cpu* cpu,
                         FrameTable* frames, NodeId self, EngineConfig config,
                         std::unique_ptr<ReplacementPolicy> policy)
    : sim_(sim), net_(net), cpu_(cpu), frames_(frames), self_(self),
      config_(std::move(config)), policy_(std::move(policy)) {
  policy_->Bind(this);
  uses_remote_cache_ = policy_->UsesRemoteCache();
  wants_fault_events_ = policy_->WantsFaultEvents();
  // In a balanced cluster this node's GCD partition tracks about as many
  // pages as it has frames; pre-sizing eliminates rehashing while the
  // cluster warms up.
  gcd_.Reserve(frames->num_frames() * 2);
}

void CacheEngine::Start(std::shared_ptr<const PodTable> pod) {
  assert(!alive_);
  alive_ = true;
  pod_.Adopt(std::move(pod));
  policy_->OnStart();
}

void CacheEngine::SetAlive(bool alive) {
  if (alive_ == alive) {
    return;
  }
  alive_ = alive;
  if (!alive) {
    policy_->OnStop();
    for (auto& [key, ctl] : unacked_) {
      sim_->CancelTimer(ctl.timer);
    }
    unacked_.clear();
    for (auto& [node, window] : seen_seqs_) {
      sim_->CancelTimer(window.gap_timer);
    }
    seen_seqs_.clear();
    for (auto& [id, pending] : pending_gets_) {
      sim_->CancelTimer(pending.timer);
    }
    pending_gets_.clear();
  }
}

SimTime CacheEngine::RetryTimeoutFor(int attempts) const {
  double t = static_cast<double>(config_.retry.initial_timeout);
  for (int i = 0; i < attempts; i++) {
    t *= config_.retry.backoff;
  }
  const double cap = static_cast<double>(config_.retry.max_timeout);
  return static_cast<SimTime>(t > cap ? cap : t);
}

void CacheEngine::SendReliable(NodeId dst, uint32_t type, uint32_t bytes,
                               MessagePayload payload, uint64_t seq,
                               const Uid& uid, bool putpage_target) {
  UnackedControl ctl;
  ctl.dst = dst;
  ctl.type = type;
  ctl.bytes = bytes;
  ctl.payload = payload;
  ctl.uid = uid;
  ctl.putpage_target = putpage_target;
  const uint64_t key = AckKey(dst, seq);
  ctl.timer = sim_->ScheduleTimer(RetryTimeoutFor(0),
                                  [this, key] { RetryControl(key); });
  unacked_.emplace(key, std::move(ctl));
  Send(dst, type, bytes, std::move(payload));
}

void CacheEngine::RetryControl(uint64_t key) {
  auto it = unacked_.find(key);
  if (it == unacked_.end()) {
    return;
  }
  UnackedControl& ctl = it->second;
  ctl.timer = 0;
  if (ctl.attempts >= config_.retry.max_attempts || !pod_.IsLive(ctl.dst)) {
    stats_.control_give_ups++;
    const bool cleanup = ctl.putpage_target;
    const Uid uid = ctl.uid;
    const NodeId dst = ctl.dst;
    unacked_.erase(it);
    if (cleanup) {
      // The page transfer was never confirmed; de-register the target so the
      // directory stops advertising a copy nobody may hold. The page itself
      // is clean — disk still has it.
      SendGcdUpdate(uid, GcdUpdate::kRemove, dst, true);
    }
    return;
  }
  ctl.attempts++;
  stats_.control_retries++;
  if (const SpanRef* slot = PayloadSpan(ctl.type, ctl.payload)) {
    // The stored payload still carries the sender-side span (receive forks
    // happen on the receiver's copy), so retry-timer waits accrue there.
    SpanStep(tracer_, sim_->now(), self_, *slot, SpanComp::kRetryWait,
             ctl.attempts);
  }
  Send(ctl.dst, ctl.type, ctl.bytes, ctl.payload);
  ctl.timer = sim_->ScheduleTimer(RetryTimeoutFor(ctl.attempts),
                                  [this, key] { RetryControl(key); });
}

void CacheEngine::HandleProtoAck(const ProtoAck& msg) {
  auto it = unacked_.find(AckKey(msg.from, msg.seq));
  if (it == unacked_.end()) {
    return;  // duplicate ack
  }
  sim_->CancelTimer(it->second.timer);
  unacked_.erase(it);
}

SimTime CacheEngine::GapSkipTimeout() const {
  SimTime t = config_.retry.max_timeout;
  for (int i = 0; i < config_.retry.max_attempts; i++) {
    t += RetryTimeoutFor(i);
  }
  return t;
}

void CacheEngine::ReceiveSequenced(NodeId from, uint64_t seq, Datagram dgram) {
  // Ack even duplicates — the previous ack may be the copy that was lost.
  Send(from, kMsgProtoAck, config_.costs.small_message_bytes(),
       ProtoAck{seq, self_});
  SeqWindow& w = seen_seqs_[from.value];
  if (!w.initialized) {
    w.initialized = true;
    w.max_contig = seq;
    Dispatch(dgram);
    return;
  }
  if (seq <= w.max_contig || w.Holds(seq)) {
    stats_.duplicate_msgs_dropped++;
    // The forked receive span dead-ends here; the stamp marks it as a
    // dropped duplicate rather than leaving it a bare begin record.
    if (const SpanRef* slot = PayloadSpan(dgram.type, dgram.payload)) {
      SpanStep(tracer_, sim_->now(), self_, *slot, SpanComp::kDupDrop);
    }
    return;
  }
  w.Hold(seq, std::move(dgram));
  DrainWindow(from);
}

void CacheEngine::DrainWindow(NodeId from) {
  SeqWindow& w = seen_seqs_[from.value];
  bool advanced = false;
  while (!w.held.empty() && w.MinSeq() == w.max_contig + 1) {
    Datagram next = w.TakeMin();
    w.max_contig++;
    advanced = true;
    // Zero-length for in-order arrivals; otherwise the time this message
    // sat in the reorder window waiting for its gap to fill.
    if (const SpanRef* slot = PayloadSpan(next.type, next.payload)) {
      SpanStep(tracer_, sim_->now(), self_, *slot, SpanComp::kOrderWait);
    }
    Dispatch(next);
  }
  if (w.held.empty()) {
    sim_->CancelTimer(w.gap_timer);
    w.gap_timer = 0;
    return;
  }
  // A gap blocks delivery. The sender retries every sequenced message, so
  // the gap fills on its own unless the sender gave up (or died); restart
  // the clock whenever progress is made so each gap gets the full span.
  if (w.gap_timer == 0 || advanced) {
    sim_->CancelTimer(w.gap_timer);
    w.gap_timer = sim_->ScheduleTimer(GapSkipTimeout(),
                                      [this, from] { OnSeqGapTimeout(from); });
  }
}

void CacheEngine::OnSeqGapTimeout(NodeId from) {
  SeqWindow& w = seen_seqs_[from.value];
  w.gap_timer = 0;
  if (w.held.empty()) {
    return;
  }
  stats_.seq_gaps_skipped++;
  w.max_contig = w.MinSeq() - 1;
  DrainWindow(from);
}

void CacheEngine::DropPeerSeqWindow(NodeId peer) {
  auto it = seen_seqs_.find(peer.value);
  if (it != seen_seqs_.end()) {
    sim_->CancelTimer(it->second.gap_timer);
    seen_seqs_.erase(it);
  }
}

void CacheEngine::Send(NodeId dst, uint32_t type, uint32_t bytes,
                       MessagePayload payload) {
  net_->Send(Datagram{self_, dst, bytes, type, std::move(payload)});
}

SimTime CacheEngine::EffectiveAge(const Frame& frame) const {
  const SimTime age = sim_->now() - frame.last_access();
  if (frame.location() == PageLocation::kGlobal) {
    return static_cast<SimTime>(static_cast<double>(age) *
                                config_.global_age_boost);
  }
  return age;
}

// ---------------------------------------------------------------------------
// getpage — requester side
// ---------------------------------------------------------------------------

void CacheEngine::GetPage(const Uid& uid, GetPageCallback callback,
                          SpanRef parent) {
  if (wants_fault_events_) {
    policy_->OnPageFault(uid);
  }
  if (!uses_remote_cache_) {
    // No global cache to consult (the paper's "no remote paging" baseline):
    // every getpage is an instant miss and the caller falls through to disk.
    stats_.getpage_attempts++;
    stats_.getpage_misses++;
    sim_->After(0, [cb = std::move(callback), parent]() mutable {
      GetPageResult result;
      result.span = parent;
      cb(result);
    });
    return;
  }
  stats_.getpage_attempts++;
  TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kGetPageIssue, uid,
             0);
  const uint64_t op_id = next_op_id_++;
  PendingGet pending;
  pending.uid = uid;
  pending.callback = std::move(callback);
  pending.started = sim_->now();
  // Continue on the caller's fault span, or root a standalone getpage trace
  // (tests, microbenchmarks) that ResolveGet will also end.
  pending.span = parent;
  if (!pending.span.valid()) {
    pending.span = TraceBegin(tracer_, sim_->now(), self_, SpanOp::kGetPage);
    pending.owns_trace = pending.span.valid();
  }
  // With retries enabled each attempt gets a short window and escalates;
  // without, one long window covers the whole operation.
  const SimTime window =
      config_.retry.enabled ? RetryTimeoutFor(0) : config_.getpage_timeout;
  pending.timer =
      sim_->ScheduleTimer(window, [this, op_id] { OnGetPageTimeout(op_id); });
  const SpanRef span = pending.span;
  pending_gets_.emplace(op_id, std::move(pending));
  IssueGetPage(uid, op_id, span);
}

void CacheEngine::OnGetPageTimeout(uint64_t op_id) {
  auto it = pending_gets_.find(op_id);
  if (it == pending_gets_.end()) {
    return;
  }
  PendingGet& pending = it->second;
  // The armed window since the previous attempt's send was spent waiting.
  SpanStep(tracer_, sim_->now(), self_, pending.span, SpanComp::kRetryWait,
           static_cast<uint64_t>(pending.attempts));
  if (config_.retry.enabled &&
      pending.attempts + 1 < config_.retry.max_attempts) {
    pending.attempts++;
    stats_.getpage_retries++;
    pending.timer = sim_->ScheduleTimer(
        RetryTimeoutFor(pending.attempts),
        [this, op_id] { OnGetPageTimeout(op_id); });
    // Same op_id: a late reply to any attempt resolves the fault, and the
    // duplicate-reply case is absorbed by pending_gets_ erasure.
    IssueGetPage(pending.uid, op_id, pending.span);
    return;
  }
  stats_.getpage_timeouts++;
  GetPageResult result;
  result.span = pending.span;
  ResolveGet(op_id, result);
}

void CacheEngine::IssueGetPage(const Uid& uid, uint64_t op_id, SpanRef span) {
  // Request generation: UID hash + POD lookup (Table 1, "Request
  // Generation"; 7 us when the GCD turns out to be local).
  cpu_->SubmitKernel(config_.costs.get_request_local, CpuCategory::kFault,
                     [this, uid, op_id, span] {
    if (!alive_) {
      return;
    }
    SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kReqGen);
    const NodeId gcd_node = pod_.GcdNodeFor(uid);
    if (gcd_node == self_) {
      LookupInGcd(uid, self_, op_id, span);
      return;
    }
    // Marshal + transmit the request to the remote GCD node.
    cpu_->SubmitKernel(config_.costs.get_request_remote_extra,
                       CpuCategory::kFault, [this, uid, op_id, gcd_node, span] {
      if (!alive_) {
        return;
      }
      SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kReqGen,
               gcd_node.value);
      GetPageReq req{uid, self_, op_id};
      req.span = span;
      Send(gcd_node, kMsgGetPageReq, config_.costs.small_message_bytes(), req);
    });
  });
}

void CacheEngine::ResolveGet(uint64_t op_id, GetPageResult result) {
  auto it = pending_gets_.find(op_id);
  if (it == pending_gets_.end()) {
    return;  // late reply after a timeout already resolved it
  }
  sim_->CancelTimer(it->second.timer);
  GetPageCallback callback = std::move(it->second.callback);
  const Uid uid = it->second.uid;
  const SimTime latency = sim_->now() - it->second.started;
  const bool owns_trace = it->second.owns_trace;
  pending_gets_.erase(it);
  if (result.hit) {
    stats_.getpage_hits++;
    stats_.getpage_hit_ns.Record(latency);
    TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kGetPageHit, uid,
               static_cast<uint64_t>(latency));
  } else {
    stats_.getpage_misses++;
    stats_.getpage_miss_ns.Record(latency);
    TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kGetPageMiss, uid,
               static_cast<uint64_t>(latency));
  }
  if (owns_trace) {
    // Standalone getpage (no enclosing fault): the trace ends here, on
    // whichever span the resolution landed on.
    SpanEnd(tracer_, sim_->now(), self_, result.span,
            result.hit ? SpanStatus::kHit : SpanStatus::kMiss,
            static_cast<uint64_t>(latency));
  }
  callback(result);
}

// Runs on the node storing the GCD entry (which may be the requester itself
// for private pages). `requester == self_` means the lookup cost belongs to
// the local fault, not to serving a peer.
void CacheEngine::LookupInGcd(const Uid& uid, NodeId requester, uint64_t op_id,
                              SpanRef span) {
  const CpuCategory category =
      requester == self_ ? CpuCategory::kFault : CpuCategory::kService;
  cpu_->SubmitKernel(config_.costs.gcd_lookup, category,
                     [this, uid, requester, op_id, category, span] {
    if (!alive_) {
      return;
    }
    stats_.gcd_lookups++;
    SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kService);
    const std::optional<GcdTable::Holder> pick = gcd_.Pick(uid, requester);
    if (!pick.has_value() || !pod_.IsLive(pick->node)) {
      if (requester == self_) {
        // The 15 us non-shared miss path. Resolution lands on the request's
        // own span (GCD was local; no hop ever happened).
        GetPageResult result;
        result.span = span;
        ResolveGet(op_id, result);
      } else {
        GetPageMiss miss{uid, op_id};
        miss.span = span;
        Send(requester, kMsgGetPageMiss, config_.costs.small_message_bytes(),
             miss);
      }
      return;
    }
    // Optimistic directory update: the requester will hold the page once the
    // transfer completes. A global copy moves (single-copy invariant); a
    // shared local copy gains a duplicate.
    if (pick->global) {
      gcd_.Apply(GcdUpdate{uid, GcdUpdate::kRemove, pick->node, true});
    }
    gcd_.Apply(GcdUpdate{uid, GcdUpdate::kAdd, requester, false});
    cpu_->SubmitKernel(config_.costs.gcd_forward_extra, category,
                       [this, uid, requester, op_id, holder = pick->node,
                        span] {
      if (!alive_) {
        return;
      }
      SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kService,
               holder.value);
      GetPageFwd fwd{uid, requester, op_id};
      fwd.span = span;
      if (config_.retry.enabled) {
        // The directory just de-registered the holder's copy; if this
        // forward is lost the holder keeps a global page nothing points at
        // (and a later re-eviction would make a second copy). Retry it past
        // drops and partitions so the holder serves or frees the frame.
        fwd.seq = NextCtlSeq(holder);
        SendReliable(holder, kMsgGetPageFwd,
                     config_.costs.small_message_bytes(), fwd, fwd.seq, uid,
                     /*putpage_target=*/false);
        return;
      }
      Send(holder, kMsgGetPageFwd, config_.costs.small_message_bytes(), fwd);
    });
  });
}

// ---------------------------------------------------------------------------
// getpage — GCD and housing-node sides
// ---------------------------------------------------------------------------

void CacheEngine::HandleGetPageReq(const GetPageReq& msg) {
  LookupInGcd(msg.uid, msg.requester, msg.op_id, msg.span);
}

void CacheEngine::HandleGetPageFwd(const GetPageFwd& msg) {
  cpu_->SubmitKernel(config_.costs.get_target, CpuCategory::kService,
                     [this, msg] {
    if (!alive_) {
      return;
    }
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kService);
    Frame* frame = frames_->Lookup(msg.uid);
    if (frame == nullptr || frame->pinned()) {
      // Stale GCD hint (the page moved or is mid-transfer): the requester
      // falls back to disk — the paper's "worst case" reconfiguration
      // behaviour.
      GetPageMiss miss{msg.uid, msg.op_id};
      miss.span = msg.span;
      Send(msg.requester, kMsgGetPageMiss, config_.costs.small_message_bytes(),
           miss);
      return;
    }
    GetPageReply reply{msg.uid, msg.op_id, false,
                       config_.propagate_dirty && frame->dirty()};
    reply.span = msg.span;
    if (frame->location() == PageLocation::kGlobal) {
      // A global page has exactly one copy (a dirty page may have replicas;
      // this one moves and any sibling is reconciled by the directory); it
      // moves to the requester and this node's frame becomes free (the
      // getpage half of the "swap" — section 4.5).
      reply.was_global = true;
      stats_.global_hits_served++;
      frames_->Free(frame);
      if (config_.retry.enabled) {
        // Normally redundant: the GCD already de-listed us optimistically
        // before forwarding. But a forward can be stale — delayed behind a
        // CPU backlog while the requester timed out, re-fetched the page
        // from disk, and evicted it back to us. Serving that forward frees
        // the *new* incarnation, whose registration post-dates the
        // optimistic removal; without this corrective remove the directory
        // would keep naming us as a holder forever.
        SendGcdUpdate(msg.uid, GcdUpdate::kRemove, self_, true);
      }
    } else {
      // Shared page served from our active local memory (case 4): we keep
      // our copy and both copies become duplicates.
      frame->set_duplicated(true);
    }
    Send(msg.requester, kMsgGetPageReply, config_.costs.page_message_bytes(),
         reply);
  });
}

void CacheEngine::HandleGetPageReply(const GetPageReply& msg) {
  cpu_->SubmitKernel(config_.costs.get_reply_receipt_data, CpuCategory::kFault,
                     [this, msg] {
    if (!alive_) {
      return;
    }
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kService);
    ResolveGet(msg.op_id,
               GetPageResult{true, !msg.was_global, msg.dirty, msg.span});
  });
}

void CacheEngine::HandleGetPageMiss(const GetPageMiss& msg) {
  cpu_->SubmitKernel(config_.costs.get_reply_receipt_miss, CpuCategory::kFault,
                     [this, msg] {
    if (!alive_) {
      return;
    }
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kService);
    GetPageResult result;
    result.span = msg.span;
    ResolveGet(msg.op_id, result);
  });
}

// ---------------------------------------------------------------------------
// putpage / eviction
// ---------------------------------------------------------------------------

void CacheEngine::OnPageLoaded(Frame* frame) {
  if (!uses_remote_cache_) {
    return;  // no directory is maintained
  }
  SendGcdUpdate(frame->uid(), GcdUpdate::kAdd, self_,
                frame->location() == PageLocation::kGlobal);
}

void CacheEngine::DiscardFrame(Frame* frame) {
  MaybeDemoteToFar(*frame);
  SendGcdUpdate(frame->uid(), GcdUpdate::kRemove, self_,
                frame->location() == PageLocation::kGlobal);
  frames_->Free(frame);
}

void CacheEngine::MaybeDemoteToFar(const Frame& frame) {
  if (far_ == nullptr || frame.dirty()) {
    // No tier below us, or the page must reach the disk for durability (only
    // clean pages are demoted; far memory is not a write-back target).
    return;
  }
  if (!policy_->DemoteOnDiscard(frame)) {
    return;
  }
  stats_.demotions_far++;
  // Fire-and-forget: the frame is reusable immediately (the copy into the
  // far tier's transfer buffer is modeled as instantaneous, like putpage).
  far_->WritePage(frame.uid(), {}, {});
}

void CacheEngine::SendPutPage(Frame* frame, NodeId target, uint8_t freq) {
  stats_.putpages_sent++;
  TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kPutPageSend,
             frame->uid(), target.value);
  PutPage msg;
  msg.uid = frame->uid();
  msg.from = self_;
  msg.age = sim_->now() - frame->last_access();
  msg.shared = frame->shared();
  msg.freq = freq;
  // Each putpage roots its own trace: the eviction is the originating
  // operation, and the receiver's absorb/bounce decision ends it.
  msg.span = TraceBegin(tracer_, sim_->now(), self_, SpanOp::kPutPage);
  // The frame is reusable once the page is copied into a network buffer;
  // model that copy as instantaneous and charge the Table 2 sender latency
  // (marshal + GCD update) as CPU time before the message hits the wire.
  frames_->Free(frame);

  const NodeId gcd_node = pod_.GcdNodeFor(msg.uid);
  const SimTime marshal =
      config_.costs.put_request + (gcd_node == self_
                                       ? config_.costs.put_gcd_processing
                                       : config_.costs.put_gcd_remote_extra);
  cpu_->SubmitKernel(marshal, CpuCategory::kFault, [this, msg, target]() mutable {
    if (!alive_) {
      return;
    }
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kReqGen);
    if (config_.retry.enabled) {
      msg.seq = NextCtlSeq(target);
      SendReliable(target, kMsgPutPage, config_.costs.page_message_bytes(),
                   msg, msg.seq, msg.uid, /*putpage_target=*/true);
    } else {
      Send(target, kMsgPutPage, config_.costs.page_message_bytes(), msg);
    }
    SendGcdUpdate(msg.uid, GcdUpdate::kReplace, target, true, self_, msg.span);
  });
}

void CacheEngine::SendGcdUpdate(const Uid& uid, GcdUpdate::Op op, NodeId holder,
                                bool global, NodeId prev, SpanRef span) {
  GcdUpdate update{uid, op, holder, global, prev};
  update.span = span;
  const NodeId gcd_node = pod_.GcdNodeFor(uid);
  if (gcd_node == self_) {
    policy_->ApplyGcdAsOwner(update);
    return;
  }
  if (config_.retry.enabled) {
    update.seq = NextCtlSeq(gcd_node);
    SendReliable(gcd_node, kMsgGcdUpdate, config_.costs.small_message_bytes(),
                 update, update.seq, uid, /*putpage_target=*/false);
    return;
  }
  Send(gcd_node, kMsgGcdUpdate, config_.costs.small_message_bytes(), update);
}

void CacheEngine::HandleGcdUpdate(const GcdUpdate& msg) {
  cpu_->SubmitKernel(config_.costs.put_gcd_processing, CpuCategory::kService,
                     [this, msg] {
    if (alive_) {
      // Directory maintenance is a side branch of the originating trace: the
      // stamp closes this leaf span but never joins the critical path.
      SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kService);
      policy_->ApplyGcdAsOwner(msg);
    }
  });
}

void CacheEngine::HandleGcdInvalidate(const GcdInvalidate& msg) {
  cpu_->SubmitKernel(config_.costs.gcd_lookup, CpuCategory::kService,
                     [this, msg] {
    if (!alive_) {
      return;
    }
    Frame* frame = frames_->Lookup(msg.uid);
    if (frame != nullptr && frame->location() == PageLocation::kGlobal &&
        !frame->pinned()) {
      frames_->Free(frame);  // clean by construction; disk has it
    }
  });
}

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

void CacheEngine::OnDatagram(Datagram dgram) {
  if (!alive_) {
    return;
  }
  // Fork a receive span at arrival time, rewriting the message's embedded
  // context in place — the closure below captures the datagram by value and
  // is frozen at exactly the inline-callable size, so the fork must happen
  // before capture. Each redelivery of a retried message forks a sibling.
  if (SpanRef* slot = MutablePayloadSpan(dgram.type, dgram.payload)) {
    *slot = SpanBegin(tracer_, sim_->now(), self_, *slot, dgram.type);
  }
  // Interrupt + protocol-stack cost for every received datagram.
  auto receive = [this, dgram = std::move(dgram)]() mutable {
    if (!alive_) {
      return;
    }
    if (const SpanRef* slot = PayloadSpan(dgram.type, dgram.payload)) {
      // Closes [arrival, now]: time spent behind the service CPU queue plus
      // the ISR itself.
      SpanStep(tracer_, sim_->now(), self_, *slot, SpanComp::kQueueIsr);
    }
    if (config_.retry.enabled && dgram.src != self_) {
      uint64_t seq = 0;
      switch (dgram.type) {
        case kMsgPutPage:
          seq = dgram.payload.get<PutPage>().seq;
          break;
        case kMsgGcdUpdate:
          seq = dgram.payload.get<GcdUpdate>().seq;
          break;
        case kMsgGcdInvalidate:
          seq = dgram.payload.get<GcdInvalidate>().seq;
          break;
        case kMsgGetPageFwd:
          seq = dgram.payload.get<GetPageFwd>().seq;
          break;
        case kMsgRepublish:
          seq = dgram.payload.get<Republish>().seq;
          break;
        default:
          break;
      }
      if (seq != 0) {
        ReceiveSequenced(dgram.src, seq, std::move(dgram));
        return;
      }
    }
    Dispatch(dgram);
  };
  // Per-message hot path: the receive closure must stay inline.
  static_assert(EventFn::kFitsInline<decltype(receive)>);
  cpu_->SubmitKernel(config_.costs.receive_isr, CpuCategory::kService,
                     std::move(receive));
}

void CacheEngine::Dispatch(Datagram& dgram) {
  switch (dgram.type) {
    case kMsgGetPageReq:
      HandleGetPageReq(dgram.payload.get<GetPageReq>());
      break;
    case kMsgGetPageFwd:
      HandleGetPageFwd(dgram.payload.get<GetPageFwd>());
      break;
    case kMsgGetPageReply:
      HandleGetPageReply(dgram.payload.get<GetPageReply>());
      break;
    case kMsgGetPageMiss:
      HandleGetPageMiss(dgram.payload.get<GetPageMiss>());
      break;
    case kMsgGcdUpdate:
      HandleGcdUpdate(dgram.payload.get<GcdUpdate>());
      break;
    case kMsgGcdInvalidate:
      HandleGcdInvalidate(dgram.payload.get<GcdInvalidate>());
      break;
    case kMsgProtoAck:
      HandleProtoAck(dgram.payload.get<ProtoAck>());
      break;
    default:
      // Everything else — putpage absorption, epochs, membership,
      // heartbeats, N-chance forwards — is the policy's protocol.
      if (!policy_->HandleMessage(dgram)) {
        GMS_LOG_WARN("node %u: unknown message type %u", self_.value,
                     dgram.type);
      }
      break;
  }
}

}  // namespace gms

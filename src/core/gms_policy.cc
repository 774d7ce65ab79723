#include "src/core/gms_policy.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/log.h"

namespace gms {

void GmsPolicy::OnStart() {
  view_ = EpochView{};
  view_.next_initiator = first_initiator_;
  if (first_initiator_ == self_) {
    sim_->After(config_.first_epoch_delay, [this] {
      if (alive()) {
        StartEpochAsInitiator();
      }
    });
  } else if (config_.retry.enabled && first_initiator_.valid()) {
    // Under loss the first EpochParams may never reach us; watchdog the
    // initiator from the start.
    ArmEpochWatchdog();
  }
  if (config_.enable_heartbeats && master_ == self_) {
    hb_timer_ = sim_->ScheduleTimer(config_.heartbeat_interval,
                                    [this] { SendHeartbeats(); });
  }
  if (config_.enable_heartbeats && config_.enable_master_election &&
      master_ != self_) {
    ArmMasterWatchdog();
  }
}

void GmsPolicy::OnStop() {
  sim_->CancelTimer(epoch_timer_);
  sim_->CancelTimer(collect_timer_);
  sim_->CancelTimer(hb_timer_);
  sim_->CancelTimer(master_watchdog_);
  epoch_timer_ = collect_timer_ = hb_timer_ = master_watchdog_ = 0;
  sim_->CancelTimer(join_retry_timer_);
  sim_->CancelTimer(epoch_watchdog_);
  sim_->CancelTimer(stale_clear_timer_);
  join_retry_timer_ = epoch_watchdog_ = stale_clear_timer_ = 0;
  epoch_watchdog_fires_ = 0;
  collecting_ = false;
  sim_->CancelTimer(tree_timer_);
  tree_timer_ = 0;
  tree_collecting_ = false;
  tree_sending_ = false;
  tree_acc_.Reset();
  tree_span_ = SpanRef{};
}

void GmsPolicy::Join(NodeId master) {
  master_ = master;
  MarkAlive();
  Send(master, kMsgJoinReq, config_.costs.small_message_bytes(),
       JoinReq{self_});
  if (config_.retry.enabled) {
    join_attempts_ = 1;
    sim_->CancelTimer(join_retry_timer_);
    join_retry_timer_ = sim_->ScheduleTimer(RetryTimeoutFor(join_attempts_),
                                            [this] { RetryJoin(); });
  }
}

void GmsPolicy::RetryJoin() {
  join_retry_timer_ = 0;
  // A rebooted node boots on a version-0 POD that lists only itself; the join
  // has landed once it adopted a master-issued POD that lists it.
  if (!alive() || (pod().version() > 0 && pod().IsLive(self_))) {
    return;
  }
  if (join_attempts_ >= config_.retry.max_attempts) {
    stats().control_give_ups++;
    return;
  }
  join_attempts_++;
  stats().control_retries++;
  Send(master_, kMsgJoinReq, config_.costs.small_message_bytes(),
       JoinReq{self_});
  join_retry_timer_ = sim_->ScheduleTimer(RetryTimeoutFor(join_attempts_),
                                          [this] { RetryJoin(); });
}

// ---------------------------------------------------------------------------
// eviction
// ---------------------------------------------------------------------------

void GmsPolicy::EvictClean(Frame* frame) {
  assert(frame != nullptr && frame->in_use() && !frame->dirty());
  evictions_since_summary_++;

  // Duplicate shared pages are dropped without network transmission
  // (section 4.5; the Table 4 "GMS duplicate" case).
  if (frame->shared() && frame->duplicated()) {
    stats().discards_duplicate++;
    DiscardFrame(frame);
    return;
  }

  // MinAge test (section 3.2): pages at least as old as the epoch threshold
  // are expected to leave cluster memory this epoch — drop to disk.
  const SimTime age = EffectiveAge(*frame);
  if (view_.min_age == 0 || age >= view_.min_age) {
    stats().discards_old++;
    DiscardFrame(frame);
    return;
  }

  const std::optional<NodeId> target = SampleEvictionTarget();
  if (!target.has_value()) {
    stats().discards_no_budget++;
    ReportStaleWeights();
    DiscardFrame(frame);
    return;
  }
  SendPutPage(frame, *target);
}

bool GmsPolicy::EvictDirty(Frame* frame) {
  assert(frame != nullptr && frame->in_use() && frame->dirty());
  if (!config_.dirty_global) {
    return false;
  }
  evictions_since_summary_++;

  if (frame->location() == PageLocation::kGlobal) {
    // A dirty global page leaving a holder goes home for write-back rather
    // than recirculating; a lingering replica elsewhere is harmless (the
    // write-back is idempotent).
    stats().dirty_writebacks_sent++;
    WriteBack msg{frame->uid(), self_};
    // The write-back roots its own trace; the home node ends it once the
    // page is durable on disk.
    msg.span = TraceBegin(tracer_, sim_->now(), self_, SpanOp::kPutPage);
    const NodeId backing = NodeOfIp(frame->uid().ip());
    SendGcdUpdate(frame->uid(), GcdUpdate::kRemove, self_, true, kInvalidNode,
                  msg.span);
    frames_->Free(frame);
    cpu_->SubmitKernel(config_.costs.put_request, CpuCategory::kFault,
                       [this, msg, backing] {
      if (alive()) {
        SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kReqGen);
        Send(backing, kMsgWriteBack, config_.costs.page_message_bytes(), msg);
      }
    });
    return true;
  }

  // Local dirty page: replicate into the global memory of `dirty_replicas`
  // distinct nodes. Without at least one target we fall back to the
  // caller's disk write-back.
  std::vector<NodeId> targets;
  for (uint32_t i = 0; i < config_.dirty_replicas * 4 &&
                       targets.size() < config_.dirty_replicas;
       i++) {
    const std::optional<NodeId> t = SampleEvictionTarget();
    if (!t.has_value()) {
      break;
    }
    if (std::find(targets.begin(), targets.end(), *t) == targets.end()) {
      targets.push_back(*t);
    }
  }
  if (targets.empty()) {
    ReportStaleWeights();
    return false;
  }
  stats().dirty_putpages_sent++;
  stats().putpages_sent += targets.size();
  PutPage msg;
  msg.uid = frame->uid();
  msg.from = self_;
  msg.age = sim_->now() - frame->last_access();
  msg.shared = frame->shared();
  msg.dirty = true;
  // One trace covers the whole replication fan-out; every replica's receive
  // span forks off the same root.
  msg.span = TraceBegin(tracer_, sim_->now(), self_, SpanOp::kPutPage);
  frames_->Free(frame);
  const SimTime marshal =
      config_.costs.put_request * static_cast<SimTime>(targets.size());
  cpu_->SubmitKernel(marshal, CpuCategory::kFault, [this, msg, targets]() mutable {
    if (!alive()) {
      return;
    }
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kReqGen);
    for (size_t i = 0; i < targets.size(); i++) {
      if (config_.retry.enabled) {
        msg.seq = NextCtlSeq(targets[i]);
        SendReliable(targets[i], kMsgPutPage,
                     config_.costs.page_message_bytes(), msg, msg.seq, msg.uid,
                     /*putpage_target=*/true);
      } else {
        Send(targets[i], kMsgPutPage, config_.costs.page_message_bytes(), msg);
      }
      // The first target is the "primary" in the directory (kReplace); the
      // replicas are added alongside it.
      if (i == 0) {
        SendGcdUpdate(msg.uid, GcdUpdate::kReplace, targets[i], true, self_);
      } else {
        SendGcdUpdate(msg.uid, GcdUpdate::kAdd, targets[i], true);
      }
    }
  });
  return true;
}

void GmsPolicy::ApplyGcdAsOwner(const GcdUpdate& update) {
  if (config_.retry.enabled &&
      (update.op == GcdUpdate::kAdd || update.op == GcdUpdate::kReplace) &&
      !pod().IsLive(update.node)) {
    // A late or retried registration from a node no longer in the
    // membership must not resurrect it as a holder.
    return;
  }
  if (config_.retry.enabled &&
      (update.op == GcdUpdate::kAdd || update.op == GcdUpdate::kReplace) &&
      update.node == self_ && update.global &&
      frames_->Lookup(update.uid) == nullptr) {
    // Remote registrations naming *this node* as a global holder apply
    // behind the kService kernel queue, while this node's own directory
    // updates (discard, optimistic getpage moves) apply instantly. A queued
    // kReplace can therefore land after the page it announced has already
    // been absorbed and re-evicted here, resurrecting a self-entry with no
    // frame behind it. Unlike hints about other nodes, the owner can check
    // its own cache: drop the registration if the page is not resident.
    // (A kReplace still runs below with node swapped out so `prev` and
    // superseded holders are cleaned up.)
    if (update.op == GcdUpdate::kReplace) {
      GcdUpdate scrubbed = update;
      scrubbed.op = GcdUpdate::kRemove;
      scrubbed.node = update.prev.valid() ? update.prev : self_;
      scrubbed.global = false;
      gcd().Apply(scrubbed);
      gcd().Apply(GcdUpdate{update.uid, GcdUpdate::kRemove, self_, true});
    }
    return;
  }
  if (config_.retry.enabled && !config_.dirty_global &&
      update.op == GcdUpdate::kAdd && update.global) {
    // A global registration for a page that already has a *different*
    // global holder means two putpages of the same page raced — e.g. a
    // transfer delayed by a partition finally landed after the evictor
    // timed out, re-fetched the page from disk, and re-evicted it to a
    // different node. Both copies are clean, so either may be dropped;
    // keep the incumbent (the later directory state) and tell the
    // newcomer to free its copy. Without dirty_global there is never a
    // legitimate second global copy.
    if (const GcdTable::Entry* entry = gcd().Lookup(update.uid)) {
      for (const GcdTable::Holder& h : entry->holders) {
        if (!h.global || h.node == update.node) {
          continue;
        }
        if (update.node != self_) {
          GcdInvalidate inv{update.uid, NextCtlSeq(update.node)};
          SendReliable(update.node, kMsgGcdInvalidate,
                       config_.costs.small_message_bytes(), inv, inv.seq,
                       update.uid, /*putpage_target=*/false);
          return;  // drop the registration; the incumbent stays
        }
        // The newcomer is this node itself (the owner absorbed a putpage):
        // our frame is resident, so keep ours and invalidate the incumbent.
        GcdInvalidate inv{update.uid, NextCtlSeq(h.node)};
        SendReliable(h.node, kMsgGcdInvalidate,
                     config_.costs.small_message_bytes(), inv, inv.seq,
                     update.uid, /*putpage_target=*/false);
        gcd().Apply(GcdUpdate{update.uid, GcdUpdate::kRemove, h.node, true});
        break;  // at most one global incumbent; fall through to register
      }
    }
  }
  if (update.op == GcdUpdate::kReplace) {
    // A replace that supersedes a still-registered global copy elsewhere
    // means a race (e.g. a disk refetch forked the page while a putpage was
    // in flight); tell the stale holder to drop its clean copy so the
    // single-copy invariant re-converges. Under loss the invalidation must
    // be reliable, or the second copy survives forever.
    if (const GcdTable::Entry* entry = gcd().Lookup(update.uid)) {
      for (const GcdTable::Holder& h : entry->holders) {
        if (h.global && h.node != update.node && h.node != update.prev &&
            h.node != self_) {
          GcdInvalidate inv{update.uid, 0};
          if (config_.retry.enabled) {
            inv.seq = NextCtlSeq(h.node);
            SendReliable(h.node, kMsgGcdInvalidate,
                         config_.costs.small_message_bytes(), inv, inv.seq,
                         update.uid, /*putpage_target=*/false);
          } else {
            Send(h.node, kMsgGcdInvalidate,
                 config_.costs.small_message_bytes(), inv);
          }
        } else if (config_.retry.enabled && h.global && h.node == self_ &&
                   h.node != update.node && h.node != update.prev) {
          // The superseded global copy is our own: no message needed, the
          // owner drops the stale frame directly.
          Frame* frame = frames_->Lookup(update.uid);
          if (frame != nullptr && frame->location() == PageLocation::kGlobal &&
              !frame->pinned()) {
            frames_->Free(frame);
          }
        }
      }
    }
  }
  gcd().Apply(update);
}

std::optional<NodeId> GmsPolicy::SampleEvictionTarget() {
  MaterializeWeights();
  if (remaining_weight_ <= 0) {
    return std::nullopt;
  }
  // Built on first draw: every weight change marks the sampler stale, and
  // only Sample() draws from the RNG, so the targets drawn are the same as
  // with a rebuild at every change.
  if (sampler_stale_) {
    sampler_ = AliasSampler(weights_);
    sampler_stale_ = false;
  }
  if (sampler_.empty()) {
    return std::nullopt;
  }
  const size_t idx = sampler_.Sample(rng_);
  if (weights_[idx] <= 0) {
    // Sampler is stale relative to consumed weights (rebuilds are deferred
    // to weight exhaustion); rebuild and draw again.
    sampler_stale_ = true;
    return SampleEvictionTarget();
  }
  weights_[idx] -= 1.0;
  remaining_weight_ -= 1.0;
  if (weights_[idx] <= 0) {
    sampler_stale_ = true;
  }
  return NodeId{static_cast<uint32_t>(idx)};
}

void GmsPolicy::MaterializeWeights() {
  if (adopted_weights_ == nullptr) {
    return;
  }
  weights_.assign(adopted_weights_->begin(), adopted_weights_->end());
  adopted_weights_.reset();
  if (weights_.size() < net_->num_nodes()) {
    weights_.resize(net_->num_nodes(), 0.0);
  }
  // Evictions are never directed at ourselves (paper case 3: the page is
  // sent to another node Q); our own weight only matters for the
  // next-initiator bookkeeping (view_.my_weight).
  if (self_.value < weights_.size()) {
    weights_[self_.value] = 0;
  }
  // Integer counts: the sum is exact in any order.
  remaining_weight_ = 0;
  for (double w : weights_) {
    remaining_weight_ += w;
  }
  sampler_stale_ = true;
}

void GmsPolicy::ReportStaleWeights() {
  if (stale_reported_ || view_.epoch == 0) {
    return;
  }
  stale_reported_ = true;
  if (config_.retry.enabled && stale_clear_timer_ == 0) {
    // The report itself may be lost; allow a fresh one if no new epoch has
    // arrived by then.
    stale_clear_timer_ =
        sim_->ScheduleTimer(config_.epoch.summary_timeout * 2, [this] {
          stale_clear_timer_ = 0;
          stale_reported_ = false;
        });
  }
  if (view_.next_initiator == self_) {
    if (!collecting_) {
      StartEpochAsInitiator();
    }
    return;
  }
  if (view_.next_initiator.valid()) {
    Send(view_.next_initiator, kMsgEpochStale,
         config_.costs.small_message_bytes(), EpochStale{view_.epoch, self_});
  }
}

void GmsPolicy::HandlePutPage(const PutPage& msg) {
  cpu_->SubmitKernel(config_.costs.put_target, CpuCategory::kService,
                     [this, msg] {
    if (!alive()) {
      return;
    }
    NotePutPageReceived(msg.uid, msg.age, msg.span);
    putpages_this_epoch_++;

    if (Frame* existing = frames_->Lookup(msg.uid); existing != nullptr) {
      // We already cache this page; keep ours, fix the directory. Register
      // with the frame's actual location — hardcoding `global = false` here
      // would demote a global copy's directory entry when a putpage for a
      // page we already absorbed is replayed.
      SendGcdUpdate(msg.uid, GcdUpdate::kAdd, self_,
                    existing->location() == PageLocation::kGlobal, kInvalidNode,
                    msg.span);
      SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kAbsorbed);
    } else {
      const SimTime last_access = sim_->now() - msg.age;
      Frame* frame = frames_->AllocateWithAge(msg.uid, PageLocation::kGlobal,
                                              last_access);
      if (frame == nullptr) {
        // "The oldest page on i is discarded" — but only if it really is
        // older than the incoming page; otherwise the incoming page bounces
        // (a stale-weights signal).
        Frame* victim = frames_->PickVictim(
            sim_->now(), config_.epoch.global_age_boost, /*require_clean=*/true);
        if (victim != nullptr && EffectiveAge(*victim) >= msg.age) {
          DiscardFrame(victim);
          frame = frames_->AllocateWithAge(msg.uid, PageLocation::kGlobal,
                                           last_access);
        } else if (config_.dirty_global) {
          // With the dirty-global extension, an idle node can fill up with
          // dirty global pages that no clean-victim scan can reclaim; send
          // the oldest one home for write-back to make room.
          Frame* dirty_victim = frames_->OldestMatching(
              sim_->now(), config_.epoch.global_age_boost,
              [](const Frame& f) {
                return f.dirty() && f.location() == PageLocation::kGlobal;
              });
          if (dirty_victim != nullptr &&
              EffectiveAge(*dirty_victim) >= msg.age) {
            EvictDirty(dirty_victim);
            frame = frames_->AllocateWithAge(msg.uid, PageLocation::kGlobal,
                                             last_access);
          }
        }
      }
      if (frame == nullptr) {
        stats().putpages_bounced++;
        SendGcdUpdate(msg.uid, GcdUpdate::kRemove, self_, true, kInvalidNode,
                      msg.span);
        ReportStaleWeights();
        SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kBounced);
      } else {
        frame->set_shared(msg.shared);
        frame->set_dirty(msg.dirty);
        // Confirm our registration: if a concurrent getpage raced ahead of
        // this transfer, its optimistic directory update de-listed us; the
        // re-add heals that (and is a cheap no-op otherwise).
        SendGcdUpdate(msg.uid, GcdUpdate::kAdd, self_, true, kInvalidNode,
                      msg.span);
        SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kAbsorbed);
      }
    }

    // Early epoch termination (section 3.2): the node with the largest w_i
    // — the designated next initiator — declares the epoch over once it has
    // absorbed its share of the replacements.
    if (view_.next_initiator == self_ && view_.my_weight > 0 &&
        static_cast<double>(putpages_this_epoch_) >= view_.my_weight &&
        !collecting_) {
      StartEpochAsInitiator();
    }
  });
}

// ---------------------------------------------------------------------------
// epochs
// ---------------------------------------------------------------------------

void GmsPolicy::StartEpochAsInitiator() {
  if (!alive() || collecting_) {
    return;
  }
  sim_->CancelTimer(epoch_timer_);
  epoch_timer_ = 0;
  sim_->CancelTimer(epoch_watchdog_);
  epoch_watchdog_ = 0;
  epoch_watchdog_fires_ = 0;
  stats().epochs_started++;
  collecting_ = true;
  collecting_epoch_ = view_.epoch + 1;
  if (config_.retry.enabled && highest_epoch_seen_ >= collecting_epoch_) {
    // Our view trails the cluster (lost EpochParams); number past every
    // epoch we have evidence of so our params are not rejected as stale.
    collecting_epoch_ = highest_epoch_seen_ + 1;
  }
  summaries_rerequested_ = false;
  TraceEventRaw(tracer_, sim_->now(), self_, TraceEventKind::kEpochStart, 0, 0,
                collecting_epoch_);
  // Epoch traces use an id derived from the epoch number (the params
  // message has no room for a span field under the payload-union size cap);
  // every node deterministically reconstructs the same trace id.
  epoch_span_ = SpanBegin(tracer_, sim_->now(), self_,
                          SpanRef{EpochTraceId(collecting_epoch_), 0});

  // One round for every fanout: request summaries from our children in the
  // epoch tree (every other live node when fanout is 0; tree children relay
  // downward), fold what comes back into root_acc_, and wait one
  // summary_timeout per tree level so the deepest leaves' stragglers are not
  // silently truncated. Taking over as root supersedes any aggregation duty
  // we held in an earlier tree round.
  CancelTreeAggregation();
  root_acc_.Reset(collecting_epoch_, self_, pod().table().live.size());
  // The root sits at position 0 of its own tree. The request goes to the
  // children of the live list at hand, which the closure keeps alive.
  const EpochTree tree =
      EpochTree::Build(pod().table().live, self_, config_.epoch.fanout);
  const EpochTree::Run children = tree.Children(0);
  const uint32_t height = tree.SubtreeHeight(0);
  const SimTime request_cost =
      config_.costs.epoch_request_per_node * RootFanoutUnits(children.size());
  cpu_->SubmitKernel(request_cost, CpuCategory::kEpoch,
                     [this, table = pod().shared_table(), children, height] {
    if (!alive() || !collecting_) {
      return;
    }
    children.ForEach(table->live, [this](NodeId node) {
      Send(node, kMsgEpochSummaryReq, config_.costs.small_message_bytes(),
           EpochSummaryReq{collecting_epoch_, self_, config_.epoch.fanout});
    });
    // Our own summary, charged at the same scan rates as everyone else's.
    const SimTime scan =
        config_.costs.epoch_scan_per_local_page * frames_->local_count() +
        config_.costs.epoch_scan_per_global_page * frames_->global_count() +
        config_.costs.epoch_summary_marshal;
    cpu_->SubmitKernel(scan, CpuCategory::kEpoch, [this, height] {
      if (!alive() || !collecting_) {
        return;
      }
      root_acc_.MergeStat(TakeOwnStat());
      if (root_acc_.size() >= pod().table().live.size()) {
        FinishSummaryCollection();
        return;
      }
      collect_timer_ =
          sim_->ScheduleTimer(TreeCollectTimeout(config_.epoch, height),
                              [this] { FinishSummaryCollection(); });
    });
  });
}

// The flat round (fanout 0) charges the initiator once per live node, itself
// included, as the paper's initiator pays; a tree root pays once per child.
SimTime GmsPolicy::RootFanoutUnits(size_t children) {
  const size_t units = config_.epoch.fanout == 0
                           ? pod().table().live.size()
                           : std::max<size_t>(children, 1);
  return static_cast<SimTime>(units);
}

EpochNodeStat GmsPolicy::TakeOwnStat() {
  EpochNodeStat stat = SummarizeFrames(*frames_, sim_->now(), config_.epoch);
  stat.node = self_;
  stat.evictions = evictions_since_summary_;
  evictions_since_summary_ = 0;
  return stat;
}

void GmsPolicy::HandleEpochSummaryReq(const EpochSummaryReq& msg,
                                      NodeId from) {
  highest_epoch_seen_ = std::max(highest_epoch_seen_, msg.epoch);
  if (msg.fanout > 0) {
    BeginTreeAggregation(msg, from);
    return;
  }
  const SimTime scan =
      config_.costs.epoch_scan_per_local_page * frames_->local_count() +
      config_.costs.epoch_scan_per_global_page * frames_->global_count() +
      config_.costs.epoch_summary_marshal;
  cpu_->SubmitKernel(scan, CpuCategory::kEpoch, [this, msg] {
    if (!alive()) {
      return;
    }
    // The flat round's wire form is the dense summary.
    const EpochNodeStat own = TakeOwnStat();
    EpochSummary summary;
    summary.epoch = msg.epoch;
    summary.node = self_;
    summary.ages = ExpandAges(own);
    summary.local_pages = frames_->local_count();
    summary.global_pages = frames_->global_count();
    summary.free_frames = frames_->free_count();
    summary.evictions = own.evictions;
    Send(msg.initiator, kMsgEpochSummary,
         EpochSummaryBytes(config_.costs.header_size),
         Boxed<EpochSummary>(std::move(summary)));
  });
}

void GmsPolicy::HandleEpochSummary(const EpochSummary& msg) {
  if (!collecting_ || msg.epoch != collecting_epoch_) {
    return;
  }
  stats().epoch_root_summary_msgs++;
  // A leaf of the flat round, or a reply to the re-request sweep. A
  // duplicate delivery, or a summary racing a tree partial covering the same
  // node, folds nothing: MergeSummary dedups.
  if (root_acc_.MergeSummary(msg) &&
      root_acc_.size() >= pod().table().live.size()) {
    FinishSummaryCollection();
  }
}

// ---------------------------------------------------------------------------
// tree aggregation (non-root levels of the hierarchical epoch)
// ---------------------------------------------------------------------------

void GmsPolicy::BeginTreeAggregation(const EpochSummaryReq& msg, NodeId from) {
  if (tree_collecting_ && tree_epoch_ == msg.epoch) {
    return;  // duplicate relay of the same round
  }
  if (collecting_ && collecting_epoch_ >= msg.epoch) {
    return;  // we are running a round at least as new ourselves
  }
  if (tree_collecting_) {
    CancelTreeAggregation();  // a newer round supersedes the stale one
  }
  tree_collecting_ = true;
  tree_sending_ = false;
  tree_epoch_ = msg.epoch;
  tree_parent_ = from;

  // Derive our slice of the tree from the replicated membership: place
  // ourselves once and read the rest off that position. If our view
  // disagrees with the initiator's (mid-reconfiguration), missing nodes are
  // recovered by the root's direct re-request sweep.
  const EpochTree tree = EpochTree::Build(pod().table().live, msg.initiator,
                                          msg.fanout);
  const size_t pos = tree.IndexOf(self_);
  const bool in_tree = pos != EpochTree::kNone;
  const EpochTree::Run children = in_tree ? tree.Children(pos)
                                          : EpochTree::Run{};
  tree_expected_ = in_tree ? tree.SubtreeSize(pos) : 1;
  tree_acc_.Reset(msg.epoch, self_, tree_expected_);
  const uint32_t height = in_tree ? tree.SubtreeHeight(pos) : 0;
  tree_span_ = SpanBegin(tracer_, sim_->now(), self_,
                         SpanRef{EpochTraceId(msg.epoch), 0},
                         /*label=*/in_tree ? tree.Depth(pos) : 0);

  if (children.size() > 0) {
    const SimTime relay_cost =
        config_.costs.epoch_request_per_node *
        static_cast<SimTime>(children.size());
    auto relay = [this, table = pod().shared_table(), children, msg] {
      if (!alive() || !tree_collecting_ || tree_epoch_ != msg.epoch) {
        return;
      }
      children.ForEach(table->live, [this, &msg](NodeId node) {
        Send(node, kMsgEpochSummaryReq, config_.costs.small_message_bytes(),
             EpochSummaryReq{msg.epoch, msg.initiator, msg.fanout});
      });
    };
    static_assert(EventFn::kFitsInline<decltype(relay)>);
    cpu_->SubmitKernel(relay_cost, CpuCategory::kEpoch, std::move(relay));
    // Straggler window scaled to the subtree below us: each level gets one
    // summary_timeout, so a deep subtree's leaves are waited out instead of
    // silently truncated (the timeout-depth regression in epoch_tree_test).
    tree_timer_ =
        sim_->ScheduleTimer(TreeCollectTimeout(config_.epoch, height),
                            [this] {
                              tree_timer_ = 0;
                              SendPartialUp();
                            });
  }

  const SimTime scan =
      config_.costs.epoch_scan_per_local_page * frames_->local_count() +
      config_.costs.epoch_scan_per_global_page * frames_->global_count() +
      config_.costs.epoch_summary_marshal;
  cpu_->SubmitKernel(scan, CpuCategory::kEpoch, [this, epoch = msg.epoch] {
    if (!alive() || !tree_collecting_ || tree_epoch_ != epoch) {
      return;
    }
    tree_acc_.MergeStat(TakeOwnStat());
    MaybeCompleteTreeAggregation();
  });
}

void GmsPolicy::MaybeCompleteTreeAggregation() {
  if (!tree_collecting_ || tree_sending_) {
    return;
  }
  if (tree_acc_.size() >= tree_expected_) {
    SendPartialUp();
  }
}

void GmsPolicy::SendPartialUp() {
  if (!tree_collecting_ || tree_sending_) {
    return;
  }
  if (tree_acc_.size() == 0) {
    // Straggler timer fired before even our own scan finished; lower the
    // completion bar so the first fold (own scan or a child partial) sends
    // immediately instead of waiting for the full subtree.
    tree_expected_ = 1;
    return;
  }
  tree_sending_ = true;
  sim_->CancelTimer(tree_timer_);
  tree_timer_ = 0;
  cpu_->SubmitKernel(config_.costs.epoch_summary_marshal, CpuCategory::kEpoch,
                     [this] {
    if (!alive() || !tree_collecting_) {
      return;
    }
    tree_collecting_ = false;
    tree_sending_ = false;
    stats().epoch_partials_sent++;
    SpanStep(tracer_, sim_->now(), self_, tree_span_, SpanComp::kService,
             tree_acc_.size());
    Send(tree_parent_, kMsgEpochPartial,
         EpochPartialBytes(config_.costs.header_size, tree_acc_.partial),
         std::move(tree_acc_.partial));
    SpanEnd(tracer_, sim_->now(), self_, tree_span_, SpanStatus::kDone,
            tree_epoch_);
    tree_span_ = SpanRef{};
    tree_acc_.Reset();
  });
}

void GmsPolicy::CancelTreeAggregation() {
  sim_->CancelTimer(tree_timer_);
  tree_timer_ = 0;
  tree_collecting_ = false;
  tree_sending_ = false;
  tree_acc_.Reset();
  tree_span_ = SpanRef{};
}

void GmsPolicy::HandleEpochPartial(EpochPartial& msg) {
  // The datagram dies after dispatch, so the merges take its stats.
  // Root: fold a child subtree's contribution into this round.
  if (collecting_ && msg.epoch == collecting_epoch_) {
    stats().epoch_root_summary_msgs++;
    if (!root_acc_.MergePartial(std::move(msg))) {
      return;  // duplicate (or fully overlapped by the re-request sweep)
    }
    stats().epoch_partials_merged++;
    cpu_->SubmitKernel(config_.costs.epoch_partial_merge, CpuCategory::kEpoch,
                       [this, epoch = msg.epoch] {
      if (!alive() || !collecting_ || epoch != collecting_epoch_) {
        return;
      }
      if (root_acc_.size() >= pod().table().live.size()) {
        FinishSummaryCollection();
      }
    });
    return;
  }
  // Interior aggregator: fold and maybe forward.
  if (tree_collecting_ && msg.epoch == tree_epoch_) {
    if (!tree_acc_.MergePartial(std::move(msg))) {
      return;
    }
    stats().epoch_partials_merged++;
    cpu_->SubmitKernel(config_.costs.epoch_partial_merge, CpuCategory::kEpoch,
                       [this, epoch = msg.epoch] {
      if (!alive() || !tree_collecting_ || epoch != tree_epoch_) {
        return;
      }
      MaybeCompleteTreeAggregation();
    });
  }
  // Anything else is stale (a partial for a finished or superseded round);
  // the data is recovered by the root's re-request if it mattered.
}

void GmsPolicy::FinishSummaryCollection() {
  if (!collecting_) {
    return;
  }
  if (config_.retry.enabled && !summaries_rerequested_ &&
      root_acc_.size() < pod().table().live.size()) {
    // Timed out with summaries missing: ask the silent nodes once more
    // before computing a plan from a partial view. The sweep always goes out
    // flat (fanout 0 — reply straight to us): in a tree, a crashed interior
    // aggregator takes its whole subtree's partial down with it, and the
    // orphaned descendants answer this direct request instead.
    summaries_rerequested_ = true;
    stats().control_retries++;
    for (NodeId node : root_acc_.MissingFrom(pod().table().live)) {
      if (node != self_) {
        Send(node, kMsgEpochSummaryReq, config_.costs.small_message_bytes(),
             EpochSummaryReq{collecting_epoch_, self_});
      }
    }
    sim_->CancelTimer(collect_timer_);
    collect_timer_ = sim_->ScheduleTimer(config_.epoch.summary_timeout,
                                         [this] { FinishSummaryCollection(); });
    return;
  }
  collecting_ = false;
  sim_->CancelTimer(collect_timer_);
  collect_timer_ = 0;

  const SimTime last_duration =
      epoch_started_at_ > 0 ? sim_->now() - epoch_started_at_ : 0;
  EpochPlan plan = ComputeEpochPlanFromPartial(
      config_.epoch, collecting_epoch_, net_->num_nodes(), root_acc_.partial,
      last_duration, self_);
  // Nodes outside the membership never receive weight: one walk of the
  // sorted live list alongside the dense weights.
  {
    const std::vector<NodeId>& live = pod().table().live;
    size_t k = 0;
    for (uint32_t i = 0; i < plan.weights.size(); i++) {
      while (k < live.size() && live[k].value < i) {
        k++;
      }
      if (k == live.size() || live[k].value != i) {
        plan.weights[i] = 0;
      }
    }
  }

  EpochParams params;
  params.epoch = plan.epoch;
  params.min_age = plan.min_age;
  params.duration = plan.duration;
  params.budget = plan.budget;
  params.next_initiator = plan.next_initiator;
  params.tree_root = self_;
  params.weights =
      std::make_shared<const std::vector<double>>(std::move(plan.weights));

  // Distribute down the same tree the summaries came up: a tree root pays
  // O(fanout) sends and marshal cost, and relays fan the rest out.
  const EpochTree::Run children =
      EpochTree::Build(pod().table().live, self_, config_.epoch.fanout)
          .Children(0);
  const SimTime cost =
      config_.costs.epoch_weights_compute_per_node *
          static_cast<SimTime>(pod().table().live.size()) +
      config_.costs.epoch_params_marshal_per_node *
          RootFanoutUnits(children.size());
  auto distribute = [this, table = pod().shared_table(),
                     params = std::move(params), children] {
    if (!alive()) {
      return;
    }
    // Collection + plan computation, attributed to the initiator's span.
    SpanStep(tracer_, sim_->now(), self_, epoch_span_, SpanComp::kService);
    children.ForEach(table->live, [this, &params](NodeId node) {
      Send(node, kMsgEpochParams,
           EpochParamsBytes(config_.costs.header_size, params.weights->size()),
           params);
    });
    AdoptEpochParams(params);
  };
  static_assert(EventFn::kFitsInline<decltype(distribute)>);
  cpu_->SubmitKernel(cost, CpuCategory::kEpoch, std::move(distribute));
}

void GmsPolicy::HandleEpochParams(const EpochParams& msg) {
  if (config_.epoch.fanout > 0 && msg.epoch > params_relayed_epoch_) {
    // Relay once down our slice of the distribution tree before adopting.
    // Duplicated deliveries are absorbed here (relay-once) and by the
    // stale-epoch rejection in AdoptEpochParams.
    params_relayed_epoch_ = msg.epoch;
    if (tree_collecting_ && tree_epoch_ <= msg.epoch) {
      // The round concluded without our partial (straggler path); drop the
      // stale aggregation state.
      CancelTreeAggregation();
    }
    const EpochTree tree = EpochTree::Build(
        pod().table().live, msg.tree_root, config_.epoch.fanout);
    const size_t pos = tree.IndexOf(self_);
    const EpochTree::Run children =
        pos != EpochTree::kNone ? tree.Children(pos) : EpochTree::Run{};
    if (children.size() > 0) {
      const SimTime relay_cost =
          config_.costs.epoch_params_marshal_per_node *
          static_cast<SimTime>(children.size());
      auto relay = [this, table = pod().shared_table(), msg, children] {
        if (!alive()) {
          return;
        }
        children.ForEach(table->live, [this, &msg](NodeId node) {
          Send(node, kMsgEpochParams,
               EpochParamsBytes(config_.costs.header_size, msg.weights->size()),
               msg);
        });
      };
      static_assert(EventFn::kFitsInline<decltype(relay)>);
      cpu_->SubmitKernel(relay_cost, CpuCategory::kEpoch, std::move(relay));
    }
  }
  cpu_->SubmitKernel(config_.costs.gcd_lookup, CpuCategory::kEpoch,
                     [this, msg] {
    if (alive()) {
      AdoptEpochParams(msg);
    }
  });
}

void GmsPolicy::AdoptEpochParams(const EpochParams& params) {
  highest_epoch_seen_ = std::max(highest_epoch_seen_, params.epoch);
  if (params.epoch <= view_.epoch) {
    return;  // stale (reordered) parameters
  }
  view_.epoch = params.epoch;
  view_.min_age = params.min_age;
  view_.budget = params.budget;
  view_.duration = params.duration;
  view_.next_initiator = params.next_initiator;
  TraceEventRaw(tracer_, sim_->now(), self_, TraceEventKind::kEpochParams, 0,
                static_cast<uint64_t>(params.min_age), params.epoch);
  // Each adopting node contributes a point span to the epoch's trace. On the
  // initiator it hangs off the root span; elsewhere it is parentless and the
  // reconstructor attaches it to the trace's root.
  {
    SpanRef parent{EpochTraceId(params.epoch), 0};
    if (epoch_span_.trace == parent.trace) {
      parent = epoch_span_;
    }
    const SpanRef adopt = SpanBegin(tracer_, sim_->now(), self_, parent);
    SpanEnd(tracer_, sim_->now(), self_, adopt, SpanStatus::kAdopted,
            params.epoch);
    if (epoch_span_.trace == EpochTraceId(params.epoch)) {
      // The initiator's round is over once its own adoption lands.
      SpanEnd(tracer_, sim_->now(), self_, epoch_span_, SpanStatus::kDone);
      epoch_span_ = SpanRef{};
    }
  }
  // Keep the shared vector; MaterializeWeights copies it on first use.
  assert(params.weights != nullptr);
  adopted_weights_ = params.weights;
  view_.my_weight = self_.value < adopted_weights_->size()
                        ? (*adopted_weights_)[self_.value]
                        : 0.0;
  putpages_this_epoch_ = 0;
  stale_reported_ = false;
  epoch_started_at_ = sim_->now();

  sim_->CancelTimer(epoch_timer_);
  epoch_timer_ = 0;
  epoch_watchdog_fires_ = 0;
  if (params.next_initiator == self_) {
    epoch_timer_ = sim_->ScheduleTimer(params.duration, [this] {
      if (alive() && !collecting_) {
        StartEpochAsInitiator();
      }
    });
    sim_->CancelTimer(epoch_watchdog_);
    epoch_watchdog_ = 0;
  } else if (config_.retry.enabled) {
    ArmEpochWatchdog();
  }
}

void GmsPolicy::ArmEpochWatchdog() {
  sim_->CancelTimer(epoch_watchdog_);
  watchdog_epoch_ = view_.epoch;
  const SimTime window = view_.duration > 0
                             ? view_.duration * 3
                             : config_.epoch.summary_timeout * 10;
  epoch_watchdog_ = sim_->ScheduleTimer(window, [this] { OnEpochSilent(); });
}

void GmsPolicy::OnEpochSilent() {
  epoch_watchdog_ = 0;
  if (!alive() || !config_.retry.enabled || collecting_ ||
      view_.epoch != watchdog_epoch_) {
    return;  // the epoch progressed after all
  }
  epoch_watchdog_fires_++;
  if (epoch_watchdog_fires_ == 1 && view_.next_initiator.valid() &&
      pod().IsLive(view_.next_initiator) && view_.next_initiator != self_) {
    // First silence: nudge the initiator — our stale report or its params
    // may simply have been lost.
    Send(view_.next_initiator, kMsgEpochStale,
         config_.costs.small_message_bytes(), EpochStale{view_.epoch, self_});
    ArmEpochWatchdog();
    return;
  }
  // Initiator presumed gone (or deaf). The lowest-id live node other than it
  // takes over the epoch duty; everyone else keeps watching.
  NodeId lowest = kInvalidNode;
  for (NodeId node : pod().table().live) {
    if (node != view_.next_initiator &&
        (!lowest.valid() || node.value < lowest.value)) {
      lowest = node;
    }
  }
  if (lowest == self_) {
    StartEpochAsInitiator();
  } else {
    ArmEpochWatchdog();
  }
}

void GmsPolicy::HandleEpochStale(const EpochStale& msg) {
  if (collecting_) {
    return;
  }
  if (config_.retry.enabled) {
    // Under loss the reporter's epoch view may trail ours or lead it; any
    // report at or past our epoch justifies starting a fresh one, whether
    // or not we believe we are the next initiator.
    if (msg.epoch >= view_.epoch) {
      StartEpochAsInitiator();
    }
    return;
  }
  if (msg.epoch == view_.epoch && view_.next_initiator == self_) {
    StartEpochAsInitiator();
  }
}

// ---------------------------------------------------------------------------
// membership
// ---------------------------------------------------------------------------

void GmsPolicy::HandleJoinReq(const JoinReq& msg) {
  if (master_ != self_) {
    return;
  }
  std::vector<NodeId> live = pod().table().live;
  if (std::find(live.begin(), live.end(), msg.node) == live.end()) {
    live.push_back(msg.node);
  }
  // A join from a node already in the membership (a rejoin after a crash we
  // never detected, or a retried/duplicated JoinReq) still reconfigures:
  // the version bump re-distributes the POD and triggers republishes, which
  // refresh directory entries that went stale with the node's memory.
  MasterReconfigure(std::move(live), msg.node);
}

void GmsPolicy::MasterRemoveNode(NodeId node) {
  if (master_ != self_) {
    return;
  }
  std::vector<NodeId> live;
  for (NodeId n : pod().table().live) {
    if (n != node) {
      live.push_back(n);
    }
  }
  MasterReconfigure(std::move(live));
}

void GmsPolicy::MasterReconfigure(std::vector<NodeId> live, NodeId joined) {
  // One table for the whole cluster: every member adopts it read-only.
  const auto table = std::make_shared<const PodTable>(
      Pod::Build(pod().version() + 1, std::move(live)));
  const MemberUpdate update{table, self_, joined};
  for (NodeId node : table->live) {
    if (node != self_) {
      Send(node, kMsgMemberUpdate,
           MemberUpdateBytes(config_.costs.header_size, table->live.size(),
                             table->buckets.size()),
           update);
    }
  }
  HandleMemberUpdate(update);
}

void GmsPolicy::HandleMemberUpdate(const MemberUpdate& msg) {
  if (msg.pod->version <= pod().version()) {
    return;
  }
  if (msg.joined != kInvalidNode && msg.joined != self_) {
    // A rejoined node is a fresh incarnation: its control-seq streams
    // restart from 1. Drop the old receive window (buffered pre-crash
    // messages included) so the new stream re-initializes on first contact.
    DropPeerSeqWindow(msg.joined);
  }
  pod().Adopt(msg.pod);
  master_ = msg.master;
  if (pod().IsLive(self_) && join_retry_timer_ != 0) {
    sim_->CancelTimer(join_retry_timer_);
    join_retry_timer_ = 0;
  }
  if (config_.enable_heartbeats && config_.enable_master_election) {
    if (master_ != self_) {
      ArmMasterWatchdog();
    } else {
      sim_->CancelTimer(master_watchdog_);
      master_watchdog_ = 0;
    }
  }
  gcd().Prune(pod(), self_);
  // Departed nodes can no longer absorb evictions.
  MaterializeWeights();
  bool changed = false;
  for (uint32_t i = 0; i < weights_.size(); i++) {
    if (weights_[i] > 0 && !pod().IsLive(NodeId{i})) {
      remaining_weight_ -= weights_[i];
      weights_[i] = 0;
      changed = true;
    }
  }
  if (changed) {
    sampler_stale_ = true;
  }
  RepublishAfterPodChange();
  // The master restarts the epoch cycle so weights reflect the new world;
  // this also covers the case where the failed node was the next initiator.
  if (master_ == self_ && !collecting_) {
    StartEpochAsInitiator();
  }
}

void GmsPolicy::RepublishAfterPodChange() {
  // Re-register our pages with their (possibly new) GCD owners. Entries
  // whose GCD stayed local are applied directly.
  std::unordered_map<uint32_t, Republish> batches;
  const SimTime per_entry = Nanoseconds(300);
  uint64_t entries = 0;
  frames_->ForEach([&](const Frame& f) {
    entries++;
    GcdUpdate update{f.uid(), GcdUpdate::kAdd, self_,
                     f.location() == PageLocation::kGlobal};
    const NodeId gcd_node = pod().GcdNodeFor(f.uid());
    if (gcd_node == self_) {
      gcd().Apply(update);
      return;
    }
    Republish& batch = batches[gcd_node.value];
    batch.from = self_;
    batch.entries.push_back(update);
  });
  cpu_->SubmitKernel(per_entry * static_cast<SimTime>(entries),
                     CpuCategory::kEpoch,
                     [this, batches = std::move(batches)]() mutable {
    if (!alive()) {
      return;
    }
    for (auto& [node, batch] : batches) {
      const uint32_t bytes =
          RepublishBytes(config_.costs.header_size, batch.entries.size());
      if (config_.retry.enabled) {
        batch.seq = NextCtlSeq(NodeId{node});
        SendReliable(NodeId{node}, kMsgRepublish, bytes, batch, batch.seq,
                     Uid{}, /*putpage_target=*/false);
      } else {
        Send(NodeId{node}, kMsgRepublish, bytes, batch);
      }
    }
  });
}

void GmsPolicy::HandleRepublish(const Republish& msg) {
  const SimTime cost = Nanoseconds(300) * static_cast<SimTime>(msg.entries.size());
  cpu_->SubmitKernel(cost, CpuCategory::kEpoch, [this, msg] {
    if (!alive()) {
      return;
    }
    for (const GcdUpdate& update : msg.entries) {
      if (pod().GcdNodeFor(update.uid) == self_) {
        ApplyGcdAsOwner(update);
      }
    }
  });
}

void GmsPolicy::SendHeartbeats() {
  if (!alive() || master_ != self_) {
    return;
  }
  hb_seq_++;
  std::vector<NodeId> dead;
  for (NodeId node : pod().table().live) {
    if (node == self_) {
      continue;
    }
    const uint64_t acked = hb_acked_.contains(node.value)
                               ? hb_acked_[node.value]
                               : hb_seq_ - 1;  // grace for new members
    if (hb_seq_ > acked + static_cast<uint64_t>(config_.heartbeat_miss_limit)) {
      dead.push_back(node);
      continue;
    }
    Send(node, kMsgHeartbeat, config_.costs.small_message_bytes(),
         Heartbeat{hb_seq_, pod().version()});
  }
  if (!dead.empty()) {
    std::vector<NodeId> live;
    for (NodeId node : pod().table().live) {
      if (std::find(dead.begin(), dead.end(), node) == dead.end()) {
        live.push_back(node);
      }
    }
    for (NodeId node : dead) {
      GMS_LOG_INFO("master %u: node %u declared dead", self_.value, node.value);
      hb_acked_.erase(node.value);
    }
    MasterReconfigure(std::move(live));
  }
  hb_timer_ = sim_->ScheduleTimer(config_.heartbeat_interval,
                                  [this] { SendHeartbeats(); });
}

void GmsPolicy::HandleHeartbeat(const Heartbeat& msg, NodeId from) {
  if (config_.enable_master_election && from == master_) {
    ArmMasterWatchdog();
  }
  Send(from, kMsgHeartbeatAck, config_.costs.small_message_bytes(),
       HeartbeatAck{msg.seq, self_, pod().version()});
}

void GmsPolicy::ArmMasterWatchdog() {
  sim_->CancelTimer(master_watchdog_);
  const SimTime window = config_.heartbeat_interval *
                         static_cast<SimTime>(config_.heartbeat_miss_limit + 2);
  master_watchdog_ = sim_->ScheduleTimer(window, [this] { OnMasterSilent(); });
}

void GmsPolicy::OnMasterSilent() {
  if (!alive() || master_ == self_) {
    return;
  }
  // The master went quiet. Succession order is the lowest surviving id
  // (deterministic, no coordination needed on a reliable network: every
  // survivor computes the same successor).
  NodeId successor = kInvalidNode;
  for (NodeId node : pod().table().live) {
    if (node != master_ &&
        (!successor.valid() || node.value < successor.value)) {
      successor = node;
    }
  }
  if (successor != self_) {
    // Not us: keep watching; the successor's MemberUpdate (as new master)
    // will re-arm the watchdog against the new master.
    ArmMasterWatchdog();
    return;
  }
  GMS_LOG_INFO("node %u: master %u silent, taking over", self_.value,
               master_.value);
  const NodeId old_master = master_;
  master_ = self_;
  std::vector<NodeId> live;
  for (NodeId node : pod().table().live) {
    if (node != old_master) {
      live.push_back(node);
    }
  }
  MasterReconfigure(std::move(live));
  hb_timer_ = sim_->ScheduleTimer(config_.heartbeat_interval,
                                  [this] { SendHeartbeats(); });
}

void GmsPolicy::HandleHeartbeatAck(const HeartbeatAck& msg) {
  uint64_t& acked = hb_acked_[msg.node.value];
  acked = std::max(acked, msg.seq);
  if (msg.pod_version < pod().version() && master_ == self_ &&
      pod().IsLive(msg.node)) {
    // The node is answering heartbeats but runs an old POD — its
    // MemberUpdate was lost. Catch it up.
    Send(msg.node, kMsgMemberUpdate,
         MemberUpdateBytes(config_.costs.header_size, pod().table().live.size(),
                           pod().table().buckets.size()),
         MemberUpdate{pod().shared_table(), self_});
  }
}

// ---------------------------------------------------------------------------
// dispatch (engine hands us everything it does not own)
// ---------------------------------------------------------------------------

bool GmsPolicy::HandleMessage(Datagram& dgram) {
  switch (dgram.type) {
    case kMsgPutPage:
      HandlePutPage(dgram.payload.get<PutPage>());
      return true;
    case kMsgEpochSummaryReq:
      HandleEpochSummaryReq(dgram.payload.get<EpochSummaryReq>(), dgram.src);
      return true;
    case kMsgEpochSummary:
      HandleEpochSummary(*dgram.payload.get<Boxed<EpochSummary>>());
      return true;
    case kMsgEpochPartial:
      HandleEpochPartial(dgram.payload.get<EpochPartial>());
      return true;
    case kMsgEpochParams:
      HandleEpochParams(dgram.payload.get<EpochParams>());
      return true;
    case kMsgEpochStale:
      HandleEpochStale(dgram.payload.get<EpochStale>());
      return true;
    case kMsgJoinReq:
      HandleJoinReq(dgram.payload.get<JoinReq>());
      return true;
    case kMsgMemberUpdate:
      HandleMemberUpdate(dgram.payload.get<MemberUpdate>());
      return true;
    case kMsgHeartbeat:
      HandleHeartbeat(dgram.payload.get<Heartbeat>(), dgram.src);
      return true;
    case kMsgHeartbeatAck:
      HandleHeartbeatAck(dgram.payload.get<HeartbeatAck>());
      return true;
    case kMsgRepublish:
      HandleRepublish(dgram.payload.get<Republish>());
      return true;
    default:
      return false;
  }
}

}  // namespace gms

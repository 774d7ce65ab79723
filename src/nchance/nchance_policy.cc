#include "src/nchance/nchance_policy.h"

#include <cassert>

namespace gms {

void NchancePolicy::EvictClean(Frame* frame) {
  assert(frame != nullptr && frame->in_use() && !frame->dirty());

  // Non-singlets are simply discarded.
  if (frame->duplicated()) {
    stats().discards_duplicate++;
    DiscardFrame(frame);
    return;
  }

  uint8_t count;
  if (frame->location() == PageLocation::kGlobal) {
    // A recirculating page being evicted again: one hop consumed.
    if (frame->recirculation() <= 1) {
      stats().discards_old++;
      nstats_.dropped_exhausted++;
      DiscardFrame(frame);
      return;
    }
    count = static_cast<uint8_t>(frame->recirculation() - 1);
  } else {
    count = config_.recirculation;
  }
  // A fresh eviction roots its own trace (a re-forward continues the
  // arriving message's trace instead — see HandleForward).
  const SpanRef span =
      TraceBegin(tracer_, sim_->now(), self_, SpanOp::kPutPage);
  ForwardPage(frame->uid(), frame->shared(), sim_->now() - frame->last_access(),
              count, frame, span);
}

void NchancePolicy::ForwardPage(Uid uid, bool shared, SimTime age,
                                uint8_t count, Frame* frame_to_free,
                                SpanRef span) {
  const std::optional<NodeId> target = RandomTarget();
  if (!target.has_value()) {
    stats().discards_old++;
    SendGcdUpdate(uid, GcdUpdate::kRemove, self_, true);
    if (frame_to_free != nullptr) {
      frames_->Free(frame_to_free);
    }
    SpanEnd(tracer_, sim_->now(), self_, span, SpanStatus::kBounced);
    return;
  }
  nstats_.forwards_sent++;
  stats().putpages_sent++;
  TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kPutPageSend, uid,
             target->value);
  if (frame_to_free != nullptr) {
    frames_->Free(frame_to_free);  // copied to a network buffer
  }
  NchanceForward msg{uid, self_, age, shared, count};
  msg.span = span;
  cpu_->SubmitKernel(config_.costs.put_request, CpuCategory::kFault,
                     [this, msg, target = *target] {
    if (!alive()) {
      return;
    }
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kReqGen);
    Send(target, kMsgNchanceForward, config_.costs.page_message_bytes(), msg);
    SendGcdUpdate(msg.uid, GcdUpdate::kReplace, target, true, self_);
  });
}

std::optional<NodeId> NchancePolicy::RandomTarget() {
  const auto& live = pod().table().live;
  if (live.size() < 2) {
    return std::nullopt;
  }
  for (;;) {
    const NodeId node = live[rng_.NextBelow(live.size())];
    if (node != self_) {
      return node;
    }
  }
}

void NchancePolicy::HandleForward(const NchanceForward& msg) {
  cpu_->SubmitKernel(config_.costs.put_target, CpuCategory::kService,
                     [this, msg] {
    if (!alive()) {
      return;
    }
    nstats_.forwards_received++;
    NotePutPageReceived(msg.uid, msg.age, msg.span);

    if (frames_->Lookup(msg.uid) != nullptr) {
      SendGcdUpdate(msg.uid, GcdUpdate::kAdd, self_, false);
      SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kAbsorbed);
      return;
    }

    auto install = [&]() -> bool {
      // Dahlin: the received page is made the youngest on the LRU list.
      Frame* frame = frames_->Allocate(msg.uid, PageLocation::kGlobal,
                                       sim_->now());
      if (frame == nullptr) {
        return false;
      }
      frame->set_shared(msg.shared);
      frame->set_recirculation(msg.recirculation);
      return true;
    };

    // (1) a free page, if taking one will not trigger reclamation.
    if (frames_->free_count() > config_.free_reserve && install()) {
      SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kAbsorbed);
      return;
    }

    // (2) the oldest duplicate — even a recently-used one. This is the
    // documented flaw that displaces active shared pages on non-idle nodes.
    Frame* victim = frames_->OldestMatching(
        sim_->now(), config_.global_age_boost,
        [](const Frame& f) { return f.duplicated() && !f.dirty(); });
    if (victim != nullptr) {
      nstats_.victims_duplicate++;
    } else {
      // (3) the oldest recirculating page.
      victim = frames_->OldestMatching(
          sim_->now(), config_.global_age_boost, [](const Frame& f) {
            return f.recirculation() > 0 && !f.dirty() &&
                   f.location() == PageLocation::kGlobal;
          });
      if (victim != nullptr) {
        nstats_.victims_recirculating++;
      }
    }
    if (victim == nullptr) {
      // (4) a very old singlet.
      Frame* oldest = frames_->PickVictim(sim_->now(), config_.global_age_boost,
                                          /*require_clean=*/true);
      if (oldest != nullptr &&
          sim_->now() - oldest->last_access() >= config_.very_old_age) {
        victim = oldest;
        nstats_.victims_old_singlet++;
      }
    }

    if (victim != nullptr) {
      DiscardFrame(victim);
      const bool ok = install();
      assert(ok);
      (void)ok;
      SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kAbsorbed);
      return;
    }

    // No victim: decrement and re-forward, or drop at zero.
    if (msg.recirculation <= 1) {
      nstats_.dropped_exhausted++;
      stats().putpages_bounced++;
      SendGcdUpdate(msg.uid, GcdUpdate::kRemove, self_, true);
      SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kBounced);
      return;
    }
    nstats_.reforwards++;
    // The re-forward continues the same trace: the next receiver's span
    // forks off this hop's span, so the whole recirculation chain is one
    // tree.
    ForwardPage(msg.uid, msg.shared, msg.age,
                static_cast<uint8_t>(msg.recirculation - 1), nullptr,
                msg.span);
  });
}

bool NchancePolicy::HandleMessage(const Datagram& dgram) {
  if (dgram.type == kMsgNchanceForward) {
    HandleForward(dgram.payload.get<NchanceForward>());
    return true;
  }
  return false;
}

}  // namespace gms

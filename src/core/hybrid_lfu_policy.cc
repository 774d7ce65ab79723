#include "src/core/hybrid_lfu_policy.h"

#include <cassert>

namespace gms {

void HybridLfuPolicy::Bump(const Uid& uid) {
  const uint64_t h1 = HashUid(uid);
  const uint64_t h2 = Hash2(h1);
  uint8_t& a = Cell(0, h1);
  uint8_t& b = Cell(1, h2);
  bool saturated = false;
  if (a < UINT8_MAX) {
    a++;
  } else {
    saturated = true;
  }
  if (b < UINT8_MAX) {
    b++;
  } else {
    saturated = true;
  }
  if (saturated) {
    // Halve everything: relative order is preserved, history decays, and
    // both rows regain headroom. Runs at most once per 255 bumps of the
    // hottest page.
    for (uint8_t& c : sketch_) {
      c >>= 1;
    }
  }
}

uint8_t HybridLfuPolicy::Estimate(const Uid& uid) const {
  const uint64_t h1 = HashUid(uid);
  const uint8_t a = Cell(0, h1);
  const uint8_t b = Cell(1, Hash2(h1));
  return a < b ? a : b;  // count-min: collisions only inflate, so take min
}

std::optional<NodeId> HybridLfuPolicy::RandomTarget() {
  const std::vector<NodeId>& live = pod().table().live;
  if (live.size() < 2) {
    return std::nullopt;
  }
  for (;;) {
    const NodeId pick = live[rng_.NextBelow(live.size())];
    if (pick != self_) {
      return pick;
    }
  }
}

void HybridLfuPolicy::EvictClean(Frame* frame) {
  assert(frame != nullptr && frame->in_use() && !frame->dirty());
  // Duplicate shared pages are never worth a transfer — another node
  // already caches the copy.
  if (frame->shared() && frame->duplicated()) {
    stats().discards_duplicate++;
    DiscardFrame(frame);
    return;
  }
  const uint8_t freq = Estimate(frame->uid());
  if (freq >= config_.forward_threshold) {
    if (const std::optional<NodeId> target = RandomTarget()) {
      SendPutPage(frame, *target, freq);
      return;
    }
  }
  // Cold (or nowhere to go): not worth the wire, disk still has it.
  stats().discards_old++;
  DiscardFrame(frame);
}

void HybridLfuPolicy::HandlePutPage(const PutPage& msg) {
  cpu_->SubmitKernel(config_.costs.put_target, CpuCategory::kService,
                     [this, msg] {
    if (!alive()) {
      return;
    }
    NotePutPageReceived(msg.uid, msg.age, msg.span);

    if (Frame* existing = frames_->Lookup(msg.uid); existing != nullptr) {
      // Already cached here; keep ours and re-confirm the registration.
      SendGcdUpdate(msg.uid, GcdUpdate::kAdd, self_,
                    existing->location() == PageLocation::kGlobal, kInvalidNode,
                    msg.span);
      SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kAbsorbed);
      return;
    }
    const SimTime last_access = sim_->now() - msg.age;
    Frame* frame = frames_->AllocateWithAge(msg.uid, PageLocation::kGlobal,
                                            last_access);
    if (frame == nullptr) {
      // Displace the oldest clean global page that is no hotter than the
      // incoming one (frequency breaks the tie that age alone decides in
      // GMS); local pages are never displaced for a remote page.
      Frame* victim = frames_->OldestMatching(
          sim_->now(), /*global_age_boost=*/1.0, [this, &msg](const Frame& f) {
            return f.location() == PageLocation::kGlobal && !f.dirty() &&
                   !f.pinned() && Estimate(f.uid()) <= msg.freq;
          });
      if (victim != nullptr) {
        DiscardFrame(victim);
        frame = frames_->AllocateWithAge(msg.uid, PageLocation::kGlobal,
                                         last_access);
      }
    }
    if (frame == nullptr) {
      stats().putpages_bounced++;
      SendGcdUpdate(msg.uid, GcdUpdate::kRemove, self_, true, kInvalidNode,
                    msg.span);
      SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kBounced);
      return;
    }
    frame->set_shared(msg.shared);
    frame->set_dirty(msg.dirty);
    SendGcdUpdate(msg.uid, GcdUpdate::kAdd, self_, true, kInvalidNode,
                  msg.span);
    SpanEnd(tracer_, sim_->now(), self_, msg.span, SpanStatus::kAbsorbed);
  });
}

bool HybridLfuPolicy::HandleMessage(const Datagram& dgram) {
  if (dgram.type == kMsgPutPage) {
    HandlePutPage(dgram.payload.get<PutPage>());
    return true;
  }
  return false;
}

}  // namespace gms

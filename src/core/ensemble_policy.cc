#include "src/core/ensemble_policy.h"

#include <cassert>

namespace gms {

void EnsemblePolicy::OnStart() {
  decay_ = std::exp(-config_.eta);
  if (ghosts_.empty()) {
    uint32_t cap = config_.ghost_capacity;
    if (cap == 0) {
      const double scaled =
          static_cast<double>(frames_->num_frames()) * config_.ghost_scale;
      cap = scaled >= 1.0 ? static_cast<uint32_t>(scaled) : 1;
    }
    ghosts_.reserve(kExperts);
    for (const GhostKind kind : kExpertKinds) {
      ghosts_.emplace_back(kind, cap);
    }
  }
}

void EnsemblePolicy::OnPageFault(const Uid& uid) {
  assert(ghosts_.size() == kExperts);
  references_++;
  // Score every expert on this reference at the CURRENT weights, then apply
  // the Hedge update. A ghost miss means the expert's rule would have
  // evicted the page before it came back — loss 1.
  double sum = 0;
  for (size_t i = 0; i < kExperts; i++) {
    const bool hit = ghosts_[i].Access(uid);
    if (!hit) {
      losses_[i]++;
      expected_loss_ += weights_[i];
      weights_[i] *= decay_;
    }
    sum += weights_[i];
  }
  for (double& w : weights_) {
    w /= sum;
  }
}

uint64_t EnsemblePolicy::best_expert_loss() const {
  uint64_t best = losses_[0];
  for (size_t i = 1; i < kExperts; i++) {
    best = losses_[i] < best ? losses_[i] : best;
  }
  return best;
}

uint8_t EnsemblePolicy::Estimate(const Uid& uid) const {
  // kExpertKinds[1] == kLfu.
  return ghosts_.size() == kExperts ? ghosts_[1].Frequency(uid) : 0;
}

double EnsemblePolicy::KeepVote(const Uid& uid) const {
  double vote = 0;
  for (size_t i = 0; i < kExperts && i < ghosts_.size(); i++) {
    // LRU/MRU endorse any resident page (their rule would still hold it);
    // LFU endorses only pages it rates frequent — a once-touched resident
    // is the very page its rule evicts first.
    const bool endorsed = kExpertKinds[i] == GhostKind::kLfu
                              ? ghosts_[i].Frequency(uid) >= config_.lfu_min_freq
                              : ghosts_[i].Contains(uid);
    if (endorsed) {
      vote += weights_[i];
    }
  }
  return vote;
}

std::optional<NodeId> EnsemblePolicy::RandomTarget() {
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

void EnsemblePolicy::EvictClean(Frame* frame) {
  assert(frame != nullptr && frame->in_use() && !frame->dirty());
  // Duplicate shared pages are never worth a transfer — another node
  // already caches the copy.
  if (frame->shared() && frame->duplicated()) {
    stats().discards_duplicate++;
    DiscardFrame(frame);
    return;
  }
  // Weighted vote: each expert whose ghost still holds the page predicts it
  // will be re-referenced. Forward when the vote clears the bar.
  if (KeepVote(frame->uid()) >= config_.forward_vote) {
    if (const std::optional<NodeId> target = RandomTarget()) {
      SendPutPage(frame, *target, Estimate(frame->uid()));
      return;
    }
  }
  // The ensemble says this page is dead (or there is nowhere to send it):
  // disk still has a copy.
  stats().discards_old++;
  DiscardFrame(frame);
}

void EnsemblePolicy::HandlePutPage(const PutPage& msg) {
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
      // Displace the oldest clean global page the sender's frequency outranks
      // (the LFU ghost's saturating count rides in msg.freq); local pages are
      // never displaced for a remote page.
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

bool EnsemblePolicy::HandleMessage(Datagram& dgram) {
  if (dgram.type == kMsgPutPage) {
    HandlePutPage(dgram.payload.get<PutPage>());
    return true;
  }
  return false;
}

}  // namespace gms

#include "src/mem/far_memory.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

namespace gms {

FarMemoryTier::FarMemoryTier(Simulator* sim, FarMemoryParams params)
    : sim_(sim),
      params_(params),
      lru_(GhostKind::kLru, static_cast<uint32_t>(params.capacity_pages)) {
  assert(params.capacity_pages <= UINT32_MAX);
}

void FarMemoryTier::ReadPage(const Uid& uid, EventFn done, SpanRef span) {
  assert(lru_.Contains(uid));
  queue_.push_back(Request{uid, false, sim_->now(), std::move(done), span});
  if (!busy_) {
    busy_ = true;
    StartNext();
  }
}

void FarMemoryTier::WritePage(const Uid& uid, EventFn done, SpanRef span) {
  queue_.push_back(Request{uid, true, sim_->now(), std::move(done), span});
  if (!busy_) {
    busy_ = true;
    StartNext();
  }
}

void FarMemoryTier::Evict(const Uid& uid) { lru_.Erase(uid); }

void FarMemoryTier::Insert(const Uid& uid) {
  // A hit refreshes the page to MRU. A miss at full capacity displaces the
  // LRU entry; at capacity 0 the page itself is displaced at once.
  const uint32_t resident = lru_.size();
  if (!lru_.Access(uid) && lru_.size() == resident) {
    stats_.evictions++;
  }
  assert(resident_pages() <= capacity_pages());
}

void FarMemoryTier::SetCapacity(uint64_t pages) {
  const uint32_t resident = lru_.size();
  lru_.set_capacity(static_cast<uint32_t>(
      std::min<uint64_t>(pages, lru_.max_capacity())));
  params_.capacity_pages = lru_.capacity();
  stats_.evictions += resident - lru_.size();
  assert(resident_pages() <= capacity_pages());
}

void FarMemoryTier::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  Request req = std::move(queue_.front());
  queue_.pop_front();
  const SimTime service = ModelReadLatency(params_.page_bytes);
  stats_.busy_time += service;
  // Service starts now: everything since enqueue was time behind the
  // single-channel FIFO.
  SpanStep(tracer_, sim_->now(), self_, req.span, SpanComp::kFarWait);
  sim_->After(service, [this, req = std::move(req)]() mutable {
    const SimTime latency = sim_->now() - req.issued_at;
    if (req.is_write) {
      stats_.writes++;
      // The page becomes visible to Holds() only once the transfer lands;
      // until then a concurrent fault still falls through to the next tier.
      Insert(req.uid);
    } else {
      stats_.reads++;
      stats_.read_latency.Add(ToMicroseconds(latency));
      // A read refreshes recency so hot far pages survive capacity pressure.
      Insert(req.uid);
    }
    TraceEvent(tracer_, sim_->now(), self_,
               req.is_write ? TraceEventKind::kFarWrite
                            : TraceEventKind::kFarRead,
               req.uid, static_cast<uint64_t>(latency));
    SpanStep(tracer_, sim_->now(), self_, req.span, SpanComp::kFarService);
    if (req.done) {
      req.done();
    }
    StartNext();
  });
}

}  // namespace gms

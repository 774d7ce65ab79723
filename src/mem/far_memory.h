// FarMemoryTier: a bounded disaggregated/CXL-style far-memory backing tier.
//
// The model is a single-channel FIFO device (the same queueing shape as the
// disk, minus positioning): every transfer costs a fixed access latency plus
// a per-byte streaming cost, so an 8 KB page lands around 2.2 ms with the
// defaults — slower than a global-memory hit (~1.5 ms), several times faster
// than even a sequential disk read (~3.6 ms). Contents are a bounded
// LRU-ordered set of page uids, kept in an LRU GhostCache; demotions past
// capacity evict the oldest entry, and SetCapacity() lets chaos scenarios
// shrink the tier mid-run (the dynamic-capacity adversary) with
// deterministic eviction order. So residency never exceeds capacity: the
// tier asserts it after every landed write and every SetCapacity().
//
// Like the disk, the tier stamps its queue wait and service time separately
// (kFarWait / kFarService) on the fault span it serves, so the critical-path
// decomposition keeps tiling end-to-end latency exactly in integer ns.
#ifndef SRC_MEM_FAR_MEMORY_H_
#define SRC_MEM_FAR_MEMORY_H_

#include <cstdint>
#include <deque>

#include "src/common/node_id.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/common/uid.h"
#include "src/mem/backing_tier.h"
#include "src/mem/ghost_cache.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace gms {

struct FarMemoryParams {
  // Pages the tier can hold; 0 = the node has no far memory (the cluster
  // skips building the tier entirely).
  uint64_t capacity_pages = 0;
  // Fixed per-access latency and per-byte streaming cost. Left at 0 they are
  // defaulted from CostModel::far_fixed_latency / far_per_byte by the
  // cluster wiring; unit tests may pass explicit values.
  SimTime fixed_latency = 0;
  SimTime per_byte = 0;
  uint32_t page_bytes = 8192;
};

class FarMemoryTier final : public BackingTier {
 public:
  FarMemoryTier(Simulator* sim, FarMemoryParams params);
  FarMemoryTier(const FarMemoryTier&) = delete;
  FarMemoryTier& operator=(const FarMemoryTier&) = delete;

  // --- BackingTier ---
  TierKind kind() const override { return TierKind::kFarMemory; }
  bool Holds(const Uid& uid) const override { return lru_.Contains(uid); }
  void ReadPage(const Uid& uid, EventFn done, SpanRef span = {}) override;
  void WritePage(const Uid& uid, EventFn done, SpanRef span = {}) override;
  void Evict(const Uid& uid) override;
  uint64_t capacity_pages() const override { return params_.capacity_pages; }
  SimTime ModelReadLatency(uint32_t bytes) const override {
    return params_.fixed_latency + params_.per_byte * bytes;
  }

  // Shrinks (or grows, up to the construction-time capacity) the tier
  // mid-run, evicting LRU entries down to the new bound — the
  // dynamic-capacity adversary of the tier chaos case. Call it from the
  // owning node's simulation context so the evictions are ordered with the
  // node's own events.
  void SetCapacity(uint64_t pages);

  uint64_t resident_pages() const { return lru_.size(); }

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;        // demotions absorbed (insert or refresh)
    uint64_t evictions = 0;     // LRU entries displaced by capacity pressure
    SimTime busy_time = 0;
    StatAccumulator read_latency;  // queue + service, microseconds per read
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  void set_tracer(Tracer* tracer, NodeId self) {
    tracer_ = tracer;
    self_ = self;
  }

 private:
  struct Request {
    Uid uid;
    bool is_write;
    SimTime issued_at;
    EventFn done;
    SpanRef span;
  };

  void StartNext();
  void Insert(const Uid& uid);

  Simulator* sim_;
  FarMemoryParams params_;
  Tracer* tracer_ = nullptr;
  NodeId self_;
  bool busy_ = false;
  std::deque<Request> queue_;

  GhostCache lru_;  // resident pages in LRU order

  Stats stats_;
};

}  // namespace gms

#endif  // SRC_MEM_FAR_MEMORY_H_

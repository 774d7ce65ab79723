// The node/OS layer: a user-level stand-in for the modified OSF/1 memory
// system of Figure 3 in the paper.
//
// One NodeOs per cluster node. It unifies VM and file pages in a single
// page cache (the VM + UBC analogue), runs the fault path, the free-list
// watermarks and the pageout daemon, performs dirty write-back (with
// promote-to-global: "our system allows a disk write to complete as usual
// but promotes that page into the global cache"), and doubles as an NFS
// client/server for shared file pages. All policy decisions about cluster
// memory are delegated to the node's CacheEngine (src/core/cache_engine.h),
// whichever replacement policy it hosts.
#ifndef SRC_NODE_NODE_OS_H_
#define SRC_NODE_NODE_OS_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/stats.h"
#include "src/common/uid.h"
#include "src/core/cost_model.h"
#include "src/core/directory.h"
#include "src/disk/disk.h"
#include "src/mem/backing_tier.h"
#include "src/mem/frame_table.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace gms {

class CacheEngine;

struct NodeParams {
  // Pageout daemon wakes below `free_low` free frames and reclaims up to
  // `free_high`. Defaults scale with the frame count in NodeOs's ctor when
  // left at 0.
  uint32_t free_low = 0;
  uint32_t free_high = 0;
  double global_age_boost = 1.5;
  // After writing a dirty page to disk, hand the (now clean) page to the
  // memory service instead of dropping it.
  bool promote_on_write = true;
  // Trap + free-frame allocation on the fault path.
  SimTime fault_overhead = Microseconds(25);
  // Cost of a local hit; three orders of magnitude below remote memory.
  SimTime hit_cost = Nanoseconds(500);
  // NFS client retry window; an unanswered read fails the fault to disk-less
  // completion (server crash — only exercised by failure tests).
  SimTime nfs_timeout = Milliseconds(500);
};

struct NodeOsStats {
  uint64_t accesses = 0;
  uint64_t local_hits = 0;
  uint64_t faults = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t nfs_reads = 0;
  uint64_t nfs_served = 0;
  uint64_t nfs_server_disk_reads = 0;
  uint64_t nfs_timeouts = 0;
  uint64_t writebacks_received = 0;  // dirty-global pages returned to disk
  StatAccumulator access_us;  // per-access completion latency
  StatAccumulator fault_us;   // per-fault completion latency
  LatencyHistogram access_ns; // same samples as access_us, full distribution
  LatencyHistogram fault_ns;  // same samples as fault_us, full distribution
};

class NodeOs {
 public:
  NodeOs(Simulator* sim, Network* net, Cpu* cpu, Disk* disk, FrameTable* frames,
         CacheEngine* service, NodeId self, CostModel costs,
         NodeParams params = {});

  // Touches one page on behalf of the local workload; `done` fires when the
  // data is resident (after the fault completes, if any).
  void Access(const Uid& uid, bool write, EventFn done);

  // NFS protocol entry point (the cluster dispatcher routes kMsgNfsRead*
  // here).
  void OnDatagram(Datagram dgram);

  // Swaps the policy backend (used when a crashed node reboots with a fresh
  // agent).
  void set_service(CacheEngine* service) { service_ = service; }

  // Attaches a backing tier above the disk/NFS backstop. Tiers are walked in
  // attach order on every fill: the first one holding the page serves it
  // (far memory before disk). With no tiers attached — the default — the
  // fill path is exactly the two-level original.
  void AddBackingTier(BackingTier* tier) { tiers_.push_back(tier); }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  const NodeOsStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NodeOsStats{}; }

  FrameTable& frames() { return *frames_; }
  NodeId self() const { return self_; }

 private:
  struct PendingNfs {
    Uid uid;
    EventFn done;  // continuation of the fault
    TimerId timer = 0;
    SpanRef span;  // the fault span awaiting this read
  };

  // Retryable access body: hit, wait-on-pin, or fault.
  void ResumeAccess(const Uid& uid, bool write, SimTime started, EventFn done);
  void Fault(const Uid& uid, bool write, EventFn done);
  // Disposes of a just-written-back (now clean) frame: evict it, or keep it
  // if accesses queued up behind the write-back pin.
  void ReleaseCleaned(Frame* frame);
  void FinishFault(Frame* frame, bool write, bool duplicate, SimTime started,
                   SpanRef span, EventFn done);
  // Guarantees a free frame exists, reclaiming synchronously if the pageout
  // daemon has fallen behind, then runs `then`.
  void WithFreeFrame(EventFn then);
  void MaybeWakePageout();
  void PageoutRound(uint32_t remaining);
  void ReadFromBackingStore(const Uid& uid, EventFn loaded, SpanRef span = {});
  void HandleNfsRead(const NfsReadReq& msg);
  void HandleNfsReply(const NfsReadReply& msg);
  void HandleWriteBack(const WriteBack& msg);
  void WakeWaiters(const Uid& uid);

  Simulator* sim_;
  Network* net_;
  Cpu* cpu_;
  Disk* disk_;
  FrameTable* frames_;
  CacheEngine* service_;
  // Backing tiers above the disk/NFS backstop, in lookup order.
  std::vector<BackingTier*> tiers_;
  NodeId self_;
  CostModel costs_;
  NodeParams params_;
  Tracer* tracer_ = nullptr;

  bool pageout_running_ = false;
  // Anonymous pages that have actually been written back to the local swap
  // partition. A fault on an anonymous page not present here is a
  // first-touch: the OS hands out a zero-filled frame with no disk read.
  std::unordered_set<Uid> swap_resident_;
  uint64_t next_nfs_op_ = 1;
  std::unordered_map<uint64_t, PendingNfs> pending_nfs_;
  // Accesses that arrived while a fault for the same page was in flight.
  std::unordered_map<Uid, std::vector<EventFn>> waiters_;
  // Faults between entry and frame allocation (the frame-table entry does
  // not exist yet, so concurrent accesses must queue on this instead).
  std::unordered_set<Uid> faulting_;

  NodeOsStats stats_;
};

}  // namespace gms

#endif  // SRC_NODE_NODE_OS_H_

// The data types shared by the node/OS layer and the cache engine: the
// getpage result and callback, the per-node service counters, and the tier
// tag of a miss's fill.
//
// Every policy, `none` included, is one CacheEngine (src/core/cache_engine.h)
// specialized by a ReplacementPolicy (src/core/replacement_policy.h);
// NodeOs (src/node) talks to that engine directly.
#ifndef SRC_CORE_MEMORY_SERVICE_H_
#define SRC_CORE_MEMORY_SERVICE_H_

#include <cstdint>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/inline_fn.h"

namespace gms {

struct GetPageResult {
  bool hit = false;
  // The fetched copy coexists with another cached copy (shared page served
  // from a node's local memory, paper case 4); the faulting node's copy must
  // be marked a duplicate so a later eviction can drop it silently.
  bool duplicate = false;
  // The fetched copy is dirty (dirty-global extension): disk does not have
  // this version yet.
  bool dirty = false;
  // Causal tracing: the span the resolution landed on (the reply-processing
  // span on the requester, or the request's own span for local misses and
  // timeouts). The caller continues stamping its fault work — disk fallback,
  // completion — on this span so segments tile end to end.
  SpanRef span;
};

// Move-only so it can carry the faulting access's continuation (itself a
// move-only InlineFn) without a heap-allocating copyable wrapper.
using GetPageCallback = InlineCallable<void(GetPageResult)>;

struct MemoryServiceStats {
  uint64_t getpage_attempts = 0;
  uint64_t getpage_hits = 0;
  uint64_t getpage_misses = 0;
  uint64_t getpage_timeouts = 0;
  uint64_t putpages_sent = 0;       // page sent to another node's memory
  uint64_t putpages_to_self = 0;    // kept locally as a global page
  uint64_t putpages_received = 0;
  uint64_t putpages_bounced = 0;    // arrived but no frame could be freed
  uint64_t discards_old = 0;        // older than MinAge -> dropped/disk
  uint64_t discards_duplicate = 0;  // duplicate shared page -> dropped
  uint64_t discards_no_budget = 0;  // weights exhausted -> dropped
  uint64_t global_hits_served = 0;  // getpage requests we answered with data
  uint64_t epochs_started = 0;
  uint64_t gcd_lookups = 0;
  // Hierarchical epoch aggregation (all zero in flat mode except
  // epoch_root_summary_msgs, which also counts flat summaries arriving at
  // the initiator — the root-traffic figure the scale-out bench bounds).
  uint64_t epoch_partials_sent = 0;     // merged partials forwarded upward
  uint64_t epoch_partials_merged = 0;   // child partials folded at this node
  uint64_t epoch_root_summary_msgs = 0; // summary-carrying msgs at the root
  // Dirty-global extension counters.
  uint64_t dirty_putpages_sent = 0;   // dirty pages replicated to peers
  uint64_t dirty_writebacks_sent = 0; // dirty globals returned for write-back
  // Retry machinery counters (all zero unless GmsConfig::retry.enabled).
  uint64_t getpage_retries = 0;       // getpage requests re-issued
  uint64_t control_retries = 0;       // unacked control messages resent
  uint64_t control_give_ups = 0;      // control messages abandoned after max
  uint64_t duplicate_msgs_dropped = 0;  // seq-dedup discarded a duplicate
  uint64_t seq_gaps_skipped = 0;        // ordered delivery gave up on a gap
  // Request-to-callback latency, split by outcome (Table 2's getpage rows).
  LatencyHistogram getpage_hit_ns;
  LatencyHistogram getpage_miss_ns;
  // Memory-hierarchy counters: where getpage misses were ultimately filled
  // from. Every miss produces exactly one fill, so
  //   fills_zero + fills_far + fills_disk + fills_nfs == getpage_misses
  // (NFS fills are counted at issue so the identity holds across timeouts).
  uint64_t fills_zero = 0;  // first touch: no backing copy anywhere
  uint64_t fills_far = 0;   // served by the far-memory tier
  uint64_t fills_disk = 0;  // served by the local disk backstop
  uint64_t fills_nfs = 0;   // served by (or issued to) the file server
  // Clean discards demoted into the far tier instead of being dropped, and
  // far copies evicted after a fill (exclusive promotion).
  uint64_t demotions_far = 0;
  uint64_t far_promotions = 0;
};

// Which layer of the memory hierarchy satisfied a getpage miss.
enum class FillSource : uint8_t { kZero, kFarMemory, kLocalDisk, kNfs };

}  // namespace gms

#endif  // SRC_CORE_MEMORY_SERVICE_H_

// Binary event tracing: the cluster's flight recorder.
//
// Every interesting per-page action (local hit, fault, getpage resolution,
// putpage, disk I/O, wire send, epoch transition) is one fixed-size 32-byte
// record appended to a per-node ring buffer. Full rings flush to a versioned
// binary trace file (or, with no file attached, into a running digest only),
// so the steady-state cost of a traced event is one bounds-checked store —
// no allocation, no branching on file state, no formatting.
//
// The trace is a pure function of the simulation: timestamps are SimTime,
// record order is the deterministic simulation event order, and the FNV-1a
// digest over the flushed byte stream is therefore a golden determinism
// oracle far finer-grained than end-of-run totals. tools/trace_stats.py
// parses the same format and recomputes Table 1/2-style latency breakdowns
// and Figure 11-style traffic curves from it.
//
// Compile-time kill switch: building with -DGMS_TRACE_DISABLED (CMake
// -DGMS_TRACE=OFF) turns every TraceEvent() call site into nothing at all —
// not even the tracer-pointer test survives — for measuring the true zero
// baseline.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/node_id.h"
#include "src/common/time.h"
#include "src/common/uid.h"

namespace gms {

#if defined(GMS_TRACE_DISABLED)
inline constexpr bool kTraceCompiledIn = false;
#else
inline constexpr bool kTraceCompiledIn = true;
#endif

// Event kinds. Values are part of the on-disk format: append new kinds at
// the end, never renumber, and bump kTraceVersion when a record's field
// meaning changes.
enum class TraceEventKind : uint16_t {
  kInvalid = 0,
  kLocalHit = 1,       // value = access latency ns (uid = page)
  kFault = 2,          // value = 1 for a write access
  kFaultDone = 3,      // value = fault latency ns
  kGetPageIssue = 4,   // getpage sent to the cluster
  kGetPageHit = 5,     // value = getpage latency ns
  kGetPageMiss = 6,    // value = getpage latency ns (incl. timeouts)
  kPutPageSend = 7,    // value = target node id (uid = page)
  kPutPageRecv = 8,    // value = page age us at eviction (saturated)
  kDiskRead = 9,       // value = queue+service latency ns; b = block
  kDiskWrite = 10,     // value = queue+service latency ns; b = block
  kNetSend = 11,       // value = wire bytes; a = dst node; b = message type
  kEpochStart = 12,    // value = epoch number (initiator side)
  kEpochParams = 13,   // value = epoch number; b = MinAge ns (participant)
  kNfsRead = 14,       // NFS client read issued (uid = page)
  kWriteBackRecv = 15, // dirty global page returned for write-back
  // Causal span records (see span.h for the reconstruction model). All
  // three use a = trace id and pack the span id into the top half of b.
  kSpanBegin = 16,     // b = span<<32 | parent span; value = SpanLabel
  kSpanStep = 17,      // b = span<<32 | SpanComp; closes [prev stamp, now]
  kSpanEnd = 18,       // b = span<<32 | SpanStatus; value = e2e ns saturated
  kHealthIncident = 19,  // a = IncidentClass (health.h); b = measured value
                         // as an IEEE-754 bit pattern; value = threshold
                         // saturated to u32. Perfetto instant event.
  kFarRead = 20,       // far-memory tier fill; value = queue+service ns
  kFarWrite = 21,      // demotion into the far-memory tier; value = ns
};

// --------------------------------------------------------------------------
// Causal request tracing: every originating operation (page fault, putpage
// flush, epoch round) owns a 64-bit trace id; each contiguous stretch of
// work on one node is a span (32-bit id, globally unique). The pair rides
// inside message payloads so a request keeps its identity across forwards,
// retries and redirects. Ids come from per-node counters inside the Tracer,
// so they are a pure function of the (deterministic) simulation: serial and
// parallel sweep runs allocate identical ids.
// --------------------------------------------------------------------------

// The span context carried in message payloads. trace == 0 means "no
// context" (tracing off, or the message predates the request's first span).
struct SpanRef {
  uint64_t trace = 0;
  uint32_t span = 0;
  uint32_t pad = 0;  // keeps the struct trivially comparable byte-for-byte
  bool valid() const { return trace != 0; }
};
static_assert(sizeof(SpanRef) == 16, "span context is part of payload ABI");

// Originating-operation class, encoded in the top byte of the trace id.
enum class SpanOp : uint32_t {
  kFault = 1,    // page fault (NodeOs::Fault)
  kPutPage = 2,  // putpage flush / dirty replication / write-back
  kEpoch = 3,    // epoch round (trace id derived from the epoch number)
  kGetPage = 4,  // bare CacheEngine::GetPage with no enclosing fault
};

// Component label stamped by kSpanStep: the interval since the previous
// stamp on the same span belongs to this component. Wire time is never
// stamped — it is the gap between a parent's last stamp and a child span's
// begin, computed by the reconstructor.
enum class SpanComp : uint32_t {
  kFaultCpu = 1,     // trap + fault overhead on the faulting node
  kReqGen = 2,       // request generation / marshal CPU
  kQueueIsr = 3,     // receive ISR + CPU queue wait on the receiving node
  kService = 4,      // protocol service CPU (GCD lookup, target, receipt)
  kDiskWait = 5,     // time queued behind other disk requests
  kDiskService = 6,  // positioning + transfer on the spindle
  kRetryWait = 7,    // armed timeout spent waiting before a retry
  kOrderWait = 8,    // held in the sequenced-delivery window behind a gap
  kDupDrop = 9,      // duplicate delivery absorbed by the seq window
  kReclaim = 10,     // synchronous free-frame reclaim inside the fault
  kNfsWait = 11,     // client-side wait for an NFS read round trip
  kWire = 12,        // reconstructor-only: parent->child delivery gap
  kFarWait = 13,     // time queued behind other far-memory transfers
  kFarService = 14,  // fixed access + per-byte streaming on the far tier
};

// Terminal status carried by kSpanEnd.
enum class SpanStatus : uint32_t {
  kHit = 1,       // getpage resolved with data
  kMiss = 2,      // getpage resolved as miss (includes timeouts)
  kDone = 3,      // fault fully complete / write-back durable
  kAbsorbed = 4,  // putpage stored (or already cached) at the target
  kBounced = 5,   // putpage rejected for lack of a young-enough victim
  kAdopted = 6,   // epoch params adopted on this node
};

// Epoch rounds derive their trace id from the epoch number instead of a
// counter: EpochParams has no room for a SpanRef under the payload size cap,
// but every participant knows the epoch.
inline constexpr uint64_t EpochTraceId(uint64_t epoch) {
  return (static_cast<uint64_t>(SpanOp::kEpoch) << 56) | epoch;
}

// One trace record. 32 bytes, trivially copyable, written to disk verbatim
// (little-endian fields; every supported target is little-endian).
struct TraceRecord {
  int64_t time = 0;    // SimTime ns
  uint64_t a = 0;      // page uid.hi, or event-specific (see kinds above)
  uint64_t b = 0;      // page uid.lo, or event-specific
  uint32_t value = 0;  // latency ns / bytes / epoch, saturated to 32 bits
  uint16_t node = 0;   // reporting node
  uint16_t kind = 0;   // TraceEventKind
};
static_assert(sizeof(TraceRecord) == 32, "trace record is the wire format");

// File header: magic, version, record geometry. Readers must reject
// anything they do not recognise (tools/trace_stats.py does).
inline constexpr char kTraceMagic[8] = {'G', 'M', 'S', 'T', 'R', 'C', '0', '0'};
inline constexpr uint32_t kTraceVersion = 1;

struct TraceFileHeader {
  char magic[8];
  uint32_t version;
  uint32_t record_size;
  uint32_t num_nodes;
  uint32_t reserved;
};
static_assert(sizeof(TraceFileHeader) == 24, "trace header is the wire format");

// Running digest of a record stream: FNV-1a over raw record bytes in stream
// order, plus the record count. The tracer keeps one digest per node ring —
// each a pure function of that node's own record sequence — and combines
// them in node order on read, so the combined digest is independent of the
// ring capacity (which only changes how flushes interleave). Two runs
// with equal digests produced byte-identical per-node traces.
struct TraceDigest {
  uint64_t fnv1a = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  uint64_t records = 0;

  void Update(const TraceRecord* recs, size_t n);
  bool operator==(const TraceDigest&) const = default;
  std::string ToString() const;  // "fnv1a:<16 hex>:<count>"
};

class Tracer {
 public:
  // `ring_capacity` is records per node; rings are preallocated here so the
  // recording path never allocates.
  explicit Tracer(uint32_t num_nodes, size_t ring_capacity = 16384);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Attaches a flush target. Truncates an existing file and writes the
  // header immediately. Returns false (tracer stays file-less) on open
  // failure. Call before any Record.
  bool OpenFile(const std::string& path);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // The hot path. One store into the node's ring; flushes the ring into the
  // digest (and file, if attached) when full. Events from out-of-range nodes
  // (kInvalidNode) are dropped.
  void Record(SimTime time, NodeId node, TraceEventKind kind, uint64_t a,
              uint64_t b, uint64_t value) {
    if (node.value >= rings_.size()) {
      return;
    }
    Ring& ring = rings_[node.value];
    ring.buf[ring.used++] = TraceRecord{
        time,
        a,
        b,
        value > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(value),
        static_cast<uint16_t>(node.value),
        static_cast<uint16_t>(kind)};
    if (ring.used == ring.buf.size()) {
      FlushRing(ring);
    }
  }
  void RecordPage(SimTime time, NodeId node, TraceEventKind kind,
                  const Uid& uid, uint64_t value) {
    Record(time, node, kind, uid.hi, uid.lo, value);
  }

  // Flushes every ring (node order) and syncs the file. The per-node record
  // streams — and so the digest — are deterministic for a deterministic
  // simulation regardless of where the Flush points fall.
  void Flush();

  // Flush + close the file. Idempotent; the destructor calls it. Recording
  // after Finish digests records but writes nothing.
  void Finish();

  // Combined digest: FNV-1a folded over every ring's (fnv1a, records) pair
  // in node order — empty rings included — with the records field the total
  // count. Valid after Flush/Finish (unflushed tail records are not yet in
  // their ring digests). tools/trace_stats.py recomputes the same fold from
  // the file. The reference stays valid until the next call.
  const TraceDigest& digest() const;
  uint64_t records_recorded() const {
    uint64_t total = 0;
    for (const Ring& ring : rings_) {
      total += ring.digest.records;
    }
    return total;
  }
  uint32_t num_nodes() const { return static_cast<uint32_t>(rings_.size()); }

  // Deterministic id allocation for causal tracing. Counters are per node
  // (preallocated alongside the rings), so ids depend only on each node's
  // own operation order — identical across serial and parallel sweeps.
  //
  // Trace id: [63..56] SpanOp, [55..40] node, [39..0] per-node counter.
  // Span id:  [31..22] node, [21..0] per-node counter (0 = "no span").
  uint64_t NewTraceId(NodeId node, SpanOp op) {
    if (node.value >= trace_seq_.size()) {
      return 0;
    }
    return (static_cast<uint64_t>(op) << 56) |
           (static_cast<uint64_t>(node.value & 0xffff) << 40) |
           (++trace_seq_[node.value] & 0xffffffffffULL);
  }
  uint32_t NewSpanId(NodeId node) {
    if (node.value >= span_seq_.size()) {
      return 0;
    }
    return (static_cast<uint32_t>(node.value & 0x3ff) << 22) |
           (++span_seq_[node.value] & 0x3fffff);
  }

 private:
  struct Ring {
    std::vector<TraceRecord> buf;
    size_t used = 0;
    TraceDigest digest;  // this node's flushed stream
  };

  void FlushRing(Ring& ring);

  std::vector<Ring> rings_;
  std::vector<uint64_t> trace_seq_;  // per-node trace id counters
  std::vector<uint32_t> span_seq_;   // per-node span id counters
  bool enabled_ = false;
  std::FILE* file_ = nullptr;
  mutable TraceDigest combined_;  // merge-on-read cache backing digest()
};

// Call-site helper: compiles to nothing when tracing is compiled out, and to
// a null test when merely disabled at runtime.
inline void TraceEvent(Tracer* tracer, SimTime time, NodeId node,
                       TraceEventKind kind, const Uid& uid, uint64_t value) {
  if constexpr (kTraceCompiledIn) {
    if (tracer != nullptr && tracer->enabled()) {
      tracer->RecordPage(time, node, kind, uid, value);
    }
  } else {
    (void)tracer, (void)time, (void)node, (void)kind, (void)uid, (void)value;
  }
}

inline void TraceEventRaw(Tracer* tracer, SimTime time, NodeId node,
                          TraceEventKind kind, uint64_t a, uint64_t b,
                          uint64_t value) {
  if constexpr (kTraceCompiledIn) {
    if (tracer != nullptr && tracer->enabled()) {
      tracer->Record(time, node, kind, a, b, value);
    }
  } else {
    (void)tracer, (void)time, (void)node, (void)kind, (void)a, (void)b,
        (void)value;
  }
}

// ---- span call-site helpers ----------------------------------------------
// All of these compile to nothing under GMS_TRACE=OFF and to a null/enabled
// test otherwise; recording is a ring store, never an allocation.

// Starts a new trace rooted at `node`: allocates a trace id + root span and
// records the root's kSpanBegin (parent 0). `label` is a free-form tag shown
// by the reconstructor (0 = the SpanOp itself).
inline SpanRef TraceBegin(Tracer* tracer, SimTime time, NodeId node, SpanOp op,
                          uint32_t label = 0) {
  if constexpr (kTraceCompiledIn) {
    if (tracer != nullptr && tracer->enabled()) {
      SpanRef ref{tracer->NewTraceId(node, op), tracer->NewSpanId(node)};
      if (ref.trace != 0) {
        tracer->Record(time, node, TraceEventKind::kSpanBegin, ref.trace,
                       static_cast<uint64_t>(ref.span) << 32,
                       label != 0 ? label : static_cast<uint32_t>(op));
      }
      return ref;
    }
  } else {
    (void)tracer, (void)time, (void)node, (void)op, (void)label;
  }
  return SpanRef{};
}

// Starts a child span of `parent` (same trace) on `node` — the receiver half
// of a cross-node hop, or an explicitly-rooted epoch sub-span when
// parent.span == 0. Returns {} when the parent carries no context.
inline SpanRef SpanBegin(Tracer* tracer, SimTime time, NodeId node,
                         SpanRef parent, uint32_t label = 0) {
  if constexpr (kTraceCompiledIn) {
    if (tracer != nullptr && tracer->enabled() && parent.trace != 0) {
      SpanRef ref{parent.trace, tracer->NewSpanId(node)};
      tracer->Record(time, node, TraceEventKind::kSpanBegin, ref.trace,
                     (static_cast<uint64_t>(ref.span) << 32) | parent.span,
                     label);
      return ref;
    }
  } else {
    (void)tracer, (void)time, (void)node, (void)parent, (void)label;
  }
  return SpanRef{};
}

// Attributes [previous stamp on `span`, time] to `comp`.
inline void SpanStep(Tracer* tracer, SimTime time, NodeId node, SpanRef span,
                     SpanComp comp, uint64_t detail = 0) {
  if constexpr (kTraceCompiledIn) {
    if (tracer != nullptr && tracer->enabled() && span.trace != 0) {
      tracer->Record(time, node, TraceEventKind::kSpanStep, span.trace,
                     (static_cast<uint64_t>(span.span) << 32) |
                         static_cast<uint32_t>(comp),
                     detail);
    }
  } else {
    (void)tracer, (void)time, (void)node, (void)span, (void)comp, (void)detail;
  }
}

// Marks the request resolved on `span`. The record's time is the request's
// end-to-end end point; `value` carries the latency when the producer knows
// it (informational — the reconstructor recomputes it from the stamps).
inline void SpanEnd(Tracer* tracer, SimTime time, NodeId node, SpanRef span,
                    SpanStatus status, uint64_t value = 0) {
  if constexpr (kTraceCompiledIn) {
    if (tracer != nullptr && tracer->enabled() && span.trace != 0) {
      tracer->Record(time, node, TraceEventKind::kSpanEnd, span.trace,
                     (static_cast<uint64_t>(span.span) << 32) |
                         static_cast<uint32_t>(status),
                     value);
    }
  } else {
    (void)tracer, (void)time, (void)node, (void)span, (void)status,
        (void)value;
  }
}

}  // namespace gms

#endif  // SRC_OBS_TRACE_H_

// GMS wire protocol.
//
// Message structs are carried on src/net datagrams as a closed MessagePayload
// variant (defined at the bottom of this header), so a datagram is one
// contiguous value: no per-message heap allocation and no RTTI on receive.
// The wire size reported to the network is computed per message so that
// traffic accounting (Figure 11, Table 5) reflects what a real implementation
// would put on the wire, even though the simulation passes structs by value.
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <variant>  // std::monostate
#include <vector>

#include "src/common/tagged_union.h"

#include "src/common/histogram.h"
#include "src/common/node_id.h"
#include "src/common/time.h"
#include "src/common/uid.h"
#include "src/obs/trace.h"  // SpanRef: causal trace context carried in payloads

namespace gms {

// Datagram::type tags; also the index used for per-type traffic accounting.
enum MsgType : uint32_t {
  kMsgGetPageReq = 1,    // requester -> GCD node
  kMsgGetPageFwd = 2,    // GCD node -> node housing the page
  kMsgGetPageReply = 3,  // housing node -> requester (carries the page)
  kMsgGetPageMiss = 4,   // GCD node -> requester
  kMsgPutPage = 5,       // evicting node -> target (carries the page)
  kMsgGcdUpdate = 6,     // location change -> GCD node
  kMsgEpochSummaryReq = 7,
  kMsgEpochSummary = 8,
  kMsgEpochParams = 9,
  kMsgEpochStale = 10,   // weights exhausted/bounced -> next initiator
  kMsgJoinReq = 11,
  kMsgMemberUpdate = 12,
  kMsgHeartbeat = 13,
  kMsgHeartbeatAck = 14,
  kMsgNfsReadReq = 15,
  kMsgNfsReadReply = 16,
  kMsgRepublish = 17,    // batched GCD re-registration after reconfiguration
  kMsgNchanceForward = 18,
  kMsgGcdInvalidate = 19,  // GCD node -> stale global holder: drop your copy
  kMsgWriteBack = 20,      // dirty-global holder -> backing node: write to disk
  kMsgProtoAck = 21,       // receipt ack for sequence-numbered control msgs
  kMsgEpochPartial = 22,   // tree-reduced epoch summaries, child -> parent
};

// Page-path messages carry a SpanRef (src/obs/trace.h): the causal identity
// of the originating fault or flush. The context is observability-only — it
// is excluded from the reported wire size and no protocol handler branches
// on it — and it survives the retry layer verbatim because retransmits
// resend the stored payload. On receive, the dispatcher rewrites the field
// in place with the freshly-begun local span so downstream kernels stamp
// the right span.

struct GetPageReq {
  Uid uid;
  NodeId requester;
  uint64_t op_id = 0;  // matches replies to pending fault state
  SpanRef span;
};

struct GetPageFwd {
  Uid uid;
  NodeId requester;
  uint64_t op_id = 0;
  // Reliable-delivery sequence number (0 = unsequenced). The forward must
  // reach the holder: the directory already de-registered its copy, so a
  // lost forward would orphan a global page on the holder forever.
  uint64_t seq = 0;
  SpanRef span;
};

struct GetPageReply {
  Uid uid;
  uint64_t op_id = 0;
  // True when the page was a global page and its housing node dropped its
  // copy (single-copy invariant); false for a duplicated shared page.
  bool was_global = false;
  // The served copy was dirty (dirty-global extension): the faulting node
  // must treat the page as dirty since disk does not have this version.
  bool dirty = false;
  SpanRef span;
};

struct GetPageMiss {
  Uid uid;
  uint64_t op_id = 0;
  SpanRef span;
};

struct PutPage {
  Uid uid;
  NodeId from;
  // Age (now - last access) of the page when evicted; the receiver inserts
  // the page with this age preserved so global LRU ordering survives the
  // transfer.
  SimTime age = 0;
  bool shared = false;
  // Dirty-global extension (paper section 6 future work): the page has not
  // been written to disk; the receiver must hold it as a dirty global page.
  bool dirty = false;
  // Saturating access-frequency estimate of the page at eviction time (the
  // ensemble's LFU ghost count); receivers use it to rank victims. Zero for
  // policies that do not track frequency.
  uint8_t freq = 0;
  // Nonzero when the sender's retry machinery is active: the receiver acks
  // the seq and discards duplicates (at-least-once -> exactly-once effect).
  uint64_t seq = 0;
  SpanRef span;
};

// GCD mutations. kAdd registers a holder, kRemove drops one, kReplace moves
// the (single) global copy to `node`, additionally dropping `prev` (the
// evicting node, which no longer holds the page).
struct GcdUpdate {
  enum Op : uint8_t { kAdd, kRemove, kReplace };
  Uid uid;
  Op op = kAdd;
  NodeId node;
  bool global = false;  // holder caches the page as a global page
  NodeId prev = kInvalidNode;
  uint64_t seq = 0;  // see PutPage::seq
  SpanRef span;
};

struct EpochSummaryReq {
  uint64_t epoch = 0;
  NodeId initiator;
  // Hierarchical aggregation: 0 means the flat protocol (summary goes
  // straight back to the initiator); a nonzero value is the branching factor
  // of the aggregation tree rooted at `initiator`, and the receiver relays
  // the request to its tree children and replies to its parent with a
  // merged EpochPartial instead.
  uint32_t fanout = 0;
};

// Per-node age summary (section 3.2): a fixed-size histogram of page ages
// (global pages' ages pre-boosted), plus counts the initiator needs for
// weight computation and for choosing M and T.
struct EpochSummary {
  uint64_t epoch = 0;
  NodeId node;
  LogHistogram ages;
  uint32_t local_pages = 0;
  uint32_t global_pages = 0;
  uint32_t free_frames = 0;
  // Evictions (putpage + discard) since the previous summary; the initiator
  // sums these to estimate the cluster replacement rate when sizing M and T.
  uint32_t evictions = 0;
};

// Tree-reduced epoch data for one node, in the sparse form the aggregation
// tree puts on the wire. The full per-node breakdown (not just a merged
// histogram) must travel to the root: the per-node weights depend on MinAge,
// which only the root can compute from the global aggregate. Sparseness is
// what keeps the partial cheap — a node's pages cluster into a handful of
// the 192 age buckets, and re-adding the nonzero buckets reproduces the
// node's histogram bit for bit (LogHistogram::AddBucket), so the root's
// weight computation is exactly the flat CountAtOrAbove.
struct EpochNodeStat {
  NodeId node;
  uint32_t evictions = 0;
  std::vector<std::pair<uint16_t, uint64_t>> buckets;  // (index, count)
};

// One subtree's contribution to an epoch: the eviction total (maintained
// incrementally so the root reads it without a walk) and the per-node
// sparse stats. There is no premerged age histogram: the root rebuilds the
// merged one from the stats it already walks for the weights
// (ComputeEpochPlanFromPartial), so a partial costs memory per covered
// node's nonzero buckets, not per histogram bucket. Merge members are
// defined in epoch.cc next to ComputeEpochPlan; both fold duplicates
// idempotently, so duplicated or overlapping deliveries (retry, chaos)
// cannot double-count a node. At 48 bytes it rides inline in
// MessagePayload; its vector relocates by memcpy like EpochParams'
// shared_ptr.
struct EpochPartial {
  uint64_t epoch = 0;
  NodeId from;
  uint64_t evictions = 0;   // == sum of every nodes[i].evictions
  std::vector<EpochNodeStat> nodes;

  bool Contains(NodeId node) const;
  // The entries of `members` this partial holds no stats for, in order;
  // O(|members| + |nodes|).
  std::vector<NodeId> MissingFrom(const std::vector<NodeId>& members) const;
  // Folds one node's summary / another subtree's partial. Returns false if
  // nothing new was folded (every node already present).
  bool MergeSummary(const EpochSummary& s);
  bool MergePartial(const EpochPartial& other);
};

struct EpochParams {
  uint64_t epoch = 0;
  SimTime min_age = 0;
  SimTime duration = 0;   // T
  uint64_t budget = 0;    // M
  NodeId next_initiator;
  // The round's initiator, root of the distribution tree: with a nonzero
  // EpochConfig::fanout, receivers relay the params to their children in the
  // tree rooted here (the flat round's star has no relays). The branching
  // factor is not on the wire — it is uniform deployment configuration, like
  // every other epoch constant. Sits in what was alignment padding.
  NodeId tree_root = kInvalidNode;
  // (*weights)[i] = w_i for cluster node i (dense by NodeId); zero for nodes
  // with no old pages. The initiator allocates the vector once and every
  // relay, retry and receiver shares it read-only; the simulated wire still
  // carries all of it (EpochParamsBytes).
  std::shared_ptr<const std::vector<double>> weights;
};

struct EpochStale {
  uint64_t epoch = 0;
  NodeId reporter;
};

struct JoinReq {
  NodeId node;
};

// Replicated page-ownership-directory: bucket -> GCD node. Redistributed by
// the master on every membership change (section 4.4).
struct PodTable {
  uint64_t version = 0;
  std::vector<NodeId> live;     // current members
  std::vector<NodeId> buckets;  // kPodBuckets entries
};

struct MemberUpdate {
  // The master builds one table per reconfiguration and every member adopts
  // it read-only (Pod::Adopt); the wire carries the whole table.
  std::shared_ptr<const PodTable> pod;
  NodeId master;
  // Node that (re)joined in this reconfiguration, if any. A rejoined node is
  // a fresh incarnation whose control-sequence streams restart from 1;
  // receivers drop their old receive window for it on this signal.
  NodeId joined = kInvalidNode;
};

struct Heartbeat {
  uint64_t seq = 0;
  // The master's current POD version, piggybacked so a node whose
  // MemberUpdate was lost can be caught up (see HandleHeartbeatAck).
  uint64_t pod_version = 0;
};

struct HeartbeatAck {
  uint64_t seq = 0;
  NodeId node;
  uint64_t pod_version = 0;  // the acking node's POD version
};

struct NfsReadReq {
  Uid uid;
  NodeId client;
  uint64_t op_id = 0;
  SpanRef span;
};

struct NfsReadReply {
  Uid uid;
  uint64_t op_id = 0;
  bool ok = false;  // false: no such file / server shutting down
  SpanRef span;
};

// Batched re-registration of this node's pages with their (new) GCD owners
// after a POD redistribution.
struct Republish {
  NodeId from;
  std::vector<GcdUpdate> entries;
  uint64_t seq = 0;  // see PutPage::seq
};

// Sent by a GCD node to a node holding a superseded global copy (a race
// between a disk refetch and a putpage can briefly create two global
// copies); the holder frees the clean page, restoring the single-copy
// invariant.
struct GcdInvalidate {
  Uid uid;
  uint64_t seq = 0;  // see PutPage::seq
};

// Acknowledges receipt of one sequence-numbered control message (GcdUpdate,
// PutPage, GcdInvalidate, Republish). Sent even for duplicates, since the
// original ack may itself have been lost.
struct ProtoAck {
  uint64_t seq = 0;
  NodeId from;
};

// Dirty-global extension: a holder evicting a dirty global page returns it
// to the backing node, which writes it to disk (carries the page data).
struct WriteBack {
  Uid uid;
  NodeId from;
  SpanRef span;
};

struct NchanceForward {
  Uid uid;
  NodeId from;
  SimTime age = 0;
  bool shared = false;
  uint8_t recirculation = 0;
  SpanRef span;
};

// Wire-size helpers (bytes), used when handing messages to the network.
inline uint32_t SmallMessageBytes(uint32_t header) { return header; }

inline uint32_t EpochSummaryBytes(uint32_t header) {
  return header + static_cast<uint32_t>(LogHistogram::kWireSize) + 20;
}

inline uint32_t EpochParamsBytes(uint32_t header, size_t num_nodes) {
  return header + 28 + static_cast<uint32_t>(num_nodes) * 4;
}

// A partial is charged as the tree protocol's wire format: a premerged
// histogram plus, per covered node, a small fixed part (id + eviction count)
// and its nonzero (bucket, count) pairs. The in-memory EpochPartial carries
// no merged histogram (the root rebuilds it from the per-node pairs), but
// the charge keeps it, so simulated traffic is that of the specified format.
inline uint32_t EpochPartialBytes(uint32_t header, const EpochPartial& p) {
  uint32_t bytes = header + 16 + static_cast<uint32_t>(LogHistogram::kWireSize);
  for (const EpochNodeStat& n : p.nodes) {
    bytes += 8 + static_cast<uint32_t>(n.buckets.size()) * 6;
  }
  return bytes;
}

inline uint32_t MemberUpdateBytes(uint32_t header, size_t num_live,
                                  size_t num_buckets) {
  return header + static_cast<uint32_t>(num_live + num_buckets) * 4 + 12;
}

inline uint32_t RepublishBytes(uint32_t header, size_t num_entries) {
  return header + static_cast<uint32_t>(num_entries) * 24;
}

// Deep-copying heap box for the one payload too big to ride inline:
// EpochSummary carries a dense 1.5 KB LogHistogram, and boxing it keeps
// sizeof(MessagePayload) — and with it every Datagram, every delivery
// closure, every SeqWindow slot — under 80 bytes. Only the flat round's
// leaves and the re-request sweep send summaries, once per epoch, far off
// the per-page hot path.
template <typename T>
class Boxed {
 public:
  Boxed() : ptr_(new T()) {}
  Boxed(T value)  // NOLINT(google-explicit-constructor)
      : ptr_(new T(std::move(value))) {}
  Boxed(const Boxed& o) : ptr_(new T(*o.ptr_)) {}
  Boxed(Boxed&& o) noexcept : ptr_(o.ptr_) { o.ptr_ = nullptr; }
  Boxed& operator=(const Boxed& o) {
    if (this != &o) {
      delete ptr_;
      ptr_ = new T(*o.ptr_);
    }
    return *this;
  }
  Boxed& operator=(Boxed&& o) noexcept {
    if (this != &o) {
      delete ptr_;
      ptr_ = o.ptr_;
      o.ptr_ = nullptr;
    }
    return *this;
  }
  ~Boxed() { delete ptr_; }

  T& operator*() { return *ptr_; }
  const T& operator*() const { return *ptr_; }
  T* operator->() { return ptr_; }
  const T* operator->() const { return ptr_; }

 private:
  // A bare owning pointer (not unique_ptr) so that Boxed is trivially
  // relocatable by construction — TaggedUnion moves it with memcpy and
  // abandons the source without running this destructor.
  T* ptr_;
};

// The closed set of datagram payloads. std::monostate covers raw traffic
// with no protocol body (tests, synthetic load). Alternatives must stay
// small — see the static_assert — so that a Datagram is one contiguous
// value; anything bigger goes through Boxed<T>. TaggedUnion rather than
// std::variant: payload relocation is the per-message hot path (a delivered
// message moves its payload several times through the event queue), and
// TaggedUnion relocates with a memcpy instead of variant's per-move
// function-table dispatch. Access is payload.get<T>() / payload.holds<T>().
using MessagePayload =
    TaggedUnion<std::monostate, GetPageReq, GetPageFwd, GetPageReply,
                GetPageMiss, PutPage, GcdUpdate, EpochSummaryReq,
                Boxed<EpochSummary>, EpochParams, EpochStale, JoinReq,
                MemberUpdate, Heartbeat, HeartbeatAck, NfsReadReq,
                NfsReadReply, Republish, GcdInvalidate, ProtoAck, WriteBack,
                NchanceForward, EpochPartial>;

static_assert(sizeof(MessagePayload) <= 80,
              "keep Datagram contiguous and small: box oversized messages");

// The SpanRef additions must not grow any alternative past the 64-byte
// ceiling, or sizeof(MessagePayload) — and with it every Datagram and
// delivery closure — would grow.
static_assert(sizeof(GetPageReq) <= 64 && sizeof(GetPageFwd) <= 64 &&
                  sizeof(GetPageReply) <= 64 && sizeof(GetPageMiss) <= 64 &&
                  sizeof(PutPage) <= 64 && sizeof(GcdUpdate) <= 64 &&
                  sizeof(NfsReadReq) <= 64 && sizeof(NfsReadReply) <= 64 &&
                  sizeof(WriteBack) <= 64 && sizeof(NchanceForward) <= 64,
              "span context must ride in existing payload headroom");

// Returns the span context slot of a payload, or nullptr for messages that
// carry none (control plane: epochs, membership, heartbeats, acks). Used by
// dispatchers to begin the receiver-side span and rewrite the field in
// place, and by the retry layer to stamp retransmits — never by protocol
// logic.
inline SpanRef* MutablePayloadSpan(uint32_t type, MessagePayload& payload) {
  switch (type) {
    case kMsgGetPageReq:
      return &payload.get<GetPageReq>().span;
    case kMsgGetPageFwd:
      return &payload.get<GetPageFwd>().span;
    case kMsgGetPageReply:
      return &payload.get<GetPageReply>().span;
    case kMsgGetPageMiss:
      return &payload.get<GetPageMiss>().span;
    case kMsgPutPage:
      return &payload.get<PutPage>().span;
    case kMsgGcdUpdate:
      return &payload.get<GcdUpdate>().span;
    case kMsgNfsReadReq:
      return &payload.get<NfsReadReq>().span;
    case kMsgNfsReadReply:
      return &payload.get<NfsReadReply>().span;
    case kMsgWriteBack:
      return &payload.get<WriteBack>().span;
    case kMsgNchanceForward:
      return &payload.get<NchanceForward>().span;
    default:
      return nullptr;
  }
}

inline const SpanRef* PayloadSpan(uint32_t type, const MessagePayload& payload) {
  return MutablePayloadSpan(type, const_cast<MessagePayload&>(payload));
}

}  // namespace gms

#endif  // SRC_CORE_MESSAGES_H_

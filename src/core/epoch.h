// Epoch parameter computation (section 3.2).
//
// At the start of each epoch the initiator merges per-node age summaries and
// derives: MinAge (the age threshold above which evicted pages go to disk or
// are discarded rather than forwarded), the replacement budget M, the epoch
// duration T, the per-node weights w_i (node i holds w_i of the cluster's M
// oldest pages), and the next initiator (the node with the largest w_i).
//
// The paper gives the decision procedure qualitatively: "the more old pages
// there are in the network, the longer T should be (and the larger M and
// MinAge are); similarly, if the expected discard rate is low, T can be
// larger as well. When the number of old pages in the network is too small
// ... MinAge is set to 0, so that pages are always discarded or written to
// disk rather than forwarded." ComputeEpochPlan implements exactly that
// shape, with the constants gathered in EpochConfig.
//
// Pure functions: no clock, no I/O — fully unit-testable.
#ifndef SRC_CORE_EPOCH_H_
#define SRC_CORE_EPOCH_H_

#include <cstdint>
#include <vector>

#include "src/common/flat_set.h"
#include "src/common/node_id.h"
#include "src/common/time.h"
#include "src/core/messages.h"
#include "src/mem/frame_table.h"

namespace gms {

struct EpochConfig {
  SimTime t_min = Seconds(2);
  SimTime t_max = Seconds(10);
  uint64_t m_min = 64;
  uint64_t m_max = 1 << 20;
  // A computed MinAge below this is treated as "the cluster has no usefully
  // idle pages": MinAge becomes 0 and all evictions go to disk.
  SimTime min_useful_age = Milliseconds(100);
  // Headroom multiplier on the predicted replacement demand when sizing M.
  double budget_headroom = 1.0;
  // Multiplier applied to global pages' ages before summarizing, so they are
  // replaced in preference to local pages of similar age (section 3.1).
  double global_age_boost = 1.5;
  // Age credited to a free frame in the summary: a free frame is idler than
  // any used page.
  SimTime free_frame_age = Seconds(3600);
  // How long the initiator waits for stragglers before computing the plan.
  // In tree mode this is the per-level base: an aggregator with a subtree of
  // height h waits TreeCollectTimeout(config, h) = summary_timeout * h, so a
  // deep tree's root outlasts every descendant level instead of silently
  // truncating their stragglers.
  SimTime summary_timeout = Milliseconds(500);
  // Hierarchical epoch aggregation: branching factor of the summary
  // reduction tree. 0 = one-level star, leaves reply with plain summaries:
  // the paper's flat round, where every node replies straight to the
  // initiator. The initiator runs the same round either way.
  uint32_t fanout = 0;
};

struct EpochPlan {
  uint64_t epoch = 0;
  SimTime min_age = 0;
  uint64_t budget = 0;  // M
  SimTime duration = 0;  // T
  std::vector<double> weights;  // dense by NodeId.value
  NodeId next_initiator;
  double max_weight = 0;
};

// Computes the plan for epoch `epoch` from the received summaries.
// `num_nodes` sizes the dense weight vector. `last_duration` is the measured
// length of the previous epoch (used with the summaries' eviction counts to
// estimate the cluster replacement rate); pass 0 for the first epoch.
// `fallback_initiator` is used when no node has any weight.
EpochPlan ComputeEpochPlan(const EpochConfig& config, uint64_t epoch,
                           uint32_t num_nodes,
                           const std::vector<EpochSummary>& summaries,
                           SimTime last_duration, NodeId fallback_initiator);

// --- hierarchical aggregation (partial reduction) --------------------------
//
// The tree protocol reduces summaries on the way to the root: every
// aggregator folds its children's EpochPartials into one (messages.h). The
// reduction is associative and commutative by construction — the per-node
// stats are a set keyed by node id, the eviction total is an integer sum,
// and the root's merged histogram is integer bucket sums over that set — so
// the root's plan is bit-identical to the flat computation over the same
// summary set, for any fanout and any partial-arrival order
// (tests/epoch_tree_test.cc holds this across N, fanout, permutations).

// The sparse wire form of one summary: its nonzero age buckets + evictions.
// Stops at the last nonzero bucket (once total() is accounted for), so an
// empty histogram costs no bucket reads.
EpochNodeStat CompressSummary(const EpochSummary& summary);

// Rebuilds the histogram a stat was compressed from, bit for bit.
LogHistogram ExpandAges(const EpochNodeStat& stat);

// CountAtOrAbove over the sparse form; equals ExpandAges(stat)
// .CountAtOrAbove(threshold) exactly (same bucket-lower-bound predicate).
uint64_t SparseCountAtOrAbove(const EpochNodeStat& stat, uint64_t threshold);

// One node's age summary in sparse form, straight from its frame table:
// every in-use page's age (boosted by `global_age_boost` for global pages,
// the same arithmetic PickVictim uses) plus the free frames beyond the
// pageout daemon's watermark reserve, credited at `free_frame_age` (the
// reserve is kept free on every node, busy ones included, so it is not idle
// memory). Equals CompressSummary of the dense summary bit for bit, but a
// node holding no pages touches no dense histogram: its stat is at most the
// free-frame bucket. `node` and `evictions` are left for the caller.
EpochNodeStat SummarizeFrames(const FrameTable& frames, SimTime now,
                              const EpochConfig& config);

// One aggregator's running fold of a round: the partial it sends up (or
// plans from) plus an index of the nodes that partial covers. A fold costs
// O(what it brings): the index catches up with `partial.nodes` lazily (a
// leaf, which folds only its own stat, never builds one) and keeps its
// storage across rounds, and received stats are moved in, not copied. A
// duplicated or overlapping delivery (retry, chaos, the root's re-request
// racing a tree partial) folds only its new nodes, so every fold keeps
// partial.evictions equal to the sum over partial.nodes.
class EpochAccumulator {
 public:
  EpochPartial partial;

  // Starts a round: empties the partial and sizes it for the `expected`
  // nodes the round should bring (one allocation, not one per doubling);
  // the index keeps its storage.
  void Reset(uint64_t epoch = 0, NodeId from = NodeId{}, size_t expected = 0);
  size_t size() const { return partial.nodes.size(); }

  // Folds one node's stat / summary, or another subtree's partial. Returns
  // false if nothing new was folded (every node already present).
  bool MergeStat(EpochNodeStat stat);
  bool MergeSummary(const EpochSummary& s) {
    return MergeStat(CompressSummary(s));
  }
  bool MergePartial(EpochPartial other);

  // The entries of `members` the partial holds no stats for, in order;
  // O(|members|) once the index has caught up.
  std::vector<NodeId> MissingFrom(const std::vector<NodeId>& members);

 private:
  void CatchUpIndex();

  FlatSet64 index_;     // NodeKey of partial.nodes[0, indexed_)
  size_t indexed_ = 0;
};

// Computes the plan from an already-reduced partial, rebuilding the merged
// age histogram from its per-node stats (O(total nonzero buckets)).
// ComputeEpochPlan is implemented as a fold into one partial followed by
// this function, so the two can never drift apart.
EpochPlan ComputeEpochPlanFromPartial(const EpochConfig& config,
                                      uint64_t epoch, uint32_t num_nodes,
                                      const EpochPartial& partial,
                                      SimTime last_duration,
                                      NodeId fallback_initiator);

// The aggregation tree for one epoch round: the initiator at position 0,
// every other live node in ascending id order, connected as an implicit
// f-ary heap (children of position i are positions i*f+1 .. i*f+f).
// Fanout 0 builds the flat round's one-level star: every other node is a
// child of the root. Every node derives the same tree from its replicated
// membership view, so the tree needs no wire representation beyond
// (initiator, fanout).
//
// The tree is an index view over the sorted live list (Pod::Build sorts it):
// position p > 0 is live rank p-1, shifted past the root's own rank. It
// copies and sorts nothing. A node places itself once (IndexOf, one binary
// search) and asks every other question by position in O(1) or O(depth),
// so its share of a round is O(log N + fanout) host work however many
// questions it asks. The view borrows `live`, which must outlive it.
class EpochTree {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  // Consecutive tree positions as the live-list ranks they occupy:
  // [first, end) minus `skip`, the root's own rank. Twelve bytes, so a relay
  // closure carries the children it resolved on arrival without a heap
  // copy; read it against the live list the tree was built over.
  struct Run {
    static constexpr uint32_t kNoSkip = ~uint32_t{0};
    uint32_t first = 0;
    uint32_t end = 0;
    uint32_t skip = kNoSkip;

    size_t size() const {
      return end - first - (skip >= first && skip < end ? 1 : 0);
    }
    template <typename F>
    void ForEach(const std::vector<NodeId>& live, F&& f) const {
      for (uint32_t r = first; r < end; r++) {
        if (r != skip) {
          f(live[r]);
        }
      }
    }
  };

  // `live` must be sorted by id; `root` need not be in it.
  static EpochTree Build(const std::vector<NodeId>& live, NodeId root,
                         uint32_t fanout);
  // A temporary would leave the view dangling.
  static EpochTree Build(std::vector<NodeId>&& live, NodeId root,
                         uint32_t fanout) = delete;

  size_t size() const { return size_; }
  uint32_t fanout() const { return fanout_; }
  NodeId At(size_t pos) const;  // position -> node; At(0) is the root
  // node -> position, kNone if it is not in the tree: one binary search of
  // the live list. Build makes the only other one, for the root.
  size_t IndexOf(NodeId node) const;

  // Position queries; `pos` < size().
  size_t Parent(size_t pos) const {  // kNone for the root
    return pos == 0 ? kNone : (pos - 1) / fanout_;
  }
  Run Children(size_t pos) const;            // O(1)
  size_t SubtreeSize(size_t pos) const;      // O(depth)
  uint32_t SubtreeHeight(size_t pos) const;  // leaf = 0; O(depth)
  uint32_t Depth(size_t pos) const;          // root = 0; O(depth)

 private:
  const std::vector<NodeId>* live_ = nullptr;
  NodeId root_;
  uint32_t fanout_ = 1;
  size_t root_rank_ = kNone;  // the root's index in *live_, kNone if absent
  size_t size_ = 0;
};

// Straggler window for an aggregator whose subtree has height
// `subtree_height`: one summary_timeout per level below it, so each level
// can absorb its children's full wait before its own timer fires. The flat
// protocol (height 1 from the root's perspective) keeps summary_timeout
// exactly.
inline SimTime TreeCollectTimeout(const EpochConfig& config,
                                  uint32_t subtree_height) {
  return config.summary_timeout *
         static_cast<SimTime>(subtree_height > 1 ? subtree_height : 1);
}

}  // namespace gms

#endif  // SRC_CORE_EPOCH_H_

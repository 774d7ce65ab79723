#include "src/core/epoch.h"

#include <algorithm>
#include <cassert>

#include "src/common/flat_set.h"

namespace gms {

// ---------------------------------------------------------------------------
// partial reduction
// ---------------------------------------------------------------------------

EpochNodeStat CompressSummary(const EpochSummary& summary) {
  EpochNodeStat stat;
  stat.node = summary.node;
  stat.evictions = summary.evictions;
  for (int i = 0; i < LogHistogram::kNumBuckets; i++) {
    const uint64_t count = summary.ages.bucket(i);
    if (count > 0) {
      stat.buckets.emplace_back(static_cast<uint16_t>(i), count);
    }
  }
  return stat;
}

LogHistogram ExpandAges(const EpochNodeStat& stat) {
  LogHistogram ages;
  for (const auto& [bucket, count] : stat.buckets) {
    ages.AddBucket(bucket, count);
  }
  return ages;
}

uint64_t SparseCountAtOrAbove(const EpochNodeStat& stat, uint64_t threshold) {
  uint64_t count = 0;
  for (const auto& [bucket, c] : stat.buckets) {
    if (LogHistogram::BucketLowerBound(bucket) >= threshold) {
      count += c;
    }
  }
  return count;
}

void AccumulateAgeHistogram(const FrameTable& frames, SimTime now,
                            double global_age_boost, LogHistogram* out) {
  // Straight-line pass over the two SoA columns the scan needs. The age
  // arithmetic is kept in double and the slots are visited in index order so
  // the result is bit-identical to the ForEach-with-closure walk this
  // replaced — only the per-frame std::function dispatch and fat-record
  // striding are gone.
  const uint8_t* flags = frames.flags_data();
  const SimTime* ages = frames.ages_data();
  const uint32_t n = frames.num_frames();
  for (uint32_t i = 0; i < n; i++) {
    if ((flags[i] & FrameTable::kFlagInUse) == 0) {
      continue;
    }
    double age = static_cast<double>(now - ages[i]);
    if ((flags[i] & FrameTable::kFlagGlobal) != 0) {
      age *= global_age_boost;
    }
    out->Add(static_cast<uint64_t>(age));
  }
}

namespace {

// FlatSet64 reserves key 0 for empty slots, so node n is keyed n + 1.
uint64_t NodeKey(NodeId node) { return uint64_t{node.value} + 1; }

FlatSet64 NodeKeys(const std::vector<EpochNodeStat>& nodes) {
  FlatSet64 keys;
  keys.Reserve(nodes.size());
  for (const EpochNodeStat& n : nodes) {
    keys.Insert(NodeKey(n.node));
  }
  return keys;
}

}  // namespace

bool EpochPartial::Contains(NodeId node) const {
  for (const EpochNodeStat& n : nodes) {
    if (n.node == node) {
      return true;
    }
  }
  return false;
}

std::vector<NodeId> EpochPartial::MissingFrom(
    const std::vector<NodeId>& members) const {
  const FlatSet64 have = NodeKeys(nodes);
  std::vector<NodeId> missing;
  for (NodeId node : members) {
    if (!have.Contains(NodeKey(node))) {
      missing.push_back(node);
    }
  }
  return missing;
}

bool EpochPartial::MergeSummary(const EpochSummary& s) {
  if (Contains(s.node)) {
    return false;
  }
  evictions += s.evictions;
  nodes.push_back(CompressSummary(s));
  return true;
}

bool EpochPartial::MergePartial(const EpochPartial& other) {
  // Common case first: disjoint node sets merge wholesale. Overlaps — a
  // duplicated delivery, or a tree partial racing the root's direct
  // re-request — fold only the new nodes; either path preserves the
  // invariant that `evictions` is exactly the sum over `nodes`. One hash set
  // over our nodes makes the whole merge O(|nodes| + |other.nodes|).
  if (other.nodes.empty()) {
    return false;
  }
  FlatSet64 have = NodeKeys(nodes);
  bool overlap = false;
  for (const EpochNodeStat& n : other.nodes) {
    if (have.Contains(NodeKey(n.node))) {
      overlap = true;
      break;
    }
  }
  if (!overlap) {
    evictions += other.evictions;
    nodes.insert(nodes.end(), other.nodes.begin(), other.nodes.end());
    return true;
  }
  bool any = false;
  for (const EpochNodeStat& n : other.nodes) {
    if (!have.Insert(NodeKey(n.node))) {
      continue;
    }
    evictions += n.evictions;
    nodes.push_back(n);
    any = true;
  }
  return any;
}

// ---------------------------------------------------------------------------
// plan computation
// ---------------------------------------------------------------------------

EpochPlan ComputeEpochPlanFromPartial(const EpochConfig& config,
                                      uint64_t epoch, uint32_t num_nodes,
                                      const EpochPartial& partial,
                                      SimTime last_duration,
                                      NodeId fallback_initiator) {
  EpochPlan plan;
  plan.epoch = epoch;
  plan.weights.assign(num_nodes, 0.0);
  plan.next_initiator = fallback_initiator;

  // The merged age histogram, rebuilt from the per-node sparse stats:
  // bucket sums are integer additions, so it equals the dense merge of
  // every node's summary in any order, bit for bit.
  LogHistogram merged;
  for (const EpochNodeStat& n : partial.nodes) {
    for (const auto& [bucket, count] : n.buckets) {
      merged.AddBucket(bucket, count);
    }
  }
  const uint64_t total_evictions = partial.evictions;

  // Replacement-rate estimate (pages/second), floored so a quiet cluster
  // still plans a sane budget.
  const double last_secs =
      last_duration > 0 ? ToSeconds(last_duration) : ToSeconds(config.t_max);
  const double rate =
      std::max(static_cast<double>(total_evictions) / last_secs, 16.0);

  // Old-page supply: pages (plus free frames, already folded into the
  // summaries at free_frame_age) at least minimally idle.
  const uint64_t supply =
      merged.CountAtOrAbove(static_cast<uint64_t>(config.min_useful_age));
  if (supply < config.m_min) {
    // "When the number of old pages in the network is too small, indicating
    // that all nodes are actively using their memory, MinAge is set to 0."
    plan.duration = config.t_min;
    plan.budget = config.m_min;
    return plan;
  }

  // T: long when the supply would outlast the demand, short when old pages
  // are scarce or churn is high.
  const double supply_secs = static_cast<double>(supply) / rate;
  plan.duration = std::clamp(static_cast<SimTime>(supply_secs * kSecond / 4),
                             config.t_min, config.t_max);

  // M: predicted demand for the epoch, with headroom, bounded by supply
  // (supply >= m_min here, so the clamp bounds are ordered).
  const uint64_t demand = static_cast<uint64_t>(
      rate * ToSeconds(plan.duration) * config.budget_headroom);
  const uint64_t m_cap = std::min<uint64_t>(config.m_max, supply);
  plan.budget = std::clamp(demand, std::min(config.m_min, m_cap), m_cap);

  // MinAge: the threshold selecting the M globally-oldest pages.
  const uint64_t threshold = merged.ThresholdForCount(plan.budget);
  plan.min_age = static_cast<SimTime>(threshold);
  if (plan.min_age < config.min_useful_age) {
    // Too few old pages: every node is actively using its memory. Evictions
    // go to disk (MinAge = 0 regime) and nobody gets weight.
    plan.min_age = 0;
    return plan;
  }

  // Per-node weights from the sparse stats: BucketLowerBound(i) >= min_age
  // is the same predicate CountAtOrAbove applies to the full histogram, so
  // this equals the flat computation exactly (min_age is always a bucket
  // lower bound).
  for (const EpochNodeStat& n : partial.nodes) {
    if (n.node.value >= num_nodes) {
      continue;
    }
    plan.weights[n.node.value] = static_cast<double>(
        SparseCountAtOrAbove(n, static_cast<uint64_t>(plan.min_age)));
  }
  for (uint32_t i = 0; i < num_nodes; i++) {
    if (plan.weights[i] > plan.max_weight) {
      plan.max_weight = plan.weights[i];
      plan.next_initiator = NodeId{i};
    }
  }
  return plan;
}

EpochPlan ComputeEpochPlan(const EpochConfig& config, uint64_t epoch,
                           uint32_t num_nodes,
                           const std::vector<EpochSummary>& summaries,
                           SimTime last_duration, NodeId fallback_initiator) {
  // Fold everything into one partial and delegate: the flat path is the
  // single-partial case of the tree computation by construction.
  EpochPartial partial;
  partial.epoch = epoch;
  for (const EpochSummary& s : summaries) {
    partial.MergeSummary(s);
  }
  return ComputeEpochPlanFromPartial(config, epoch, num_nodes, partial,
                                     last_duration, fallback_initiator);
}

// ---------------------------------------------------------------------------
// aggregation tree
// ---------------------------------------------------------------------------

EpochTree EpochTree::Build(const std::vector<NodeId>& live, NodeId root,
                           uint32_t fanout) {
  // Canonical shape regardless of membership join order: the tail is the
  // live list in id order, so every node — whose POD table is replicated
  // verbatim — and every test derives the identical tree from (live set,
  // root, fanout).
  assert(std::is_sorted(live.begin(), live.end()));
  EpochTree tree;
  tree.live_ = &live;
  tree.root_ = root;
  const auto it = std::lower_bound(live.begin(), live.end(), root);
  const bool root_live = it != live.end() && *it == root;
  tree.root_rank_ = root_live ? static_cast<size_t>(it - live.begin()) : kNone;
  tree.size_ = root_live ? live.size() : live.size() + 1;
  // Fanout 0 is the flat round: a one-level star under the root.
  const size_t star = std::max<size_t>(tree.size_ - 1, 1);
  tree.fanout_ = fanout > 0 ? fanout : static_cast<uint32_t>(star);
  return tree;
}

NodeId EpochTree::At(size_t pos) const {
  assert(pos < size_);
  if (pos == 0) {
    return root_;
  }
  const size_t rank = pos - 1;
  return (*live_)[root_rank_ != kNone && rank >= root_rank_ ? rank + 1 : rank];
}

size_t EpochTree::IndexOf(NodeId node) const {
  if (size_ == 0) {
    return kNone;
  }
  if (node == root_) {
    return 0;
  }
  const auto it = std::lower_bound(live_->begin(), live_->end(), node);
  if (it == live_->end() || *it != node) {
    return kNone;
  }
  const size_t rank = static_cast<size_t>(it - live_->begin());
  return root_rank_ != kNone && rank > root_rank_ ? rank : rank + 1;
}

NodeId EpochTree::Parent(NodeId node) const {
  const size_t i = IndexOf(node);
  if (i == kNone || i == 0) {
    return kInvalidNode;
  }
  return At((i - 1) / fanout_);
}

std::vector<NodeId> EpochTree::Children(NodeId node) const {
  std::vector<NodeId> children;
  const size_t i = IndexOf(node);
  if (i == kNone) {
    return children;
  }
  const size_t first = i * fanout_ + 1;
  for (size_t c = first; c < size_ && c < first + fanout_; c++) {
    children.push_back(At(c));
  }
  return children;
}

size_t EpochTree::SubtreeSize(NodeId node) const {
  const size_t i = IndexOf(node);
  if (i == kNone) {
    return 0;
  }
  // The subtree of an f-ary heap position spans one contiguous index range
  // per level: [lo, hi] starts at [i, i] and each level maps to
  // [lo*f+1, hi*f+f].
  size_t total = 0;
  size_t lo = i;
  size_t hi = i;
  while (lo < size_) {
    total += std::min(hi, size_ - 1) - lo + 1;
    lo = lo * fanout_ + 1;
    hi = hi * fanout_ + fanout_;
  }
  return total;
}

uint32_t EpochTree::SubtreeHeight(NodeId node) const {
  const size_t i = IndexOf(node);
  if (i == kNone) {
    return 0;
  }
  uint32_t height = 0;
  size_t lo = i;
  while (lo * fanout_ + 1 < size_) {
    lo = lo * fanout_ + 1;
    height++;
  }
  return height;
}

uint32_t EpochTree::Depth(NodeId node) const {
  size_t i = IndexOf(node);
  if (i == kNone) {
    return 0;
  }
  uint32_t depth = 0;
  while (i > 0) {
    i = (i - 1) / fanout_;
    depth++;
  }
  return depth;
}

}  // namespace gms

// Property tests locking the hierarchical epoch aggregation to the flat
// algorithm: for every node count, fanout, summary permutation, and
// partial-arrival order, the tree-reduced EpochPlan must be bit-identical to
// ComputeEpochPlan over the same summaries. Also holds the reduction's
// algebraic properties (commutative, associative, duplicate-idempotent), the
// sparse wire form's exact round trip, the canonical tree shape, and the
// depth-scaled straggler window — including the cluster-level regression
// where a 3-level tree under delivery jitter must lose no summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/core/directory.h"
#include "src/core/epoch.h"

namespace gms {
namespace {

// A summary with random age mass (sometimes none) and random churn, spanning
// bucket indices from microseconds to weeks so ThresholdForCount lands in
// many different buckets across seeds.
EpochSummary RandomSummary(Rng& rng, NodeId node, uint64_t epoch) {
  EpochSummary s;
  s.epoch = epoch;
  s.node = node;
  const uint64_t entries = rng.NextBelow(8);  // 0 = an empty (busy) node
  for (uint64_t e = 0; e < entries; e++) {
    const uint64_t age_ns = 1ull << (10 + rng.NextBelow(42));
    s.ages.Add(age_ns, rng.NextBelow(500) + 1);
  }
  s.evictions = static_cast<uint32_t>(rng.NextBelow(1000));
  return s;
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>& v) {
  for (size_t i = v.size(); i > 1; i--) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// Simulates one aggregator: reduce the subtree rooted at `pos`, merging the
// node's own summary and its children's fully-reduced partials in a random
// interleaving — the wire protocol guarantees nothing about arrival order.
EpochPartial ReduceSubtree(const EpochTree& tree, size_t pos,
                           const std::vector<EpochSummary>& by_node,
                           uint64_t epoch, Rng& rng) {
  EpochAccumulator acc;
  acc.Reset(epoch, tree.At(pos));

  // -1 stands for "fold my own summary"; the rest are child positions.
  std::vector<size_t> steps = {static_cast<size_t>(-1)};
  const size_t first = pos * tree.fanout() + 1;
  for (size_t c = first; c < tree.size() && c < first + tree.fanout(); c++) {
    steps.push_back(c);
  }
  Shuffle(rng, steps);
  for (size_t step : steps) {
    if (step == static_cast<size_t>(-1)) {
      EXPECT_TRUE(acc.MergeSummary(by_node[tree.At(pos).value]));
    } else {
      const EpochPartial child = ReduceSubtree(tree, step, by_node, epoch, rng);
      EXPECT_TRUE(acc.MergePartial(child));
    }
  }
  return std::move(acc.partial);
}

// evictions must stay exactly the sum over the sparse per-node stats — the
// invariant every merge path preserves. (The merged age histogram is not
// stored: the root rebuilds it from these stats, and the tree-vs-flat plan
// identity below pins the result.)
void ExpectPartialConsistent(const EpochPartial& p) {
  uint64_t evictions = 0;
  for (const EpochNodeStat& n : p.nodes) {
    evictions += n.evictions;
  }
  ASSERT_EQ(evictions, p.evictions);
}

void ExpectPlansIdentical(const EpochPlan& a, const EpochPlan& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.min_age, b.min_age);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.next_initiator, b.next_initiator);
  EXPECT_EQ(a.max_weight, b.max_weight);  // exact: weights are integer counts
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); i++) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
  }
}

std::vector<NodeId> LiveNodes(uint32_t n) {
  std::vector<NodeId> live;
  for (uint32_t i = 0; i < n; i++) {
    live.push_back(NodeId{i});
  }
  return live;
}

// The nodes a Run stands for, in position order.
std::vector<NodeId> NodesOf(const EpochTree::Run& run,
                            const std::vector<NodeId>& live) {
  std::vector<NodeId> nodes;
  run.ForEach(live, [&](NodeId node) { nodes.push_back(node); });
  EXPECT_EQ(nodes.size(), run.size());
  return nodes;
}

TEST(EpochTreeTest, TreeMatchesFlatAcrossScalesAndFanouts) {
  for (uint32_t n : {1u, 2u, 17u, 100u, 1000u}) {
    for (uint32_t fanout : {2u, 4u, 16u, n}) {
      for (uint64_t seed = 1; seed <= 3; seed++) {
        Rng rng(seed * 7919 + n * 131 + fanout);
        const uint64_t epoch = 1 + rng.NextBelow(50);
        const SimTime last_duration =
            rng.NextBool(0.2) ? 0 : static_cast<SimTime>(rng.NextBelow(
                                        static_cast<uint64_t>(Seconds(20))));
        EpochConfig config;
        config.m_min = 16 + rng.NextBelow(256);
        const NodeId root{static_cast<uint32_t>(rng.NextBelow(n))};

        std::vector<EpochSummary> by_node;
        for (uint32_t i = 0; i < n; i++) {
          by_node.push_back(RandomSummary(rng, NodeId{i}, epoch));
        }

        // Flat: summaries arrive at the initiator in arbitrary order.
        std::vector<EpochSummary> arrival = by_node;
        Shuffle(rng, arrival);
        const EpochPlan flat = ComputeEpochPlan(config, epoch, n, arrival,
                                                last_duration, root);

        // Tree: reduce bottom-up with random per-aggregator interleavings.
        const std::vector<NodeId> live = LiveNodes(n);
        const EpochTree tree = EpochTree::Build(live, root, fanout);
        ASSERT_EQ(tree.size(), n);
        const EpochPartial reduced =
            ReduceSubtree(tree, 0, by_node, epoch, rng);
        ASSERT_EQ(reduced.nodes.size(), n);
        ExpectPartialConsistent(reduced);
        const EpochPlan treed = ComputeEpochPlanFromPartial(
            config, epoch, n, reduced, last_duration, root);

        SCOPED_TRACE(::testing::Message() << "n=" << n << " fanout=" << fanout
                                          << " seed=" << seed);
        ExpectPlansIdentical(flat, treed);
      }
    }
  }
}

TEST(EpochTreeTest, DuplicatedDeliveriesAreIdempotent) {
  Rng rng(42);
  const uint32_t n = 17;
  std::vector<EpochSummary> by_node;
  for (uint32_t i = 0; i < n; i++) {
    by_node.push_back(RandomSummary(rng, NodeId{i}, 7));
  }
  const std::vector<NodeId> live = LiveNodes(n);
  const EpochTree tree = EpochTree::Build(live, NodeId{3}, 2);

  EpochAccumulator acc;
  acc.Reset(7, NodeId{3});
  EXPECT_TRUE(acc.MergeSummary(by_node[3]));
  // The network may deliver any partial or summary twice; dedup is by node
  // id, so a replay must fold nothing.
  std::vector<EpochPartial> children;
  for (size_t c : {1u, 2u}) {
    children.push_back(ReduceSubtree(tree, c, by_node, 7, rng));
    EXPECT_TRUE(acc.MergePartial(children.back()));
    EXPECT_FALSE(acc.MergePartial(children.back()))
        << "duplicate folded twice";
  }
  EXPECT_FALSE(acc.MergeSummary(by_node[3]));
  ASSERT_EQ(acc.size(), n);
  ExpectPartialConsistent(acc.partial);
  EXPECT_TRUE(acc.MissingFrom(live).empty());

  const EpochPlan once = ComputeEpochPlanFromPartial(
      EpochConfig{}, 7, n, acc.partial, Seconds(5), NodeId{3});
  const EpochPlan flat = ComputeEpochPlan(EpochConfig{}, 7, n, by_node,
                                          Seconds(5), NodeId{3});
  ExpectPlansIdentical(once, flat);

  // A round's first fold comes before any index exists; replays of it, and
  // of any node it covers, must still fold nothing. The reset between
  // rounds forgets every node.
  for (int round = 0; round < 2; round++) {
    acc.Reset(8 + round, NodeId{3});
    EXPECT_TRUE(acc.MergePartial(children[0]));
    EXPECT_FALSE(acc.MergePartial(children[0])) << "round " << round;
    for (const EpochNodeStat& stat : children[0].nodes) {
      EXPECT_FALSE(acc.MergeStat(stat)) << "node " << stat.node.value;
    }
    EXPECT_TRUE(acc.MergeSummary(by_node[3]));
    ASSERT_EQ(acc.size(), children[0].nodes.size() + 1);
    ExpectPartialConsistent(acc.partial);
    // Missing is exactly the other child's subtree, in live order.
    std::vector<NodeId> other;
    for (const EpochNodeStat& stat : children[1].nodes) {
      other.push_back(stat.node);
    }
    std::sort(other.begin(), other.end());
    EXPECT_EQ(acc.MissingFrom(live), other);
  }
}

TEST(EpochTreeTest, OverlappingPartialsFoldOnlyNewNodes) {
  // A tree partial racing the root's direct re-request sweep: both carry
  // some of the same nodes. The overlap path must reconstruct exactly the
  // new nodes' histogram mass from the sparse stats.
  Rng rng(99);
  std::vector<EpochSummary> by_node;
  for (uint32_t i = 0; i < 6; i++) {
    by_node.push_back(RandomSummary(rng, NodeId{i}, 3));
  }
  EpochAccumulator left;
  left.Reset(3);
  for (uint32_t i : {0u, 1u, 2u, 3u}) {
    left.MergeSummary(by_node[i]);
  }
  EpochAccumulator right;
  right.Reset(3);
  for (uint32_t i : {2u, 3u, 4u, 5u}) {
    right.MergeSummary(by_node[i]);
  }
  EXPECT_TRUE(left.MergePartial(right.partial));
  ASSERT_EQ(left.size(), 6u);
  ExpectPartialConsistent(left.partial);
  ExpectPlansIdentical(
      ComputeEpochPlanFromPartial(EpochConfig{}, 3, 6, left.partial,
                                  Seconds(5), NodeId{0}),
      ComputeEpochPlan(EpochConfig{}, 3, 6, by_node, Seconds(5), NodeId{0}));
}

TEST(EpochTreeTest, MergeIsCommutativeAndAssociative) {
  Rng rng(7);
  std::vector<EpochSummary> by_node;
  for (uint32_t i = 0; i < 9; i++) {
    by_node.push_back(RandomSummary(rng, NodeId{i}, 1));
  }
  auto partial_of = [&](std::initializer_list<uint32_t> ids) {
    EpochAccumulator p;
    p.Reset(1);
    for (uint32_t i : ids) {
      p.MergeSummary(by_node[i]);
    }
    return p;
  };
  auto plan_of = [&](const EpochAccumulator& p) {
    return ComputeEpochPlanFromPartial(EpochConfig{}, 1, 9, p.partial,
                                       Seconds(5), NodeId{0});
  };

  const EpochAccumulator a = partial_of({0, 1, 2});
  const EpochAccumulator b = partial_of({3, 4, 5});
  const EpochAccumulator c = partial_of({6, 7, 8});

  EpochAccumulator ab = a;
  ab.MergePartial(b.partial);
  EpochAccumulator ba = b;
  ba.MergePartial(a.partial);
  ExpectPlansIdentical(plan_of(ab), plan_of(ba));  // commutative

  EpochAccumulator ab_c = ab;
  ab_c.MergePartial(c.partial);
  EpochAccumulator bc = b;
  bc.MergePartial(c.partial);
  EpochAccumulator a_bc = a;
  a_bc.MergePartial(bc.partial);
  ExpectPlansIdentical(plan_of(ab_c), plan_of(a_bc));  // associative
  ExpectPartialConsistent(ab_c.partial);
  ExpectPartialConsistent(a_bc.partial);
}

TEST(EpochTreeTest, CompressExpandRoundTripIsExact) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; trial++) {
    const EpochSummary s = RandomSummary(rng, NodeId{1}, 1);
    const EpochNodeStat stat = CompressSummary(s);
    const LogHistogram back = ExpandAges(stat);
    EXPECT_EQ(back.total(), s.ages.total());
    for (int i = 0; i < LogHistogram::kNumBuckets; i++) {
      ASSERT_EQ(back.bucket(i), s.ages.bucket(i)) << "bucket " << i;
    }
    // The sparse suffix sum must agree with the dense one at every bucket
    // lower bound (the only thresholds min_age can take) and at the edges.
    for (int i = 0; i < LogHistogram::kNumBuckets; i++) {
      const uint64_t t = LogHistogram::BucketLowerBound(i);
      ASSERT_EQ(SparseCountAtOrAbove(stat, t), s.ages.CountAtOrAbove(t))
          << "threshold bucket " << i;
    }
    EXPECT_EQ(SparseCountAtOrAbove(stat, 0), s.ages.total());
    EXPECT_EQ(SparseCountAtOrAbove(stat, UINT64_MAX), 0u);
  }
}

TEST(EpochTreeTest, TreeShapeIsCanonicalAndConsistent) {
  Rng rng(5);
  for (uint32_t n : {1u, 2u, 17u, 100u}) {
    for (uint32_t fanout : {0u, 2u, 4u, 16u, n}) {
      const NodeId root{n / 2};
      std::vector<NodeId> joined = LiveNodes(n);
      Shuffle(rng, joined);  // membership join order must not matter
      // Pod::Build sorts the membership; the tree is a view over that order.
      const PodTable pod = Pod::Build(1, joined);
      const std::vector<NodeId> sorted_live = LiveNodes(n);
      const EpochTree tree = EpochTree::Build(pod.live, root, fanout);
      const EpochTree sorted = EpochTree::Build(sorted_live, root, fanout);
      ASSERT_EQ(tree.size(), sorted.size());
      std::vector<NodeId> order;
      for (size_t pos = 0; pos < tree.size(); pos++) {
        ASSERT_EQ(tree.At(pos), sorted.At(pos));
        order.push_back(tree.At(pos));
      }

      // Coverage: every node exactly once, root in front.
      ASSERT_EQ(tree.size(), n);
      ASSERT_EQ(tree.At(0), root);
      std::vector<NodeId> seen = order;
      std::sort(seen.begin(), seen.end(),
                [](NodeId a, NodeId b) { return a.value < b.value; });
      ASSERT_EQ(seen, LiveNodes(n));

      ASSERT_EQ(tree.SubtreeSize(0), n);
      EXPECT_EQ(tree.Parent(0), EpochTree::kNone);
      size_t covered = 1;
      for (NodeId node : order) {
        const size_t pos = tree.IndexOf(node);
        ASSERT_EQ(tree.At(pos), node);
        size_t child_total = 0;
        for (NodeId child : NodesOf(tree.Children(pos), pod.live)) {
          const size_t c = tree.IndexOf(child);
          EXPECT_EQ(tree.Parent(c), pos);
          EXPECT_GT(tree.Depth(c), tree.Depth(pos));
          child_total += tree.SubtreeSize(c);
          covered++;
        }
        // A node's subtree is itself plus its children's subtrees.
        EXPECT_EQ(tree.SubtreeSize(pos), child_total + 1);
        EXPECT_LE(tree.Depth(pos), tree.SubtreeHeight(0));
      }
      EXPECT_EQ(covered, n);  // parent/child edges span the whole tree

      if ((fanout == 0 || fanout >= n) && n > 1) {
        // Fanout 0 is the flat round's star; fanout >= n degenerates to one.
        EXPECT_EQ(tree.Children(0).size(), n - 1);
        EXPECT_EQ(tree.SubtreeHeight(0), 1u);
      }
      EXPECT_EQ(tree.IndexOf(NodeId{n + 100}), EpochTree::kNone);
    }
  }
}

// The form the index view replaced: the order materialized as a vector
// (root first, then every other live node by id) with the heap arithmetic
// applied to it directly, and every other query answered by recursion over
// the children.
struct NaiveTree {
  std::vector<NodeId> order;
  size_t fanout = 1;

  std::vector<size_t> ChildPositions(size_t pos) const {
    std::vector<size_t> children;
    for (size_t c = pos * fanout + 1;
         c < order.size() && c < pos * fanout + 1 + fanout; c++) {
      children.push_back(c);
    }
    return children;
  }
  std::vector<NodeId> Children(size_t pos) const {
    std::vector<NodeId> children;
    for (size_t c : ChildPositions(pos)) {
      children.push_back(order[c]);
    }
    return children;
  }
  size_t SubtreeSize(size_t pos) const {
    size_t total = 1;
    for (size_t c : ChildPositions(pos)) {
      total += SubtreeSize(c);
    }
    return total;
  }
  uint32_t SubtreeHeight(size_t pos) const {
    uint32_t height = 0;
    for (size_t c : ChildPositions(pos)) {
      height = std::max(height, SubtreeHeight(c) + 1);
    }
    return height;
  }
  // Parents by search: the position whose children list `pos`.
  size_t Parent(size_t pos) const {
    for (size_t p = 0; p < order.size(); p++) {
      const std::vector<size_t> children = ChildPositions(p);
      if (std::find(children.begin(), children.end(), pos) != children.end()) {
        return p;
      }
    }
    return EpochTree::kNone;
  }
};

NaiveTree MaterializeTree(std::vector<NodeId> live, NodeId root,
                          uint32_t fanout) {
  NaiveTree tree;
  std::sort(live.begin(), live.end());
  tree.order.push_back(root);
  for (NodeId node : live) {
    if (node != root) {
      tree.order.push_back(node);
    }
  }
  tree.fanout = fanout > 0 ? fanout
                           : std::max<size_t>(tree.order.size() - 1, 1);
  return tree;
}

// The view borrows its live list, so a temporary must not bind to Build.
template <typename Live>
constexpr bool kBuildsFrom = requires(Live live) {
  EpochTree::Build(std::move(live), NodeId{}, 0u);
};
static_assert(kBuildsFrom<const std::vector<NodeId>&>);
static_assert(!kBuildsFrom<std::vector<NodeId>>);

TEST(EpochTreeTest, IndexViewMatchesMaterializedOrder) {
  Rng rng(11);
  for (uint32_t n : {1u, 2u, 5u, 33u, 200u}) {
    for (uint32_t fanout : {0u, 1u, 3u, 16u}) {
      for (bool root_live : {true, false}) {
        // Live ids are 1 mod 3, so ranks differ from ids; an absent root is
        // 2 mod 3, anywhere from below the first member to past the last;
        // id 0 is never in the tree.
        std::vector<NodeId> joined;
        for (uint32_t i = 0; i < n; i++) {
          joined.push_back(NodeId{i * 3 + 1});
        }
        const NodeId root =
            root_live ? joined[rng.NextBelow(n)]
                      : NodeId{static_cast<uint32_t>(rng.NextBelow(n + 1)) * 3 +
                               2};
        Shuffle(rng, joined);
        const PodTable pod = Pod::Build(1, joined);
        const EpochTree tree = EpochTree::Build(pod.live, root, fanout);
        const NaiveTree naive = MaterializeTree(joined, root, fanout);
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " fanout=" << fanout
                     << " root=" << root.value << " live=" << root_live);

        ASSERT_EQ(tree.size(), naive.order.size());
        ASSERT_EQ(tree.fanout(), naive.fanout);
        for (size_t pos = 0; pos < naive.order.size(); pos++) {
          const NodeId node = naive.order[pos];
          ASSERT_EQ(tree.At(pos), node) << "pos " << pos;
          EXPECT_EQ(tree.IndexOf(node), pos);
          EXPECT_EQ(NodesOf(tree.Children(pos), pod.live),
                    naive.Children(pos));
          EXPECT_EQ(tree.SubtreeSize(pos), naive.SubtreeSize(pos));
        }
        EXPECT_EQ(tree.IndexOf(NodeId{0}), EpochTree::kNone);
      }
    }
  }
}

// Every question a round asks is answered by position, once the node has
// placed itself: children, subtree size and height, depth and parent must
// match the materialized tree at every position, across sizes from a lone
// root to 1000 nodes, the flat star (fanout 0), a chain (fanout 1), and a
// root inside or outside the live list.
TEST(EpochTreeTest, PositionQueriesMatchMaterializedTree) {
  Rng rng(23);
  for (uint32_t n : {1u, 2u, 17u, 257u, 1000u}) {
    for (uint32_t fanout : {0u, 1u, 2u, 16u}) {
      for (bool root_live : {true, false}) {
        // Live ids are 1 mod 3 and the absent root is 2 mod 3, as above.
        std::vector<NodeId> live;
        for (uint32_t i = 0; i < n; i++) {
          live.push_back(NodeId{i * 3 + 1});
        }
        const NodeId root =
            root_live ? live[rng.NextBelow(n)]
                      : NodeId{static_cast<uint32_t>(rng.NextBelow(n + 1)) * 3 +
                               2};
        const EpochTree tree = EpochTree::Build(live, root, fanout);
        const NaiveTree naive = MaterializeTree(live, root, fanout);
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " fanout=" << fanout
                     << " root=" << root.value << " live=" << root_live);
        ASSERT_EQ(tree.size(), naive.order.size());

        // Depth by walking the naive parents down from the root.
        std::vector<uint32_t> depth(naive.order.size(), 0);
        for (size_t pos = 0; pos < naive.order.size(); pos++) {
          for (size_t c : naive.ChildPositions(pos)) {
            depth[c] = depth[pos] + 1;
          }
        }
        for (size_t pos = 0; pos < naive.order.size(); pos++) {
          ASSERT_EQ(tree.At(pos), naive.order[pos]) << "pos " << pos;
          EXPECT_EQ(tree.IndexOf(naive.order[pos]), pos);
          EXPECT_EQ(NodesOf(tree.Children(pos), live), naive.Children(pos))
              << "pos " << pos;
          EXPECT_EQ(tree.SubtreeSize(pos), naive.SubtreeSize(pos))
              << "pos " << pos;
          EXPECT_EQ(tree.SubtreeHeight(pos), naive.SubtreeHeight(pos))
              << "pos " << pos;
          EXPECT_EQ(tree.Depth(pos), depth[pos]) << "pos " << pos;
          EXPECT_EQ(tree.Parent(pos), naive.Parent(pos)) << "pos " << pos;
        }
      }
    }
  }
}

TEST(EpochTreeTest, CollectTimeoutScalesWithSubtreeHeight) {
  EpochConfig config;
  config.summary_timeout = Milliseconds(100);
  // The flat protocol and one-hop aggregators keep the base window exactly —
  // this is what keeps flat-mode goldens byte-identical.
  EXPECT_EQ(TreeCollectTimeout(config, 0), Milliseconds(100));
  EXPECT_EQ(TreeCollectTimeout(config, 1), Milliseconds(100));
  for (uint32_t h = 2; h < 10; h++) {
    EXPECT_EQ(TreeCollectTimeout(config, h),
              config.summary_timeout * static_cast<SimTime>(h));
    EXPECT_GT(TreeCollectTimeout(config, h), TreeCollectTimeout(config, h - 1));
  }
  // A 1000-node fanout-2 tree is ~9 levels; the root's window must cover
  // every level below it.
  const std::vector<NodeId> live = LiveNodes(1000);
  const EpochTree tree = EpochTree::Build(live, NodeId{0}, 2);
  EXPECT_GE(TreeCollectTimeout(config, tree.SubtreeHeight(0)),
            config.summary_timeout *
                static_cast<SimTime>(tree.SubtreeHeight(0)));
}

// --- cluster-level regressions ---------------------------------------------

std::unique_ptr<Cluster> IdleCluster(uint32_t nodes, uint32_t fanout) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = PolicyKind::kGms;
  config.frames = 256;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.epoch.fanout = fanout;
  auto cluster = std::make_unique<Cluster>(config);
  cluster->Start();
  return cluster;
}

// The timeout-depth regression (satellite of the aggregation-tree change):
// with a per-level straggler window, a 3-level tree under maximal delivery
// jitter must still collect every node's summary — visible as every idle
// node holding nonzero weight, because each folds its free frames into its
// summary. A flat-sized window at the root would cut the deepest level off.
TEST(EpochTreeTest, ThreeLevelTreeUnderJitterLosesNoSummaries) {
  // 13 nodes at fanout 3: root -> 3 interiors -> 9 leaves (depth 2, so the
  // root's window is 3x the base).
  auto cluster = IdleCluster(13, 3);
  Network& net = cluster->net();
  net.EnableFaultInjection(0x7ee5);
  FaultSpec faults;
  faults.delay_jitter = Milliseconds(60);  // most of one per-level window
  net.SetDefaultFaults(faults);
  cluster->sim().RunFor(Seconds(5));

  const EpochView& root_view = cluster->gms_agent(NodeId{0})->epoch_view();
  ASSERT_GE(root_view.epoch, 1u);
  for (uint32_t i = 0; i < 13; i++) {
    const EpochView& v = cluster->gms_agent(NodeId{i})->epoch_view();
    EXPECT_EQ(v.epoch, root_view.epoch) << "node " << i;
    EXPECT_EQ(v.min_age, root_view.min_age) << "node " << i;
    EXPECT_EQ(v.budget, root_view.budget) << "node " << i;
    // Lost summaries would zero this node's weight in the adopted plan.
    EXPECT_GT(v.my_weight, 0) << "node " << i << " summary was lost";
  }
}

// On an idle cluster the summaries are time-invariant (only free frames, at
// a fixed credited age), so the tree and flat protocols must adopt identical
// epoch parameters even though their rounds run on different schedules.
TEST(EpochTreeTest, TreeAndFlatClustersAdoptIdenticalFirstEpoch) {
  auto flat = IdleCluster(13, 0);
  auto tree = IdleCluster(13, 3);
  flat->sim().RunFor(Seconds(2));
  tree->sim().RunFor(Seconds(2));
  const EpochView& f = flat->gms_agent(NodeId{5})->epoch_view();
  const EpochView& t = tree->gms_agent(NodeId{5})->epoch_view();
  ASSERT_GE(f.epoch, 1u);
  ASSERT_GE(t.epoch, 1u);
  EXPECT_EQ(f.min_age, t.min_age);
  EXPECT_EQ(f.budget, t.budget);
  EXPECT_EQ(f.duration, t.duration);
  EXPECT_EQ(f.my_weight, t.my_weight);
}

}  // namespace
}  // namespace gms

// Tests for the access-pattern primitives and the application models.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "src/core/directory.h"
#include "src/workload/applications.h"
#include "src/workload/patterns.h"

namespace gms {
namespace {

PageSet TestSet(uint64_t pages) {
  return PageSet{MakeFileUid(NodeId{0}, 1, 0), pages};
}

TEST(PatternsTest, SequentialCyclesInOrder) {
  Rng rng(1);
  SequentialPattern p(TestSet(4), 10, Microseconds(5));
  std::vector<uint32_t> offsets;
  while (auto op = p.Next(rng)) {
    offsets.push_back(op->uid.page_offset());
    EXPECT_EQ(op->compute, Microseconds(5));
  }
  EXPECT_EQ(offsets,
            (std::vector<uint32_t>{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}));
}

TEST(PatternsTest, SequentialWriteFraction) {
  Rng rng(1);
  SequentialPattern p(TestSet(16), 2000, 0, /*write_fraction=*/0.5);
  int writes = 0;
  while (auto op = p.Next(rng)) {
    writes += op->write;
  }
  EXPECT_GT(writes, 800);
  EXPECT_LT(writes, 1200);
}

TEST(PatternsTest, FinishedPatternStaysFinished) {
  Rng rng(1);
  SequentialPattern p(TestSet(4), 2, 0);
  EXPECT_TRUE(p.Next(rng).has_value());
  EXPECT_TRUE(p.Next(rng).has_value());
  EXPECT_FALSE(p.Next(rng).has_value());
  EXPECT_FALSE(p.Next(rng).has_value());
}

TEST(PatternsTest, UniformRandomStaysInSet) {
  Rng rng(2);
  UniformRandomPattern p(TestSet(32), 5000, 0);
  std::set<uint32_t> seen;
  while (auto op = p.Next(rng)) {
    ASSERT_LT(op->uid.page_offset(), 32u);
    seen.insert(op->uid.page_offset());
  }
  EXPECT_EQ(seen.size(), 32u);  // covers the whole set
}

TEST(PatternsTest, ZipfSkewsTowardHotPages) {
  Rng rng(3);
  ZipfPattern p(TestSet(1024), 20000, 0, /*theta=*/0.8);
  std::unordered_map<uint32_t, int> counts;
  while (auto op = p.Next(rng)) {
    counts[op->uid.page_offset()]++;
  }
  int max_count = 0;
  for (auto& [off, c] : counts) {
    max_count = std::max(max_count, c);
  }
  // The hottest page is far above the uniform expectation (~20).
  EXPECT_GT(max_count, 200);
}

TEST(PatternsTest, ClusteredWalkHasRuns) {
  Rng rng(4);
  ClusteredWalkPattern p(TestSet(10000), 5000, 0, /*mean_run=*/8.0);
  uint32_t prev = UINT32_MAX;
  int sequential_steps = 0;
  int total = 0;
  while (auto op = p.Next(rng)) {
    if (prev != UINT32_MAX && op->uid.page_offset() == prev + 1) {
      sequential_steps++;
    }
    prev = op->uid.page_offset();
    total++;
  }
  // Most steps continue a run.
  EXPECT_GT(sequential_steps, total / 2);
}

TEST(PatternsTest, ClusteredWalkStrideScattersRuns) {
  Rng rng(4);
  ClusteredWalkPattern p(TestSet(10000), 1000, 0, 8.0, 0.0, /*stride=*/397);
  uint32_t prev = UINT32_MAX;
  int adjacent = 0;
  while (auto op = p.Next(rng)) {
    if (prev != UINT32_MAX && op->uid.page_offset() == prev + 1) {
      adjacent++;
    }
    prev = op->uid.page_offset();
  }
  EXPECT_LT(adjacent, 10);  // disk-adjacent steps essentially vanish
}

TEST(PatternsTest, SlidingWindowAdvances) {
  Rng rng(5);
  SlidingWindowPattern p(TestSet(1 << 20), 10000, 0, /*window_pages=*/256,
                         /*advance_every=*/2, /*theta=*/0.5);
  uint32_t max_offset = 0;
  while (auto op = p.Next(rng)) {
    max_offset = std::max(max_offset, op->uid.page_offset());
  }
  // After 10000 ops with advance-every-2, the window start has moved ~5000.
  EXPECT_GT(max_offset, 4000u);
}

TEST(PatternsTest, ChainRunsPhasesInOrder) {
  Rng rng(6);
  std::vector<std::unique_ptr<AccessPattern>> phases;
  phases.push_back(std::make_unique<SequentialPattern>(TestSet(4), 2, 0));
  phases.push_back(std::make_unique<SequentialPattern>(
      PageSet{MakeFileUid(NodeId{0}, 2, 0), 4}, 2, 0));
  ChainPattern chain(std::move(phases));
  EXPECT_EQ(chain.Next(rng)->uid.inode(), 1u);
  EXPECT_EQ(chain.Next(rng)->uid.inode(), 1u);
  EXPECT_EQ(chain.Next(rng)->uid.inode(), 2u);
  EXPECT_EQ(chain.Next(rng)->uid.inode(), 2u);
  EXPECT_FALSE(chain.Next(rng).has_value());
}

TEST(PatternsTest, InterleaveMixesSources) {
  Rng rng(7);
  auto a = std::make_unique<SequentialPattern>(TestSet(4), 100000, 0);
  auto b = std::make_unique<SequentialPattern>(
      PageSet{MakeFileUid(NodeId{0}, 2, 0), 4}, 100000, 0);
  InterleavePattern mix(std::move(a), std::move(b), 0.25);
  int from_a = 0;
  for (int i = 0; i < 4000; i++) {
    auto op = mix.Next(rng);
    ASSERT_TRUE(op.has_value());
    from_a += (op->uid.inode() == 1);
  }
  EXPECT_GT(from_a, 800);
  EXPECT_LT(from_a, 1200);
}

TEST(PatternsTest, TraceReplaysVerbatim) {
  std::vector<AccessOp> trace;
  for (uint32_t i = 0; i < 5; i++) {
    trace.push_back(AccessOp{Microseconds(i), MakeFileUid(NodeId{0}, 1, i),
                             i % 2 == 0});
  }
  Rng rng(8);
  TracePattern p(trace);
  for (uint32_t i = 0; i < 5; i++) {
    auto op = p.Next(rng);
    ASSERT_TRUE(op.has_value());
    EXPECT_EQ(op->uid.page_offset(), i);
    EXPECT_EQ(op->compute, Microseconds(i));
  }
  EXPECT_FALSE(p.Next(rng).has_value());
}

// --- application models ---

class AppModelTest : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppModelTest, ProducesOpsWithinFootprint) {
  const AppKind kind = GetParam();
  AppSpec spec = MakeApp(kind, NodeId{0}, NodeId{1}, /*scale=*/0.05, /*seed=*/3);
  ASSERT_NE(spec.pattern, nullptr);
  EXPECT_GT(spec.footprint_pages, 0u);
  Rng rng(9);
  std::set<Uid> distinct;
  uint64_t ops = 0;
  while (auto op = spec.pattern->Next(rng)) {
    ASSERT_TRUE(op->uid.valid());
    distinct.insert(op->uid);
    ops++;
    ASSERT_LT(ops, 10'000'000u) << "model does not terminate";
  }
  EXPECT_GT(ops, 100u);
  // The model touches a meaningful fraction of (and no more than ~its)
  // declared footprint.
  EXPECT_GT(distinct.size(), spec.footprint_pages / 8);
  EXPECT_LE(distinct.size(), spec.footprint_pages + 64);
}

TEST_P(AppModelTest, DeterministicForSeed) {
  const AppKind kind = GetParam();
  AppSpec a = MakeApp(kind, NodeId{0}, NodeId{1}, 0.05, 7);
  AppSpec b = MakeApp(kind, NodeId{0}, NodeId{1}, 0.05, 7);
  Rng ra(11), rb(11);
  for (int i = 0; i < 2000; i++) {
    auto oa = a.pattern->Next(ra);
    auto ob = b.pattern->Next(rb);
    ASSERT_EQ(oa.has_value(), ob.has_value());
    if (!oa.has_value()) {
      break;
    }
    ASSERT_EQ(oa->uid, ob->uid);
    ASSERT_EQ(oa->compute, ob->compute);
    ASSERT_EQ(oa->write, ob->write);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppModelTest,
                         ::testing::Values(AppKind::kBoeingCad,
                                           AppKind::kVlsiRouter,
                                           AppKind::kCompileAndLink,
                                           AppKind::kOO7, AppKind::kRender,
                                           AppKind::kWebQuery),
                         [](const auto& info) {
                           switch (info.param) {
                             case AppKind::kBoeingCad: return "BoeingCad";
                             case AppKind::kVlsiRouter: return "VlsiRouter";
                             case AppKind::kCompileAndLink: return "CompileAndLink";
                             case AppKind::kOO7: return "OO7";
                             case AppKind::kRender: return "Render";
                             case AppKind::kWebQuery: return "WebQuery";
                           }
                           return "Unknown";
                         });

TEST(AppModelTest2, ScaleGrowsFootprint) {
  AppSpec small = MakeOO7(NodeId{0}, 0.05);
  AppSpec large = MakeOO7(NodeId{0}, 0.5);
  EXPECT_GT(large.footprint_pages, small.footprint_pages * 5);
}

TEST(AppModelTest2, CadUsesFileServer) {
  AppSpec spec = MakeBoeingCad(NodeId{0}, NodeId{7}, 0.05, 1);
  Rng rng(1);
  auto op = spec.pattern->Next(rng);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(NodeOfIp(op->uid.ip()), NodeId{7});
  EXPECT_TRUE(IsShared(op->uid));
}

// FNV-1a over every op of a pattern, with the op count.
std::pair<uint64_t, uint64_t> OpStreamDigest(AccessPattern& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  Rng rng(1);
  uint64_t ops = 0;
  while (auto op = p.Next(rng)) {
    mix(static_cast<uint64_t>(op->compute));
    mix(op->uid.hi);
    mix(op->uid.lo);
    mix(op->write ? 1 : 0);
    ops++;
  }
  return {h, ops};
}

// The paper-size CAD session (seed 5) is pinned op for op: recorded when
// the model still materialized its whole trace before replaying it.
TEST(AppModelTest2, CadSessionStreamIsPinned) {
  AppSpec spec = MakeBoeingCad(NodeId{0}, NodeId{9}, 1.0, 5);
  const auto [digest, ops] = OpStreamDigest(*spec.pattern);
  EXPECT_EQ(ops, 320000u);
  EXPECT_EQ(digest, 0x1c76b7d51a842427ULL) << std::hex << digest;
  Rng rng(2);
  EXPECT_FALSE(spec.pattern->Next(rng).has_value());  // stays finished
}

}  // namespace
}  // namespace gms

// Property tests pinning GhostCache to a naive reference simulator: for
// every kind (LRU, LFU, MRU) the hit/miss sequence over random traces must
// be BIT-identical — including capacity changes mid-trace. The reference
// keeps an explicit vector of (uid, freq, last-touch stamp) and does the
// obvious O(n) scan per operation; any divergence in the optimized
// open-addressing + intrusive-bucket implementation shows up as the first
// mismatching access index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/common/uid.h"
#include "src/core/directory.h"
#include "src/mem/ghost_cache.h"

namespace gms {
namespace {

// The reference: a literal transcription of the semantics documented in
// ghost_cache.h, favoring obviousness over speed.
class ReferenceGhost {
 public:
  ReferenceGhost(GhostKind kind, uint32_t capacity)
      : kind_(kind), capacity_(capacity) {}

  bool Access(const Uid& uid) {
    stamp_++;
    for (Entry& e : entries_) {
      if (e.uid == uid) {
        e.freq = e.freq < 255 ? e.freq + 1 : 255;
        e.stamp = stamp_;
        return true;
      }
    }
    if (capacity_ == 0) {
      return false;
    }
    if (entries_.size() >= capacity_) {
      Evict();
    }
    entries_.push_back(Entry{uid, 1, stamp_});
    return false;
  }

  void set_capacity(uint32_t capacity) {
    capacity_ = capacity;
    while (entries_.size() > capacity_) {
      Evict();
    }
  }

  bool Erase(const Uid& uid) {
    for (size_t i = 0; i < entries_.size(); i++) {
      if (entries_[i].uid == uid) {
        entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  uint8_t Frequency(const Uid& uid) const {
    for (const Entry& e : entries_) {
      if (e.uid == uid) {
        return static_cast<uint8_t>(e.freq);
      }
    }
    return 0;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Uid uid;
    uint32_t freq;
    uint64_t stamp;  // last-touch time; larger = more recent
  };

  void Evict() {
    ASSERT_FALSE(entries_.empty());
    size_t victim = 0;
    for (size_t i = 1; i < entries_.size(); i++) {
      const Entry& e = entries_[i];
      const Entry& v = entries_[victim];
      switch (kind_) {
        case GhostKind::kLru:
          if (e.stamp < v.stamp) {
            victim = i;
          }
          break;
        case GhostKind::kMru:
          if (e.stamp > v.stamp) {
            victim = i;
          }
          break;
        case GhostKind::kLfu:
          // Lowest frequency, ties broken by least recent use.
          if (e.freq < v.freq || (e.freq == v.freq && e.stamp < v.stamp)) {
            victim = i;
          }
          break;
      }
    }
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(victim));
  }

  GhostKind kind_;
  uint32_t capacity_;
  uint64_t stamp_ = 0;
  std::vector<Entry> entries_;
};

Uid TestUid(uint64_t page) {
  return MakeAnonUid(NodeId{0}, 1, page);
}

class GhostCacheKindTest : public ::testing::TestWithParam<GhostKind> {};

TEST_P(GhostCacheKindTest, MatchesReferenceOnRandomTraces) {
  const GhostKind kind = GetParam();
  // Several (capacity, universe, length) shapes: thrashing (universe >>
  // capacity), comfortable (universe < capacity), and boundary sizes.
  struct Shape {
    uint32_t capacity;
    uint64_t universe;
    int accesses;
  };
  for (const Shape& shape : {Shape{1, 4, 300}, Shape{7, 5, 500},
                             Shape{16, 64, 2000}, Shape{64, 48, 2000},
                             Shape{128, 1024, 4000}}) {
    for (uint64_t seed = 1; seed <= 5; seed++) {
      Rng rng(seed * 1000003 + static_cast<uint64_t>(kind) * 1000 +
              shape.capacity);
      GhostCache ghost(kind, shape.capacity);
      ReferenceGhost ref(kind, shape.capacity);
      for (int i = 0; i < shape.accesses; i++) {
        const Uid uid = TestUid(rng.NextBelow(shape.universe));
        const bool got = ghost.Access(uid);
        const bool want = ref.Access(uid);
        ASSERT_EQ(got, want)
            << GhostKindName(kind) << " diverged at access " << i
            << " (capacity " << shape.capacity << ", universe "
            << shape.universe << ", seed " << seed << ")";
        ASSERT_EQ(ghost.size(), ref.size()) << "size diverged at " << i;
      }
      EXPECT_EQ(ghost.hits() + ghost.misses(),
                static_cast<uint64_t>(shape.accesses));
    }
  }
}

TEST_P(GhostCacheKindTest, MatchesReferenceAcrossCapacityChanges) {
  const GhostKind kind = GetParam();
  constexpr uint32_t kMaxCapacity = 96;
  for (uint64_t seed = 1; seed <= 8; seed++) {
    Rng rng((0xCAFE + seed) * 7919 + static_cast<uint64_t>(kind));
    GhostCache ghost(kind, kMaxCapacity);
    ReferenceGhost ref(kind, kMaxCapacity);
    for (int i = 0; i < 4000; i++) {
      if (rng.NextBelow(100) < 3) {
        // Mid-trace resize, anywhere in [0, max]: shrinking must evict down
        // with the kind's own rule, growing must admit future references.
        const uint32_t cap =
            static_cast<uint32_t>(rng.NextBelow(kMaxCapacity + 1));
        ghost.set_capacity(cap);
        ref.set_capacity(cap);
        ASSERT_EQ(ghost.size(), ref.size())
            << GhostKindName(kind) << " size diverged after resize to " << cap
            << " at step " << i << " (seed " << seed << ")";
      }
      const Uid uid = TestUid(rng.NextBelow(256));
      ASSERT_EQ(ghost.Access(uid), ref.Access(uid))
          << GhostKindName(kind) << " diverged at access " << i << " (seed "
          << seed << ")";
    }
  }
}

TEST_P(GhostCacheKindTest, FrequencyMatchesReference) {
  const GhostKind kind = GetParam();
  Rng rng(77 * 104729 + static_cast<uint64_t>(kind));
  GhostCache ghost(kind, 32);
  ReferenceGhost ref(kind, 32);
  for (int i = 0; i < 3000; i++) {
    const Uid uid = TestUid(rng.NextBelow(64));
    ASSERT_EQ(ghost.Access(uid), ref.Access(uid)) << "at access " << i;
    const Uid probe = TestUid(rng.NextBelow(64));
    ASSERT_EQ(ghost.Frequency(probe), ref.Frequency(probe))
        << "frequency diverged for probe at access " << i;
    ASSERT_EQ(ghost.Contains(probe), ref.Frequency(probe) > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GhostCacheKindTest,
                         ::testing::Values(GhostKind::kLru, GhostKind::kLfu,
                                           GhostKind::kMru),
                         [](const ::testing::TestParamInfo<GhostKind>& info) {
                           std::string name = GhostKindName(info.param);
                           name[0] = static_cast<char>(std::toupper(name[0]));
                           return name;
                         });

// Kind-specific spot checks: tiny hand-computed traces that would catch a
// systematically wrong (but internally consistent) reference simulator.
TEST(GhostCacheTest, LruEvictsLeastRecentlyUsed) {
  GhostCache g(GhostKind::kLru, 2);
  const Uid a = TestUid(1), b = TestUid(2), c = TestUid(3);
  EXPECT_FALSE(g.Access(a));
  EXPECT_FALSE(g.Access(b));
  EXPECT_TRUE(g.Access(a));   // a now most recent
  EXPECT_FALSE(g.Access(c));  // evicts b
  EXPECT_TRUE(g.Contains(a));
  EXPECT_FALSE(g.Contains(b));
}

TEST(GhostCacheTest, MruEvictsMostRecentlyUsed) {
  GhostCache g(GhostKind::kMru, 2);
  const Uid a = TestUid(1), b = TestUid(2), c = TestUid(3);
  EXPECT_FALSE(g.Access(a));
  EXPECT_FALSE(g.Access(b));
  EXPECT_FALSE(g.Access(c));  // evicts b (the most recent)
  EXPECT_TRUE(g.Contains(a));
  EXPECT_FALSE(g.Contains(b));
  EXPECT_TRUE(g.Contains(c));
}

TEST(GhostCacheTest, LfuEvictsLowestFrequencyWithLruTieBreak) {
  GhostCache g(GhostKind::kLfu, 3);
  const Uid a = TestUid(1), b = TestUid(2), c = TestUid(3), d = TestUid(4);
  g.Access(a);
  g.Access(a);  // freq(a) = 2
  g.Access(b);  // freq(b) = 1
  g.Access(c);  // freq(c) = 1, more recent than b
  EXPECT_FALSE(g.Access(d));  // evicts b: lowest freq, least recent
  EXPECT_TRUE(g.Contains(a));
  EXPECT_FALSE(g.Contains(b));
  EXPECT_TRUE(g.Contains(c));
  EXPECT_EQ(g.Frequency(a), 2);
}

TEST(GhostCacheTest, CapacityZeroNeverAdmits) {
  GhostCache g(GhostKind::kLru, 4);
  g.set_capacity(0);
  const Uid a = TestUid(1);
  EXPECT_FALSE(g.Access(a));
  EXPECT_FALSE(g.Access(a));  // still a miss: nothing was admitted
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.misses(), 2u);
}

// Erase (the far tier's exclusive promotion) drops exactly one page, counts
// neither a hit nor a miss, and leaves every kind's replacement order intact.
TEST(GhostCacheTest, EraseMatchesReferenceForEveryKind) {
  {
    GhostCache g(GhostKind::kLru, 2);
    const Uid a = TestUid(1), b = TestUid(2), c = TestUid(3);
    g.Access(a);
    g.Access(b);
    EXPECT_TRUE(g.Erase(a));
    EXPECT_FALSE(g.Erase(a));  // already gone
    EXPECT_EQ(g.size(), 1u);
    EXPECT_EQ(g.hits() + g.misses(), 2u);
    EXPECT_FALSE(g.Access(c));  // fills the freed slot: nothing evicted
    EXPECT_TRUE(g.Contains(b));
    EXPECT_TRUE(g.Contains(c));
  }
  for (GhostKind kind : {GhostKind::kLru, GhostKind::kLfu, GhostKind::kMru}) {
    Rng rng(4242 + static_cast<uint64_t>(kind));
    GhostCache ghost(kind, 24);
    ReferenceGhost ref(kind, 24);
    for (int i = 0; i < 4000; i++) {
      const Uid uid = TestUid(rng.NextBelow(48));
      if (rng.NextBelow(100) < 20) {
        ASSERT_EQ(ghost.Erase(uid), ref.Erase(uid))
            << GhostKindName(kind) << " erase diverged at step " << i;
      } else {
        ASSERT_EQ(ghost.Access(uid), ref.Access(uid))
            << GhostKindName(kind) << " diverged at step " << i;
      }
      ASSERT_EQ(ghost.size(), ref.size()) << "size diverged at " << i;
      const Uid probe = TestUid(rng.NextBelow(48));
      ASSERT_EQ(ghost.Frequency(probe), ref.Frequency(probe));
    }
  }
}

TEST(GhostCacheTest, MruSurvivesCyclicScanLargerThanCache) {
  // The reason MRU is in the expert pool: a cyclic scan one page larger than
  // the cache gets 0% hits under LRU but (n-1)/n hits under MRU once warm.
  constexpr uint64_t kPages = 17;
  GhostCache mru(GhostKind::kMru, 16);
  GhostCache lru(GhostKind::kLru, 16);
  for (int lap = 0; lap < 40; lap++) {
    for (uint64_t p = 0; p < kPages; p++) {
      mru.Access(TestUid(p));
      lru.Access(TestUid(p));
    }
  }
  EXPECT_EQ(lru.hits(), 0u);
  EXPECT_GT(mru.hits(), 30u * (kPages - 2));
}

}  // namespace
}  // namespace gms

// Unit tests for the frame table: allocation, LRU ordering, location lists,
// victim selection, age-preserving inserts, and reset semantics.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/mem/frame_table.h"

namespace gms {
namespace {

Uid U(uint32_t i) { return MakeUid(1, 0, 7, i); }

TEST(FrameTableTest, StartsEmpty) {
  FrameTable t(8);
  EXPECT_EQ(t.num_frames(), 8u);
  EXPECT_EQ(t.free_count(), 8u);
  EXPECT_EQ(t.local_count(), 0u);
  EXPECT_EQ(t.global_count(), 0u);
  EXPECT_EQ(t.Lookup(U(1)), nullptr);
}

TEST(FrameTableTest, AllocateAndLookup) {
  FrameTable t(4);
  Frame* f = t.Allocate(U(1), PageLocation::kLocal, 100);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->uid(), U(1));
  EXPECT_EQ(f->last_access(), 100);
  EXPECT_EQ(t.Lookup(U(1)), f);
  EXPECT_EQ(t.free_count(), 3u);
  EXPECT_EQ(t.local_count(), 1u);
}

TEST(FrameTableTest, AllocateExhaustsToNull) {
  FrameTable t(2);
  EXPECT_NE(t.Allocate(U(1), PageLocation::kLocal, 1), nullptr);
  EXPECT_NE(t.Allocate(U(2), PageLocation::kLocal, 2), nullptr);
  EXPECT_EQ(t.Allocate(U(3), PageLocation::kLocal, 3), nullptr);
}

TEST(FrameTableTest, FreeReturnsFrame) {
  FrameTable t(2);
  Frame* f = t.Allocate(U(1), PageLocation::kGlobal, 1);
  t.Free(f);
  EXPECT_EQ(t.free_count(), 2u);
  EXPECT_EQ(t.global_count(), 0u);
  EXPECT_EQ(t.Lookup(U(1)), nullptr);
  // The frame is reusable.
  EXPECT_NE(t.Allocate(U(1), PageLocation::kLocal, 2), nullptr);
}

TEST(FrameTableTest, FreeClearsFlags) {
  FrameTable t(2);
  Frame* f = t.Allocate(U(1), PageLocation::kLocal, 1);
  f->set_dirty(true);
  f->set_duplicated(true);
  f->set_pinned(true);
  t.Free(f);
  Frame* g = t.Allocate(U(2), PageLocation::kLocal, 2);
  // Either frame may be handed out; both must be clean.
  EXPECT_FALSE(g->dirty());
  EXPECT_FALSE(g->duplicated());
  EXPECT_FALSE(g->pinned());
}

TEST(FrameTableTest, OldestTracksLruTail) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 20);
  t.Allocate(U(3), PageLocation::kLocal, 30);
  EXPECT_EQ(t.OldestLocal()->uid(), U(1));
  // Touching 1 moves it to MRU; oldest becomes 2.
  t.Touch(t.Lookup(U(1)), 40);
  EXPECT_EQ(t.OldestLocal()->uid(), U(2));
}

TEST(FrameTableTest, OldestSkipsPinned) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 20);
  t.Lookup(U(1))->set_pinned(true);
  EXPECT_EQ(t.OldestLocal()->uid(), U(2));
  t.Lookup(U(2))->set_pinned(true);
  EXPECT_EQ(t.OldestLocal(), nullptr);
}

TEST(FrameTableTest, LocationListsAreSeparate) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kGlobal, 5);
  EXPECT_EQ(t.local_count(), 1u);
  EXPECT_EQ(t.global_count(), 1u);
  EXPECT_EQ(t.OldestLocal()->uid(), U(1));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(2));
}

TEST(FrameTableTest, SetLocationMovesBetweenLists) {
  FrameTable t(4);
  Frame* f = t.Allocate(U(1), PageLocation::kGlobal, 10);
  t.SetLocation(f, PageLocation::kLocal, 50);
  EXPECT_EQ(t.global_count(), 0u);
  EXPECT_EQ(t.local_count(), 1u);
  EXPECT_EQ(f->last_access(), 50);
}

TEST(FrameTableTest, MoveToListPreservesAge) {
  FrameTable t(4);
  Frame* f = t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kGlobal, 5);
  t.MoveToList(f, PageLocation::kGlobal);
  EXPECT_EQ(f->last_access(), 10);
  EXPECT_EQ(t.global_count(), 2u);
  // Ordering by age within the global list: U(2) (age 5) is older.
  EXPECT_EQ(t.OldestGlobal()->uid(), U(2));
}

TEST(FrameTableTest, PickVictimPrefersOldest) {
  FrameTable t(4);
  t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 100);
  t.Touch(t.Lookup(U(1)), 150);  // U(2) is now the LRU page
  EXPECT_EQ(t.PickVictim(200, 1.0)->uid(), U(2));
}

TEST(FrameTableTest, PickVictimBoostsGlobalAges) {
  FrameTable t(4);
  // Local age 100, global age 80: with boost 1.5 the global page's effective
  // age is 120 and it is chosen.
  t.Allocate(U(1), PageLocation::kLocal, 100);   // age 100 at t=200
  t.Allocate(U(2), PageLocation::kGlobal, 120);  // age 80 at t=200
  EXPECT_EQ(t.PickVictim(200, 1.5)->uid(), U(2));
  EXPECT_EQ(t.PickVictim(200, 1.0)->uid(), U(1));
}

TEST(FrameTableTest, PickVictimRequireCleanSkipsDirty) {
  FrameTable t(4);
  Frame* a = t.Allocate(U(1), PageLocation::kLocal, 10);
  t.Allocate(U(2), PageLocation::kLocal, 50);
  a->set_dirty(true);
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true)->uid(), U(2));
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/false)->uid(), U(1));
}

TEST(FrameTableTest, AllocateWithAgeOrdersList) {
  FrameTable t(8);
  t.Allocate(U(1), PageLocation::kGlobal, 100);
  t.Allocate(U(2), PageLocation::kGlobal, 300);
  // Insert a page whose age falls between the two.
  t.AllocateWithAge(U(3), PageLocation::kGlobal, 200);
  EXPECT_EQ(t.OldestGlobal()->uid(), U(1));
  t.Free(t.Lookup(U(1)));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(3));
  t.Free(t.Lookup(U(3)));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(2));
}

TEST(FrameTableTest, AllocateWithAgeOldestAndYoungest) {
  FrameTable t(8);
  t.Allocate(U(1), PageLocation::kLocal, 100);
  t.AllocateWithAge(U(2), PageLocation::kLocal, 50);   // older than all
  t.AllocateWithAge(U(3), PageLocation::kLocal, 500);  // younger than all
  EXPECT_EQ(t.OldestLocal()->uid(), U(2));
  t.Free(t.Lookup(U(2)));
  EXPECT_EQ(t.OldestLocal()->uid(), U(1));
}

TEST(FrameTableTest, OldestMatchingFindsPredicate) {
  FrameTable t(8);
  Frame* a = t.Allocate(U(1), PageLocation::kLocal, 10);
  Frame* b = t.Allocate(U(2), PageLocation::kLocal, 20);
  t.Allocate(U(3), PageLocation::kGlobal, 5);
  a->set_duplicated(false);
  b->set_duplicated(true);
  Frame* found = t.OldestMatching(
      100, 1.0, [](const Frame& f) { return f.duplicated(); });
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->uid(), U(2));
  EXPECT_EQ(t.OldestMatching(100, 1.0,
                             [](const Frame& f) { return f.recirculation() > 3; }),
            nullptr);
}

TEST(FrameTableTest, ForEachVisitsAllInUse) {
  FrameTable t(8);
  for (uint32_t i = 0; i < 5; i++) {
    t.Allocate(U(i + 1), PageLocation::kLocal, i);
  }
  t.Free(t.Lookup(U(2)));
  int count = 0;
  t.ForEach([&](const Frame& f) {
    count++;
    EXPECT_NE(f.uid(), U(2));
  });
  EXPECT_EQ(count, 4);
}

TEST(FrameTableTest, ResetClearsEverything) {
  FrameTable t(8);
  for (uint32_t i = 0; i < 8; i++) {
    t.Allocate(U(i + 1), PageLocation::kLocal, i);
  }
  t.Reset();
  EXPECT_EQ(t.free_count(), 8u);
  EXPECT_EQ(t.used_count(), 0u);
  EXPECT_EQ(t.Lookup(U(1)), nullptr);
  EXPECT_NE(t.Allocate(U(9), PageLocation::kLocal, 1), nullptr);
}

// Equal-age ties. Within one location the list order is insertion order
// among equal ages: a frame linked later (Allocate, AllocateWithAge,
// MoveToList) sits on the MRU side of the frames it ties with, and a frame
// keeps its place when its dirty bit flips. Across locations PickVictim
// lets the global page win an equal boosted age and OldestMatching lets
// the local page win. Pinned here so that splitting the lists cannot move
// any of these choices.
TEST(FrameTableTieTest, EqualAgeCleanAndDirtyInsertionOrderWins) {
  FrameTable t(4);
  Frame* a = t.Allocate(U(1), PageLocation::kLocal, 10);
  Frame* b = t.Allocate(U(2), PageLocation::kLocal, 10);
  a->set_dirty(true);
  // a is the older of the tied pair although it is dirty and b is clean.
  EXPECT_EQ(t.PickVictim(50, 1.0), a);
  EXPECT_EQ(t.OldestLocal(), a);
  EXPECT_EQ(t.PickVictim(50, 1.0, /*require_clean=*/true), b);
  a->set_dirty(false);
  b->set_dirty(true);
  EXPECT_EQ(t.PickVictim(50, 1.0), a);
  EXPECT_EQ(t.PickVictim(50, 1.0, /*require_clean=*/true), a);
}

TEST(FrameTableTieTest, DirtyFlipKeepsPositionAmongEqualAges) {
  FrameTable t(4);
  Frame* a = t.Allocate(U(1), PageLocation::kLocal, 10);
  Frame* b = t.Allocate(U(2), PageLocation::kLocal, 10);
  Frame* c = t.Allocate(U(3), PageLocation::kLocal, 10);
  b->set_dirty(true);
  c->set_dirty(true);
  b->set_dirty(false);
  a->set_dirty(true);
  // Order is still a, b, c: b is the oldest clean page, a the oldest page.
  EXPECT_EQ(t.PickVictim(50, 1.0, /*require_clean=*/true), b);
  EXPECT_EQ(t.PickVictim(50, 1.0), a);
  a->set_pinned(true);
  EXPECT_EQ(t.PickVictim(50, 1.0), b);
  b->set_pinned(true);
  EXPECT_EQ(t.PickVictim(50, 1.0), c);
  EXPECT_EQ(t.PickVictim(50, 1.0, /*require_clean=*/true), nullptr);
}

TEST(FrameTableTieTest, AllocateWithAgeLandsOnMruSideOfEqualAges) {
  FrameTable t(4);
  Frame* a = t.Allocate(U(1), PageLocation::kGlobal, 10);
  Frame* b = t.AllocateWithAge(U(2), PageLocation::kGlobal, 10);
  EXPECT_EQ(t.OldestGlobal(), a);
  b->set_dirty(true);
  EXPECT_EQ(t.PickVictim(50, 1.0), a);
  a->set_dirty(true);
  b->set_dirty(false);
  EXPECT_EQ(t.PickVictim(50, 1.0), a);
}

TEST(FrameTableTieTest, MoveToListLandsOnMruSideOfEqualAges) {
  FrameTable t(4);
  Frame* a = t.Allocate(U(1), PageLocation::kLocal, 10);
  Frame* b = t.Allocate(U(2), PageLocation::kGlobal, 10);
  // a was allocated first, but it joins the global list after b.
  t.MoveToList(a, PageLocation::kGlobal);
  EXPECT_EQ(t.OldestGlobal(), b);
  b->set_dirty(true);
  EXPECT_EQ(t.PickVictim(50, 1.0), b);
  EXPECT_EQ(t.PickVictim(50, 1.0, /*require_clean=*/true), a);
}

TEST(FrameTableTieTest, GlobalWinsEqualBoostedAgeInPickVictim) {
  FrameTable t(4);
  Frame* local = t.Allocate(U(1), PageLocation::kLocal, 10);
  Frame* global = t.Allocate(U(2), PageLocation::kGlobal, 10);
  EXPECT_EQ(t.PickVictim(50, 1.0), global);
  global->set_dirty(true);
  EXPECT_EQ(t.PickVictim(50, 1.0), global);
  EXPECT_EQ(t.PickVictim(50, 1.0, /*require_clean=*/true), local);
  local->set_dirty(true);
  EXPECT_EQ(t.PickVictim(50, 1.0), global);
  // Clean local age 40 against clean global age 20 boosted by 2: a tie.
  local->set_dirty(false);
  Frame* young = t.Allocate(U(3), PageLocation::kGlobal, 30);
  EXPECT_EQ(t.PickVictim(50, 2.0, /*require_clean=*/true), young);
}

TEST(FrameTableTieTest, LocalWinsEqualBoostedAgeInOldestMatching) {
  FrameTable t(4);
  Frame* local = t.Allocate(U(1), PageLocation::kLocal, 10);
  Frame* global = t.Allocate(U(2), PageLocation::kGlobal, 10);
  const auto any = [](const Frame&) { return true; };
  EXPECT_EQ(t.OldestMatching(50, 1.0, any), local);
  local->set_dirty(true);
  EXPECT_EQ(t.OldestMatching(50, 1.0, any), local);
  global->set_dirty(true);
  EXPECT_EQ(t.OldestMatching(50, 1.0, any), local);
  EXPECT_EQ(t.OldestMatching(50, 1.5, any), global);
}

TEST(FrameTableTest, CleanVictimBehindDirtyTail) {
  FrameTable t(8);
  for (uint32_t i = 0; i < 6; i++) {
    t.Allocate(U(i + 1), PageLocation::kLocal, 10 * (i + 1))->set_dirty(i < 5);
  }
  Frame* clean = t.Lookup(U(6));
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true), clean);
  EXPECT_EQ(t.PickVictim(100, 1.0), t.Lookup(U(1)));
  clean->set_dirty(true);
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true), nullptr);
  EXPECT_EQ(t.local_count(), 6u);
}

TEST(FrameTableTest, CleanedFrameReentersAtItsAge) {
  FrameTable t(8);
  Frame* old = t.Allocate(U(1), PageLocation::kLocal, 10);
  old->set_dirty(true);
  t.Allocate(U(2), PageLocation::kLocal, 20);
  t.Allocate(U(3), PageLocation::kLocal, 30);
  Frame* young = t.Allocate(U(4), PageLocation::kLocal, 40);
  young->set_dirty(true);
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true)->uid(), U(2));
  // Write-back of the oldest page completes: it becomes the oldest clean
  // page, not the newest.
  old->set_dirty(false);
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true), old);
  t.Free(old);
  // A young page cleaned re-enters behind the older clean pages.
  young->set_dirty(false);
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true)->uid(), U(2));
  t.Free(t.Lookup(U(2)));
  t.Free(t.Lookup(U(3)));
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true), young);
}

TEST(FrameTableTest, PinnedFramesSkippedInEveryList) {
  FrameTable t(8);
  // Two pages in each of the four lists; the older of each pair is pinned.
  uint32_t next = 1;
  for (const PageLocation loc : {PageLocation::kLocal, PageLocation::kGlobal}) {
    for (const bool dirty : {false, true}) {
      Frame* older = t.Allocate(U(next), loc, 10 * next);
      Frame* newer = t.Allocate(U(next + 1), loc, 10 * next + 5);
      older->set_dirty(dirty);
      newer->set_dirty(dirty);
      older->set_pinned(true);
      next += 2;
    }
  }
  // Local: U(1) clean pinned, U(2) clean, U(3) dirty pinned, U(4) dirty.
  // Global: U(5) clean pinned, U(6) clean, U(7) dirty pinned, U(8) dirty.
  EXPECT_EQ(t.OldestLocal()->uid(), U(2));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(6));
  EXPECT_EQ(t.PickVictim(100, 1.0)->uid(), U(2));
  EXPECT_EQ(t.PickVictim(100, 10.0)->uid(), U(6));
  t.Lookup(U(2))->set_pinned(true);
  t.Lookup(U(6))->set_pinned(true);
  EXPECT_EQ(t.OldestLocal()->uid(), U(4));
  EXPECT_EQ(t.OldestGlobal()->uid(), U(8));
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true), nullptr);
  t.Lookup(U(4))->set_pinned(true);
  t.Lookup(U(8))->set_pinned(true);
  EXPECT_EQ(t.PickVictim(100, 1.0), nullptr);
  EXPECT_EQ(t.OldestMatching(100, 1.0, [](const Frame&) { return true; }),
            nullptr);
}

TEST(FrameTableTest, ResetEmptiesAllFourLists) {
  FrameTable t(8);
  for (uint32_t i = 0; i < 8; i++) {
    Frame* f = t.Allocate(U(i + 1),
                          i % 2 ? PageLocation::kGlobal : PageLocation::kLocal,
                          i);
    f->set_dirty(i % 4 >= 2);
  }
  t.Reset();
  EXPECT_EQ(t.local_count(), 0u);
  EXPECT_EQ(t.global_count(), 0u);
  EXPECT_EQ(t.PickVictim(100, 1.0), nullptr);
  EXPECT_EQ(t.OldestLocal(), nullptr);
  EXPECT_EQ(t.OldestGlobal(), nullptr);
  for (uint32_t i = 0; i < 8; i++) {
    EXPECT_EQ(t.Lookup(U(i + 1)), nullptr);
  }
  // The table is fully reusable, uids included.
  Frame* f = t.Allocate(U(3), PageLocation::kGlobal, 50);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->dirty());
  f->set_dirty(true);
  EXPECT_EQ(t.Lookup(U(3)), f);
  EXPECT_EQ(t.PickVictim(100, 1.0), f);
  EXPECT_EQ(t.PickVictim(100, 1.0, /*require_clean=*/true), nullptr);
}

TEST(FrameTableTest, OldestMatchingSearchesAllFourLists) {
  FrameTable t(8);
  // Ages interleave across the lists: local clean 10, local dirty 20,
  // global clean 30, global dirty 40, then the same again at 50..80.
  uint32_t next = 1;
  for (SimTime base : {10, 50}) {
    for (int list = 0; list < 4; list++) {
      Frame* f = t.Allocate(U(next++),
                            list >= 2 ? PageLocation::kGlobal
                                      : PageLocation::kLocal,
                            base + 10 * list);
      f->set_dirty(list % 2 == 1);
    }
  }
  const auto uid_above = [](uint32_t n) {
    return [n](const Frame& f) { return f.uid().page_offset() > n; };
  };
  EXPECT_EQ(t.OldestMatching(100, 1.0, uid_above(0))->uid(), U(1));
  EXPECT_EQ(t.OldestMatching(100, 1.0, uid_above(1))->uid(), U(2));
  EXPECT_EQ(t.OldestMatching(100, 1.0, uid_above(2))->uid(), U(3));
  EXPECT_EQ(t.OldestMatching(100, 1.0, uid_above(3))->uid(), U(4));
  EXPECT_EQ(t.OldestMatching(100, 1.0, uid_above(4))->uid(), U(5));
  const auto dirty_global = [](const Frame& f) {
    return f.dirty() && f.location() == PageLocation::kGlobal;
  };
  EXPECT_EQ(t.OldestMatching(100, 1.0, dirty_global)->uid(), U(4));
  const auto clean_local = [](const Frame& f) {
    return !f.dirty() && f.location() == PageLocation::kLocal;
  };
  EXPECT_EQ(t.OldestMatching(100, 1.0, clean_local)->uid(), U(1));
  // A large boost makes the oldest global match beat an older local one.
  EXPECT_EQ(t.OldestMatching(100, 10.0, uid_above(0))->uid(), U(3));
}

// Parameterized stress: random allocate/free/touch sequences preserve the
// list invariants (counts sum to capacity; tail is the true minimum).
class FrameTableStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrameTableStressTest, InvariantsHoldUnderRandomOps) {
  Rng rng(GetParam());
  FrameTable t(64);
  std::vector<Uid> resident;
  SimTime now = 0;
  for (int step = 0; step < 5000; step++) {
    now += 1 + static_cast<SimTime>(rng.NextBelow(100));
    const uint64_t action = rng.NextBelow(10);
    if (action < 4 && t.free_count() > 0) {
      const Uid uid = U(static_cast<uint32_t>(step) + 1000);
      t.Allocate(uid,
                 rng.NextBool(0.3) ? PageLocation::kGlobal
                                   : PageLocation::kLocal,
                 now);
      resident.push_back(uid);
    } else if (action < 7 && !resident.empty()) {
      const size_t i = rng.NextBelow(resident.size());
      t.Touch(t.Lookup(resident[i]), now);
    } else if (!resident.empty()) {
      const size_t i = rng.NextBelow(resident.size());
      t.Free(t.Lookup(resident[i]));
      resident[i] = resident.back();
      resident.pop_back();
    }
    ASSERT_EQ(t.used_count() + t.free_count(), 64u);
    ASSERT_EQ(t.used_count(), resident.size());
    // The reported oldest local page really is the minimum last_access.
    Frame* oldest = t.OldestLocal();
    if (oldest != nullptr) {
      SimTime min_access = oldest->last_access();
      t.ForEach([&](const Frame& f) {
        if (f.location() == PageLocation::kLocal) {
          ASSERT_GE(f.last_access(), min_access);
        }
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameTableStressTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

// Differential check of the four-list table against a brute-force scan:
// random Allocate, AllocateWithAge, Touch, set_dirty, set_pinned, Free and
// MoveToList ops, with every timestamp distinct so "oldest" is unambiguous,
// and every victim query compared with the scan's answer after each op.
class FrameTableDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // The oldest unpinned in-use frame at `location` (clean only if asked).
  static const Frame* ScanOldest(const FrameTable& t, PageLocation location,
                                 bool require_clean) {
    const Frame* best = nullptr;
    t.ForEach([&](const Frame& f) {
      if (f.location() != location || f.pinned() ||
          (require_clean && f.dirty())) {
        return;
      }
      if (best == nullptr || f.last_access() < best->last_access()) {
        best = &f;
      }
    });
    return best;
  }

  static const Frame* ScanVictim(const FrameTable& t, SimTime now,
                                 double boost, bool require_clean) {
    const Frame* local = ScanOldest(t, PageLocation::kLocal, require_clean);
    const Frame* global = ScanOldest(t, PageLocation::kGlobal, require_clean);
    if (global == nullptr || local == nullptr) {
      return global == nullptr ? local : global;
    }
    const double local_age = static_cast<double>(now - local->last_access());
    const double global_age =
        static_cast<double>(now - global->last_access()) * boost;
    return global_age >= local_age ? global : local;
  }
};

TEST_P(FrameTableDifferentialTest, MatchesBruteForceScan) {
  Rng rng(GetParam());
  constexpr uint32_t kFrames = 48;
  FrameTable t(kFrames);
  std::vector<Uid> resident;
  uint32_t next_uid = 1;
  // Even times for "now"; AllocateWithAge draws odd, never-reused times
  // below it, so no two last-access times are ever equal.
  SimTime now = 1000;
  std::vector<bool> odd_used;
  const auto pick = [&]() {
    return t.Lookup(resident[rng.NextBelow(resident.size())]);
  };
  const auto location = [&]() {
    return rng.NextBool(0.4) ? PageLocation::kGlobal : PageLocation::kLocal;
  };
  for (int step = 0; step < 20000; step++) {
    now += 2 * (1 + static_cast<SimTime>(rng.NextBelow(4)));
    const uint64_t action = rng.NextBelow(16);
    if (action < 3 && t.free_count() > 0) {
      const Uid uid = U(next_uid++);
      t.Allocate(uid, location(), now);
      resident.push_back(uid);
    } else if (action < 5 && t.free_count() > 0) {
      const SimTime age = 1 + 2 * static_cast<SimTime>(rng.NextBelow(
                                      static_cast<uint64_t>(now / 2)));
      const size_t slot = static_cast<size_t>(age / 2);
      if (slot >= odd_used.size()) {
        odd_used.resize(slot + 1, false);
      }
      if (!odd_used[slot]) {
        odd_used[slot] = true;
        const Uid uid = U(next_uid++);
        t.AllocateWithAge(uid, location(), age);
        resident.push_back(uid);
      }
    } else if (resident.empty()) {
      continue;
    } else if (action < 8) {
      t.Touch(pick(), now);
    } else if (action < 11) {
      pick()->set_dirty(rng.NextBool(0.5));
    } else if (action < 13) {
      pick()->set_pinned(rng.NextBool(0.3));
    } else if (action < 14) {
      t.MoveToList(pick(), location());
    } else {
      const size_t i = rng.NextBelow(resident.size());
      t.Free(t.Lookup(resident[i]));
      resident[i] = resident.back();
      resident.pop_back();
    }
    ASSERT_EQ(t.used_count(), resident.size());
    ASSERT_EQ(t.used_count() + t.free_count(), kFrames);
    ASSERT_EQ(t.OldestLocal(), ScanOldest(t, PageLocation::kLocal, false))
        << "step " << step;
    ASSERT_EQ(t.OldestGlobal(), ScanOldest(t, PageLocation::kGlobal, false))
        << "step " << step;
    for (const double boost : {1.0, 1.7}) {
      for (const bool clean : {false, true}) {
        ASSERT_EQ(t.PickVictim(now, boost, clean),
                  ScanVictim(t, now, boost, clean))
            << "step " << step << " boost " << boost << " clean " << clean;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameTableDifferentialTest,
                         ::testing::Values(1, 7, 42, 2024));

}  // namespace
}  // namespace gms

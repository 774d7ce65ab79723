// Ghost caches: exact cache simulators over a reference stream that hold no
// page data — only UIDs and replacement metadata. The expert-ensemble policy
// (src/core/ensemble_policy.h) runs one ghost per expert (LRU, LFU, MRU) on
// the node's observed fault stream and learns which expert's replacement
// rule predicts re-reference best. The far-memory tier (far_memory.h) keeps
// its residency in an LRU ghost too.
//
// Semantics are pinned exactly (tests/ghost_cache_test.cc holds the hit/miss
// sequence bit-identical to a naive reference simulator, including capacity
// changes mid-trace):
//   * kLru  — hit moves the page to most-recently-used; eviction takes the
//             least-recently-used page.
//   * kLfu  — every hit bumps a per-page frequency (saturating at 255);
//             eviction takes the lowest-frequency page, ties broken by least
//             recent use. Classic LFU, not an approximation.
//   * kMru  — hit refreshes recency; eviction takes the MOST-recently-used
//             page (optimal for cyclic scans larger than the cache).
//   * set_capacity(c) evicts down to c using the kind's own rule; growing
//             (up to the construction-time maximum) just admits more pages.
//
// Everything is preallocated at construction: entry slots, an open-addressed
// index over the entry uid column (src/common/slot_index.h — linear probing,
// backward-shift deletion, no tombstones), and 256 intrusive frequency
// buckets. After construction no operation touches the allocator, so ghosts
// may sit on the fault hot path (alloc_test holds the ensemble's steady
// state to zero allocations).
#ifndef SRC_MEM_GHOST_CACHE_H_
#define SRC_MEM_GHOST_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/common/slot_index.h"
#include "src/common/uid.h"

namespace gms {

enum class GhostKind : uint8_t {
  kLru,
  kLfu,
  kMru,
};

const char* GhostKindName(GhostKind kind);

class GhostCache {
 public:
  // `max_capacity` bounds the preallocation; set_capacity may move within
  // [0, max_capacity] at any time. The initial capacity is the maximum.
  GhostCache(GhostKind kind, uint32_t max_capacity);

  GhostCache(const GhostCache&) = delete;
  GhostCache& operator=(const GhostCache&) = delete;
  GhostCache(GhostCache&&) = default;

  // Records one reference. Returns true when the page was resident (a ghost
  // hit); on a miss the page is admitted, evicting per the kind's rule when
  // full. Never allocates.
  bool Access(const Uid& uid);

  // Drops the page without counting a hit or a miss (an exclusive tier
  // promoting it out). Returns whether it was resident. Never allocates.
  bool Erase(const Uid& uid);

  // Read-only probes (no recency/frequency side effects).
  bool Contains(const Uid& uid) const { return Find(uid) != kNull; }
  // The page's saturating reference count, 0 when absent. Meaningful for
  // every kind (all of them count), but the LFU expert's estimate is the one
  // the ensemble ships in PutPage::freq.
  uint8_t Frequency(const Uid& uid) const;

  // Resizes the simulated cache mid-trace. Shrinking evicts down to the new
  // capacity with the kind's own rule; growing (clamped to max_capacity)
  // admits future references without evicting.
  void set_capacity(uint32_t capacity);

  GhostKind kind() const { return kind_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t max_capacity() const { return max_capacity_; }
  uint32_t size() const { return size_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static constexpr uint32_t kNull = UINT32_MAX;
  static constexpr uint8_t kMaxFreq = UINT8_MAX;

  struct List {
    uint32_t head = kNull;  // least recently used end
    uint32_t tail = kNull;  // most recently used end
  };

  // For kLru/kMru every resident page lives in list 0; for kLfu a page of
  // frequency f lives in list f (1..255), each list LRU-ordered.
  uint32_t ListIndexFor(uint8_t freq) const {
    return kind_ == GhostKind::kLfu ? freq : 0;
  }

  void PushBack(uint32_t list, uint32_t idx);
  void Unlink(uint32_t list, uint32_t idx);
  void Touch(uint32_t idx);
  void Evict();
  void Remove(uint32_t list, uint32_t idx);
  void Insert(const Uid& uid);

  uint32_t Find(const Uid& uid) const {
    return index_.Find(uid, uids_.data());
  }

  GhostKind kind_;
  uint32_t max_capacity_;
  uint32_t capacity_;
  uint32_t size_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // LFU eviction scan floor: no resident page has a frequency below this.
  uint8_t min_freq_ = 1;

  // Entry columns, parallel, sized max_capacity.
  std::vector<Uid> uids_;
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> next_;
  std::vector<uint8_t> freq_;

  std::vector<uint32_t> free_;  // spare entry indices (stack)
  SlotIndex<Uid> index_;        // uid -> entry, over uids_
  List lists_[256];
};

}  // namespace gms

#endif  // SRC_MEM_GHOST_CACHE_H_

// Page-frame bookkeeping for one node.
//
// This is the storage half of the paper's page-frame-directory (PFD,
// section 4.1): a per-node table with one record per resident page, holding
// the frame, LRU statistics, and whether the page is local or global. Exact
// last-access timestamps replace the paper's sampled TLB ages (a documented
// divergence — strictly better information).
//
// Four intrusive LRU lists, {local, global} x {clean, dirty}, each ordered
// by last access, make every victim choice O(1): the oldest clean page (the
// synchronous reclaim paths) is a list tail, not a walk past the dirty
// pages piled up at the LRU end. Pages of equal age keep the order in which
// they were linked (a per-frame link sequence breaks the tie), so merging a
// location's clean and dirty lists yields exactly the single LRU list of
// that location. set_dirty moves a frame between the two lists at its
// place in that order.
//
// Storage is struct-of-arrays: uids, last-access times and packed status
// flags live in separate contiguous arrays so the per-epoch age scan —
// the hottest whole-table walk — streams two flat arrays (flags + ages)
// instead of striding through fat records. Lookup by uid goes through an
// open-addressed index over the uid column (src/common/slot_index.h). Frame
// is a handle over one slot: its address is stable for the table's lifetime
// and all field access reads or writes the arrays through accessors.
#ifndef SRC_MEM_FRAME_TABLE_H_
#define SRC_MEM_FRAME_TABLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/slot_index.h"
#include "src/common/time.h"
#include "src/common/uid.h"

namespace gms {

// A page on a node is local (recently accessed by this node) or global
// (stored on behalf of the cluster). Section 3.1.
enum class PageLocation : uint8_t {
  kLocal,
  kGlobal,
};

class FrameTable;

// Handle to one frame slot. Stable identity (the handle vector never
// reallocates); page state lives in the owning table's arrays, and the
// handle holds only the slot's LRU-list links.
class Frame {
 public:
  const Uid& uid() const;
  PageLocation location() const;
  SimTime last_access() const;
  bool in_use() const;

  bool dirty() const;
  void set_dirty(bool v);
  bool shared() const;  // backed by a file that other nodes may cache
  void set_shared(bool v);
  bool duplicated() const;  // another node is known to cache a copy
  void set_duplicated(bool v);
  bool pinned() const;  // mid-fault or mid-transfer; not evictable
  void set_pinned(bool v);
  // N-chance recirculation count; unused by GMS proper.
  uint8_t recirculation() const;
  void set_recirculation(uint8_t v);

 private:
  friend class FrameTable;
  FrameTable* table_ = nullptr;
  uint32_t index_ = UINT32_MAX;
  uint32_t prev_ = UINT32_MAX;
  uint32_t next_ = UINT32_MAX;
  uint64_t seq_ = 0;  // link sequence: LRU order among equal ages
};

class FrameTable {
 public:
  // Packed per-frame status bits (flags_data()[i]). The epoch age scan
  // branches only on these plus the ages array.
  static constexpr uint8_t kFlagInUse = 1u << 0;
  static constexpr uint8_t kFlagGlobal = 1u << 1;
  static constexpr uint8_t kFlagDirty = 1u << 2;
  static constexpr uint8_t kFlagShared = 1u << 3;
  static constexpr uint8_t kFlagDuplicated = 1u << 4;
  static constexpr uint8_t kFlagPinned = 1u << 5;

  explicit FrameTable(uint32_t num_frames);
  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  uint32_t num_frames() const { return static_cast<uint32_t>(frames_.size()); }
  uint32_t free_count() const { return static_cast<uint32_t>(free_.size()); }
  uint32_t local_count() const {
    return lists_[kLocalClean].size + lists_[kLocalDirty].size;
  }
  uint32_t global_count() const {
    return lists_[kGlobalClean].size + lists_[kGlobalDirty].size;
  }
  uint32_t used_count() const { return local_count() + global_count(); }

  // Returns the frame caching `uid`, or nullptr.
  Frame* Lookup(const Uid& uid);
  const Frame* Lookup(const Uid& uid) const;

  // Takes a free frame and binds it to `uid` at the MRU end of the given
  // list. Returns nullptr when no frame is free (the caller must evict
  // first). `uid` must not already be present.
  Frame* Allocate(const Uid& uid, PageLocation location, SimTime now);

  // Like Allocate, but the page keeps an externally-supplied last-access
  // time (a putpaged page arrives with its age intact so global LRU ordering
  // survives the transfer) and is linked at the list position matching that
  // age.
  Frame* AllocateWithAge(const Uid& uid, PageLocation location,
                         SimTime last_access);

  // Unbinds the frame and returns it to the free list.
  void Free(Frame* frame);

  // Records an access: updates last_access and moves the frame to MRU.
  void Touch(Frame* frame, SimTime now);

  // Moves a frame between the local and global lists (e.g. a received global
  // page, or a faulted-in page becoming local), recording an access.
  void SetLocation(Frame* frame, PageLocation location, SimTime now);

  // Moves a frame between lists without touching its age (a page demoted to
  // global in place keeps its LRU position — paper case 3 when the eviction
  // target is this node itself).
  void MoveToList(Frame* frame, PageLocation location);

  // Drops every page (crash semantics: a failed node's memory contents are
  // gone; clean global pages remain recoverable from disk).
  void Reset();

  // Oldest page of each location, clean or dirty, skipping pinned frames;
  // nullptr when the location has no evictable frame.
  Frame* OldestLocal();
  Frame* OldestGlobal();

  // The node-level replacement choice (section 3.1): the oldest evictable
  // page, with global pages' ages boosted by `global_age_boost` (>= 1) so
  // they are replaced in preference to local pages of similar age ("our
  // current implementation boosts the ages of global pages"). With
  // `require_clean`, dirty frames are skipped (used on paths that must free
  // a frame synchronously, e.g. absorbing an incoming putpage).
  Frame* PickVictim(SimTime now, double global_age_boost,
                    bool require_clean = false);

  // Oldest unpinned frame satisfying `pred` (ages boosted for global pages
  // as in PickVictim; local wins an equal age). Walks the four LRU tails;
  // used by N-chance's victim selection (oldest duplicate / oldest
  // recirculating page).
  Frame* OldestMatching(SimTime now, double global_age_boost,
                        const std::function<bool(const Frame&)>& pred);

  // Invokes fn for every in-use frame in slot order. Cost is charged to the
  // CPU by the caller (Table 5: ~0.3 us/page). The epoch age scan does NOT
  // use this — it streams the raw arrays below (src/core/epoch.cc,
  // AccumulateAgeHistogram) with no per-frame indirect call.
  void ForEach(const std::function<void(const Frame&)>& fn) const;

  // Raw column access for whole-table scans. Slot i is in use iff
  // flags_data()[i] & kFlagInUse; its last access is ages_data()[i].
  const SimTime* ages_data() const { return ages_.data(); }
  const uint8_t* flags_data() const { return flags_.data(); }
  const Uid* uids_data() const { return uids_.data(); }

 private:
  friend class Frame;

  struct List {
    uint32_t head = UINT32_MAX;  // MRU
    uint32_t tail = UINT32_MAX;  // LRU
    uint32_t size = 0;
  };
  // lists_ index: a location's clean list, then its dirty list.
  static constexpr int kLocalClean = 0;
  static constexpr int kLocalDirty = 1;
  static constexpr int kGlobalClean = 2;
  static constexpr int kGlobalDirty = 3;

  bool flag(uint32_t i, uint8_t bit) const { return (flags_[i] & bit) != 0; }
  void set_flag(uint32_t i, uint8_t bit, bool v) {
    flags_[i] = v ? (flags_[i] | bit) : (flags_[i] & ~bit);
  }

  List& list_for(uint32_t i) {
    return lists_[(flag(i, kFlagGlobal) ? kGlobalClean : kLocalClean) +
                  (flag(i, kFlagDirty) ? 1 : 0)];
  }
  // LRU order: a is older than b. Ages first, then link order.
  bool Older(uint32_t a, uint32_t b) const {
    return ages_[a] != ages_[b] ? ages_[a] < ages_[b]
                                : frames_[a].seq_ < frames_[b].seq_;
  }
  // Links f into its list at its LRU position, walking from the MRU end or
  // from the LRU end. LinkNew first gives f the newest link sequence.
  void Link(Frame* f, bool from_lru_end);
  void LinkNew(Frame* f);
  void Unlink(Frame* f);
  void SetDirty(Frame* f, bool dirty);
  template <typename Pred>
  Frame* OldestIn(int clean_list, bool clean_only, const Pred& pred);

  std::vector<Frame> frames_;  // handles; addresses stable after ctor
  // The SoA columns, parallel to frames_.
  std::vector<Uid> uids_;
  std::vector<SimTime> ages_;
  std::vector<uint8_t> flags_;
  std::vector<uint8_t> recirc_;

  std::vector<uint32_t> free_;
  SlotIndex<Uid> index_;  // uid -> slot, over uids_
  uint64_t next_seq_ = 0;
  List lists_[4];
};

inline const Uid& Frame::uid() const { return table_->uids_[index_]; }
inline PageLocation Frame::location() const {
  return table_->flag(index_, FrameTable::kFlagGlobal) ? PageLocation::kGlobal
                                                       : PageLocation::kLocal;
}
inline SimTime Frame::last_access() const { return table_->ages_[index_]; }
inline bool Frame::in_use() const {
  return table_->flag(index_, FrameTable::kFlagInUse);
}
inline bool Frame::dirty() const {
  return table_->flag(index_, FrameTable::kFlagDirty);
}
inline void Frame::set_dirty(bool v) { table_->SetDirty(this, v); }
inline bool Frame::shared() const {
  return table_->flag(index_, FrameTable::kFlagShared);
}
inline void Frame::set_shared(bool v) {
  table_->set_flag(index_, FrameTable::kFlagShared, v);
}
inline bool Frame::duplicated() const {
  return table_->flag(index_, FrameTable::kFlagDuplicated);
}
inline void Frame::set_duplicated(bool v) {
  table_->set_flag(index_, FrameTable::kFlagDuplicated, v);
}
inline bool Frame::pinned() const {
  return table_->flag(index_, FrameTable::kFlagPinned);
}
inline void Frame::set_pinned(bool v) {
  table_->set_flag(index_, FrameTable::kFlagPinned, v);
}
inline uint8_t Frame::recirculation() const {
  return table_->recirc_[index_];
}
inline void Frame::set_recirculation(uint8_t v) {
  table_->recirc_[index_] = v;
}

}  // namespace gms

#endif  // SRC_MEM_FRAME_TABLE_H_

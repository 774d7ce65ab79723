#include "src/mem/frame_table.h"

#include <cassert>

namespace gms {

FrameTable::FrameTable(uint32_t num_frames) {
  assert(num_frames > 0);
  frames_.resize(num_frames);
  uids_.assign(num_frames, kInvalidUid);
  ages_.assign(num_frames, 0);
  flags_.assign(num_frames, 0);
  recirc_.assign(num_frames, 0);
  free_.reserve(num_frames);
  // Hand out low indices first (cosmetic; keeps tests predictable).
  for (uint32_t i = num_frames; i > 0; i--) {
    frames_[i - 1].table_ = this;
    frames_[i - 1].index_ = i - 1;
    free_.push_back(i - 1);
  }
  index_.Reserve(num_frames, uids_.data());
}

Frame* FrameTable::Lookup(const Uid& uid) {
  const uint32_t i = index_.Find(uid, uids_.data());
  return i == index_.kNotFound ? nullptr : &frames_[i];
}

const Frame* FrameTable::Lookup(const Uid& uid) const {
  const uint32_t i = index_.Find(uid, uids_.data());
  return i == index_.kNotFound ? nullptr : &frames_[i];
}

Frame* FrameTable::Allocate(const Uid& uid, PageLocation location, SimTime now) {
  assert(uid.valid());
  assert(Lookup(uid) == nullptr);
  if (free_.empty()) {
    return nullptr;
  }
  const uint32_t idx = free_.back();
  free_.pop_back();
  uids_[idx] = uid;
  flags_[idx] = kFlagInUse |
                (location == PageLocation::kGlobal ? kFlagGlobal : 0);
  recirc_[idx] = 0;
  ages_[idx] = now;
  index_.Insert(idx, uids_.data());
  Frame& f = frames_[idx];
  LinkNew(&f);
  return &f;
}

Frame* FrameTable::AllocateWithAge(const Uid& uid, PageLocation location,
                                   SimTime last_access) {
  // Linked from the MRU end at its age: putpaged pages are younger than the
  // receiving node's idle tail, so the walk is short in practice.
  return Allocate(uid, location, last_access);
}

void FrameTable::Free(Frame* frame) {
  assert(frame != nullptr && frame->in_use());
  Unlink(frame);
  index_.Erase(frame->index_, uids_.data());
  uids_[frame->index_] = kInvalidUid;
  flags_[frame->index_] = 0;
  free_.push_back(frame->index_);
}

void FrameTable::Touch(Frame* frame, SimTime now) {
  assert(frame->in_use());
  ages_[frame->index_] = now;
  Unlink(frame);
  LinkNew(frame);
}

void FrameTable::SetLocation(Frame* frame, PageLocation location, SimTime now) {
  assert(frame->in_use());
  if (frame->location() == location) {
    Touch(frame, now);
    return;
  }
  Unlink(frame);
  set_flag(frame->index_, kFlagGlobal, location == PageLocation::kGlobal);
  ages_[frame->index_] = now;
  LinkNew(frame);
}

void FrameTable::MoveToList(Frame* frame, PageLocation location) {
  assert(frame->in_use());
  if (frame->location() == location) {
    return;
  }
  Unlink(frame);
  set_flag(frame->index_, kFlagGlobal, location == PageLocation::kGlobal);
  LinkNew(frame);
}

void FrameTable::SetDirty(Frame* f, bool dirty) {
  const uint32_t i = f->index_;
  if (flag(i, kFlagDirty) == dirty) {
    return;
  }
  if (!flag(i, kFlagInUse)) {
    set_flag(i, kFlagDirty, dirty);  // a free frame is in no list
    return;
  }
  // A page turns dirty when it is written, so it is among the newest; it
  // turns clean when its write-back completes, and write-back takes the
  // oldest. Walk in from the end the frame is nearest.
  Unlink(f);
  set_flag(i, kFlagDirty, dirty);
  Link(f, /*from_lru_end=*/!dirty);
}

void FrameTable::Reset() {
  const uint32_t n = num_frames();
  free_.clear();
  index_.Clear();
  for (List& list : lists_) {
    list = List{};
  }
  next_seq_ = 0;
  uids_.assign(n, kInvalidUid);
  ages_.assign(n, 0);
  flags_.assign(n, 0);
  recirc_.assign(n, 0);
  for (uint32_t i = n; i > 0; i--) {
    frames_[i - 1].prev_ = UINT32_MAX;
    frames_[i - 1].next_ = UINT32_MAX;
    free_.push_back(i - 1);
  }
}

// Walks one location's clean list (and, unless clean_only, its dirty list)
// from the LRU end in merged LRU order, which is exactly the order of the
// single list the two split; returns the first unpinned frame matching
// pred.
template <typename Pred>
Frame* FrameTable::OldestIn(int clean_list, bool clean_only,
                            const Pred& pred) {
  uint32_t clean = lists_[clean_list].tail;
  uint32_t dirty = clean_only ? UINT32_MAX : lists_[clean_list + 1].tail;
  while (clean != UINT32_MAX || dirty != UINT32_MAX) {
    uint32_t& cursor =
        dirty == UINT32_MAX || (clean != UINT32_MAX && Older(clean, dirty))
            ? clean
            : dirty;
    Frame& f = frames_[cursor];
    if (!f.pinned() && pred(f)) {
      return &f;
    }
    cursor = f.prev_;
  }
  return nullptr;
}

namespace {
constexpr auto kAnyFrame = [](const Frame&) { return true; };
}  // namespace

Frame* FrameTable::OldestLocal() {
  return OldestIn(kLocalClean, /*clean_only=*/false, kAnyFrame);
}

Frame* FrameTable::OldestGlobal() {
  return OldestIn(kGlobalClean, /*clean_only=*/false, kAnyFrame);
}

Frame* FrameTable::PickVictim(SimTime now, double global_age_boost,
                              bool require_clean) {
  assert(global_age_boost >= 1.0);
  Frame* local = OldestIn(kLocalClean, require_clean, kAnyFrame);
  Frame* global = OldestIn(kGlobalClean, require_clean, kAnyFrame);
  if (global == nullptr) {
    return local;
  }
  if (local == nullptr) {
    return global;
  }
  const double local_age = static_cast<double>(now - local->last_access());
  const double global_age =
      static_cast<double>(now - global->last_access()) * global_age_boost;
  return global_age >= local_age ? global : local;
}

Frame* FrameTable::OldestMatching(
    SimTime now, double global_age_boost,
    const std::function<bool(const Frame&)>& pred) {
  Frame* best = nullptr;
  double best_age = -1;
  for (const int list : {kLocalClean, kGlobalClean}) {
    Frame* f = OldestIn(list, /*clean_only=*/false, pred);
    if (f == nullptr) {
      continue;
    }
    double age = static_cast<double>(now - f->last_access());
    if (list == kGlobalClean) {
      age *= global_age_boost;
    }
    if (age > best_age) {
      best = f;
      best_age = age;
    }
  }
  return best;
}

void FrameTable::ForEach(const std::function<void(const Frame&)>& fn) const {
  for (const Frame& f : frames_) {
    if (f.in_use()) {
      fn(f);
    }
  }
}

void FrameTable::LinkNew(Frame* f) {
  f->seq_ = next_seq_++;
  Link(f, /*from_lru_end=*/false);
}

void FrameTable::Link(Frame* f, bool from_lru_end) {
  const uint32_t i = f->index_;
  List& list = list_for(i);
  // f goes between prev (its MRU-side neighbour) and next (LRU side).
  uint32_t prev = UINT32_MAX;
  uint32_t next = UINT32_MAX;
  if (from_lru_end) {
    prev = list.tail;
    while (prev != UINT32_MAX && Older(prev, i)) {
      next = prev;
      prev = frames_[prev].prev_;
    }
  } else {
    next = list.head;
    while (next != UINT32_MAX && Older(i, next)) {
      prev = next;
      next = frames_[next].next_;
    }
  }
  f->prev_ = prev;
  f->next_ = next;
  if (prev != UINT32_MAX) {
    frames_[prev].next_ = i;
  } else {
    list.head = i;
  }
  if (next != UINT32_MAX) {
    frames_[next].prev_ = i;
  } else {
    list.tail = i;
  }
  list.size++;
}

void FrameTable::Unlink(Frame* f) {
  List& list = list_for(f->index_);
  if (f->prev_ != UINT32_MAX) {
    frames_[f->prev_].next_ = f->next_;
  } else {
    list.head = f->next_;
  }
  if (f->next_ != UINT32_MAX) {
    frames_[f->next_].prev_ = f->prev_;
  } else {
    list.tail = f->prev_;
  }
  f->prev_ = UINT32_MAX;
  f->next_ = UINT32_MAX;
  assert(list.size > 0);
  list.size--;
}

}  // namespace gms

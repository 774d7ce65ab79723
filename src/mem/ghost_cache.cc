#include "src/mem/ghost_cache.h"

#include <cassert>

namespace gms {

const char* GhostKindName(GhostKind kind) {
  switch (kind) {
    case GhostKind::kLru:
      return "lru";
    case GhostKind::kLfu:
      return "lfu";
    case GhostKind::kMru:
      return "mru";
  }
  return "unknown";
}

GhostCache::GhostCache(GhostKind kind, uint32_t max_capacity)
    : kind_(kind), max_capacity_(max_capacity), capacity_(max_capacity) {
  uids_.resize(max_capacity_);
  prev_.assign(max_capacity_, kNull);
  next_.assign(max_capacity_, kNull);
  freq_.assign(max_capacity_, 0);
  free_.reserve(max_capacity_);
  for (uint32_t i = max_capacity_; i-- > 0;) {
    free_.push_back(i);  // popped back-to-front: entry 0 is handed out first
  }
  index_.Reserve(max_capacity_, uids_.data());
}

void GhostCache::PushBack(uint32_t list, uint32_t idx) {
  List& l = lists_[list];
  prev_[idx] = l.tail;
  next_[idx] = kNull;
  if (l.tail != kNull) {
    next_[l.tail] = idx;
  } else {
    l.head = idx;
  }
  l.tail = idx;
}

void GhostCache::Unlink(uint32_t list, uint32_t idx) {
  List& l = lists_[list];
  if (prev_[idx] != kNull) {
    next_[prev_[idx]] = next_[idx];
  } else {
    l.head = next_[idx];
  }
  if (next_[idx] != kNull) {
    prev_[next_[idx]] = prev_[idx];
  } else {
    l.tail = prev_[idx];
  }
  prev_[idx] = next_[idx] = kNull;
}

void GhostCache::Touch(uint32_t idx) {
  const uint8_t f = freq_[idx];
  Unlink(ListIndexFor(f), idx);
  const uint8_t bumped = f < kMaxFreq ? static_cast<uint8_t>(f + 1) : kMaxFreq;
  freq_[idx] = bumped;
  PushBack(ListIndexFor(bumped), idx);
}

void GhostCache::Evict() {
  assert(size_ > 0);
  uint32_t victim = kNull;
  uint32_t list = 0;
  switch (kind_) {
    case GhostKind::kLru:
      victim = lists_[0].head;
      break;
    case GhostKind::kMru:
      victim = lists_[0].tail;
      break;
    case GhostKind::kLfu: {
      // Advance the floor to the lowest populated frequency; within that
      // bucket the head is the least recently promoted = least recently
      // used at this frequency.
      while (lists_[min_freq_].head == kNull) {
        min_freq_++;
      }
      list = min_freq_;
      victim = lists_[list].head;
      break;
    }
  }
  assert(victim != kNull);
  Remove(list, victim);
}

void GhostCache::Remove(uint32_t list, uint32_t idx) {
  index_.Erase(idx, uids_.data());
  Unlink(list, idx);
  freq_[idx] = 0;
  free_.push_back(idx);
  size_--;
}

bool GhostCache::Erase(const Uid& uid) {
  const uint32_t idx = Find(uid);
  if (idx == kNull) {
    return false;
  }
  Remove(ListIndexFor(freq_[idx]), idx);
  return true;
}

void GhostCache::Insert(const Uid& uid) {
  assert(!free_.empty());
  const uint32_t idx = free_.back();
  free_.pop_back();
  uids_[idx] = uid;
  freq_[idx] = 1;
  PushBack(ListIndexFor(1), idx);
  index_.Insert(idx, uids_.data());
  min_freq_ = 1;
  size_++;
}

bool GhostCache::Access(const Uid& uid) {
  const uint32_t idx = Find(uid);
  if (idx != kNull) {
    hits_++;
    Touch(idx);
    return true;
  }
  misses_++;
  if (capacity_ == 0) {
    return false;
  }
  if (size_ >= capacity_) {
    Evict();
  }
  Insert(uid);
  return false;
}

uint8_t GhostCache::Frequency(const Uid& uid) const {
  const uint32_t idx = Find(uid);
  return idx != kNull ? freq_[idx] : 0;
}

void GhostCache::set_capacity(uint32_t capacity) {
  capacity_ = capacity < max_capacity_ ? capacity : max_capacity_;
  while (size_ > capacity_) {
    Evict();
  }
}

}  // namespace gms

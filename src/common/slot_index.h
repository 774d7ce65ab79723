// Open-addressed index from a key to a row of a column the caller owns.
//
// FrameTable (uid -> frame slot), GhostCache (uid -> entry),
// MetricsRegistry (prefix -> metric family) and MetricSchema (suffix ->
// field) each already keep their keys in a column of their own; this table
// stores nothing but row numbers, so no key is held twice. A key column may
// hold records that compare equal to the looked-up key (a family compared
// with a prefix string). Slot value 0 marks an empty slot, otherwise it is row + 1.
// Linear probing over a power-of-two table at load factor <= 1/2; erase
// shifts displaced successors back into the hole (no tombstones), so probe
// chains never rot under churn.
//
// Every call takes the key column by pointer instead of remembering it: the
// owner's column may move (a moved GhostCache) or reallocate (a growing
// registry). A table reserved for its final row count never allocates
// again; Insert doubles the table otherwise.
#ifndef SRC_COMMON_SLOT_INDEX_H_
#define SRC_COMMON_SLOT_INDEX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace gms {

template <typename Key, typename Hash = std::hash<Key>>
class SlotIndex {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  size_t size() const { return size_; }

  // Sizes the table so `rows` keys fit at load <= 1/2 (at least 8 slots),
  // rehashing the rows already present.
  void Reserve(size_t rows, const Key* keys) {
    size_t want = 8;
    while (want < rows * 2) {
      want *= 2;
    }
    if (want > slots_.size()) {
      Rehash(want, keys);
    }
  }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), 0u);
    size_ = 0;
  }

  // The row whose key equals `key`, or kNotFound. `key` may be any type
  // that Hash accepts and Key compares equal to (a string_view probing a
  // string column).
  template <typename K>
  uint32_t Find(const K& key, const Key* keys) const {
    if (size_ == 0) {
      return kNotFound;
    }
    for (size_t s = SlotOf(key);; s = (s + 1) & mask_) {
      const uint32_t v = slots_[s];
      if (v == 0) {
        return kNotFound;
      }
      if (keys[v - 1] == key) {
        return v - 1;
      }
    }
  }

  // Indexes row `row` under keys[row], which must not be present yet.
  void Insert(uint32_t row, const Key* keys) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Reserve(size_ + 1, keys);
    }
    Place(row, keys);
    size_++;
  }

  // Removes row `row`, which must be indexed under keys[row].
  void Erase(uint32_t row, const Key* keys) {
    size_t hole = SlotOf(keys[row]);
    while (slots_[hole] != row + 1) {
      assert(slots_[hole] != 0 && "erasing a row that is not indexed");
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull every displaced successor whose probe path
    // passes through the hole back into it, so lookups never stop at an
    // empty slot that "should" have held them.
    for (size_t j = (hole + 1) & mask_; slots_[j] != 0; j = (j + 1) & mask_) {
      const size_t ideal = SlotOf(keys[slots_[j] - 1]);
      // slots_[j] stays put iff its ideal slot lies cyclically in (hole, j].
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = 0;
    size_--;
  }

 private:
  template <typename K>
  size_t SlotOf(const K& key) const {
    return static_cast<size_t>(Hash{}(key)) & mask_;
  }

  void Place(uint32_t row, const Key* keys) {
    size_t s = SlotOf(keys[row]);
    while (slots_[s] != 0) {
      s = (s + 1) & mask_;
    }
    slots_[s] = row + 1;
  }

  void Rehash(size_t num_slots, const Key* keys) {
    std::vector<uint32_t> old(num_slots, 0u);
    old.swap(slots_);
    mask_ = num_slots - 1;
    for (const uint32_t v : old) {
      if (v != 0) {
        Place(v - 1, keys);
      }
    }
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace gms

#endif  // SRC_COMMON_SLOT_INDEX_H_

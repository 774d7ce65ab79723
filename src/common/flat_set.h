// Open-addressing hash set of nonzero uint64 keys.
//
// Replaces std::unordered_set on hot paths that insert and erase small
// integer keys at high rate (e.g. armed timer ids: every getpage arms a
// timeout and cancels it on reply). std::unordered_set allocates a node per
// insert; FlatSet64 stores keys in one flat power-of-two table with linear
// probing and backward-shift deletion, so after warm-up the steady-state
// insert/erase cycle touches no allocator at all.
#ifndef SRC_COMMON_FLAT_SET_H_
#define SRC_COMMON_FLAT_SET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gms {

class FlatSet64 {
 public:
  static constexpr size_t kMinSlots = 16;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    slots_.assign(slots_.size(), 0);
    size_ = 0;
  }

  void Reserve(size_t n) {
    size_t want = kMinSlots;
    while (want < n * 2) {
      want *= 2;
    }
    if (want > slots_.size()) {
      Rehash(want);
    }
  }

  // Returns true if inserted, false if already present. `key` must be
  // nonzero (zero marks an empty slot).
  bool Insert(uint64_t key) {
    assert(key != 0);
    if (size_ * 2 >= slots_.size()) {
      Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const size_t mask = slots_.size() - 1;
    size_t i = IndexFor(key, mask);
    while (slots_[i] != 0) {
      if (slots_[i] == key) {
        return false;
      }
      i = (i + 1) & mask;
    }
    slots_[i] = key;
    size_++;
    return true;
  }

  bool Contains(uint64_t key) const {
    if (size_ == 0) {
      return false;
    }
    const size_t mask = slots_.size() - 1;
    size_t i = IndexFor(key, mask);
    while (slots_[i] != 0) {
      if (slots_[i] == key) {
        return true;
      }
      i = (i + 1) & mask;
    }
    return false;
  }

  // Removes `key` if present; returns whether it was. Backward-shift
  // deletion keeps probe chains intact without tombstones.
  bool Erase(uint64_t key) {
    if (size_ == 0) {
      return false;
    }
    const size_t mask = slots_.size() - 1;
    size_t i = IndexFor(key, mask);
    while (true) {
      if (slots_[i] == 0) {
        return false;
      }
      if (slots_[i] == key) {
        break;
      }
      i = (i + 1) & mask;
    }
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots_[j] == 0) {
        break;
      }
      // An entry can fill the hole only if its home slot is cyclically at or
      // before the hole (otherwise moving it would break its probe chain).
      const size_t home = IndexFor(slots_[j], mask);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = 0;
    size_--;
    return true;
  }

 private:
  static size_t IndexFor(uint64_t key, size_t mask) {
    // splitmix64-style finalizer; keys are often sequential ids.
    uint64_t x = key * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 32;
    return static_cast<size_t>(x) & mask;
  }

  void Rehash(size_t new_slots) {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_slots, 0);
    const size_t mask = new_slots - 1;
    for (uint64_t key : old) {
      if (key == 0) {
        continue;
      }
      size_t i = IndexFor(key, mask);
      while (slots_[i] != 0) {
        i = (i + 1) & mask;
      }
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

}  // namespace gms

#endif  // SRC_COMMON_FLAT_SET_H_

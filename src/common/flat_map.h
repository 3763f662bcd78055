// Open-addressing hash map from uint64_t keys to V: linear probing over a
// power-of-two slot array hashed with Mix64, kept at most half full, and
// backward-shift erase, so no tombstones pile up and a probe stops at the
// first empty slot however many keys have come and gone.
//
// It is the index of every per-key near structure the read path probes
// (the cache ring, its admission filter, subscription routing). A probe
// reads one short run of adjacent slots, where std::unordered_map chases a
// bucket pointer and then a node pointer, each a likely cache miss.
//
// Any insert or erase may move values, so pointers returned by Find and
// references from operator[] last only until the next one. Iteration order
// is unspecified. Not thread-safe.
#ifndef FMDS_SRC_COMMON_FLAT_MAP_H_
#define FMDS_SRC_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/hash.h"

namespace fmds {

template <typename V>
class FlatMap {
 public:
  // Sizes the table so that `n` keys fit without a rehash.
  void Reserve(size_t n) {
    size_t slots = kMinSlots;
    while (slots < 2 * n) {
      slots *= 2;
    }
    if (slots > slots_.size()) {
      Rehash(slots);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The value of `key`, or nullptr when absent.
  V* Find(uint64_t key) {
    const size_t i = SlotOf(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const V* Find(uint64_t key) const {
    const size_t i = SlotOf(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  // The value of `key`, value-initialized first when absent.
  V& operator[](uint64_t key) {
    if (V* value = Find(key)) {
      return *value;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }
    ++size_;
    Slot& s = slots_[EmptySlotFor(key)];
    s.key = key;
    s.used = true;
    return s.value;
  }

  // Removes `key`; false when absent. Each later entry of the probe run
  // that may live at the hole moves back into it, so every key stays
  // reachable from its home slot without a tombstone.
  bool Erase(uint64_t key) {
    size_t hole = SlotOf(key);
    if (hole == kAbsent) {
      return false;
    }
    for (size_t i = Next(hole); slots_[i].used; i = Next(i)) {
      // The entry at i may move to the hole unless its home lies
      // cyclically in (hole, i].
      if (((i - Home(slots_[i].key)) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot();
    assert(size_ > 0);
    --size_;
    return true;
  }

  // Removes every key and keeps the table's size.
  void Clear() {
    for (Slot& s : slots_) {
      s = Slot();
    }
    size_ = 0;
  }

  // fn(key, V&) over every entry, in unspecified order. fn must not insert
  // or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }

 private:
  static constexpr size_t kMinSlots = 16;
  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  struct Slot {
    uint64_t key = 0;
    bool used = false;
    V value{};
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>(Mix64(key)) & mask_;
  }
  size_t Next(size_t i) const { return (i + 1) & mask_; }

  // Slot holding `key`, or kAbsent.
  size_t SlotOf(uint64_t key) const {
    if (slots_.empty()) {
      return kAbsent;
    }
    for (size_t i = Home(key);; i = Next(i)) {
      if (!slots_[i].used) {
        return kAbsent;
      }
      if (slots_[i].key == key) {
        return i;
      }
    }
  }

  // First free slot of `key`'s probe run; the key must be absent and the
  // table not full.
  size_t EmptySlotFor(uint64_t key) const {
    size_t i = Home(key);
    while (slots_[i].used) {
      i = Next(i);
    }
    return i;
  }

  void Rehash(size_t slot_count) {
    assert(slot_count >= kMinSlots && (slot_count & (slot_count - 1)) == 0);
    assert(2 * size_ <= slot_count);
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(slot_count);
    mask_ = slot_count - 1;
    for (Slot& s : old) {
      if (s.used) {
        slots_[EmptySlotFor(s.key)] = std::move(s);
      }
    }
  }

  std::vector<Slot> slots_;  // empty, or a power of two at most half full
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_COMMON_FLAT_MAP_H_

// Fixed-capacity CLOCK (second-chance) replacement ring over uint64 keys.
//
// Shared eviction core of the near-memory caching layer (§3: client-side
// caches are what turn the ~10x near/far gap into throughput): NearCache
// drives it by byte budget and, by entry count, its admission filter.
// CLOCK approximates LRU with one reference bit per slot and a sweeping
// hand — eviction is O(slots swept), amortized O(1). The key index is a
// FlatMap sized for the full capacity at construction, so it never rehashes.
//
// Not thread-safe: like everything client-side, one owner thread.
#ifndef FMDS_SRC_CACHE_CLOCK_RING_H_
#define FMDS_SRC_CACHE_CLOCK_RING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"

namespace fmds {

template <typename Value>
class ClockRing {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  explicit ClockRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    index_.Reserve(capacity_);
  }

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  // Slot of `key`, or npos. Does not touch the reference bit — pair with
  // Touch() on use so a probe-only scan cannot pin an entry.
  size_t Find(uint64_t key) const {
    const size_t* slot = index_.Find(key);
    return slot == nullptr ? npos : *slot;
  }

  void Touch(size_t slot) { slots_[slot].ref = true; }
  // Clears the reference bit: marks the entry as first in line for the next
  // sweep (invalidated-but-resident cache entries use this).
  void Unref(size_t slot) { slots_[slot].ref = false; }

  uint64_t key(size_t slot) const { return slots_[slot].key; }
  Value& value(size_t slot) { return slots_[slot].value; }
  const Value& value(size_t slot) const { return slots_[slot].value; }

  // Inserts a new key (must be absent) with its reference bit set. At
  // capacity the CLOCK victim is evicted first and reported via `evicted`.
  // Returns the new slot.
  size_t Insert(uint64_t key, Value value,
                std::optional<std::pair<uint64_t, Value>>* evicted = nullptr) {
    if (index_.size() >= capacity_) {
      auto victim = EvictOne();
      if (evicted != nullptr) {
        *evicted = std::move(victim);
      }
    }
    size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = slots_.size();
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.key = key;
    s.value = std::move(value);
    s.ref = true;
    s.live = true;
    index_[key] = slot;
    return slot;
  }

  bool Erase(uint64_t key) {
    const size_t slot = Find(key);
    if (slot == npos) {
      return false;
    }
    Slot& s = slots_[slot];
    s.live = false;
    s.value = Value();
    free_.push_back(slot);
    index_.Erase(key);
    return true;
  }

  // Second-chance sweep from the hand: referenced entries get their bit
  // cleared and survive one lap; the first unreferenced live entry is
  // removed and returned. nullopt when empty.
  std::optional<std::pair<uint64_t, Value>> EvictOne() {
    if (index_.empty()) {
      return std::nullopt;
    }
    while (true) {
      if (hand_ >= slots_.size()) {
        hand_ = 0;
      }
      Slot& s = slots_[hand_];
      if (s.live) {
        if (s.ref) {
          s.ref = false;
        } else {
          std::pair<uint64_t, Value> victim{s.key, std::move(s.value)};
          s.live = false;
          s.value = Value();
          index_.Erase(victim.first);
          free_.push_back(hand_);
          ++hand_;
          return victim;
        }
      }
      ++hand_;
    }
  }

  // fn(key, Value&) over every live entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.live) {
        fn(s.key, s.value);
      }
    }
  }

  void Clear() {
    slots_.clear();
    free_.clear();
    index_.Clear();
    hand_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    Value value{};
    bool ref = false;
    bool live = false;
  };

  std::vector<Slot> slots_;       // grows on demand up to capacity_
  std::vector<size_t> free_;      // dead slot indices for reuse
  FlatMap<size_t> index_;  // key -> slot
  size_t hand_ = 0;
  size_t capacity_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CACHE_CLOCK_RING_H_

#include "src/fabric/memory_node.h"

#include <cassert>
#include <cstring>

namespace fmds {

MemoryNode::MemoryNode(NodeId id, uint64_t capacity_bytes,
                       const CongestionOptions& congestion)
    : id_(id), capacity_(capacity_bytes), service_queue_(congestion) {
  assert(capacity_bytes % kWordSize == 0);
  words_.assign(capacity_bytes / kWordSize, 0);
}

uint64_t MemoryNode::LoadWord(uint64_t offset) {
  assert(IsWordAligned(offset) && offset + kWordSize <= capacity_);
  stats_.ops_serviced.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(kWordSize, std::memory_order_relaxed);
  return WordRef(offset).load(std::memory_order_seq_cst);
}

void MemoryNode::StoreWord(uint64_t offset, uint64_t value) {
  assert(IsWordAligned(offset) && offset + kWordSize <= capacity_);
  stats_.ops_serviced.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(kWordSize, std::memory_order_relaxed);
  WordRef(offset).store(value, std::memory_order_seq_cst);
  PublishWrite(offset, kWordSize);
}

uint64_t MemoryNode::CompareSwapWord(uint64_t offset, uint64_t expected,
                                     uint64_t desired) {
  assert(IsWordAligned(offset) && offset + kWordSize <= capacity_);
  stats_.ops_serviced.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(kWordSize, std::memory_order_relaxed);
  uint64_t observed = expected;
  const bool swapped = WordRef(offset).compare_exchange_strong(
      observed, desired, std::memory_order_seq_cst);
  if (swapped) {
    PublishWrite(offset, kWordSize);
    return expected;
  }
  return observed;
}

uint64_t MemoryNode::FetchAddWord(uint64_t offset, uint64_t delta) {
  assert(IsWordAligned(offset) && offset + kWordSize <= capacity_);
  stats_.ops_serviced.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(kWordSize, std::memory_order_relaxed);
  const uint64_t old = WordRef(offset).fetch_add(delta,
                                                 std::memory_order_seq_cst);
  PublishWrite(offset, kWordSize);
  return old;
}

void MemoryNode::ReadRange(uint64_t offset, std::span<std::byte> out) {
  assert(offset + out.size() <= capacity_);
  stats_.ops_serviced.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(out.size(), std::memory_order_relaxed);
  size_t produced = 0;
  uint64_t cursor = offset;
  while (produced < out.size()) {
    const uint64_t word_base = cursor & ~(kWordSize - 1);
    const uint64_t in_word = cursor - word_base;
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(kWordSize - in_word, out.size() - produced));
    const uint64_t word =
        WordRef(word_base).load(std::memory_order_acquire);
    std::memcpy(out.data() + produced,
                reinterpret_cast<const char*>(&word) + in_word, take);
    produced += take;
    cursor += take;
  }
}

void MemoryNode::WriteRange(uint64_t offset, std::span<const std::byte> data) {
  assert(offset + data.size() <= capacity_);
  stats_.ops_serviced.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(data.size(), std::memory_order_relaxed);
  size_t consumed = 0;
  uint64_t cursor = offset;
  while (consumed < data.size()) {
    const uint64_t word_base = cursor & ~(kWordSize - 1);
    const uint64_t in_word = cursor - word_base;
    const size_t put = static_cast<size_t>(
        std::min<uint64_t>(kWordSize - in_word, data.size() - consumed));
    auto ref = WordRef(word_base);
    if (put == kWordSize) {
      uint64_t word;
      std::memcpy(&word, data.data() + consumed, kWordSize);
      ref.store(word, std::memory_order_release);
    } else {
      // Partial word: merge via CAS so concurrent word atomics stay intact.
      uint64_t cur = ref.load(std::memory_order_acquire);
      while (true) {
        uint64_t next = cur;
        std::memcpy(reinterpret_cast<char*>(&next) + in_word,
                    data.data() + consumed, put);
        if (ref.compare_exchange_weak(cur, next, std::memory_order_acq_rel)) {
          break;
        }
      }
    }
    consumed += put;
    cursor += put;
  }
  PublishWrite(offset, data.size());
}

Status MemoryNode::Subscribe(uint64_t offset, const NotifySpec& spec,
                             NotificationChannel* channel, SubId id,
                             uint64_t* snapshot) {
  if (!IsWordAligned(offset) || spec.len == 0) {
    return InvalidArgument("notification range must be word-aligned");
  }
  if (PageIndexOf(offset) != PageIndexOf(offset + spec.len - 1)) {
    return InvalidArgument("notification range must not cross a page");
  }
  if (offset + spec.len > capacity_) {
    return OutOfRange("notification range exceeds node capacity");
  }
  std::lock_guard<std::mutex> lock(sub_mu_);
  subs_.Add(offset, spec, channel, id);
  subs_active_.store(subs_.size(), std::memory_order_relaxed);
  if (snapshot != nullptr) {
    // Read-and-arm: the snapshot and the registration share this critical
    // section. A concurrent writer's publish also takes sub_mu_, so its
    // write is either already visible here (writer published before we
    // registered, or will find us registered) — the subscriber can compare
    // this word against the value it read before subscribing and treat any
    // difference as a raced write.
    *snapshot = WordRef(offset).load(std::memory_order_acquire);
  }
  return OkStatus();
}

bool MemoryNode::Unsubscribe(SubId id) {
  std::lock_guard<std::mutex> lock(sub_mu_);
  const bool removed = subs_.Remove(id);
  subs_active_.store(subs_.size(), std::memory_order_relaxed);
  return removed;
}

void MemoryNode::PublishWrite(uint64_t offset, uint64_t len) {
  if (subs_active_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(sub_mu_);
  std::vector<Subscription*> hits;
  subs_.Collect(offset, len, hits);
  for (Subscription* sub : hits) {
    if (sub->spec.mode == NotifyMode::kOnEqual) {
      // Fire only if the subscribed word now equals the target value.
      const uint64_t word =
          WordRef(sub->node_offset).load(std::memory_order_acquire);
      if (word != sub->spec.value) {
        continue;
      }
    }
    if (sub->spec.policy.drop_probability > 0.0 &&
        sub->drop_rng.NextBool(sub->spec.policy.drop_probability)) {
      stats_.notifications_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    NotifyEvent event;
    event.kind = NotifyEventKind::kChanged;
    event.sub_id = sub->id;
    // Report the intersection of the write with the subscribed range, in
    // global coordinates.
    const uint64_t lo = std::max(offset, sub->node_offset);
    const uint64_t hi =
        std::min(offset + len, sub->node_offset + sub->spec.len);
    event.addr = sub->spec.addr + (lo - sub->node_offset);
    event.len = hi - lo;
    // State-at-publish snapshot of the subscribed range's first word, read
    // under sub_mu_ — the same critical section read-and-arm uses. Racing
    // writers both publish; whichever publish runs last reads the final
    // word, so an event stream always ENDS with the current value.
    event.word = WordRef(sub->node_offset).load(std::memory_order_acquire);
    if (sub->spec.mode == NotifyMode::kOnWriteData) {
      event.data.resize(event.len);
      ReadRange(lo, std::span<std::byte>(event.data));
      // The read-back is node-internal; undo its service accounting so
      // client-visible counters stay exact.
      stats_.ops_serviced.fetch_sub(1, std::memory_order_relaxed);
      stats_.bytes_out.fetch_sub(event.len, std::memory_order_relaxed);
    }
    stats_.notifications_fired.fetch_add(1, std::memory_order_relaxed);
    const bool coalesce = sub->spec.policy.coalesce;
    sub->channel->Publish(std::move(event), coalesce);
  }
}

}  // namespace fmds

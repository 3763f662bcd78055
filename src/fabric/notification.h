// Notifications (§4.3): callbacks triggered when far memory changes, so
// clients can keep caches fresh without polling. Modes:
//   kOnWrite  (notify0)  — any write intersecting [addr, addr+len)
//   kOnEqual  (notifye)  — a write leaves the word at addr equal to `value`
//   kOnWriteData (notify0d) — like kOnWrite, but carries the changed bytes
//
// Delivery is best-effort by design (§7.2): per-subscription policies can
// drop or coalesce events, and a bounded channel that overflows replaces
// the lost events with a loss warning the data-structure algorithm must
// handle (versioning / full refresh).
#ifndef FMDS_SRC_FABRIC_NOTIFICATION_H_
#define FMDS_SRC_FABRIC_NOTIFICATION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/fabric/far_addr.h"

namespace fmds {

using SubId = uint64_t;
inline constexpr SubId kInvalidSubId = 0;

enum class NotifyMode : uint8_t {
  kOnWrite = 0,      // notify0
  kOnEqual = 1,      // notifye
  kOnWriteData = 2,  // notify0d
};

// How events for one subscription are delivered (§7.2 scalability knobs).
struct DeliveryPolicy {
  double drop_probability = 0.0;  // unreliable delivery
  bool coalesce = true;           // merge with a still-queued event of same sub
  static DeliveryPolicy Reliable() {
    return DeliveryPolicy{0.0, /*coalesce=*/false};
  }
};

struct NotifySpec {
  NotifyMode mode = NotifyMode::kOnWrite;
  FarAddr addr = kNullFarAddr;  // word-aligned; range must not cross a page
  uint64_t len = kWordSize;
  uint64_t value = 0;           // target for kOnEqual
  DeliveryPolicy policy = DeliveryPolicy::Reliable();
};

// Receiver-side callback target for dispatched events. Every subscription
// names one: FarClient::Subscribe(spec, sink) registers it, and the client's
// DispatchNotifications() routes each delivered event to it. Dispatch
// happens on the owning client's thread — sinks need no locking of their own.
class NotificationSink {
 public:
  virtual ~NotificationSink() = default;
  virtual void OnNotify(const struct NotifyEvent& event) = 0;
};

// A sink for waits that need only the wake-up and re-read the far word
// themselves (FarMutex's notify lock, FarBarrier): it drops every event.
// Stateless, so one instance serves every client.
NotificationSink* DiscardingSink();

enum class NotifyEventKind : uint8_t {
  kChanged = 0,      // a subscribed range changed
  kLossWarning = 1,  // channel overflowed; an unknown number of events lost
};

struct NotifyEvent {
  NotifyEventKind kind = NotifyEventKind::kChanged;
  SubId sub_id = kInvalidSubId;
  FarAddr addr = kNullFarAddr;  // start of the changed (possibly merged) range
  uint64_t len = 0;
  uint64_t coalesced = 0;  // additional events merged into this one
  // Value of the subscribed range's FIRST word, read at publish time inside
  // the node's subscription critical section (same section the read-and-arm
  // snapshot uses). For word-versioned caches — watched words that only ever
  // swing to fresh values, like HT-tree bucket heads — this lets a
  // subscriber compare the event against the word its entry was filled
  // under: a match confirms the entry is current (the writer was itself),
  // a mismatch demands invalidation. Coalesced events keep the latest word.
  uint64_t word = 0;
  std::vector<std::byte> data;  // payload for kOnWriteData
};

// Per-client inbound event queue. Thread-safe: memory nodes publish from
// writer threads; the owning client's DispatchNotifications() is its only
// reader.
class NotificationChannel {
 public:
  explicit NotificationChannel(size_t capacity = 4096) : capacity_(capacity) {}

  // Called by the fabric. Applies coalescing and overflow handling.
  void Publish(NotifyEvent event, bool coalesce);

  // Pops everything currently queued.
  std::vector<NotifyEvent> Drain();

  size_t capacity() const { return capacity_; }
  size_t size() const;
  uint64_t published() const;
  uint64_t overflow_lost() const;
  uint64_t coalesced() const;

 private:
  mutable std::mutex mu_;
  std::deque<NotifyEvent> queue_;
  // sub_id -> index into queue_ of a still-queued event to coalesce into.
  std::unordered_map<SubId, size_t> pending_index_;
  size_t capacity_;
  uint64_t published_ = 0;
  uint64_t overflow_lost_ = 0;
  uint64_t coalesced_ = 0;
  bool loss_pending_ = false;
};

// A sink that queues the events of its subscriptions for an owner that
// consumes them in order (a trie refresh, a mirror sync, an alarm scan). It
// holds only what dispatch routed to it, so structures sharing a client
// never see or consume each other's events. Bounded by the owning client's
// channel capacity: on overflow it drops everything it holds and keeps one
// loss warning, which the owner answers by resynchronizing.
class NotificationInbox : public NotificationSink {
 public:
  explicit NotificationInbox(size_t capacity) : capacity_(capacity) {}

  void OnNotify(const NotifyEvent& event) override;

  // Pops the oldest queued event; nullopt when empty. Near state the
  // dispatch already paid for, so popping costs nothing.
  std::optional<NotifyEvent> Pop();
  bool empty() const { return events_.empty(); }
  void Clear() { events_.clear(); }

 private:
  size_t capacity_;
  std::deque<NotifyEvent> events_;
};

// One registered subscription, owned by a memory node's SubscriptionTable.
struct Subscription {
  SubId id = kInvalidSubId;
  NotifySpec spec;          // spec.addr is the *global* FarAddr
  uint64_t node_offset = 0; // node-local offset of spec.addr
  NotificationChannel* channel = nullptr;
  Rng drop_rng{0};
};

// Word-indexed subscription registry of one memory node. The paper suggests
// recording subscriptions in page-table entries at the memory node so write
// paths find them cheaply; this goes one step finer: a subscription is
// registered under every word its range covers, so a write probes only the
// words it touches and never scans the other subscriptions on its page.
class SubscriptionTable {
 public:
  // Registers a subscription at a node-local offset. The range must lie
  // within a single page (hardware constraint from §4.3); the caller
  // validates this.
  void Add(uint64_t node_offset, const NotifySpec& spec,
           NotificationChannel* channel, SubId id);
  bool Remove(SubId id);

  // Appends the subscriptions whose range intersects [offset, offset+len),
  // each once, in ascending SubId order (the order they subscribed).
  void Collect(uint64_t offset, uint64_t len, std::vector<Subscription*>& out);

  size_t size() const { return subs_.size(); }

 private:
  FlatMap<std::unique_ptr<Subscription>> subs_;  // SubId -> subscription
  // Word index (offset / kWordSize) -> the subscriptions covering that
  // word, in ascending SubId order.
  FlatMap<std::vector<Subscription*>> by_word_;
};

}  // namespace fmds

#endif  // FMDS_SRC_FABRIC_NOTIFICATION_H_

// One far-memory node: a slab of word-addressable memory plus the memory-side
// logic the paper's hardware extensions require (fabric-level atomics,
// word-indexed notification subscriptions).
//
// Concurrency model: word operations are lock-free via std::atomic_ref on the
// 8-byte-aligned backing store, so they are atomic "at the fabric level,
// bypassing the processor caches" (§2) with respect to every other fabric
// operation. Byte-range writes merge partial edge words with CAS loops so
// they never corrupt concurrent word atomics. The subscription table is
// guarded by a mutex taken only when subscriptions exist on the node.
#ifndef FMDS_SRC_FABRIC_MEMORY_NODE_H_
#define FMDS_SRC_FABRIC_MEMORY_NODE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/fabric/far_addr.h"
#include "src/fabric/notification.h"
#include "src/fabric/stats.h"
#include "src/sim/congestion.h"

namespace fmds {

class MemoryNode {
 public:
  MemoryNode(NodeId id, uint64_t capacity_bytes,
             const CongestionOptions& congestion = {});
  MemoryNode(const MemoryNode&) = delete;
  MemoryNode& operator=(const MemoryNode&) = delete;

  NodeId id() const { return id_; }
  uint64_t capacity() const { return capacity_; }

  // --- Word operations (offset must be word-aligned and in range). ---
  uint64_t LoadWord(uint64_t offset);
  void StoreWord(uint64_t offset, uint64_t value);
  // Returns the previous value; publishes a change only if the swap happened.
  uint64_t CompareSwapWord(uint64_t offset, uint64_t expected,
                           uint64_t desired);
  uint64_t FetchAddWord(uint64_t offset, uint64_t delta);

  // --- Byte-range operations. ---
  void ReadRange(uint64_t offset, std::span<std::byte> out);
  void WriteRange(uint64_t offset, std::span<const std::byte> data);

  // --- Notifications (§4.3). ---
  // spec.addr is the global address; `offset` its node-local location.
  // Read-and-arm: if `snapshot` is non-null it receives the value of the
  // range's first word, read inside the same critical section that
  // registers the subscription. Writers publish under that lock too, so a
  // concurrent write is either visible in the snapshot or delivered as a
  // notification — never silently lost in between. Subscribers that cached
  // a value read *before* subscribing compare the snapshot against what
  // they read to detect a write that raced the registration.
  Status Subscribe(uint64_t offset, const NotifySpec& spec,
                   NotificationChannel* channel, SubId id,
                   uint64_t* snapshot = nullptr);
  bool Unsubscribe(SubId id);
  size_t subscription_count() const {
    return subs_active_.load(std::memory_order_relaxed);
  }

  NodeStats& stats() { return stats_; }

  // --- Fault/contention injection (E15 load-shift scenario). ---
  // Extra service time charged per round trip (and per batched sub-op)
  // serviced by this node. Models a hot or degraded node so rolling
  // telemetry (RecentP99, NodeLoadEwma) has a real signal to track. Settable
  // from any thread; clients read it when they account a round trip.
  void set_extra_service_ns(uint64_t ns) {
    extra_service_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t extra_service_ns() const {
    return extra_service_ns_.load(std::memory_order_relaxed);
  }

  // --- Congestion front end (DESIGN.md §14). ---
  // Offers `ops` operations to this node's bounded service queue. FarClient
  // calls this BEFORE executing memory effects: a shed operation must not
  // have happened. On admit, queue_ns is the load-dependent delay the client
  // folds into the round trip; on shed the node's ops_shed stat bumps and
  // the client surfaces kOverloaded.
  AdmissionOutcome OfferLoad(uint64_t now_ns, uint64_t ops) {
    AdmissionOutcome outcome = service_queue_.Offer(now_ns, ops);
    if (!outcome.admitted) {
      stats_.ops_shed.fetch_add(ops, std::memory_order_relaxed);
    }
    return outcome;
  }
  bool congestion_enabled() const { return service_queue_.enabled(); }
  // Runtime reconfiguration (scenario phases: slowdown, recovery). Safe
  // from any thread.
  void SetCongestion(const CongestionOptions& options) {
    service_queue_.SetOptions(options);
  }
  CongestionOptions congestion() const { return service_queue_.GetOptions(); }
  // Live gauges for DumpHealth / telemetry: ops waiting for service, and
  // pending front-end work, at the queue's virtual present.
  uint64_t queue_depth_ops() const { return service_queue_.DepthOps(); }
  uint64_t queue_backlog_ns() const { return service_queue_.BacklogNs(); }

 private:
  std::atomic_ref<uint64_t> WordRef(uint64_t offset) {
    return std::atomic_ref<uint64_t>(words_[offset / kWordSize]);
  }

  // Fires subscriptions intersecting the written range.
  void PublishWrite(uint64_t offset, uint64_t len);

  NodeId id_;
  uint64_t capacity_;
  std::vector<uint64_t> words_;

  std::mutex sub_mu_;
  SubscriptionTable subs_;
  std::atomic<size_t> subs_active_{0};
  std::atomic<uint64_t> extra_service_ns_{0};
  ServiceQueue service_queue_;
  NodeStats stats_;
};

}  // namespace fmds

#endif  // FMDS_SRC_FABRIC_MEMORY_NODE_H_

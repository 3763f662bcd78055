// Far-memory MPMC queue (§5.3).
//
// "We address this problem by using fetch-and-add-indirect and
//  store-and-add-indirect (faai, saai). These instructions permit a client to
//  do two things atomically: (1) update the head or tail pointers and
//  (2) extract or insert the required item. ... with one far access in the
//  common fast-path case."
//
// Far layout (one contiguous block):
//   header: head pointer word, tail pointer word, lock, geometry
//   ring:   `capacity` word slots
//   slack:  max_clients + 1 extra slots past the ring (§5.3's slack region)
//
// Fast paths (ONE far access each):
//   Enqueue: saai(tail, +8, v) — bump tail, store v at the old tail slot.
//   Dequeue: faai(head, +8)    — bump head, load the old head slot.
// The old-pointer value both return (see DESIGN.md §1) tells the client —
// locally, off the critical path — whether it landed in the slack region.
//
// Slow paths (far mutex + exact pointer reads, all accesses counted):
//   * wrap-around: an op that lands in the slack region fixes the queue up —
//     tail landers copy slack slots back to the ring start and subtract one
//     lap from the pointer; head landers consume the wrapped ring slot;
//   * empty race: a dequeue that reads an unwritten slot (0) — in the ring
//     or, on an empty queue, in the slack — either spins for the in-flight
//     producer assigned to that exact slot or returns the reservation and
//     reports empty; no dequeue keeps a reservation it did not fill;
//   * occupancy: clients keep *background-refreshed* estimates of the remote
//     head/tail ("second logical slack", §5.3) and fall back to synchronous
//     pointer reads only when the estimated margin gets thin.
//
// Values are non-zero uint64 words (0 marks an empty slot); real deployments
// store far pointers, which are non-zero by construction.
#ifndef FMDS_SRC_CORE_FAR_QUEUE_H_
#define FMDS_SRC_CORE_FAR_QUEUE_H_

#include <cstdint>

#include "src/alloc/far_allocator.h"
#include "src/core/far_mutex.h"
#include "src/fabric/far_client.h"

namespace fmds {

class FarQueue {
 public:
  struct Options {
    uint64_t capacity = 1024;    // ring slots
    uint64_t max_clients = 16;   // n: bound on concurrent clients
    // Refresh the head/tail estimates (background reads) every this many
    // fast-path ops. Ignored under watch_estimates.
    uint64_t refresh_every = 4;
    // Watch the head/tail header words via read-and-arm subscriptions
    // instead of periodic background reads: estimates update from pushed
    // notifications drained at op entry, so an IDLE consumer's poll
    // (estimate says empty) costs ZERO far accesses — the ReadWord
    // empty-check and the periodic refresh reads both disappear. On a
    // channel loss warning the estimates resynchronize with one pair of
    // background reads.
    bool watch_estimates = false;
  };

  struct OpStats {
    uint64_t fast_enqueues = 0;
    uint64_t fast_dequeues = 0;
    uint64_t slow_enqueues = 0;  // slack landings + occupancy fallbacks
    uint64_t slow_dequeues = 0;
    uint64_t wraps = 0;          // lap fixups this handle performed
    uint64_t empty_races = 0;    // dequeues that hit an unwritten slot
  };

  // Creates the queue in far memory; the handle is bound to `client`.
  static Result<FarQueue> Create(FarClient* client, FarAllocator* alloc,
                                 Options options);
  static Result<FarQueue> Create(FarClient* client, FarAllocator* alloc);
  // Binds to an existing queue (reads the geometry header). The Options
  // overload applies this handle's estimate knobs (refresh_every /
  // watch_estimates); geometry fields are ignored — the directory knows.
  static Result<FarQueue> Attach(FarClient* client, FarAddr header);
  static Result<FarQueue> Attach(FarClient* client, FarAddr header,
                                 Options options);

  FarAddr header() const { return header_; }
  uint64_t capacity() const { return capacity_; }

  // Adds `value` (non-zero). kResourceExhausted when (conservatively) full.
  Status Enqueue(uint64_t value);
  // Removes the oldest value. kNotFound when (conservatively) empty.
  Result<uint64_t> Dequeue();

  // Exact occupancy via synchronous pointer reads (two far accesses) —
  // a deliberate slow-path helper for draining/tests.
  Result<uint64_t> SizeSlow();

  const OpStats& op_stats() const { return op_stats_; }
  FarClient* client() { return client_; }

 private:
  // Header words.
  static constexpr uint64_t kHdrHead = 0;
  static constexpr uint64_t kHdrTail = 8;
  static constexpr uint64_t kHdrLock = 16;
  static constexpr uint64_t kHdrRingBase = 24;
  static constexpr uint64_t kHdrCapacity = 32;
  static constexpr uint64_t kHdrMaxClients = 40;
  static constexpr uint64_t kHeaderBytes = 64;

  FarQueue(FarClient* client, FarAddr header);

  FarAddr head_addr() const { return header_ + kHdrHead; }
  FarAddr tail_addr() const { return header_ + kHdrTail; }
  FarAddr ring_end() const { return ring_base_ + capacity_ * kWordSize; }
  FarAddr slack_end() const {
    return ring_end() + (max_clients_ + 1) * kWordSize;
  }

  // Background refresh of the remote pointer estimates.
  Status MaybeRefreshEstimates();

  // Pushed estimates (Options::watch_estimates): one sink watching the
  // head and tail header words. Heap-owned because the pointer registered
  // with FarClient::Subscribe must stay stable across FarQueue moves.
  struct EstimateWatch : NotificationSink {
    SubId head_sub = kInvalidSubId;
    SubId tail_sub = kInvalidSubId;
    uint64_t head = 0;  // latest pushed pointer values (absolute addresses)
    uint64_t tail = 0;
    bool loss = false;  // channel overflowed; values untrustworthy
    void OnNotify(const NotifyEvent& event) override;
  };
  Status EnableWatch();

  // Slack-landing fixups (hold the queue lock).
  Status FixupTailLanding(FarAddr landed);
  Result<uint64_t> FixupHeadLanding(FarAddr landed, uint64_t faai_value);
  // An empty reservation at `landed` whose item belongs in ring `slot`:
  // returns the value once its producer fills the slot, or 0 after giving
  // the reservation back by a head CAS that succeeds only once every later
  // reserver has unwound (LIFO: slots fill in order, so ours fills first).
  // Yields every few tries and has no deadline. Known gap: slots carry no lap
  // tag, so if a waiter sleeps through a whole ring lap after its producer
  // filled the slot, the next lap's producer overwrites the owed item and a
  // later dequeuer waits here for an item that never comes.
  Result<uint64_t> AwaitOrUnwind(FarAddr landed, FarAddr slot);

  FarClient* client_;
  FarAddr header_;
  FarAddr ring_base_ = 0;
  uint64_t capacity_ = 0;
  uint64_t max_clients_ = 0;
  uint64_t refresh_every_ = 4;
  FarMutex lock_ = FarMutex::Attach(kNullFarAddr);

  // Conservative estimates of the remote pointers (absolute addresses).
  uint64_t est_head_ = 0;
  uint64_t est_tail_ = 0;
  uint64_t ops_since_refresh_ = 0;
  OwnedSink<EstimateWatch> watch_;

  OpStats op_stats_;
};

inline Result<FarQueue> FarQueue::Create(FarClient* client,
                                         FarAllocator* alloc) {
  return Create(client, alloc, Options{});
}

}  // namespace fmds

#endif  // FMDS_SRC_CORE_FAR_QUEUE_H_

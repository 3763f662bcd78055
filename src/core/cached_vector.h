// Notification-maintained vector cache (§5.1): "If desired, client caches
// can be updated using notifications: clients subscribe to specific
// (ranges of) addresses to receive notifications when they are modified."
//
// CachedFarVector wraps a far word vector with a full local mirror kept
// fresh by notify0d subscriptions: every remote write is pushed to the
// client with its data, so reads cost ZERO far accesses. Because delivery
// is best-effort (§7.2), a channel loss warning triggers a bulk resync
// read; correctness never depends on delivery.
//
// Freshness contract: Get() reflects every write whose notification had
// been delivered when Sync() last ran — the "freshness" axis of §3.2 set
// to eventual; use RefreshableVector for bounded staleness with explicit
// refresh points, or plain FarVector for always-fresh reads at one far
// access each.
#ifndef FMDS_SRC_CORE_CACHED_VECTOR_H_
#define FMDS_SRC_CORE_CACHED_VECTOR_H_

#include <cstdint>
#include <vector>

#include "src/alloc/far_allocator.h"
#include "src/fabric/far_client.h"

namespace fmds {

class CachedFarVector {
 public:
  struct Stats {
    uint64_t events_applied = 0;
    uint64_t loss_resyncs = 0;
    uint64_t syncs = 0;
  };

  // Creates backing far storage of `size` words.
  static Result<CachedFarVector> Create(FarClient* client,
                                        FarAllocator* alloc, uint64_t size);
  // Binds to existing storage created elsewhere ([0] size, then words).
  static Result<CachedFarVector> Attach(FarClient* client, FarAddr header);

  FarAddr header() const { return header_; }
  uint64_t size() const { return size_; }

  // Writer side: one far access; subscribers' mirrors follow.
  Status Set(uint64_t i, uint64_t value);

  // Reader side: builds the mirror (one bulk read) and arms notify0d over
  // the element region (one subscription per page).
  Status EnableMirror();
  // Dispatches the client's notifications, then applies this mirror's
  // pushed updates; a loss warning triggers one bulk re-read. Near-only in
  // the common case.
  Status Sync();
  // Mirror read (near access). Call Sync() first for the freshest view.
  Result<uint64_t> Get(uint64_t i);

  const Stats& stats() const { return stats_; }

 private:
  CachedFarVector(FarClient* client, FarAddr header)
      : client_(client),
        header_(header),
        inbox_(MakeOwnedSink<NotificationInbox>(
            client, client->channel().capacity())) {}

  FarAddr ElementAddr(uint64_t i) const {
    return data_ + i * kWordSize;
  }
  Status Resync();

  FarClient* client_;
  FarAddr header_;
  FarAddr data_ = kNullFarAddr;
  uint64_t size_ = 0;
  bool mirror_enabled_ = false;
  std::vector<uint64_t> mirror_;
  // Sink of the mirror's page subscriptions.
  OwnedSink<NotificationInbox> inbox_;
  Stats stats_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_CACHED_VECTOR_H_

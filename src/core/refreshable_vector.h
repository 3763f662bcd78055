// Refreshable vector (§5.4): a client-cached vector that may serve stale
// reads but guarantees freshness after Refresh() — the parameter-server
// abstraction ("workers read parameters from the vector and refresh
// periodically to provide bounded staleness").
//
// Far layout: element array + a contiguous per-group version region.
// A writer bumps the group version with every element update; readers keep
// a full local mirror and refresh it by:
//   * kPollVersions — read the version region (1 far access), diff against
//     the mirror, rgather exactly the changed groups (1 more far access);
//   * kNotify — subscribe notify0 to the version region; refreshes dispatch
//     the client's notifications (near accesses only) and rgather just the
//     invalidated groups: ZERO far accesses when nothing changed;
//   * kAuto — the paper's dynamic policy: start polling while the update
//     rate is high, shift to notifications as updates slow (an iterative ML
//     workload converging), and shift back if the rate picks up.
// Notification loss (best-effort delivery, §7.2) degrades kNotify to a full
// version poll on the next refresh — never to incorrect data.
#ifndef FMDS_SRC_CORE_REFRESHABLE_VECTOR_H_
#define FMDS_SRC_CORE_REFRESHABLE_VECTOR_H_

#include <cstdint>
#include <vector>

#include "src/alloc/far_allocator.h"
#include "src/fabric/far_client.h"

namespace fmds {

class RefreshableVector {
 public:
  struct Options {
    uint64_t size = 0;        // elements (uint64 words)
    uint64_t group_size = 64; // elements per version group
  };

  enum class RefreshMode : uint8_t { kPollVersions = 0, kNotify = 1, kAuto = 2 };

  struct RefreshStats {
    uint64_t refreshes = 0;
    uint64_t groups_refreshed = 0;
    uint64_t mode_switches = 0;
    uint64_t full_polls = 0;       // version-region reads
    uint64_t loss_fallbacks = 0;   // notify losses degraded to a full poll
    bool notify_active = false;
  };

  static Result<RefreshableVector> Create(FarClient* client,
                                          FarAllocator* alloc,
                                          Options options);
  static Result<RefreshableVector> Attach(FarClient* client, FarAddr header);

  FarAddr header() const { return header_; }
  uint64_t size() const { return size_; }
  uint64_t num_groups() const { return num_groups_; }

  // ---- Writer side ----
  // Multi-writer safe: element write + atomic version bump (2 far accesses).
  Status Update(uint64_t i, uint64_t value);
  // Single-writer optimization: element + absolute version in one wscatter
  // (1 far access, 2 messages).
  Status UpdateScatter(uint64_t i, uint64_t value);

  // ---- Reader side ----
  // Builds the local mirror (one bulk read) and arms the chosen policy.
  Status EnableReader(RefreshMode mode);
  // Serves from the local mirror; may be stale until the next Refresh().
  Result<uint64_t> Get(uint64_t i) const;
  // Bounded-staleness anchor: after Refresh() returns, the mirror reflects
  // every update that completed before the call.
  Status Refresh();

  const RefreshStats& refresh_stats() const { return refresh_stats_; }

 private:
  // Header words.
  static constexpr uint64_t kHdrData = 0;
  static constexpr uint64_t kHdrVersions = 8;
  static constexpr uint64_t kHdrSize = 16;
  static constexpr uint64_t kHdrGroupSize = 24;
  static constexpr uint64_t kHdrNumGroups = 32;
  static constexpr uint64_t kHeaderBytes = 64;

  // kAuto hysteresis: switch to notifications after this many consecutive
  // refreshes below the low-water change fraction; back to polling above
  // the high-water fraction.
  static constexpr int kQuietRefreshesToNotify = 3;
  static constexpr double kLowWaterFraction = 0.05;
  static constexpr double kHighWaterFraction = 0.25;

  RefreshableVector(FarClient* client, FarAddr header);

  FarAddr ElementAddr(uint64_t i) const { return data_ + i * kWordSize; }
  FarAddr VersionAddr(uint64_t g) const { return versions_ + g * kWordSize; }
  uint64_t GroupOf(uint64_t i) const { return i / group_size_; }
  uint64_t GroupLen(uint64_t g) const {
    const uint64_t first = g * group_size_;
    return std::min(group_size_, size_ - first);
  }

  Status SubscribeVersions();
  void UnsubscribeVersions();
  // Pulls the listed groups' data (and versions) with one rgather.
  Status PullGroups(const std::vector<uint64_t>& groups);
  Status RefreshByPolling();
  Status RefreshByNotifications();

  FarClient* client_;
  FarAddr header_;
  FarAddr data_ = kNullFarAddr;
  FarAddr versions_ = kNullFarAddr;
  uint64_t size_ = 0;
  uint64_t group_size_ = 0;
  uint64_t num_groups_ = 0;

  // Writer-side absolute version cache (UpdateScatter).
  std::vector<uint64_t> writer_versions_;

  // Reader-side mirror.
  bool reader_enabled_ = false;
  RefreshMode mode_ = RefreshMode::kPollVersions;
  bool notify_active_ = false;
  std::vector<uint64_t> mirror_;
  std::vector<uint64_t> mirror_versions_;
  // Sink of the version-region subscriptions.
  OwnedSink<NotificationInbox> inbox_;
  int quiet_refreshes_ = 0;
  RefreshStats refresh_stats_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_REFRESHABLE_VECTOR_H_

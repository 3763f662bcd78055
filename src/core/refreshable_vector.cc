#include "src/core/refreshable_vector.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace fmds {

RefreshableVector::RefreshableVector(FarClient* client, FarAddr header)
    : client_(client),
      header_(header),
      inbox_(MakeOwnedSink<NotificationInbox>(
          client, client->channel().capacity())) {}

Result<RefreshableVector> RefreshableVector::Create(FarClient* client,
                                                    FarAllocator* alloc,
                                                    Options options) {
  if (options.size == 0 || options.group_size == 0) {
    return Status(StatusCode::kInvalidArgument, "bad refreshable options");
  }
  const uint64_t num_groups =
      (options.size + options.group_size - 1) / options.group_size;
  FMDS_ASSIGN_OR_RETURN(FarAddr header, alloc->Allocate(kHeaderBytes));
  FMDS_ASSIGN_OR_RETURN(FarAddr data,
                        alloc->Allocate(options.size * kWordSize));
  FMDS_ASSIGN_OR_RETURN(FarAddr versions,
                        alloc->Allocate(num_groups * kWordSize));

  std::vector<uint64_t> zeros(options.size, 0);
  FMDS_RETURN_IF_ERROR(client->Write(
      data, std::as_bytes(std::span<const uint64_t>(zeros))));
  zeros.assign(num_groups, 0);
  FMDS_RETURN_IF_ERROR(client->Write(
      versions, std::as_bytes(std::span<const uint64_t>(zeros))));

  uint64_t hdr[8] = {};
  hdr[kHdrData / 8] = data;
  hdr[kHdrVersions / 8] = versions;
  hdr[kHdrSize / 8] = options.size;
  hdr[kHdrGroupSize / 8] = options.group_size;
  hdr[kHdrNumGroups / 8] = num_groups;
  FMDS_RETURN_IF_ERROR(client->Write(
      header, std::as_bytes(std::span<const uint64_t>(hdr))));

  RefreshableVector vec(client, header);
  vec.data_ = data;
  vec.versions_ = versions;
  vec.size_ = options.size;
  vec.group_size_ = options.group_size;
  vec.num_groups_ = num_groups;
  vec.writer_versions_.assign(num_groups, 0);
  return vec;
}

Result<RefreshableVector> RefreshableVector::Attach(FarClient* client,
                                                    FarAddr header) {
  uint64_t hdr[8];
  FMDS_RETURN_IF_ERROR(client->Read(
      header, std::as_writable_bytes(std::span<uint64_t>(hdr))));
  RefreshableVector vec(client, header);
  vec.data_ = hdr[kHdrData / 8];
  vec.versions_ = hdr[kHdrVersions / 8];
  vec.size_ = hdr[kHdrSize / 8];
  vec.group_size_ = hdr[kHdrGroupSize / 8];
  vec.num_groups_ = hdr[kHdrNumGroups / 8];
  vec.writer_versions_.assign(vec.num_groups_, 0);
  return vec;
}

Status RefreshableVector::Update(uint64_t i, uint64_t value) {
  if (i >= size_) {
    return OutOfRange("refreshable index");
  }
  // Data first, then the version bump: a reader that observes the new
  // version is guaranteed to gather the new datum.
  FMDS_RETURN_IF_ERROR(client_->WriteWord(ElementAddr(i), value));
  return client_->FetchAdd(VersionAddr(GroupOf(i)), 1).status();
}

Status RefreshableVector::UpdateScatter(uint64_t i, uint64_t value) {
  if (i >= size_) {
    return OutOfRange("refreshable index");
  }
  const uint64_t g = GroupOf(i);
  const uint64_t next_version = ++writer_versions_[g];
  client_->AccountNear(1);
  const uint64_t payload[2] = {value, next_version};
  const FarSeg iov[2] = {FarSeg{ElementAddr(i), kWordSize},
                         FarSeg{VersionAddr(g), kWordSize}};
  return client_->WScatter(
      iov, std::as_bytes(std::span<const uint64_t>(payload)));
}

Status RefreshableVector::SubscribeVersions() {
  // One notify0 subscription per page-sized chunk of the version region
  // (a hardware subscription must not cross a page, §4.3).
  const uint64_t bytes = num_groups_ * kWordSize;
  uint64_t offset = 0;
  while (offset < bytes) {
    const FarAddr addr = versions_ + offset;
    const uint64_t page_left = kPageSize - (addr % kPageSize);
    const uint64_t len = std::min(bytes - offset, page_left);
    NotifySpec spec;
    spec.mode = NotifyMode::kOnWrite;
    spec.addr = addr;
    spec.len = len;
    spec.policy.coalesce = false;  // every group invalidation matters
    FMDS_RETURN_IF_ERROR(client_->Subscribe(spec, inbox_.get()).status());
    offset += len;
  }
  notify_active_ = true;
  refresh_stats_.notify_active = true;
  return OkStatus();
}

void RefreshableVector::UnsubscribeVersions() {
  client_->UnsubscribeSink(inbox_.get());
  inbox_->Clear();  // invalidations of the old watch: the next poll covers them
  notify_active_ = false;
  refresh_stats_.notify_active = false;
}

Status RefreshableVector::EnableReader(RefreshMode mode) {
  mode_ = mode;
  mirror_.assign(size_, 0);
  mirror_versions_.assign(num_groups_, 0);
  // Initial full pull: versions first would race ongoing writers; pulling
  // versions *before* data keeps the mirror conservative (any concurrent
  // update leaves a version ahead of the mirror and re-pulls next refresh).
  FMDS_RETURN_IF_ERROR(client_->Read(
      versions_,
      std::as_writable_bytes(std::span<uint64_t>(mirror_versions_))));
  FMDS_RETURN_IF_ERROR(client_->Read(
      data_, std::as_writable_bytes(std::span<uint64_t>(mirror_))));
  reader_enabled_ = true;
  if (mode == RefreshMode::kNotify) {
    FMDS_RETURN_IF_ERROR(SubscribeVersions());
  }
  return OkStatus();
}

Result<uint64_t> RefreshableVector::Get(uint64_t i) const {
  if (!reader_enabled_) {
    return Status(StatusCode::kFailedPrecondition, "reader not enabled");
  }
  if (i >= size_) {
    return Status(StatusCode::kOutOfRange, "refreshable index");
  }
  client_->AccountNear(1);
  return mirror_[i];
}

Status RefreshableVector::PullGroups(const std::vector<uint64_t>& groups) {
  if (groups.empty()) {
    return OkStatus();
  }
  // Gather version words and group payloads in one round trip each way:
  // versions travel with the data so the mirror's version reflects what was
  // actually gathered.
  std::vector<FarSeg> iov;
  uint64_t total_words = 0;
  for (uint64_t g : groups) {
    iov.push_back(FarSeg{VersionAddr(g), kWordSize});
    iov.push_back(FarSeg{ElementAddr(g * group_size_),
                         GroupLen(g) * kWordSize});
    total_words += 1 + GroupLen(g);
  }
  std::vector<uint64_t> buf(total_words);
  FMDS_RETURN_IF_ERROR(client_->RGather(
      iov, std::as_writable_bytes(std::span<uint64_t>(buf))));
  size_t cursor = 0;
  for (uint64_t g : groups) {
    mirror_versions_[g] = buf[cursor++];
    const uint64_t len = GroupLen(g);
    std::copy_n(buf.begin() + cursor, len,
                mirror_.begin() + g * group_size_);
    cursor += len;
  }
  refresh_stats_.groups_refreshed += groups.size();
  return OkStatus();
}

Status RefreshableVector::RefreshByPolling() {
  ++refresh_stats_.full_polls;
  std::vector<uint64_t> current(num_groups_);
  FMDS_RETURN_IF_ERROR(client_->Read(
      versions_, std::as_writable_bytes(std::span<uint64_t>(current))));
  std::vector<uint64_t> changed;
  for (uint64_t g = 0; g < num_groups_; ++g) {
    if (current[g] != mirror_versions_[g]) {
      changed.push_back(g);
    }
  }
  client_->AccountNear(num_groups_ / 8 + 1);  // local diff scan
  FMDS_RETURN_IF_ERROR(PullGroups(changed));
  // kAuto: quiet periods shift the policy to notifications.
  if (mode_ == RefreshMode::kAuto) {
    const double fraction = static_cast<double>(changed.size()) /
                            static_cast<double>(num_groups_);
    quiet_refreshes_ = fraction <= kLowWaterFraction ? quiet_refreshes_ + 1
                                                     : 0;
    if (quiet_refreshes_ >= kQuietRefreshesToNotify && !notify_active_) {
      FMDS_RETURN_IF_ERROR(SubscribeVersions());
      ++refresh_stats_.mode_switches;
    }
  }
  return OkStatus();
}

Status RefreshableVector::RefreshByNotifications() {
  bool lost = false;
  std::vector<uint64_t> dirty;
  (void)client_->DispatchNotifications();
  while (auto event = inbox_->Pop()) {
    if (event->kind == NotifyEventKind::kLossWarning) {
      lost = true;
      continue;
    }
    const uint64_t first = (event->addr - versions_) / kWordSize;
    const uint64_t last =
        (event->addr + event->len - 1 - versions_) / kWordSize;
    for (uint64_t g = first; g <= last && g < num_groups_; ++g) {
      dirty.push_back(g);
    }
  }
  if (lost) {
    // Best-effort delivery dropped events: fall back to a full version poll
    // this round (correctness never depends on notifications).
    ++refresh_stats_.loss_fallbacks;
    return RefreshByPolling();
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  FMDS_RETURN_IF_ERROR(PullGroups(dirty));
  if (mode_ == RefreshMode::kAuto && notify_active_) {
    const double fraction = static_cast<double>(dirty.size()) /
                            static_cast<double>(num_groups_);
    if (fraction >= kHighWaterFraction) {
      // Update storm: notifications cost more than polling; switch back.
      UnsubscribeVersions();
      quiet_refreshes_ = 0;
      ++refresh_stats_.mode_switches;
    }
  }
  return OkStatus();
}

Status RefreshableVector::Refresh() {
  if (!reader_enabled_) {
    return FailedPrecondition("reader not enabled");
  }
  ++refresh_stats_.refreshes;
  if (notify_active_) {
    return RefreshByNotifications();
  }
  return RefreshByPolling();
}

}  // namespace fmds

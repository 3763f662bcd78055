#include "src/core/cached_vector.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace fmds {

Result<CachedFarVector> CachedFarVector::Create(FarClient* client,
                                                FarAllocator* alloc,
                                                uint64_t size) {
  if (size == 0) {
    return Status(StatusCode::kInvalidArgument, "empty cached vector");
  }
  // Header: [0] size, [8] data pointer. Data page-aligned so the
  // notification subscriptions tile cleanly.
  FMDS_ASSIGN_OR_RETURN(FarAddr header, alloc->Allocate(2 * kWordSize));
  FMDS_ASSIGN_OR_RETURN(
      FarAddr data,
      alloc->Allocate(size * kWordSize, AllocHint::Any(), kPageSize));
  const uint64_t hdr[2] = {size, data};
  FMDS_RETURN_IF_ERROR(client->Write(
      header, std::as_bytes(std::span<const uint64_t>(hdr))));
  std::vector<uint64_t> zeros(size, 0);
  FMDS_RETURN_IF_ERROR(client->Write(
      data, std::as_bytes(std::span<const uint64_t>(zeros))));
  CachedFarVector vec(client, header);
  vec.data_ = data;
  vec.size_ = size;
  return vec;
}

Result<CachedFarVector> CachedFarVector::Attach(FarClient* client,
                                                FarAddr header) {
  uint64_t hdr[2];
  FMDS_RETURN_IF_ERROR(client->Read(
      header, std::as_writable_bytes(std::span<uint64_t>(hdr))));
  CachedFarVector vec(client, header);
  vec.size_ = hdr[0];
  vec.data_ = hdr[1];
  return vec;
}

Status CachedFarVector::Set(uint64_t i, uint64_t value) {
  if (i >= size_) {
    return OutOfRange("cached vector index");
  }
  return client_->WriteWord(ElementAddr(i), value);
}

Status CachedFarVector::EnableMirror() {
  mirror_.assign(size_, 0);
  FMDS_RETURN_IF_ERROR(client_->Read(
      data_, std::as_writable_bytes(std::span<uint64_t>(mirror_))));
  // notify0d per page chunk: updates arrive with their data.
  const uint64_t bytes = size_ * kWordSize;
  uint64_t offset = 0;
  while (offset < bytes) {
    const FarAddr addr = data_ + offset;
    const uint64_t page_left = kPageSize - (addr % kPageSize);
    const uint64_t len = std::min(bytes - offset, page_left);
    NotifySpec spec;
    spec.mode = NotifyMode::kOnWriteData;
    spec.addr = addr;
    spec.len = len;
    spec.policy.coalesce = false;  // each update applies individually
    FMDS_RETURN_IF_ERROR(client_->Subscribe(spec, inbox_.get()).status());
    offset += len;
  }
  mirror_enabled_ = true;
  return OkStatus();
}

Status CachedFarVector::Resync() {
  ++stats_.loss_resyncs;
  return client_->Read(
      data_, std::as_writable_bytes(std::span<uint64_t>(mirror_)));
}

Status CachedFarVector::Sync() {
  if (!mirror_enabled_) {
    return FailedPrecondition("mirror not enabled");
  }
  ++stats_.syncs;
  bool lost = false;
  (void)client_->DispatchNotifications();
  while (auto event = inbox_->Pop()) {
    if (event->kind == NotifyEventKind::kLossWarning) {
      lost = true;
      continue;
    }
    if (event->data.empty()) {
      continue;
    }
    const uint64_t first = (event->addr - data_) / kWordSize;
    const uint64_t words = event->data.size() / kWordSize;
    for (uint64_t w = 0; w < words && first + w < size_; ++w) {
      mirror_[first + w] = LoadAs<uint64_t>(
          std::span<const std::byte>(event->data), w * kWordSize);
      ++stats_.events_applied;
    }
  }
  if (lost) {
    return Resync();
  }
  return OkStatus();
}

Result<uint64_t> CachedFarVector::Get(uint64_t i) {
  if (!mirror_enabled_) {
    return Status(StatusCode::kFailedPrecondition, "mirror not enabled");
  }
  if (i >= size_) {
    return Status(StatusCode::kOutOfRange, "cached vector index");
  }
  client_->AccountNear(1);
  return mirror_[i];
}

}  // namespace fmds

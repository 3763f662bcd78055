#include "src/baselines/neighborhood_hash.h"

#include "src/common/bytes.h"

namespace fmds {

Result<NeighborhoodHash> NeighborhoodHash::Create(FarClient* client,
                                                  FarAllocator* alloc,
                                                  Options options) {
  if (options.buckets == 0 || options.neighborhood == 0) {
    return Status(StatusCode::kInvalidArgument, "bad neighborhood options");
  }
  NeighborhoodHash table(client);
  table.buckets_ = options.buckets;
  table.neighborhood_ = options.neighborhood;
  // The slot array is padded by one neighborhood so windows never wrap.
  const uint64_t total_slots = options.buckets + options.neighborhood;
  FMDS_ASSIGN_OR_RETURN(table.header_, alloc->Allocate(kHeaderBytes));
  FMDS_ASSIGN_OR_RETURN(table.slots_,
                        alloc->Allocate(total_slots * kSlotBytes));
  std::vector<uint64_t> zeros(total_slots * 2, 0);
  FMDS_RETURN_IF_ERROR(client->Write(
      table.slots_, std::as_bytes(std::span<const uint64_t>(zeros))));
  const uint64_t hdr[3] = {table.slots_, options.buckets,
                           options.neighborhood};
  FMDS_RETURN_IF_ERROR(client->Write(
      table.header_, std::as_bytes(std::span<const uint64_t>(hdr))));
  return table;
}

Result<NeighborhoodHash> NeighborhoodHash::Attach(FarClient* client,
                                                  FarAddr header) {
  NeighborhoodHash table(client);
  table.header_ = header;
  uint64_t hdr[3];
  FMDS_RETURN_IF_ERROR(client->Read(
      header, std::as_writable_bytes(std::span<uint64_t>(hdr))));
  table.slots_ = hdr[0];
  table.buckets_ = hdr[1];
  table.neighborhood_ = hdr[2];
  return table;
}

Result<uint64_t> NeighborhoodHash::Get(uint64_t key) {
  if (key == 0) {
    return Status(StatusCode::kInvalidArgument, "key 0 reserved");
  }
  // ONE far access: the whole neighborhood in a single read.
  std::vector<Slot> window(neighborhood_);
  FMDS_RETURN_IF_ERROR(client_->Read(
      SlotAddr(HomeBucket(key)),
      std::as_writable_bytes(std::span<Slot>(window))));
  client_->AccountNear(neighborhood_ / 4 + 1);  // local scan
  for (const Slot& slot : window) {
    if (slot.key == key) {
      return slot.value;
    }
  }
  return Status(StatusCode::kNotFound, "key absent");
}

std::vector<Result<uint64_t>> NeighborhoodHash::MultiGet(
    std::span<const uint64_t> keys) {
  std::vector<Result<uint64_t>> results(
      keys.size(), Status(StatusCode::kInternal, "multiget unresolved"));
  // One doorbell: every key's whole neighborhood in a single batched
  // round trip (the sync path pays one round trip per key).
  std::vector<std::vector<Slot>> windows(keys.size());
  std::vector<size_t> posted;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == 0) {
      results[i] = Status(StatusCode::kInvalidArgument, "key 0 reserved");
      continue;
    }
    windows[i].resize(neighborhood_);
    client_->PostRead(SlotAddr(HomeBucket(keys[i])),
                      std::as_writable_bytes(std::span<Slot>(windows[i])));
    posted.push_back(i);
  }
  std::vector<FarClient::Completion> done(client_->pending_ops());
  (void)client_->WaitAll(done);
  for (size_t j = 0; j < posted.size(); ++j) {
    const size_t i = posted[j];
    if (!done[j].status.ok()) {
      results[i] = done[j].status;
      continue;
    }
    client_->AccountNear(neighborhood_ / 4 + 1);  // local scan
    results[i] = Status(StatusCode::kNotFound, "key absent");
    for (const Slot& slot : windows[i]) {
      if (slot.key == keys[i]) {
        results[i] = slot.value;
        break;
      }
    }
  }
  return results;
}

Status NeighborhoodHash::Put(uint64_t key, uint64_t value) {
  if (key == 0) {
    return InvalidArgument("key 0 reserved");
  }
  const uint64_t home = HomeBucket(key);
  std::vector<Slot> window(neighborhood_);
  FMDS_RETURN_IF_ERROR(client_->Read(
      SlotAddr(home), std::as_writable_bytes(std::span<Slot>(window))));
  // Existing key: in-place value update.
  for (uint64_t i = 0; i < neighborhood_; ++i) {
    if (window[i].key == key) {
      return client_->WriteWord(SlotAddr(home + i) + kWordSize, value);
    }
  }
  // Claim a free slot with a CAS on its key word, then write the value.
  for (uint64_t i = 0; i < neighborhood_; ++i) {
    if (window[i].key != 0) {
      continue;
    }
    FMDS_ASSIGN_OR_RETURN(
        uint64_t old, client_->CompareSwap(SlotAddr(home + i), 0, key));
    if (old == 0) {
      return client_->WriteWord(SlotAddr(home + i) + kWordSize, value);
    }
    if (old == key) {  // concurrent insert of the same key
      return client_->WriteWord(SlotAddr(home + i) + kWordSize, value);
    }
  }
  return ResourceExhausted("neighborhood full");
}

Status NeighborhoodHash::Remove(uint64_t key) {
  if (key == 0) {
    return InvalidArgument("key 0 reserved");
  }
  const uint64_t home = HomeBucket(key);
  std::vector<Slot> window(neighborhood_);
  FMDS_RETURN_IF_ERROR(client_->Read(
      SlotAddr(home), std::as_writable_bytes(std::span<Slot>(window))));
  for (uint64_t i = 0; i < neighborhood_; ++i) {
    if (window[i].key == key) {
      FMDS_ASSIGN_OR_RETURN(
          uint64_t old, client_->CompareSwap(SlotAddr(home + i), key, 0));
      if (old == key) {
        return OkStatus();
      }
      return Aborted("slot changed during remove");
    }
  }
  return NotFound("key absent");
}

}  // namespace fmds

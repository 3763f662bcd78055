#include "src/baselines/chained_hash.h"

#include "src/common/bytes.h"

namespace fmds {

Result<ChainedHash> ChainedHash::Create(FarClient* client,
                                        FarAllocator* alloc,
                                        Options options) {
  if (options.buckets == 0) {
    return Status(StatusCode::kInvalidArgument, "buckets must be > 0");
  }
  ChainedHash table(client, alloc);
  table.options_ = options;
  table.nbuckets_ = options.buckets;
  FMDS_ASSIGN_OR_RETURN(table.header_, alloc->Allocate(kHeaderBytes));
  FMDS_ASSIGN_OR_RETURN(table.buckets_,
                        alloc->Allocate(options.buckets * kWordSize));
  std::vector<uint64_t> zeros(options.buckets, 0);
  FMDS_RETURN_IF_ERROR(client->Write(
      table.buckets_, std::as_bytes(std::span<const uint64_t>(zeros))));
  const uint64_t hdr[2] = {table.buckets_, options.buckets};
  FMDS_RETURN_IF_ERROR(client->Write(
      table.header_, std::as_bytes(std::span<const uint64_t>(hdr))));
  return table;
}

Result<ChainedHash> ChainedHash::Attach(FarClient* client,
                                        FarAllocator* alloc, FarAddr header) {
  ChainedHash table(client, alloc);
  table.header_ = header;
  uint64_t hdr[2];
  FMDS_RETURN_IF_ERROR(client->Read(
      header, std::as_writable_bytes(std::span<uint64_t>(hdr))));
  table.buckets_ = hdr[0];
  table.nbuckets_ = hdr[1];
  return table;
}

Result<FarAddr> ChainedHash::AllocItemSlot() {
  if (arena_left_ == 0) {
    FMDS_ASSIGN_OR_RETURN(
        arena_next_, alloc_->Allocate(kArenaBatch * kItemBytes));
    arena_left_ = kArenaBatch;
  }
  const FarAddr slot = arena_next_;
  arena_next_ += kItemBytes;
  --arena_left_;
  client_->AccountNear(1);
  return slot;
}

Result<uint64_t> ChainedHash::Get(uint64_t key) {
  ++gets_;
  const FarAddr bucket = BucketAddr(key);
  Item item;
  FarAddr cursor;
  if (options_.use_indirect) {
    // Proposed hardware: one access merges bucket dereference + item read.
    auto head = client_->Load0(bucket, AsBytes(item));
    if (!head.ok()) {
      if (head.status().code() == StatusCode::kFailedPrecondition) {
        return Status(StatusCode::kNotFound, "empty bucket");
      }
      return head.status();
    }
    cursor = *head;
  } else {
    // Today's verbs: bucket word first, then the item — two round trips
    // before we even see a key.
    FMDS_ASSIGN_OR_RETURN(cursor, client_->ReadWord(bucket));
    if (cursor == kNullFarAddr) {
      return Status(StatusCode::kNotFound, "empty bucket");
    }
    FMDS_RETURN_IF_ERROR(client_->Read(cursor, AsBytes(item)));
  }
  while (true) {
    if (item.key == key) {
      if ((item.flags & kFlagTombstone) != 0) {
        return Status(StatusCode::kNotFound, "key removed");
      }
      return item.value;
    }
    if (item.next == kNullFarAddr) {
      return Status(StatusCode::kNotFound, "key absent");
    }
    cursor = item.next;
    FMDS_RETURN_IF_ERROR(client_->Read(cursor, AsBytes(item)));
    ++chain_hops_;
  }
}

std::vector<Result<uint64_t>> ChainedHash::MultiGet(
    std::span<const uint64_t> keys) {
  struct Probe {
    size_t idx = 0;
    uint64_t key = 0;
    Item item{};
  };
  std::vector<Result<uint64_t>> results(
      keys.size(), Status(StatusCode::kInternal, "multiget unresolved"));
  gets_ += keys.size();

  std::vector<Probe> probes;
  probes.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    probes.push_back(Probe{i, keys[i], {}});
  }

  std::vector<size_t> walking;
  std::vector<FarClient::Completion> done;

  // Wave 1: all bucket probes in one doorbell (completions in post order).
  if (options_.use_indirect) {
    for (auto& probe : probes) {
      client_->PostLoad0(BucketAddr(probe.key), AsBytes(probe.item));
    }
    done.resize(client_->pending_ops());
    (void)client_->WaitAll(done);
    for (size_t i = 0; i < probes.size(); ++i) {
      if (done[i].status.ok()) {
        walking.push_back(i);
      } else if (done[i].status.code() == StatusCode::kFailedPrecondition) {
        results[probes[i].idx] =
            Status(StatusCode::kNotFound, "empty bucket");
      } else {
        results[probes[i].idx] = done[i].status;
      }
    }
  } else {
    for (auto& probe : probes) {
      client_->PostReadWord(BucketAddr(probe.key));
    }
    done.resize(client_->pending_ops());
    (void)client_->WaitAll(done);
    std::vector<size_t> live;
    std::vector<FarAddr> heads;
    for (size_t i = 0; i < probes.size(); ++i) {
      if (!done[i].status.ok()) {
        results[probes[i].idx] = done[i].status;
      } else if (done[i].word == kNullFarAddr) {
        results[probes[i].idx] =
            Status(StatusCode::kNotFound, "empty bucket");
      } else {
        live.push_back(i);
        heads.push_back(done[i].word);
      }
    }
    for (size_t j = 0; j < live.size(); ++j) {
      client_->PostRead(heads[j], AsBytes(probes[live[j]].item));
    }
    done.resize(client_->pending_ops());
    (void)client_->WaitAll(done);
    for (size_t j = 0; j < live.size(); ++j) {
      if (done[j].status.ok()) {
        walking.push_back(live[j]);
      } else {
        results[probes[live[j]].idx] = done[j].status;
      }
    }
  }

  // Chain waves: one doorbell resolves the next hop of every open chain.
  while (!walking.empty()) {
    std::vector<size_t> continuing;
    for (size_t i : walking) {
      const Probe& probe = probes[i];
      if (probe.item.key == probe.key) {
        if ((probe.item.flags & kFlagTombstone) != 0) {
          results[probe.idx] = Status(StatusCode::kNotFound, "key removed");
        } else {
          results[probe.idx] = probe.item.value;
        }
      } else if (probe.item.next == kNullFarAddr) {
        results[probe.idx] = Status(StatusCode::kNotFound, "key absent");
      } else {
        continuing.push_back(i);
      }
    }
    if (continuing.empty()) {
      break;
    }
    for (size_t i : continuing) {
      Probe& probe = probes[i];
      client_->PostRead(probe.item.next, AsBytes(probe.item));
      ++chain_hops_;
    }
    done.resize(client_->pending_ops());
    (void)client_->WaitAll(done);
    std::vector<size_t> still;
    for (size_t j = 0; j < continuing.size(); ++j) {
      if (done[j].status.ok()) {
        still.push_back(continuing[j]);
      } else {
        results[probes[continuing[j]].idx] = done[j].status;
      }
    }
    walking = std::move(still);
  }
  return results;
}

Status ChainedHash::InsertAtHead(uint64_t key, uint64_t value,
                                 uint64_t flags) {
  const FarAddr bucket = BucketAddr(key);
  FMDS_ASSIGN_OR_RETURN(FarAddr slot, AllocItemSlot());
  // Optimistically expect an empty bucket; the CAS returns the real head on
  // a miss and we relink.
  FarAddr predicted = kNullFarAddr;
  Item item{key, value, flags, predicted};
  FMDS_RETURN_IF_ERROR(client_->Write(slot, AsConstBytes(item)));
  for (int attempt = 0; attempt < 64; ++attempt) {
    FMDS_ASSIGN_OR_RETURN(uint64_t old,
                          client_->CompareSwap(bucket, predicted, slot));
    if (old == predicted) {
      return OkStatus();
    }
    predicted = old;
    FMDS_RETURN_IF_ERROR(client_->WriteWord(slot + 24, predicted));
  }
  return Aborted("chained-hash insert retries exhausted");
}

Status ChainedHash::Put(uint64_t key, uint64_t value) {
  return InsertAtHead(key, value, 0);
}

Status ChainedHash::Remove(uint64_t key) {
  return InsertAtHead(key, 0, kFlagTombstone);
}

}  // namespace fmds

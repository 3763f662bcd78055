#include "src/core/blob_store.h"

#include <algorithm>
#include <cstring>

#include "src/common/bytes.h"
#include "src/obs/recorder.h"

namespace fmds {

Result<HtBlobStore> HtBlobStore::Create(FarClient* client,
                                        FarAllocator* alloc,
                                        HtTree::Options options) {
  ShardedMap::Options sharded;
  sharded.num_shards = 1;
  sharded.shard = options;
  sharded.pin_shards = false;  // keep the caller's placement choice
  return CreateSharded(client, alloc, sharded);
}

Result<HtBlobStore> HtBlobStore::CreateSharded(FarClient* client,
                                               FarAllocator* alloc,
                                               ShardedMap::Options options) {
  FMDS_ASSIGN_OR_RETURN(ShardedMap map,
                        ShardedMap::Create(client, alloc, options));
  return HtBlobStore(std::move(map), client, alloc);
}

Result<HtBlobStore> HtBlobStore::Attach(FarClient* client,
                                        FarAllocator* alloc,
                                        FarAddr header) {
  FMDS_ASSIGN_OR_RETURN(ShardedMap map,
                        ShardedMap::Attach(client, alloc, header));
  return HtBlobStore(std::move(map), client, alloc);
}

void HtBlobStore::EnableChunkCache(NearCacheOptions options) {
  if (options.budget_bytes > 0) {
    // Length words can repeat when the allocator recycles a region, so
    // the chunk cache is not word-versioned.
    chunk_cache_ = std::make_unique<NearCache>(client_, options,
                                               /*word_versioned=*/false);
  } else {
    chunk_cache_.reset();
  }
}

Status HtBlobStore::Put(uint64_t key, std::span<const std::byte> value) {
  ScopedOpLabel label(&client_->recorder(), "blob.put");
  if (chunk_cache_ != nullptr) {
    (void)client_->DispatchNotifications();
  }
  // Blob layout: [0] length word, then the bytes. The blob lives on the
  // same node as the key's shard so batched reads of many keys split
  // cleanly into per-node sub-batches (§7 fan-out).
  const uint64_t blob_bytes = kWordSize + value.size();
  const AllocHint hint = map_.num_shards() > 1
                             ? AllocHint::OnNode(map_.NodeOf(key))
                             : AllocHint::Any();
  FMDS_ASSIGN_OR_RETURN(FarAddr blob, alloc_->Allocate(blob_bytes, hint));
  std::vector<std::byte> image(blob_bytes);
  const uint64_t len = value.size();
  std::memcpy(image.data(), &len, kWordSize);
  std::copy_n(value.data(), value.size(), image.data() + kWordSize);
  FMDS_RETURN_IF_ERROR(client_->Write(blob, image));  // 1 far access
  // Publish through the map (2 far accesses). A replaced blob becomes
  // unreachable; its memory is reclaimed through allocator epochs by the
  // application's maintenance cadence.
  return map_.Put(key, blob);
}

Result<std::vector<std::byte>> HtBlobStore::Get(uint64_t key,
                                                uint64_t size_hint) {
  ScopedOpLabel label(&client_->recorder(), "blob.get");
  if (chunk_cache_ != nullptr) {
    (void)client_->DispatchNotifications();
  }
  FMDS_ASSIGN_OR_RETURN(uint64_t blob, map_.Get(key));  // 1 far access
  const uint64_t first_fetch =
      kWordSize + (size_hint > 0 ? size_hint : kInlineFetch - kWordSize);
  std::vector<std::byte> buf(first_fetch);
  // Chunk cache: a hit replaces the first-fetch far read with a near copy.
  const bool chunk_hit =
      chunk_cache_ != nullptr && chunk_cache_->Lookup(blob, buf);
  if (!chunk_hit) {
    FMDS_RETURN_IF_ERROR(client_->Read(blob, buf));  // 1 far access
    if (chunk_cache_ != nullptr) {
      // Watch = the blob's own length word; the value just read doubles as
      // the read-and-arm expectation (blobs are immutable, so the word only
      // changes if the allocator recycles the region under us).
      chunk_cache_->Admit(blob, buf, blob, kWordSize, LoadAs<uint64_t>(buf));
    }
  }
  const uint64_t len = LoadAs<uint64_t>(buf);
  std::vector<std::byte> value(len);
  const uint64_t have = std::min<uint64_t>(len, first_fetch - kWordSize);
  std::copy_n(buf.data() + kWordSize, have, value.data());
  if (have < len) {
    // Large value beyond the speculative fetch: one more far access.
    FMDS_RETURN_IF_ERROR(client_->Read(
        blob + kWordSize + have,
        std::span<std::byte>(value).subspan(have)));
  }
  return value;
}

std::vector<Result<std::vector<std::byte>>> HtBlobStore::MultiGet(
    std::span<const uint64_t> keys, uint64_t size_hint) {
  ScopedOpLabel label(&client_->recorder(), "blob.multiget");
  if (chunk_cache_ != nullptr) {
    (void)client_->DispatchNotifications();
  }
  std::vector<Result<std::vector<std::byte>>> results(
      keys.size(),
      Result<std::vector<std::byte>>(
          Status(StatusCode::kInternal, "multiget unresolved")));
  // Phase 1: all map lookups in batched waves.
  std::vector<Result<uint64_t>> blobs = map_.MultiGet(keys);
  // Phase 2: metadata + payload gather — every live blob whose first fetch
  // the chunk cache can't serve shares one doorbell. Tails (from hits and
  // fetches alike) collect into phase 3.
  const uint64_t first_fetch =
      kWordSize + (size_hint > 0 ? size_hint : kInlineFetch - kWordSize);
  struct Fetch {
    size_t idx = 0;
    FarAddr blob = kNullFarAddr;
    std::vector<std::byte> buf;
  };
  struct Tail {
    size_t idx = 0;  // result index
    FarAddr blob = kNullFarAddr;
    uint64_t have = 0;
  };
  std::vector<Fetch> fetches;
  std::vector<Tail> tails;
  // Unpacks a first-fetch image into results[idx]; queues any tail.
  const auto absorb_first_fetch = [&](size_t idx, FarAddr blob,
                                      std::span<const std::byte> buf) {
    const uint64_t len = LoadAs<uint64_t>(buf);
    std::vector<std::byte> value(len);
    const uint64_t have = std::min<uint64_t>(len, first_fetch - kWordSize);
    std::copy_n(buf.data() + kWordSize, have, value.data());
    results[idx] = std::move(value);
    if (have < len) {
      tails.push_back(Tail{idx, blob, have});
    }
  };
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!blobs[i].ok()) {
      results[i] = blobs[i].status();
      continue;
    }
    const FarAddr blob = *blobs[i];
    if (chunk_cache_ != nullptr) {
      std::vector<std::byte> cached(first_fetch);
      if (chunk_cache_->Lookup(blob, cached)) {
        absorb_first_fetch(i, blob, cached);
        continue;
      }
    }
    fetches.push_back(Fetch{i, blob, std::vector<std::byte>(first_fetch)});
  }
  for (Fetch& fetch : fetches) {
    client_->PostRead(fetch.blob, fetch.buf);
  }
  if (!fetches.empty()) {
    std::vector<FarClient::Completion> done(client_->pending_ops());
    (void)client_->WaitAll(done);
    for (size_t j = 0; j < fetches.size(); ++j) {
      const Fetch& fetch = fetches[j];
      if (!done[j].status.ok()) {
        results[fetch.idx] = done[j].status;
        continue;
      }
      if (chunk_cache_ != nullptr) {
        chunk_cache_->Admit(fetch.blob, fetch.buf, fetch.blob, kWordSize,
                            LoadAs<uint64_t>(fetch.buf));
      }
      absorb_first_fetch(fetch.idx, fetch.blob, fetch.buf);
    }
  }
  // Phase 3: tails beyond the speculative fetch share a final doorbell.
  if (tails.empty()) {
    return results;
  }
  for (const Tail& tail : tails) {
    client_->PostRead(
        tail.blob + kWordSize + tail.have,
        std::span<std::byte>(*results[tail.idx]).subspan(tail.have));
  }
  std::vector<FarClient::Completion> done(client_->pending_ops());
  (void)client_->WaitAll(done);
  for (size_t j = 0; j < tails.size(); ++j) {
    if (!done[j].status.ok()) {
      results[tails[j].idx] = done[j].status;
    }
  }
  return results;
}

Status HtBlobStore::Remove(uint64_t key) {
  ScopedOpLabel label(&client_->recorder(), "blob.remove");
  return map_.Remove(key);
}

}  // namespace fmds

#include "src/core/sharded_map.h"

#include <optional>
#include <utility>

#include "src/common/hash.h"
#include "src/obs/recorder.h"

namespace fmds {

namespace {
// Routing salt: decorrelates the shard hash from the HT-tree's Mix64(key)
// (see the file comment in sharded_map.h). Any odd constant works; this is
// the golden-ratio word also used by Fibonacci hashing.
constexpr uint64_t kShardSalt = 0x9e3779b97f4a7c15ull;

constexpr uint32_t kMaxShards = 1u << 12;
}  // namespace

uint32_t ShardedMap::ShardOf(uint64_t key) const {
  return static_cast<uint32_t>(Mix64(key ^ kShardSalt) % shards_.size());
}

NodeId ShardedMap::NodeOf(uint64_t key) const {
  return static_cast<NodeId>(ShardOf(key) %
                             client_->fabric()->num_nodes());
}

HtTree::Options ShardedMap::ShardOptions(uint32_t i) const {
  HtTree::Options shard = options_.shard;
  if (options_.pin_shards) {
    shard.placement = AllocHint::OnNode(i % client_->fabric()->num_nodes());
  }
  return shard;
}

Result<ShardedMap> ShardedMap::Create(FarClient* client, FarAllocator* alloc,
                                      Options options) {
  if (options.num_shards == 0 || options.num_shards > kMaxShards) {
    return InvalidArgument("bad shard count");
  }
  FMDS_ASSIGN_OR_RETURN(
      FarAddr directory,
      alloc->Allocate((1 + options.num_shards) * kWordSize));
  ShardedMap map(client, alloc, directory, options);
  std::vector<uint64_t> dir(1 + options.num_shards, 0);
  dir[0] = options.num_shards;
  map.shards_.reserve(options.num_shards);
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    FMDS_ASSIGN_OR_RETURN(HtTree shard,
                          HtTree::Create(client, alloc, map.ShardOptions(i)));
    dir[1 + i] = shard.header();
    map.shards_.push_back(std::move(shard));
  }
  FMDS_RETURN_IF_ERROR(client->Write(
      directory, std::as_bytes(std::span<const uint64_t>(dir))));
  return map;
}

Result<ShardedMap> ShardedMap::Attach(FarClient* client, FarAllocator* alloc,
                                      FarAddr directory) {
  return Attach(client, alloc, directory, Options());
}

Result<ShardedMap> ShardedMap::Attach(FarClient* client, FarAllocator* alloc,
                                      FarAddr directory, Options options) {
  FMDS_ASSIGN_OR_RETURN(uint64_t num_shards, client->ReadWord(directory));
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Internal("corrupt shard directory");
  }
  std::vector<uint64_t> headers(num_shards);
  FMDS_RETURN_IF_ERROR(client->Read(
      directory + kWordSize,
      std::as_writable_bytes(std::span<uint64_t>(headers))));
  ShardedMap map(client, alloc, directory, options);
  map.shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    FMDS_ASSIGN_OR_RETURN(
        HtTree shard,
        HtTree::Attach(client, alloc, headers[i], map.ShardOptions(i)));
    map.shards_.push_back(std::move(shard));
  }
  return map;
}

Result<uint64_t> ShardedMap::Get(uint64_t key) {
  // Outer label for nesting; the shard's own "httree.get" (innermost) wins
  // latency attribution.
  ScopedOpLabel label(&client_->recorder(), "sharded.get");
  client_->AccountNear(1);  // routing hash
  // Fleet-wide write-behind read-your-writes: the shared pending table
  // outranks every shard's cache and far state (see HtTree::Get).
  if (wb_ != nullptr) {
    if (std::optional<Result<uint64_t>> pending = wb_->Lookup(key)) {
      return *std::move(pending);
    }
  }
  return shards_[ShardOf(key)].Get(key);
}

Status ShardedMap::Put(uint64_t key, uint64_t value) {
  ScopedOpLabel label(&client_->recorder(), "sharded.put");
  client_->AccountNear(1);
  if (wb_ != nullptr) {
    wb_->Put(key, value);
    return OkStatus();
  }
  return shards_[ShardOf(key)].Put(key, value);
}

Status ShardedMap::Remove(uint64_t key) {
  ScopedOpLabel label(&client_->recorder(), "sharded.remove");
  client_->AccountNear(1);
  if (wb_ != nullptr) {
    wb_->Remove(key);
    return OkStatus();
  }
  return shards_[ShardOf(key)].Remove(key);
}

std::vector<Result<uint64_t>> ShardedMap::MultiGet(
    std::span<const uint64_t> keys) {
  ScopedOpLabel label(&client_->recorder(), "sharded.multiget");
  std::vector<Result<uint64_t>> results(
      keys.size(), Status(StatusCode::kInternal, "multiget unresolved"));
  // Partition keys by shard, remembering each key's input position. Keys
  // with a pending write-behind record resolve here (read-your-writes)
  // and never reach a wave.
  const size_t n = shards_.size();
  std::vector<std::vector<uint64_t>> shard_keys(n);
  std::vector<std::vector<size_t>> shard_pos(n);
  for (size_t i = 0; i < keys.size(); ++i) {
    client_->AccountNear(1);
    if (wb_ != nullptr) {
      if (std::optional<Result<uint64_t>> pending = wb_->Lookup(keys[i])) {
        results[i] = *std::move(pending);
        continue;
      }
    }
    const uint32_t s = ShardOf(keys[i]);
    shard_keys[s].push_back(keys[i]);
    shard_pos[s].push_back(i);
  }
  // One engine per shard consults the near paths; then per-shard routing:
  // an RPC-priced shard ships its residue to that node's agent and drops
  // out of the waves; the rest run one-sided. Because route state is keyed
  // by node, a skewed fleet splits — busy nodes walk one-sided, idle nodes
  // answer by RPC — within a single MultiGet.
  std::vector<HtTree::BatchGet> engines;
  std::vector<size_t> engine_shard;
  engines.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    const uint64_t t0 = client_->clock().now_ns();
    engines.emplace_back(&shards_[s], std::span<const uint64_t>(shard_keys[s]));
    if (engines.back().TryRoute(t0)) {
      std::vector<Result<uint64_t>> routed = engines.back().Take();
      for (size_t j = 0; j < routed.size(); ++j) {
        results[shard_pos[s][j]] = std::move(routed[j]);
      }
      engines.pop_back();
      continue;
    }
    engine_shard.push_back(s);
  }
  // Each wave flushes EVERY remaining shard's posted ops in a single
  // doorbell, so sub-batches bound for different nodes overlap.
  const uint64_t wave_start_ns = client_->clock().now_ns();
  std::vector<uint64_t> hops_before(engine_shard.size());
  for (size_t e = 0; e < engine_shard.size(); ++e) {
    hops_before[e] = shards_[engine_shard[e]].op_stats().chain_hops;
  }
  HtTree::RunWaves(client_, std::span(engines));
  // Scatter per-shard results back to input order; feed the router each
  // shard's PROPORTIONAL share of the wave-loop cost. Waves overlap
  // across shards, so charging every shard the full joint latency would
  // double-count it and bias every shard's one-sided estimate upward.
  const uint64_t wave_ns = client_->clock().now_ns() - wave_start_ns;
  size_t engine_key_total = 0;
  for (size_t e = 0; e < engines.size(); ++e) {
    engine_key_total += shard_keys[engine_shard[e]].size();
  }
  for (size_t e = 0; e < engines.size(); ++e) {
    const size_t s = engine_shard[e];
    std::vector<Result<uint64_t>> shard_results = engines[e].Take();
    for (size_t j = 0; j < shard_results.size(); ++j) {
      results[shard_pos[s][j]] = std::move(shard_results[j]);
    }
    if (!shard_keys[s].empty()) {
      shards_[s].ObserveOneSidedMultiGet(
          shard_keys[s].size(),
          shards_[s].op_stats().chain_hops - hops_before[e],
          wave_ns * shard_keys[s].size() /
              std::max<size_t>(engine_key_total, 1));
    }
  }
  return results;
}

Status ShardedMap::EnableRouting(RouteDecider* decider, RemoteMapPath* remote) {
  for (HtTree& shard : shards_) {
    FMDS_RETURN_IF_ERROR(shard.EnableRouting(decider, remote));
  }
  return OkStatus();
}

Status ShardedMap::MultiPut(std::span<const uint64_t> keys,
                            std::span<const uint64_t> values) {
  if (keys.size() != values.size()) {
    return InvalidArgument("MultiPut keys/values length mismatch");
  }
  return MultiWrite(keys, values, {});
}

Status ShardedMap::MultiWrite(std::span<const uint64_t> keys,
                              std::span<const uint64_t> values,
                              std::span<const uint8_t> tombstones,
                              std::vector<WriteOutcome>* outcomes) {
  if (keys.size() != values.size() ||
      (!tombstones.empty() && tombstones.size() != keys.size())) {
    return InvalidArgument("MultiWrite span length mismatch");
  }
  ScopedOpLabel label(&client_->recorder(), "sharded.multiput");
  if (wb_ != nullptr) {
    // Stage instead of publishing (see HtTree::MultiWrite's rationale).
    client_->AccountNear(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i < tombstones.size() && tombstones[i] != 0) {
        wb_->Remove(keys[i]);
      } else {
        wb_->Put(keys[i], values[i]);
      }
    }
    if (outcomes != nullptr) {
      outcomes->assign(keys.size(), WriteOutcome{});
    }
    return OkStatus();
  }
  const size_t n = shards_.size();
  std::vector<std::vector<uint64_t>> shard_keys(n);
  std::vector<std::vector<uint64_t>> shard_values(n);
  std::vector<std::vector<uint8_t>> shard_tombs(n);
  std::vector<std::vector<size_t>> shard_pos(n);
  for (size_t i = 0; i < keys.size(); ++i) {
    client_->AccountNear(1);
    const uint32_t s = ShardOf(keys[i]);
    shard_keys[s].push_back(keys[i]);
    shard_values[s].push_back(values[i]);
    shard_tombs[s].push_back(
        i < tombstones.size() && tombstones[i] != 0 ? 1 : 0);
    shard_pos[s].push_back(i);
  }
  std::vector<std::vector<WriteOutcome>> shard_outcomes(n);
  std::vector<HtTree::BatchPut> engines;
  engines.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    engines.emplace_back(&shards_[s],
                         std::span<const uint64_t>(shard_keys[s]),
                         std::span<const uint64_t>(shard_values[s]),
                         std::span<const uint8_t>(shard_tombs[s]),
                         outcomes != nullptr ? &shard_outcomes[s] : nullptr);
  }
  HtTree::RunWaves(client_, std::span(engines));
  Status first = OkStatus();
  for (HtTree::BatchPut& engine : engines) {
    const Status status = engine.Take();
    if (first.ok() && !status.ok()) {
      first = status;
    }
  }
  if (outcomes != nullptr) {
    // Scatter the per-shard outcomes back to input order.
    outcomes->assign(keys.size(), WriteOutcome{});
    for (size_t s = 0; s < n; ++s) {
      for (size_t j = 0; j < shard_pos[s].size(); ++j) {
        (*outcomes)[shard_pos[s][j]] = shard_outcomes[s][j];
      }
    }
  }
  return first;
}

Status ShardedMap::EnableWriteBehind(const WriteBehindOptions& wb_options) {
  std::vector<NearCache*> app_caches;
  app_caches.reserve(shards_.size());
  for (HtTree& shard : shards_) {
    if (shard.write_behind() != nullptr) {
      return FailedPrecondition(
          "per-shard write-behind already enabled; use one engine per map");
    }
    app_caches.push_back(shard.near_cache());
  }
  // The flusher's handle caches nothing; each drained batch still fans out
  // across shards and nodes in single doorbell waves.
  Options flusher_options = options_;
  flusher_options.shard.cache = NearCacheOptions{};
  return HtTree::AttachWriteBehind<ShardedMap>(
      &wb_, client_, alloc_, directory_, flusher_options,
      std::move(app_caches), wb_options);
}

Status ShardedMap::FlushBarrier() {
  Status first = OkStatus();
  if (wb_ != nullptr) {
    ScopedOpLabel label(&client_->recorder(), "sharded.flush_barrier");
    first = wb_->FlushBarrier();
  }
  for (HtTree& shard : shards_) {
    const Status status = shard.FlushBarrier();
    if (first.ok() && !status.ok()) {
      first = status;
    }
  }
  return first;
}

Status ShardedMap::DrainWriteBehind() {
  // Structures without write-behind, or with an idle engine, pay no far op
  // on this per-operation hook.
  Status first = OkStatus();
  if (wb_ != nullptr && !wb_->Empty()) {
    first = wb_->FlushBarrier();
  }
  for (HtTree& shard : shards_) {
    if (shard.write_behind() != nullptr && !shard.write_behind()->Empty()) {
      const Status status = shard.FlushBarrier();
      if (first.ok() && !status.ok()) {
        first = status;
      }
    }
  }
  return first;
}

HtTree::OpStats ShardedMap::op_stats() const {
  HtTree::OpStats total;
  for (const HtTree& shard : shards_) {
    total.Add(shard.op_stats());
  }
  return total;
}

uint64_t ShardedMap::cache_bytes() const {
  uint64_t total = 0;
  for (const HtTree& shard : shards_) {
    total += shard.cache_bytes();
  }
  return total;
}

NearCacheStats ShardedMap::near_cache_stats() const {
  NearCacheStats total;
  for (const HtTree& shard : shards_) {
    if (shard.near_cache() != nullptr) {
      total.Add(shard.near_cache()->stats());
    }
  }
  return total;
}

uint64_t ShardedMap::near_cache_bytes() const {
  uint64_t total = 0;
  for (const HtTree& shard : shards_) {
    if (shard.near_cache() != nullptr) {
      total += shard.near_cache()->bytes_used();
    }
  }
  return total;
}

}  // namespace fmds

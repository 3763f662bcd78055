// ShardedMap (§7 scale-out): hash-partitions a uint64 key space over N
// HT-tree shards, each pinned to one memory node. The paper's scale-out
// argument is that far memory's capacity story only materializes when a
// structure spans nodes — but naive spanning turns every batch into
// sequential per-node conversations. ShardedMap keeps each shard's storage
// (trie, tables, items) on a single node via the allocator's OnNode
// placement, so:
//   - point ops touch exactly one node (same cost as an unsharded map);
//   - MultiGet/MultiPut run one resumable wave engine per shard and flush
//     ALL shards' posted ops through a single doorbell. The fabric issues
//     the per-node sub-batches concurrently, so the simulated wait is the
//     max over nodes, not the sum (ClientStats.fanout_batches /
//     cross_node_rtts_saved account the overlap).
//
// Routing hash: shards are chosen by a salted re-mix of the key,
// decorrelated from the HT-tree's own Mix64(key) — the tree uses the hash's
// high bits for trie descent and low bits for bucket choice, so routing by
// the same hash would confine each shard's keys to a residue class of its
// buckets (with power-of-two shard counts, 1/N of every table would be
// populated N times as densely).
//
// Far layout (the "directory"):
//   word 0    num_shards
//   word 1+i  shard i's HT-tree header address
#ifndef FMDS_SRC_CORE_SHARDED_MAP_H_
#define FMDS_SRC_CORE_SHARDED_MAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/ht_tree.h"

namespace fmds {

class ShardedMap : public FarMap {
 public:
  struct Options {
    uint32_t num_shards = 8;
    // Per-shard HT-tree knobs. `shard.placement` is overridden per shard
    // when pin_shards is set (the normal configuration). `shard.cache`
    // creates one NearCache *per shard* (the budget is per shard, not
    // global): with pinning, every shard's coherence subscriptions live on
    // that shard's own memory node, so invalidation traffic stays
    // node-local instead of fanning out across the fabric.
    HtTree::Options shard;
    // Pin shard i's storage to node i % num_nodes. Turning this off leaves
    // placement round-robin per allocation — a measurable anti-pattern
    // (bench_e11): batches then touch every node per shard.
    bool pin_shards = true;
  };

  static Result<ShardedMap> Create(FarClient* client, FarAllocator* alloc,
                                   Options options);
  // Binds to an existing directory. `options.num_shards` is ignored (the
  // directory knows); the rest configures the per-shard handles.
  static Result<ShardedMap> Attach(FarClient* client, FarAllocator* alloc,
                                   FarAddr directory, Options options);
  static Result<ShardedMap> Attach(FarClient* client, FarAllocator* alloc,
                                   FarAddr directory);

  FarAddr directory() const { return directory_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  // Routing: which shard (and which memory node, under pinning) owns `key`.
  uint32_t ShardOf(uint64_t key) const;
  NodeId NodeOf(uint64_t key) const;

  // Point operations: route + delegate; exactly one shard (one node) is
  // touched, so costs match an unsharded HT-tree.
  Result<uint64_t> Get(uint64_t key) override;
  Status Put(uint64_t key, uint64_t value) override;
  Status Remove(uint64_t key) override;

  // Batched operations: one wave engine per shard, one doorbell per wave
  // across ALL shards (the §7 fan-out). Per-key semantics match the
  // per-shard HtTree::MultiGet/MultiPut. Requires no other async ops
  // pending on the client.
  std::vector<Result<uint64_t>> MultiGet(
      std::span<const uint64_t> keys) override;
  Status MultiPut(std::span<const uint64_t> keys,
                  std::span<const uint64_t> values) override;

  // Batched mixed store/remove across shards (the write-behind flusher's
  // publish primitive); see HtTree::MultiWrite. `outcomes`, when non-null,
  // is filled in input order.
  Status MultiWrite(std::span<const uint64_t> keys,
                    std::span<const uint64_t> values,
                    std::span<const uint8_t> tombstones,
                    std::vector<WriteOutcome>* outcomes = nullptr);

  // ---- Write-behind mode (DESIGN.md §11) ----
  // One fleet-wide engine: Put/Remove/MultiPut stage into a shared pending
  // table (same-key combining) and the flusher publishes through its own
  // Attach'd ShardedMap handle, so batches still fan out across shards and
  // nodes in single doorbell waves. Do not also enable per-shard
  // write-behind on this map's HtTrees.
  Status EnableWriteBehind(const WriteBehindOptions& wb_options);
  // Publishes every staged write (map-level and any per-shard engine);
  // surfaces the first deferred publish error.
  Status FlushBarrier() override;
  // Cheap per-operation drain hook (Txn entry points): barriers only when
  // something is actually pending.
  Status DrainWriteBehind();
  WriteBehindEngine* write_behind() { return wb_.get(); }

  HtTree& shard(uint32_t i) { return shards_[i]; }

  // ---- Adaptive routing (DESIGN.md §13) ----
  // Enables per-op one-sided vs RPC routing on every shard. One decider
  // serves the fleet, but its state is keyed by (op, node), so shards
  // pinned to different nodes are priced independently — a busy node's
  // shard can route one-sided while an idle node's shard ships RPCs, in
  // the same MultiGet.
  Status EnableRouting(RouteDecider* decider, RemoteMapPath* remote);

  // Sum of the shards' per-handle counters.
  HtTree::OpStats op_stats() const;
  // FarMap surface: portable counters and the structure name.
  FarMapStats map_stats() const override { return op_stats(); }
  const char* kind() const override { return "sharded_map"; }
  uint64_t cache_bytes() const;
  // Aggregated per-shard NearCache counters (zeros when caching is off).
  NearCacheStats near_cache_stats() const;
  // Total bytes resident across the shards' NearCaches.
  uint64_t near_cache_bytes() const;

 private:
  ShardedMap(FarClient* client, FarAllocator* alloc, FarAddr directory,
             const Options& options)
      : client_(client),
        alloc_(alloc),
        directory_(directory),
        options_(options) {}

  // HtTree options for shard `i`: options_.shard, pinned to node
  // i % num_nodes under pin_shards.
  HtTree::Options ShardOptions(uint32_t i) const;

  FarClient* client_;
  FarAllocator* alloc_;
  FarAddr directory_;
  Options options_;
  std::vector<HtTree> shards_;
  // Fleet-wide write-behind engine (null when off). Declared after
  // shards_: its last flush refills the shards' caches, so the engine must
  // go before they destruct.
  std::unique_ptr<WriteBehindEngine> wb_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_SHARDED_MAP_H_

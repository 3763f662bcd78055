// HT-tree (§5.2): the paper's map for far memory — "a tree where each leaf
// node stores base pointers of hash tables. Clients cache the entire tree,
// but not the hash tables."
//
// Far layout
//   map header   root trie pointer, splits counter, retired sentinel, config
//   trie nodes   32 B; internal {left, right} or leaf {table, version}
//   hash table   header (version, lock, counts) + bucket array of item
//                pointers; every table owns an "empty" sentinel item
//   items        32 B, immutable once linked: {key, value, meta, next}
//
// Access costs (the paper's claims, reproduced by bench_e4 and bench_a11):
//   lookup, fresh cache: find the key's leaf in the *cached* trie through a
//     directory over the top bits of the key hash — two near accesses (the
//     slot, then the node it names; one while the trie is a single leaf)
//     plus one per trie level below the directory's depth, which only a
//     leaf deeper than most pays — then ONE far access: load0 on the bucket
//     follows the item pointer and returns the item in the same round trip.
//     Empty buckets hold the table's sentinel item, whose embedded version
//     makes even negative lookups verifiable in one access.
//   store, fresh cache: TWO far accesses. The first is the same load0 as a
//     lookup: it reads the bucket head the store will CAS against, since
//     the client caches the trie but not the hash tables. The second writes
//     the new item and CASes the bucket in one doorbell when the item slot
//     and the bucket sit on one memory node (a ShardedMap shard or a
//     one-node map always does), so the store sends three messages in two
//     round trips; otherwise the write and the CAS stay two serial round
//     trips, because post order binds one node only. The CAS doubles as the
//     version check: the head it expects was read from the current table
//     version, and a retired table's buckets never match it.
//
// Concurrency protocol: every mutation is an insert-at-head published by a
// single CAS on the bucket word (removals insert a tombstone). A store
// validates the head it read the way a lookup does: it waits out a
// transaction's pending record, and a retired sentinel or a version
// mismatch refreshes the cached trie; either way it reads again. A live
// head becomes the CAS prediction. When that head is the same key's
// previous item or tombstone, the new item links past it, to the head's
// `next` (same-key head replacement). That is safe because linked items are
// immutable and never reused: a CAS that succeeds on head H proves H.next
// is current, and the dropped H is a version its own key's new item
// shadows. A CAS misses only when another writer landed between the read
// and the CAS; the store then reads again. The bucket word still moves to a
// fresh slot, so txn validation and cache word-versioning see an ordinary
// store. A rewrite therefore never lengthens its key's chain, and the
// per-handle split trigger counts only stores that did (growth-only). A
// split freezes the table by CASing every bucket to the map-wide retired
// sentinel — after that no mutation can land in the old table — then
// rewrites the frozen chains (dropping any shadowed items and tombstones
// left) into two fresh tables and republishes the trie via CAS on the
// parent pointer. Clients with stale caches observe the retired sentinel
// (or a version mismatch) in their one far access and refresh their cached
// trie.
#ifndef FMDS_SRC_CORE_HT_TREE_H_
#define FMDS_SRC_CORE_HT_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/alloc/far_allocator.h"
#include "src/cache/near_cache.h"
#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/core/dataplane.h"
#include "src/core/far_map.h"
#include "src/core/write_behind.h"
#include "src/fabric/far_client.h"

namespace fmds {

class HtTree : public FarMap {
 public:
  struct Options {
    uint64_t buckets_per_table = 1024;
    // Split a table once a lookup (Get, MultiGet) walks a chain longer than
    // this, or once this handle's chain-growing stores to it pass half its
    // buckets (GrowthSplitDue).
    uint64_t max_chain = 6;
    // Pre-split the key space into 2^initial_depth tables at Create().
    uint32_t initial_depth = 0;
    // Ablation knob (bench_a11): turn off the proposed hardware (load0
    // merging the bucket dereference with the item read, in lookups and in
    // a store's head read) to isolate its contribution.
    bool use_indirect = true;
    // Standing placement for every far allocation this map makes (header,
    // trie nodes, tables, item slabs). ShardedMap pins each shard's
    // storage to one memory node with this (§7 scale-out), keeping a
    // shard's indirections local and its doorbell traffic single-node.
    AllocHint placement = AllocHint::Any();
    // NearCache of bucket heads (budget_bytes = 0 keeps it off): a hit
    // serves the whole lookup from near memory — zero far accesses —
    // with coherence via per-bucket write notifications (DESIGN.md §9).
    // Bucket words are true versions, so the cache is word-versioned.
    NearCacheOptions cache;
  };

  // Per-handle counters for the experiments: the FarMap surface's own.
  using OpStats = FarMapStats;

  // Creates a new map in far memory and returns a handle bound to `client`.
  static Result<HtTree> Create(FarClient* client, FarAllocator* alloc,
                               Options options);
  static Result<HtTree> Create(FarClient* client, FarAllocator* alloc);

  // Binds to an existing map; performs a full cache refresh. The Options
  // overload carries client-local knobs (placement, cache, ablations); the
  // far-resident geometry always comes from the header.
  static Result<HtTree> Attach(FarClient* client, FarAllocator* alloc,
                               FarAddr header);
  static Result<HtTree> Attach(FarClient* client, FarAllocator* alloc,
                               FarAddr header, Options options);

  FarAddr header() const { return header_; }

  // Point operations. Get returns kNotFound for absent/tombstoned keys.
  // Each runs its one key through the same engine as the batched calls
  // below (BatchGet / BatchPut) under the point driver: a wave of one far
  // op runs as its sync verb, and only a store's item write and bucket CAS
  // share a doorbell. A fresh lookup costs one far access, a fresh store
  // two.
  Result<uint64_t> Get(uint64_t key) override;
  Status Put(uint64_t key, uint64_t value) override;
  Status Remove(uint64_t key) override;

  // Batched multi-key lookup over the async pipeline: every key's bucket
  // probe rides one doorbell (one client round trip for the whole batch
  // instead of one per key), and chain continuations proceed in batched
  // waves. Per-key semantics match Get exactly, including the stale-trie
  // refresh and the proactive split of a long chain. Requires no other
  // async ops pending on the client.
  std::vector<Result<uint64_t>> MultiGet(
      std::span<const uint64_t> keys) override;

  // Batched multi-key store: every key's bucket read rides one doorbell,
  // then every key's item write and bucket CAS ride the next (k stores ≈ 2
  // waited round trips instead of 2 each), and a CAS never runs when its
  // item write failed. A key whose slot and bucket sit on different nodes
  // posts its CAS one wave after its write, since post order binds one node
  // only. Stale heads, pending heads and missed CASes (concurrent writers)
  // read again inside later waves with Put's rules, so per-key semantics
  // match Put; duplicate keys in one batch resolve in unspecified relative
  // order. Requires no other async ops pending on the client. Returns the
  // first per-key error, if any.
  Status MultiPut(std::span<const uint64_t> keys,
                  std::span<const uint64_t> values) override;

  // Batched mixed store/remove: like MultiPut, but tombstones[i] != 0
  // selects a Remove for keys[i] (an empty span means all stores). When
  // `outcomes` is non-null it is resized to keys.size() and filled in
  // input order with each key's publish location (a key that did not land
  // stays unrefillable, and the flusher's refill stage invalidates it).
  // Same batching contract as MultiPut; this is the write-behind flusher's
  // publish primitive.
  Status MultiWrite(std::span<const uint64_t> keys,
                    std::span<const uint64_t> values,
                    std::span<const uint8_t> tombstones,
                    std::vector<WriteOutcome>* outcomes = nullptr);

  // BatchGet / BatchPut — the resumable engines behind every lookup and
  // every store — are defined after the private layout types they capture;
  // see the bottom of the class.
  class BatchGet;
  class BatchPut;

  // The batched driver: runs `engines` to completion, one doorbell per
  // wave. Every engine posts its next wave, one WaitAll carries them all —
  // routers (ShardedMap, Txn) run one engine per shard, so sub-batches
  // bound for different memory nodes overlap (§7: simulated time = max
  // over nodes) — then every engine absorbs the completions. (Point ops
  // use the point driver instead: a one-op wave runs as its sync verb.)
  template <typename Engine>
  static void RunWaves(FarClient* client, std::span<Engine> engines) {
    std::vector<FarClient::Completion> done;
    for (;;) {
      size_t posted = 0;
      for (Engine& engine : engines) {
        posted += engine.PostWave();
      }
      if (posted == 0) {
        return;
      }
      done.resize(client->pending_ops());
      (void)client->WaitAll(done);
      for (Engine& engine : engines) {
        engine.AbsorbWave(done);
      }
    }
  }

  // Re-reads the trie from far memory (level-by-level rgather).
  Status RefreshCache();

  // Subscribes to the map's splits counter so structural changes invalidate
  // the cached trie via notifications instead of lazy version checks.
  Status EnableSplitNotifications(
      DeliveryPolicy policy = DeliveryPolicy::Reliable());
  // Dispatches the client's notifications and refreshes the cache if the
  // split watch got an event (a split or a loss warning). Returns true if a
  // refresh happened; false when the watch is off.
  Result<bool> PollSplitNotifications();

  // Local-cache footprint in bytes of the trie mirror and its directory —
  // the cache the structure *requires* for 1-far-access lookups (E4's
  // currency).
  uint64_t cache_bytes() const;
  // Near bytes beyond the trie: the per-table growth counters of the
  // split trigger, one per cached table this handle grew.
  uint64_t hint_cache_bytes() const;
  uint64_t cached_tables() const;

  const OpStats& op_stats() const { return op_stats_; }
  // FarMap surface: portable counters and the structure name.
  FarMapStats map_stats() const override { return op_stats_; }
  const char* kind() const override { return "ht_tree"; }
  FarClient* client() { return client_; }
  // The bucket-head NearCache, or nullptr when Options::cache is off.
  NearCache* near_cache() { return near_cache_.get(); }
  const NearCache* near_cache() const { return near_cache_.get(); }

  // ---- Write-behind mode (DESIGN.md §11) ----
  // Switches Put/Remove to enqueue-and-return: writes stage in a pending
  // table (same-key writes combined) and the engine's flush steps publish
  // them in batched waves through the flusher's own Attach'd handle and
  // FarClient, so this handle's clock never pays a publish round trip.
  // Get/MultiGet consult the pending table first (read-your-writes). Call
  // at most once, after the handle reached its final location. Handles
  // owned by a ShardedMap must not enable this directly — the map runs one
  // fleet-wide engine instead (ShardedMap::EnableWriteBehind).
  Status EnableWriteBehind(const WriteBehindOptions& wb_options);
  // Publishes every staged write and surfaces the first deferred publish
  // error. No-op when write-behind is off.
  Status FlushBarrier() override;
  // The engine, or nullptr when write-behind is off.
  WriteBehindEngine* write_behind() { return wb_.get(); }

  // ---- Adaptive hybrid dataplane (DESIGN.md §13) ----
  // Arms per-op routing between the one-sided path and shipping the op to
  // the near-memory RPC agent of this map's home node (where the header
  // lives — under ShardedMap pinning, the node owning the whole shard).
  // Decisions are made AFTER the near-only fast paths (pending-table,
  // NearCache) miss: near hits never reach either dataplane. Both pointers
  // must outlive the handle; pass them to every handle of one client so
  // estimates accumulate. Routed mutations stay cache-coherent: the RPC
  // agent publishes through the bucket-head CAS (watch notifications fire)
  // and this handle applies the one landed-store exit (ApplyLandedStore)
  // to the returned outcome, like every one-sided writer. Arming costs no
  // far op (it only translates the header address), so calling it right
  // after Create or Attach leaves every count unchanged.
  Status EnableRouting(RouteDecider* decider, RemoteMapPath* remote);
  // The node owning this map's header (kObsNoNode before EnableRouting).
  NodeId home_node() const { return home_node_; }
  // Smoothed serial-RTT estimate for one lookup (1 + expected chain hops);
  // the complexity signal routed decisions price one-sided cost with.
  double lookup_units() const { return lookup_units_; }

  // Exposed for tests: forces a split of the table owning `key`.
  Status SplitTableOf(uint64_t key);

 private:
  // Txn (src/core/txn.*) builds multi-key optimistic commits out of this
  // map's private machinery: validated bucket words, item slots, the
  // pending lock-record protocol, and the per-shard NearCache.
  friend class Txn;
  friend class ShardedMap;
  // The near-memory RPC agent (src/route/rpc_dataplane.*) executes routed
  // ops through a server-side handle: TxnRead gives it clean validatable
  // views to return for caller-side cache admission.
  friend class MapRpcService;

  // ---- Far layout constants ----
  // Map header words.
  static constexpr uint64_t kHdrRoot = 0;        // trie root pointer
  static constexpr uint64_t kHdrSplits = 8;      // splits counter (notify)
  static constexpr uint64_t kHdrTableCount = 16;
  static constexpr uint64_t kHdrRetired = 24;    // retired sentinel item
  static constexpr uint64_t kHdrBuckets = 32;    // buckets per table
  static constexpr uint64_t kHdrMaxChain = 40;
  static constexpr uint64_t kHeaderBytes = 64;

  // Trie node words (32 B).
  static constexpr uint64_t kNodeMeta = 0;   // bit0 leaf, bits8.. depth
  static constexpr uint64_t kNodeLeft = 8;   // internal: left child
  static constexpr uint64_t kNodeRight = 16; // internal: right child
  static constexpr uint64_t kLeafTable = 8;  // leaf: table address
  static constexpr uint64_t kLeafVersion = 16;
  static constexpr uint64_t kNodeBytes = 32;

  // Table header words.
  static constexpr uint64_t kTabVersion = 0;
  static constexpr uint64_t kTabLock = 8;
  static constexpr uint64_t kTabCount = 16;
  static constexpr uint64_t kTabBuckets = 24;
  static constexpr uint64_t kTabSentinel = 32;
  static constexpr uint64_t kTabState = 40;  // 0 active, 1 retired
  static constexpr uint64_t kTableHeaderBytes = 48;

  // Item words (32 B).
  static constexpr uint64_t kItemKey = 0;
  static constexpr uint64_t kItemValue = 8;
  static constexpr uint64_t kItemMeta = 16;
  static constexpr uint64_t kItemNext = 24;
  static constexpr uint64_t kItemBytes = 32;

  // Item meta flags (meta low 32 bits = table version).
  static constexpr uint64_t kFlagSentinel = 1ull << 32;
  static constexpr uint64_t kFlagRetired = 1ull << 33;
  static constexpr uint64_t kFlagTombstone = 1ull << 34;
  // Transaction lock record (src/core/txn.*): a pending item sits at a
  // bucket head while a multi-key commit is in flight; its `next` is the
  // pre-transaction clean head. Invariants: pending items appear ONLY at
  // bucket heads, and only the owning transaction may change a pending
  // bucket's word (commit swings it to the new chain, rollback restores
  // `next`). Readers skip it (pre-transaction view); writers and splits
  // wait it out rather than CAS over it.
  static constexpr uint64_t kFlagPending = 1ull << 35;

  struct Item {
    uint64_t key;
    uint64_t value;
    uint64_t meta;
    FarAddr next;
  };
  static_assert(sizeof(Item) == kItemBytes);

  // ---- Client cache ----
  struct CachedNode {
    bool leaf = true;
    uint32_t depth = 0;
    FarAddr addr = kNullFarAddr;       // far trie node
    int32_t child[2] = {-1, -1};       // indices into nodes_ (internal)
    FarAddr table = kNullFarAddr;      // leaf payload
    uint64_t version = 0;
    FarAddr sentinel = kNullFarAddr;
  };

  HtTree(FarClient* client, FarAllocator* alloc, FarAddr header,
         Options options);

  // Builds {table header, buckets, sentinel} far objects for a fresh table;
  // all writes batched. Returns the table address.
  Result<FarAddr> BuildTable(uint64_t version,
                             const std::vector<std::vector<Item>>& chains);
  Result<FarAddr> BuildLeafNode(uint32_t depth, FarAddr table,
                                uint64_t version);

  // Allocates an item slot from the client slab (no far access).
  Result<FarAddr> AllocItemSlot();

  // Trie descent over the local cache; returns index into nodes_ of the
  // leaf covering `hash`. Charges one near access for the directory slot
  // (none in a one-leaf mirror), one for the node it names and one per
  // level it walks below that node.
  int32_t DescendCached(uint64_t hash) const;

  // Replaces the cached subtree rooted where `hash` leads after detecting
  // staleness: walks the *far* trie along the hash path and splices.
  Status RefreshPath(uint64_t hash);
  // Reads the subtree under far node `addr`, level by level. Its root is
  // element 0 and child indices point into the returned vector.
  Result<std::vector<CachedNode>> FetchSubtree(FarAddr addr);
  // Replaces the cached leaf nodes_[at], which `hash` leads to, with the far
  // subtree under `addr`, written into the leaf's own cell so no dead node
  // is left. Drops the leaf table's growth estimate and re-points the
  // directory slots of that hash prefix (the whole directory only when its
  // depth must grow).
  Status SpliceSubtree(int32_t at, FarAddr addr, uint64_t hash);
  // Resizes the directory for the mirror's leaf count and fills it.
  void RebuildDirectory();
  // Points every directory slot under nodes_[at] (which covers hash prefix
  // `prefix`) at the deepest cached node covering it.
  void FillDirectory(int32_t at, uint64_t prefix);

  // ---- Transaction read hook (used by Txn via friendship) ----
  // One validated read observation: the resolved value (or a definitive
  // miss) together with the bucket word it was resolved under. The word is
  // the txn's validation handle — every mutation of the bucket swings it to
  // a freshly allocated address that is never reused (arena slots are not
  // recycled; freed tables are quarantined), so word equality at commit
  // time proves the chain is unchanged since this read.
  struct TxnReadView {
    bool found = false;
    uint64_t value = 0;
    FarAddr bucket = kNullFarAddr;
    uint64_t head_word = 0;  // clean (non-pending) head observed
    uint64_t version = 0;    // table version of the view
    bool versioned = false;  // false when served from the NearCache (the
                             // cache stores words, not table versions)
  };
  // Reads `key` and returns a validatable view: a one-key BatchGet in txn
  // mode. Unlike Get, a miss is a successful view (found = false) —
  // negative reads participate in validation too. Waits out pending bucket
  // heads (bounded backoff) so the recorded word is always clean; returns
  // kAborted if a transaction holds the bucket past the retry budget.
  // `allow_cache` permits the zero-far-op NearCache fast path (versioned =
  // false); pass false when the caller needs the table version (write
  // intents building item images).
  Result<TxnReadView> TxnRead(uint64_t key, bool allow_cache);
  // The zero-far-op txn read: `key`'s valid NearCache entry as a view that
  // carries the bucket it watches AND the word it was filled under, so the
  // hit is validatable — commit-time word equality catches any concurrent
  // write even if its invalidation notification is still queued. Empty on
  // a miss or without a cache.
  std::optional<TxnReadView> CachedTxnView(uint64_t key);

  // ---- NearCache integration (key-addressed value entries) ----
  // Entries are keyed by the USER key and hold the resolved value (8 bytes),
  // watching the key's bucket word. That watch gives exact coherence: items
  // are immutable once reachable, so the value bound to a key can only
  // change through a bucket CAS (insert, tombstone, split freeze) — and
  // every bucket CAS publishes a notification on the watched word. A hit
  // therefore returns the value with ZERO far accesses and without even
  // descending the trie or walking the chain; trie staleness is irrelevant
  // on the hit path because the trie is never consulted.
  //
  // Routes pending invalidation notifications before an operation reads
  // the cache (free when the channel is empty).
  void DispatchCacheInvalidations() {
    if (near_cache_ != nullptr) {
      (void)client_->DispatchNotifications();
    }
  }
  // Offers a freshly resolved (version-checked) key -> value binding.
  // `head` is the bucket word observed by the resolving read (the
  // read-and-arm race check — see CacheAdmitValue in ht_tree.cc).
  void CacheAdmitValue(uint64_t key, uint64_t value, FarAddr bucket,
                       FarAddr head);
  // Probe; on hit fills *value and returns true.
  bool CacheLookupValue(uint64_t key, uint64_t* value);
  // The near-only fast paths of a lookup, in precedence order: this
  // handle's pending write-behind record, then the NearCache. True when one
  // answered `key` (*out holds the answer); costs near accesses only.
  bool ConsultNear(uint64_t key, Result<uint64_t>* out);

  FarAddr BucketAddr(FarAddr table, uint64_t bucket) const {
    return table + kTableHeaderBytes + bucket * kWordSize;
  }
  uint64_t BucketIndex(uint64_t hash) const {
    return hash % buckets_per_table_;
  }
  // What a read of a bucket head found, validated against the cached leaf
  // the reader descended to (one near access): a live head of that table
  // generation; a transaction's lock record; or a stale head — the retired
  // sentinel of a frozen bucket, or an item of another table version.
  enum class HeadCheck : uint8_t { kLive, kPending, kStale };
  HeadCheck CheckHead(const Item& head, const CachedNode& leaf);
  // The wait before a key reads a pending or stale head again: a stale head
  // first refreshes the cached trie, once per leaf (a key whose leaf another
  // key of the batch already refreshed just descends again); then the key
  // backs off and spends one try of its retry budget. Not OK ends the key:
  // the refresh failed, or the budget ran out (kAborted, `exhausted`).
  Status BeforeReread(bool stale, int32_t leaf_index, FarAddr table,
                      uint64_t hash, int* attempts, const char* exhausted);
  // Same-key head replacement (file comment): the link word for a store of
  // `key` whose CAS expects the validated head `head` at `head_addr`.
  static FarAddr LinkPast(uint64_t key, FarAddr head_addr, const Item& head) {
    const bool same_key = (head.meta & kFlagSentinel) == 0 && head.key == key;
    return same_key ? head.next : head_addr;
  }
  // True when an item slot and a bucket word sit on one memory node, whose
  // post order makes the item visible before a CAS posted after it in the
  // same doorbell links it (DESIGN.md §5). Address arithmetic only.
  bool OnOneNode(FarAddr slot, FarAddr bucket) const {
    const auto a = client_->fabric()->Translate(slot);
    const auto b = client_->fabric()->Translate(bucket);
    return a.ok() && b.ok() && a->node == b->node;
  }
  // Growth-only split trigger (§5.2's "enough collisions"), called once per
  // landed store: counts it against `table` only if it `grew` the chain
  // (linked to the head its CAS replaced). True once this handle's count
  // passes half the buckets, and the caller should split. The count starts
  // at 0 on every table, including one a split built with about half its
  // parent's items, so a table splits well past load factor 1/2: at the end
  // of a seed-3 farbench `read_mostly` run its shards hold ~925 items per
  // 1,024-bucket table, and a lookup walks past the bucket head that much
  // more often (ROADMAP direction 2 weighs that trade).
  bool GrowthSplitDue(FarAddr table, bool grew);
  static uint32_t HashBit(uint64_t hash, uint32_t depth) {
    return static_cast<uint32_t>((hash >> (63 - depth)) & 1);
  }
  // True while nodes_[index] still caches `table` as a leaf: no refresh or
  // split has replaced the trie cell an engine descended to.
  bool CachesLeaf(int32_t index, FarAddr table) const {
    return index >= 0 && static_cast<size_t>(index) < nodes_.size() &&
           nodes_[index].leaf && nodes_[index].table == table;
  }

  // The split slow path: freeze, rewrite, republish (see file comment).
  Status SplitLeaf(int32_t leaf_index, uint64_t hash);
  // Body executed while holding the table lock; never returns without the
  // caller releasing that lock.
  Status SplitLeafLocked(const CachedNode& leaf, uint64_t hash,
                         FarAddr* internal_out, bool* already_split);

  FarClient* client_;
  FarAllocator* alloc_;
  FarAddr header_;
  Options options_;
  uint64_t buckets_per_table_ = 0;
  FarAddr retired_sentinel_ = kNullFarAddr;

  // The trie mirror holds live nodes only (splices write in place), so it
  // is a full binary tree of 2 × leaves − 1 nodes.
  std::vector<CachedNode> nodes_;  // nodes_[0] mirrors the root
  // The hash-prefix directory over the mirror: dir_[p] is the index of the
  // deepest cached node covering the top dir_bits_ bits p of a key hash — a
  // leaf no deeper than dir_bits_, or the internal node at that depth.
  std::vector<int32_t> dir_;
  uint32_t dir_bits_ = 0;
  // Per-table count of this handle's chain-growing stores (GrowthSplitDue),
  // for tables the mirror still caches.
  FlatMap<uint64_t> collision_estimate_;
  // Bucket-head NearCache (null when Options::cache.budget_bytes == 0).
  // Heap-owned so the NotificationSink pointer registered with the client
  // stays stable across HtTree moves.
  std::unique_ptr<NearCache> near_cache_;

  // Client item slab: items pre-allocated per far allocation (item
  // allocation itself then costs no far access).
  static constexpr uint64_t kArenaBatch = 4096;
  FarAddr arena_next_ = kNullFarAddr;
  uint64_t arena_left_ = 0;

  // Sink of the split watch (EnableSplitNotifications).
  OwnedSink<NotificationInbox> split_watch_;
  OpStats op_stats_;

  // Put and Remove: a store with `tombstone` set is a Remove.
  Status Store(uint64_t key, uint64_t value, bool tombstone);

  // ---- Routing state (EnableRouting; DESIGN.md §13) ----
  RouteDecider* route_decider_ = nullptr;
  RemoteMapPath* remote_path_ = nullptr;
  NodeId home_node_ = kObsNoNode;
  // Smoothed complexity estimates in serial one-sided round trips per op:
  // lookups start at the head-hit cost (1), stores at the head read plus
  // the item write and CAS in one doorbell (2).
  // Fed by the one-sided walks/retries AND by the RPC agent's chain-hop
  // feedback, so the signal stays fresh whichever path is preferred.
  double lookup_units_ = 1.0;
  double store_units_ = 2.0;
  static constexpr double kUnitsAlpha = 0.1;
  void NoteLookupUnits(double units) {
    lookup_units_ += kUnitsAlpha * (units - lookup_units_);
  }
  void NoteStoreUnits(double units) {
    store_units_ += kUnitsAlpha * (units - store_units_);
  }
  // What a one-sided MultiGet of `keys` keys cost: it walked `hops` chain
  // hops and the caller attributes it `elapsed_ns`. Feeds the units and,
  // when routing, the one-sided estimate.
  void ObserveOneSidedMultiGet(size_t keys, uint64_t hops,
                               uint64_t elapsed_ns);
  // The routing gate of a point op that missed the near paths: when the
  // router prices `op` on the RPC dataplane, `ship()` sends it to the
  // agent (an empty optional means the agent failed); otherwise, or then,
  // `one_sided()` runs the engine. Observes the path actually taken and
  // feeds its complexity units.
  template <typename Ship, typename OneSided>
  auto Route(RoutedOp op, Ship ship, OneSided one_sided)
      -> decltype(one_sided());
  // The landed-store exit: what a writer does to its own near state once
  // the bucket CAS of its store of `key` landed `outcome` — a one-sided
  // store, a txn commit and a routed write alike. A resident NearCache
  // entry refills with `value` under the new head word (zero far round
  // trips; the echo of the CAS confirms it, any later writer's event kills
  // it), or is invalidated for a tombstone.
  void ApplyLandedStore(uint64_t key, uint64_t value,
                        const WriteOutcome& outcome);
  // Its flusher-side form, run by a write-behind flush step against the
  // application handle's `cache` (null when off): the same refill or
  // invalidate through the NearCache's External variants.
  static void ApplyFlushedStore(NearCache* cache, uint64_t key,
                                uint64_t value, const WriteOutcome& outcome);

  // An engine's per-key state: inline for the single key of a point op,
  // so that hot path allocates nothing, and a vector for a batch. Spans
  // into it are re-derived on use, so engines stay movable.
  template <typename T>
  class PerKey {
   public:
    explicit PerKey(size_t n) : many_(n == 1 ? 0 : n), single_(n == 1) {}
    T* begin() { return single_ ? &one_ : many_.data(); }
    T* end() { return begin() + size(); }
    const T* begin() const { return single_ ? &one_ : many_.data(); }
    const T* end() const { return begin() + size(); }
    size_t size() const { return single_ ? 1 : many_.size(); }
    T& operator[](size_t i) { return begin()[i]; }
    const T& operator[](size_t i) const { return begin()[i]; }

   private:
    T one_{};
    std::vector<T> many_;
    bool single_;
  };

  // Write-behind engine (null when off). Declared after near_cache_: the
  // engine's last flush refills that cache, so the engine must go
  // (members destroy in reverse order) before the cache does.
  std::unique_ptr<WriteBehindEngine> wb_;

  // ---- Write-behind attachment, one for both maps (DESIGN.md §11) ----
  // Distinguishes a flusher client's id from its application client's.
  static constexpr uint64_t kWbClientIdBit = 1ull << 62;
  // Publishes write-behind batches through a flusher-owned FarClient and a
  // cache-off `Map` handle (an HtTree or a ShardedMap) on the same far map,
  // then applies the flusher-side landed-store exit to the application
  // handle's cache of each key: an HtTree's one cache, or the cache of the
  // key's shard. Driven by the engine's flush steps on the owner's thread;
  // the NearCache External calls are its only touch of the app handle.
  template <typename Map>
  class WbPublisher final : public WriteBehindEngine::Publisher {
   public:
    WbPublisher(std::unique_ptr<FarClient> client, Map map,
                std::vector<NearCache*> app_caches)
        : client_(std::move(client)),
          map_(std::move(map)),
          app_caches_(std::move(app_caches)) {}

    FarClient* client() override { return client_.get(); }

    Status Publish(const WriteBehindEngine::Batch& batch) override {
      return map_.MultiWrite(batch.keys, batch.values, batch.tombstones,
                             &outcomes_);
    }

    void RefillCaches(const WriteBehindEngine::Batch& batch) override {
      for (size_t i = 0; i < batch.keys.size(); ++i) {
        NearCache* cache = app_caches_.front();
        if constexpr (requires { map_.ShardOf(batch.keys[i]); }) {
          cache = app_caches_[map_.ShardOf(batch.keys[i])];
        }
        ApplyFlushedStore(cache, batch.keys[i], batch.values[i],
                          outcomes_[i]);
      }
    }

   private:
    std::unique_ptr<FarClient> client_;
    Map map_;
    std::vector<NearCache*> app_caches_;
    std::vector<WriteOutcome> outcomes_;
  };
  // Sets `*engine` to a write-behind engine for `app_client` whose flusher
  // owns its own client (publish round trips land on its clock, not the
  // app thread's) and a `Map` handle attached to `root` under
  // `flusher_options` (caches off).
  // `app_caches` are the application handle's caches, one per shard.
  template <typename Map>
  static Status AttachWriteBehind(std::unique_ptr<WriteBehindEngine>* engine,
                                  FarClient* app_client, FarAllocator* alloc,
                                  FarAddr root,
                                  const typename Map::Options& flusher_options,
                                  std::vector<NearCache*> app_caches,
                                  const WriteBehindOptions& options) {
    if (*engine != nullptr) {
      return FailedPrecondition("write-behind already enabled");
    }
    auto flusher_client = std::make_unique<FarClient>(
        app_client->fabric(), app_client->id() | kWbClientIdBit);
    FMDS_ASSIGN_OR_RETURN(
        Map handle,
        Map::Attach(flusher_client.get(), alloc, root, flusher_options));
    *engine = std::make_unique<WriteBehindEngine>(
        app_client,
        std::make_unique<WbPublisher<Map>>(std::move(flusher_client),
                                           std::move(handle),
                                           std::move(app_caches)),
        options);
    return OkStatus();
  }

 public:
  // The lookup engine behind Get, MultiGet and TxnRead. PostWave()
  // enqueues the next wave of far ops without flushing; AbsorbWave()
  // consumes their completions. Drive it until PostWave() returns 0 — with
  // RunWaves for a batch, with the point driver for a point op — then
  // Take(). Each key probes its bucket (load0: bucket word and head item in
  // one access), validates the head against its cached leaf, and walks the
  // chain. A stale head (retired sentinel or version mismatch) refreshes
  // the cached trie, backs off and probes again; a lookup that walked past
  // max_chain items splits the table.
  class BatchGet {
   public:
    // Txn mode (TxnRead, Txn::MultiGet): skips the pending-table and
    // value-cache consults (a txn resolves cache hits with watch words
    // itself), waits out pending heads instead of resolving the
    // pre-transaction view, never splits, and records a validatable
    // TxnReadView per key, read with TakeView() instead of Take(). A
    // deep-chain read set costs O(chain) doorbells total instead of
    // O(keys × chain) sequential round trips.
    BatchGet(HtTree* map, std::span<const uint64_t> keys,
             bool txn_mode = false);
    // Posts this engine's next wave into the client's issue queue (no
    // fabric traffic yet); returns the number of ops posted.
    size_t PostWave();
    // Consumes the executed wave's completions (post order).
    void AbsorbWave(std::span<const FarClient::Completion> done);
    // True once every key is answered (before any wave: by a near path).
    bool resolved() const;
    // Per-key results in input order. Call once, at the end.
    std::vector<Result<uint64_t>> Take();
    // The result for keys[i] alone.
    Result<uint64_t> Take(size_t i) { return std::move(probes_[i].result); }
    // Txn mode: the view resolved for keys[i], or the error that ended it.
    Result<TxnReadView> TakeView(size_t i) const;
    // Routing gate of a batched lookup (MultiGet, ShardedMap's per-shard
    // fan-out), called before any wave: when the router prices the batch
    // on the RPC dataplane, ships the keys the near paths did not answer
    // to the agent. True when every key is resolved; false leaves them to
    // the waves, whose one-sided cost the caller observes. `t0` is the
    // clock before construction, so near work counts toward the route.
    bool TryRoute(uint64_t t0);

   private:
    enum class Stage : uint8_t { kProbe, kHead, kWalk, kDone };
    struct Probe {
      uint64_t key = 0;
      uint64_t hash = 0;
      int32_t leaf_index = -1;
      CachedNode leaf;
      FarAddr bucket = kNullFarAddr;
      FarAddr head = kNullFarAddr;
      Item item{};
      Stage stage = Stage::kProbe;
      size_t op = FarClient::kNoOp;  // this wave's op (doorbell index)
      int attempts = 0;   // stale refreshes and pending waits so far
      uint32_t hops = 0;  // chain reads past the bucket head
      // Head was a transaction lock record: the walk resolves the
      // pre-transaction view, which must not feed the cache.
      bool pending_seen = false;
      Result<uint64_t> result = Status(StatusCode::kInternal, "unresolved");
      TxnReadView view;  // txn mode
    };
    // Validates a freshly read bucket head.
    void AbsorbHead(size_t i);
    // Chain-walk decision on a fresh item image: hit, definitive miss, or
    // continue walking next wave.
    void Classify(size_t i);
    // A stale or (txn mode) pending head: refresh the trie if nobody did
    // since this probe descended, back off, and probe again.
    void Retry(size_t i, bool stale);

    HtTree* map_;
    bool txn_mode_;
    PerKey<Probe> probes_;
  };

  // The store engine behind Put, Remove, MultiPut and MultiWrite (see
  // BatchGet for the wave protocol and its two drivers).
  class BatchPut {
   public:
    // Mixed store/remove with optional per-key outcome capture
    // (tombstones may be empty, outcomes may be null).
    BatchPut(HtTree* map, std::span<const uint64_t> keys,
             std::span<const uint64_t> values,
             std::span<const uint8_t> tombstones,
             std::vector<WriteOutcome>* outcomes);
    size_t PostWave();
    void AbsorbWave(std::span<const FarClient::Completion> done);
    // Runs deferred splits; returns the first per-key error.
    Status Take();

   private:
    // The stage whose far ops the next wave posts. kRead probes the bucket
    // (load0: word and head item in one access; with use_indirect off the
    // word alone, and kHead reads the item next wave). A validated live
    // head becomes the prediction (kPublish); a pending or stale head is
    // waited out or refreshed and read again. kPublish posts the item write
    // and the bucket CAS, which the client runs only if the write landed;
    // when the slot and the bucket sit on different nodes the write rides
    // alone and kCas posts the CAS next wave. A missed CAS reads again.
    enum class State : uint8_t { kRead, kHead, kPublish, kCas, kDone };
    struct Op {
      uint64_t key = 0;
      uint64_t value = 0;
      uint64_t hash = 0;
      int32_t leaf_index = -1;
      CachedNode leaf;
      FarAddr slot = kNullFarAddr;
      FarAddr bucket = kNullFarAddr;
      // The head the CAS expects: the word the read found, or the slot of
      // the same-bucket op publishing just before this one in the wave.
      FarAddr predicted = kNullFarAddr;
      // The slot's `next`: `predicted`, or the head's own `next` when the
      // store replaces its key's previous head (LinkPast).
      FarAddr link = kNullFarAddr;
      Item head{};  // the image of the head the read found
      // This wave's ops, as doorbell indices (kNoOp: not posted this wave).
      size_t read_op = FarClient::kNoOp;
      size_t write_op = FarClient::kNoOp;
      size_t cas_op = FarClient::kNoOp;
      int attempts = 0;  // missed CASes, stale refreshes and pending waits
      State state = State::kRead;
      bool tombstone = false;
      Status result;
    };
    // Validates a freshly read bucket head.
    void AbsorbHead(Op& op);
    // Consumes the completions of a publish wave: the item write, the
    // bucket CAS, or both.
    void AbsorbPublish(size_t i, std::span<const FarClient::Completion> done);

    HtTree* map_;
    PerKey<Op> ops_;
    // The op that last joined each bucket's chain in the wave being posted.
    std::unordered_map<FarAddr, const Op*> chain_tail_;
    // Input-order outcome sink (null unless the caller asked).
    std::vector<WriteOutcome>* outcomes_ = nullptr;
    // Tables that crossed the split threshold during the batch; split after
    // the waves so the batched fast path itself stays split-free.
    struct DeferredSplit {
      int32_t leaf_index;
      FarAddr table;
      uint64_t hash;
    };
    std::vector<DeferredSplit> deferred_splits_;
  };
};

inline Result<HtTree> HtTree::Create(FarClient* client, FarAllocator* alloc) {
  return Create(client, alloc, Options{});
}

}  // namespace fmds

#endif  // FMDS_SRC_CORE_HT_TREE_H_

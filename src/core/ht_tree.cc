#include "src/core/ht_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/common/bytes.h"
#include "src/core/far_mutex.h"
#include "src/obs/recorder.h"

namespace fmds {

namespace {
constexpr uint32_t kMaxDepth = 40;
// One retry budget per key and operation, counting mispredicted CASes,
// stale refreshes and pending waits. Stale retries may have to outwait an
// in-flight split (buckets frozen, trie not yet republished), so the budget
// is generous and backs off.
constexpr int kMaxOpRetries = 4096;

uint64_t VersionOf(uint64_t meta) { return meta & 0xffffffffull; }

// The top `bits` bits of `hash`: the prefix a trie node at depth `bits`
// covers.
uint64_t HashPrefix(uint64_t hash, uint32_t bits) {
  return bits == 0 ? 0 : hash >> (64 - bits);
}

// The trie directory's depth for a mirror of `leaves` leaves: the smallest
// with 2^bits >= 2 × leaves, so the directory stays linear in leaves (zero
// for one leaf, whose only slot names the root).
uint32_t DirBits(uint64_t leaves) {
  return leaves < 2 ? 0
                    : static_cast<uint32_t>(std::bit_width(2 * leaves - 1));
}

// Brief real-time backoff between staleness retries: an in-flight split
// holds the table frozen for many fabric round trips.
void StaleBackoff(int attempt) {
  if (attempt < 8) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}
}  // namespace

// Far trie node image.
struct NodeRec {
  uint64_t meta;
  uint64_t a;  // left / table
  uint64_t b;  // right / version
  uint64_t c;  // unused / sentinel

  bool leaf() const { return (meta & 1) != 0; }
  uint32_t depth() const { return static_cast<uint32_t>((meta >> 8) & 0xff); }
};

HtTree::HtTree(FarClient* client, FarAllocator* alloc, FarAddr header,
               Options options)
    : client_(client), alloc_(alloc), header_(header), options_(options) {
  if (options_.cache.budget_bytes > 0) {
    // Bucket words are true versions — every mutation swings them to a
    // freshly allocated, never-reused address — so the cache can use
    // word-versioned coherence: a writer refills its own entry at Put exit
    // and the echo of its CAS confirms instead of killing it.
    near_cache_ = std::make_unique<NearCache>(client_, options_.cache,
                                              /*word_versioned=*/true);
  }
}

bool HtTree::CacheLookupValue(uint64_t key, uint64_t* value) {
  if (near_cache_ == nullptr) {
    return false;
  }
  return near_cache_->Lookup(key, AsBytes(*value));
}

void HtTree::CacheAdmitValue(uint64_t key, uint64_t value, FarAddr bucket,
                             FarAddr head) {
  if (near_cache_ == nullptr) {
    return;
  }
  // Only version-checked, chain-resolved FOUND results reach this point:
  // caching an unvalidated read would make a stale value sticky (a store's
  // CAS prediction follows the same rule, DESIGN.md §7). Absent keys and
  // tombstones are not cached — negative entries would pin budget for keys
  // the workload may never ask about again. `head` is the bucket word
  // observed by the read that resolved this value: Admit's read-and-arm
  // subscribe compares it against the word at arm time, so a bucket CAS
  // racing the window between our read and the subscription cannot pin a
  // stale value (every mutation swings the head to a freshly allocated
  // item, so an unchanged head word means an unchanged chain).
  near_cache_->Admit(key, AsConstBytes(value), bucket, kWordSize, head);
}

Result<HtTree> HtTree::Create(FarClient* client, FarAllocator* alloc,
                              Options options) {
  if (options.buckets_per_table == 0 || options.initial_depth > 20) {
    return Status(StatusCode::kInvalidArgument, "bad HtTree options");
  }
  FMDS_ASSIGN_OR_RETURN(FarAddr header,
                        alloc->Allocate(kHeaderBytes, options.placement));
  HtTree map(client, alloc, header, options);
  map.buckets_per_table_ = options.buckets_per_table;

  // Map-wide retired sentinel: the frozen-bucket marker.
  FMDS_ASSIGN_OR_RETURN(FarAddr retired,
                        alloc->Allocate(kItemBytes, options.placement));
  Item retired_item{0, 0, kFlagSentinel | kFlagRetired, kNullFarAddr};
  FMDS_RETURN_IF_ERROR(client->Write(retired, AsConstBytes(retired_item)));
  map.retired_sentinel_ = retired;

  // Initial trie: a perfect binary trie of depth initial_depth whose 2^d
  // leaves each own an empty table (version 1).
  const std::vector<std::vector<Item>> empty_chains(
      options.buckets_per_table);
  struct Pending {
    uint32_t depth;
    FarAddr addr;
  };
  // Build leaves first.
  std::vector<FarAddr> level;
  const uint32_t d = options.initial_depth;
  const uint64_t leaf_count = 1ull << d;
  for (uint64_t i = 0; i < leaf_count; ++i) {
    FMDS_ASSIGN_OR_RETURN(FarAddr table, map.BuildTable(1, empty_chains));
    FMDS_ASSIGN_OR_RETURN(FarAddr leaf, map.BuildLeafNode(d, table, 1));
    level.push_back(leaf);
  }
  // Internals bottom-up.
  for (uint32_t depth = d; depth > 0; --depth) {
    std::vector<FarAddr> next;
    for (size_t i = 0; i < level.size(); i += 2) {
      FMDS_ASSIGN_OR_RETURN(FarAddr node,
                            alloc->Allocate(kNodeBytes, options.placement));
      NodeRec rec{/*meta=*/static_cast<uint64_t>(depth - 1) << 8, level[i],
                  level[i + 1], 0};
      FMDS_RETURN_IF_ERROR(client->Write(node, AsConstBytes(rec)));
      next.push_back(node);
    }
    level = std::move(next);
  }

  uint64_t hdr[8] = {};
  hdr[kHdrRoot / 8] = level[0];
  hdr[kHdrSplits / 8] = 0;
  hdr[kHdrTableCount / 8] = leaf_count;
  hdr[kHdrRetired / 8] = retired;
  hdr[kHdrBuckets / 8] = options.buckets_per_table;
  hdr[kHdrMaxChain / 8] = options.max_chain;
  FMDS_RETURN_IF_ERROR(client->Write(
      header, std::as_bytes(std::span<const uint64_t>(hdr))));

  FMDS_RETURN_IF_ERROR(map.RefreshCache());
  return map;
}

Result<HtTree> HtTree::Attach(FarClient* client, FarAllocator* alloc,
                              FarAddr header) {
  return Attach(client, alloc, header, Options{});
}

Result<HtTree> HtTree::Attach(FarClient* client, FarAllocator* alloc,
                              FarAddr header, Options options) {
  HtTree map(client, alloc, header, options);
  FMDS_RETURN_IF_ERROR(map.RefreshCache());
  return map;
}

Result<FarAddr> HtTree::BuildTable(
    uint64_t version, const std::vector<std::vector<Item>>& chains) {
  const uint64_t nb = chains.size();
  const uint64_t table_bytes = kTableHeaderBytes + nb * kWordSize;
  FMDS_ASSIGN_OR_RETURN(FarAddr table,
                        alloc_->Allocate(table_bytes, options_.placement));
  FMDS_ASSIGN_OR_RETURN(FarAddr sentinel,
                        alloc_->Allocate(kItemBytes, options_.placement));
  Item sentinel_item{0, 0, kFlagSentinel | VersionOf(version), kNullFarAddr};
  FMDS_RETURN_IF_ERROR(client_->Write(sentinel, AsConstBytes(sentinel_item)));

  // Lay out all items in one contiguous block with pre-linked chains, so
  // the whole table body is written in two far accesses (items + header
  // and bucket array).
  uint64_t total_items = 0;
  for (const auto& chain : chains) {
    total_items += chain.size();
  }
  FarAddr items_base = kNullFarAddr;
  std::vector<Item> images;
  std::vector<uint64_t> heads(nb, sentinel);
  if (total_items > 0) {
    FMDS_ASSIGN_OR_RETURN(
        items_base,
        alloc_->Allocate(total_items * kItemBytes, options_.placement));
    images.reserve(total_items);
    uint64_t slot = 0;
    for (uint64_t b = 0; b < nb; ++b) {
      const auto& chain = chains[b];
      if (chain.empty()) {
        continue;
      }
      heads[b] = items_base + slot * kItemBytes;
      for (size_t i = 0; i < chain.size(); ++i) {
        Item img = chain[i];
        img.meta = VersionOf(version) | (img.meta & kFlagTombstone);
        img.next = (i + 1 < chain.size())
                       ? items_base + (slot + 1) * kItemBytes
                       : sentinel;
        images.push_back(img);
        ++slot;
      }
    }
    FMDS_RETURN_IF_ERROR(client_->Write(
        items_base, std::as_bytes(std::span<const Item>(images))));
  }

  std::vector<uint64_t> block(table_bytes / kWordSize, 0);
  block[kTabVersion / 8] = version;
  block[kTabLock / 8] = 0;
  block[kTabCount / 8] = total_items;
  block[kTabBuckets / 8] = nb;
  block[kTabSentinel / 8] = sentinel;
  block[kTabState / 8] = 0;
  for (uint64_t b = 0; b < nb; ++b) {
    block[kTableHeaderBytes / 8 + b] = heads[b];
  }
  FMDS_RETURN_IF_ERROR(client_->Write(
      table, std::as_bytes(std::span<const uint64_t>(block))));
  return table;
}

Result<FarAddr> HtTree::BuildLeafNode(uint32_t depth, FarAddr table,
                                      uint64_t version) {
  FMDS_ASSIGN_OR_RETURN(FarAddr node,
                        alloc_->Allocate(kNodeBytes, options_.placement));
  // Leaf nodes carry the table's sentinel so attaching clients learn it
  // without touching the table header.
  FMDS_ASSIGN_OR_RETURN(uint64_t sentinel,
                        client_->ReadWord(table + kTabSentinel));
  NodeRec rec{1 | (static_cast<uint64_t>(depth) << 8), table, version,
              sentinel};
  FMDS_RETURN_IF_ERROR(client_->Write(node, AsConstBytes(rec)));
  return node;
}

Result<FarAddr> HtTree::AllocItemSlot() {
  if (arena_left_ == 0) {
    FMDS_ASSIGN_OR_RETURN(
        arena_next_,
        alloc_->Allocate(kArenaBatch * kItemBytes, options_.placement));
    arena_left_ = kArenaBatch;
  }
  const FarAddr slot = arena_next_;
  arena_next_ += kItemBytes;
  --arena_left_;
  client_->AccountNear(1);  // slab bookkeeping is a local operation
  return slot;
}

int32_t HtTree::DescendCached(uint64_t hash) const {
  int32_t idx = dir_[HashPrefix(hash, dir_bits_)];
  // The slot, then the node it names. A one-leaf mirror's directory has
  // zero bits: its only slot names the root, which is all the descent reads.
  uint64_t near = dir_bits_ == 0 ? 1 : 2;
  while (!nodes_[idx].leaf) {
    idx = nodes_[idx].child[HashBit(hash, nodes_[idx].depth)];
    ++near;
  }
  client_->AccountNear(near);
  return idx;
}

Status HtTree::RefreshCache() {
  // Header: config + root pointer, one far access.
  uint64_t hdr[8];
  FMDS_RETURN_IF_ERROR(client_->Read(
      header_, std::as_writable_bytes(std::span<uint64_t>(hdr))));
  buckets_per_table_ = hdr[kHdrBuckets / 8];
  retired_sentinel_ = hdr[kHdrRetired / 8];
  options_.buckets_per_table = buckets_per_table_;
  options_.max_chain = hdr[kHdrMaxChain / 8];

  // Mirror the trie breadth-first through the batched pipeline: the whole
  // trie costs depth+1 round trips, not one per node.
  FMDS_ASSIGN_OR_RETURN(nodes_, FetchSubtree(hdr[kHdrRoot / 8]));
  if (!collision_estimate_.empty()) {
    // Growth estimates of tables that left the mirror go with them.
    FlatMap<uint64_t> kept;
    for (const CachedNode& node : nodes_) {
      const uint64_t* estimate =
          node.leaf ? collision_estimate_.Find(node.table) : nullptr;
      if (estimate != nullptr) {
        kept[node.table] = *estimate;
      }
    }
    collision_estimate_ = std::move(kept);
  }
  RebuildDirectory();
  return OkStatus();
}

Result<std::vector<HtTree::CachedNode>> HtTree::FetchSubtree(FarAddr addr) {
  // Level-order batched fetch: all nodes of one level ride one doorbell
  // (both children of every internal node in a single round trip).
  std::vector<CachedNode> nodes(1);
  struct Fetch {
    FarAddr addr;
    int32_t idx;
  };
  std::vector<Fetch> frontier{{addr, 0}};
  std::vector<FarClient::Completion> done;
  while (!frontier.empty()) {
    std::vector<NodeRec> recs(frontier.size());
    for (size_t i = 0; i < frontier.size(); ++i) {
      client_->PostRead(frontier[i].addr, AsBytes(recs[i]));
    }
    done.resize(client_->pending_ops());
    FMDS_RETURN_IF_ERROR(client_->WaitAll(done));
    std::vector<Fetch> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      const NodeRec& rec = recs[i];
      // Build locally and assign by index: the push_backs below reallocate
      // `nodes`, so no reference into it may be held across them.
      CachedNode node;
      node.addr = frontier[i].addr;
      node.depth = rec.depth();
      if (rec.leaf()) {
        node.leaf = true;
        node.table = rec.a;
        node.version = rec.b;
        node.sentinel = rec.c;
      } else {
        node.leaf = false;
        node.child[0] = static_cast<int32_t>(nodes.size());
        nodes.push_back(CachedNode{});
        node.child[1] = static_cast<int32_t>(nodes.size());
        nodes.push_back(CachedNode{});
        next.push_back(Fetch{rec.a, node.child[0]});
        next.push_back(Fetch{rec.b, node.child[1]});
      }
      nodes[frontier[i].idx] = node;
    }
    frontier = std::move(next);
  }
  return nodes;
}

Status HtTree::SpliceSubtree(int32_t at, FarAddr addr, uint64_t hash) {
  // The far trie only ever swings a leaf's cell to a new internal node, and
  // internal nodes are never freed, so only a cached leaf can lag it.
  const CachedNode replaced = nodes_[at];
  assert(replaced.leaf);
  FMDS_ASSIGN_OR_RETURN(std::vector<CachedNode> sub, FetchSubtree(addr));
  // The subtree's root takes the leaf's cell and its descendants append,
  // so every child index moves by the same offset.
  const int32_t base = static_cast<int32_t>(nodes_.size()) - 1;
  for (CachedNode& node : sub) {
    if (!node.leaf) {
      node.child[0] += base;
      node.child[1] += base;
    }
  }
  nodes_[at] = sub[0];
  nodes_.insert(nodes_.end(), sub.begin() + 1, sub.end());
  collision_estimate_.Erase(replaced.table);
  if (DirBits(cached_tables()) != dir_bits_) {
    RebuildDirectory();
  } else if (replaced.depth < dir_bits_) {
    FillDirectory(at, HashPrefix(hash, replaced.depth));
  }
  return OkStatus();
}

void HtTree::RebuildDirectory() {
  dir_bits_ = DirBits(cached_tables());
  dir_.assign(size_t{1} << dir_bits_, 0);
  FillDirectory(0, 0);
}

void HtTree::FillDirectory(int32_t at, uint64_t prefix) {
  const CachedNode& node = nodes_[at];
  if (node.leaf || node.depth == dir_bits_) {
    const uint32_t below = dir_bits_ - node.depth;
    std::fill_n(dir_.begin() + static_cast<ptrdiff_t>(prefix << below),
                size_t{1} << below, at);
    return;
  }
  FillDirectory(node.child[0], prefix << 1);
  FillDirectory(node.child[1], (prefix << 1) | 1);
}

Status HtTree::RefreshPath(uint64_t hash) {
  ++op_stats_.stale_refreshes;
  FMDS_ASSIGN_OR_RETURN(FarAddr root, client_->ReadWord(header_ + kHdrRoot));
  if (nodes_.empty() || nodes_[0].addr != root) {
    return RefreshCache();
  }
  int32_t ci = 0;
  FarAddr fa = root;
  for (uint32_t level = 0; level <= kMaxDepth; ++level) {
    NodeRec rec;
    FMDS_RETURN_IF_ERROR(client_->Read(fa, AsBytes(rec)));
    CachedNode& cached = nodes_[ci];
    if (rec.leaf()) {
      cached.leaf = true;
      cached.addr = fa;
      cached.depth = rec.depth();
      cached.table = rec.a;
      cached.version = rec.b;
      cached.sentinel = rec.c;
      return OkStatus();
    }
    if (cached.leaf) {
      // The cached view lags a split: pull the whole replacement subtree.
      return SpliceSubtree(ci, fa, hash);
    }
    const uint32_t bit = HashBit(hash, rec.depth());
    const FarAddr next_fa = (bit == 0) ? rec.a : rec.b;
    const int32_t next_ci = cached.child[bit];
    if (nodes_[next_ci].addr != next_fa) {
      return SpliceSubtree(next_ci, next_fa, hash);
    }
    fa = next_fa;
    ci = next_ci;
  }
  return Internal("trie deeper than kMaxDepth");
}

namespace {
// The point driver of a one-key engine. A wave of one op runs as the sync
// verb it stands for, so a lookup and a store's head read pay exactly the
// serial round trip and none of a doorbell's accounting. A wave of two — a
// store's item write and bucket CAS on one node — rings one doorbell, so a
// fresh store costs two round trips.
template <typename Engine>
void RunPoint(FarClient* client, Engine& engine) {
  std::array<FarClient::Completion, 2> done;  // a key posts <= 2 ops a wave
  while (const size_t posted = engine.PostWave()) {
    assert(posted <= done.size());
    const std::span<FarClient::Completion> wave(done.data(), posted);
    if (posted == 1) {
      client->ExecuteSerially(wave);
    } else {
      (void)client->WaitAll(wave);
    }
    engine.AbsorbWave(wave);
  }
}
}  // namespace

bool HtTree::ConsultNear(uint64_t key, Result<uint64_t>* out) {
  // Write-behind read-your-writes: the pending table is the newest truth
  // for this thread's own writes, so it outranks the near cache and the
  // far map. A miss here implies the write already published (the flusher
  // erases records only after its CAS and cache-refill stages), making the
  // pending -> dispatch -> cache consult order safe.
  if (wb_ != nullptr) {
    if (std::optional<Result<uint64_t>> pending = wb_->Lookup(key)) {
      client_->AccountNear(1);
      *out = *std::move(pending);
      return true;
    }
  }
  DispatchCacheInvalidations();
  // NearCache fast path: a valid entry IS the answer — no trie descent, no
  // chain walk, zero far accesses. Coherence comes from the bucket-word
  // watch (dispatched above); under a lossy delivery policy a stale hit is
  // bounded by the writer-side Invalidate and the channel loss reset.
  uint64_t cached_value = 0;
  if (CacheLookupValue(key, &cached_value)) {
    *out = cached_value;
    return true;
  }
  return false;
}

template <typename Ship, typename OneSided>
auto HtTree::Route(RoutedOp op, Ship ship, OneSided one_sided)
    -> decltype(one_sided()) {
  if (route_decider_ == nullptr) {
    return one_sided();
  }
  const bool lookup = op == RoutedOp::kGet;
  const double& units = lookup ? lookup_units_ : store_units_;
  const uint64_t t0 = client_->clock().now_ns();
  if (route_decider_->Decide(op, home_node_, units, 1) ==
      DataplaneRoute::kRpc) {
    if (auto shipped = ship()) {
      route_decider_->Observe(op, home_node_, DataplaneRoute::kRpc,
                              client_->clock().now_ns() - t0, units, 1);
      return *std::move(shipped);
    }
    // Agent unreachable or aborted: the one-sided engine is the safety
    // valve; observe the path actually taken.
  }
  const uint64_t hops0 = op_stats_.chain_hops;
  const uint64_t retries0 = op_stats_.cas_retries;
  auto result = one_sided();
  if (lookup) {
    NoteLookupUnits(1.0 + static_cast<double>(op_stats_.chain_hops - hops0));
  } else {
    NoteStoreUnits(2.0 +
                   static_cast<double>(op_stats_.cas_retries - retries0));
  }
  route_decider_->Observe(op, home_node_, DataplaneRoute::kOneSided,
                          client_->clock().now_ns() - t0, units, 1);
  return result;
}

Result<uint64_t> HtTree::Get(uint64_t key) {
  ScopedOpLabel label(&client_->recorder(), "httree.get");
  BatchGet engine(this, std::span<const uint64_t>(&key, 1));
  if (engine.resolved()) {
    return engine.Take(0);  // a near path answered
  }
  return Route(
      RoutedOp::kGet,
      [&]() -> std::optional<Result<uint64_t>> {
        auto view = remote_path_->Get(header_, key);
        if (!view.ok()) {
          return std::nullopt;
        }
        NoteLookupUnits(1.0 + static_cast<double>(view->chain_hops));
        if (view->found && view->cacheable) {
          CacheAdmitValue(key, view->value, view->bucket, view->head_word);
        }
        if (!view->found) {
          return Result<uint64_t>(Status(StatusCode::kNotFound, "key absent"));
        }
        return Result<uint64_t>(view->value);
      },
      [&] {
        RunPoint(client_, engine);
        return engine.Take(0);
      });
}

Result<HtTree::TxnReadView> HtTree::TxnRead(uint64_t key, bool allow_cache) {
  ScopedOpLabel label(&client_->recorder(), "txn.read");
  DispatchCacheInvalidations();
  if (allow_cache) {
    if (std::optional<TxnReadView> view = CachedTxnView(key)) {
      ++op_stats_.gets;
      return *view;
    }
  }
  BatchGet engine(this, std::span<const uint64_t>(&key, 1),
                  /*txn_mode=*/true);
  RunPoint(client_, engine);
  return engine.TakeView(0);
}

std::optional<HtTree::TxnReadView> HtTree::CachedTxnView(uint64_t key) {
  TxnReadView view;
  if (near_cache_ == nullptr ||
      !near_cache_->LookupWatch(key, AsBytes(view.value), &view.bucket,
                                &view.head_word)) {
    return std::nullopt;
  }
  view.found = true;
  return view;
}

// ---------------------------- BatchGet engine ----------------------------

HtTree::BatchGet::BatchGet(HtTree* map, std::span<const uint64_t> keys,
                           bool txn_mode)
    : map_(map), txn_mode_(txn_mode), probes_(keys.size()) {
  map_->op_stats_.gets += keys.size();
  for (size_t i = 0; i < keys.size(); ++i) {
    Probe& probe = probes_[i];
    probe.key = keys[i];
    probe.hash = Mix64(keys[i]);
    // Near hits resolve before any wave posts: hot keys drop out of the
    // doorbell entirely, without even a descent.
    if (!txn_mode_ && map_->ConsultNear(probe.key, &probe.result)) {
      probe.stage = Stage::kDone;
    }
  }
}

bool HtTree::BatchGet::resolved() const {
  return std::all_of(probes_.begin(), probes_.end(), [](const Probe& p) {
    return p.stage == Stage::kDone;
  });
}

size_t HtTree::BatchGet::PostWave() {
  FarClient* client = map_->client_;
  size_t posted = 0;
  for (Probe& probe : probes_) {
    switch (probe.stage) {
      case Stage::kProbe:
        // Descend the cached trie again on every probe: a retry after a
        // refresh lands on the fresh leaf.
        probe.leaf_index = map_->DescendCached(probe.hash);
        probe.leaf = map_->nodes_[probe.leaf_index];
        probe.bucket =
            map_->BucketAddr(probe.leaf.table, map_->BucketIndex(probe.hash));
        // use_indirect: ONE access dereferences the bucket and returns the
        // head item. Ablation: bucket word this wave, head item next wave.
        probe.op = map_->options_.use_indirect
                       ? client->PostLoad0(probe.bucket, AsBytes(probe.item))
                       : client->PostReadWord(probe.bucket);
        break;
      case Stage::kHead:
        probe.op = client->PostRead(probe.head, AsBytes(probe.item));
        break;
      case Stage::kWalk:
        // addr is captured at post time, so reading into `item` is safe
        // even though it overwrites the `next` field the address came from.
        probe.op = client->PostRead(probe.item.next, AsBytes(probe.item));
        ++map_->op_stats_.chain_hops;
        ++probe.hops;
        break;
      case Stage::kDone:
        continue;
    }
    ++posted;
  }
  return posted;
}

void HtTree::BatchGet::AbsorbWave(
    std::span<const FarClient::Completion> done) {
  for (size_t i = 0; i < probes_.size(); ++i) {
    Probe& probe = probes_[i];
    if (probe.stage == Stage::kDone) {
      continue;
    }
    const FarClient::Completion& c = done[probe.op];
    if (!c.status.ok()) {
      probe.result = c.status;
      probe.stage = Stage::kDone;
      continue;
    }
    if (probe.stage == Stage::kWalk) {
      Classify(i);
      continue;
    }
    if (probe.stage == Stage::kProbe) {
      probe.head = c.word;
      if (!map_->options_.use_indirect) {
        probe.stage = Stage::kHead;  // the item read rides the next wave
        continue;
      }
    }
    AbsorbHead(i);
  }
}

HtTree::HeadCheck HtTree::CheckHead(const Item& head,
                                    const CachedNode& leaf) {
  client_->AccountNear(1);
  if ((head.meta & kFlagRetired) != 0 ||
      VersionOf(head.meta) != leaf.version) {
    return HeadCheck::kStale;
  }
  // A pending head is a transaction's lock record (only ever at the head);
  // the pre-transaction chain hangs off its `next`.
  return (head.meta & kFlagPending) != 0 ? HeadCheck::kPending
                                         : HeadCheck::kLive;
}

Status HtTree::BeforeReread(bool stale, int32_t leaf_index, FarAddr table,
                            uint64_t hash, int* attempts,
                            const char* exhausted) {
  if (stale && CachesLeaf(leaf_index, table)) {
    FMDS_RETURN_IF_ERROR(RefreshPath(hash));
  }
  StaleBackoff(*attempts);
  if (++*attempts >= kMaxOpRetries) {
    return Aborted(exhausted);
  }
  return OkStatus();
}

void HtTree::BatchGet::AbsorbHead(size_t i) {
  Probe& probe = probes_[i];
  switch (map_->CheckHead(probe.item, probe.leaf)) {
    case HeadCheck::kStale:
      Retry(i, /*stale=*/true);
      return;
    case HeadCheck::kPending:
      if (txn_mode_) {
        // A txn read must NOT resolve the pre-transaction view: the only
        // word it could record would be the lock record's address, and
        // validating against that would certify a read the in-flight commit
        // is about to overwrite (write skew). Wait for a clean head instead.
        Retry(i, /*stale=*/false);
        return;
      }
      // A lookup resolves that view wait-free, but the pending address must
      // never become a cache watch word (a txn validating against it would
      // miss the commit).
      probe.pending_seen = true;
      probe.stage = Stage::kWalk;
      return;
    case HeadCheck::kLive:
      Classify(i);
      return;
  }
}

void HtTree::BatchGet::Retry(size_t i, bool stale) {
  Probe& probe = probes_[i];
  const Status status = map_->BeforeReread(
      stale, probe.leaf_index, probe.leaf.table, probe.hash, &probe.attempts,
      txn_mode_ ? "txn read waited out a pending bucket"
                : "get retries exhausted");
  if (!status.ok()) {
    probe.result = status;
    probe.stage = Stage::kDone;
    return;
  }
  probe.stage = Stage::kProbe;
}

void HtTree::BatchGet::Classify(size_t i) {
  Probe& probe = probes_[i];
  const Item& item = probe.item;
  const bool sentinel = (item.meta & kFlagSentinel) != 0;
  const bool match = !sentinel && item.key == probe.key;
  if (!sentinel && !match && item.next != kNullFarAddr) {
    probe.stage = Stage::kWalk;
    return;
  }
  probe.stage = Stage::kDone;
  // Resolved: the version-carrying sentinel makes even a miss definitive
  // in one access; the first match wins and a tombstone means absent. A
  // lookup that walked a long chain splits the table (§5.2) before the
  // cache arms a watch on the bucket; the read past a lock record is not
  // a chain link.
  const uint32_t chain = probe.hops - (probe.pending_seen ? 1 : 0);
  if (!txn_mode_ && (sentinel || match) &&
      chain > map_->options_.max_chain &&
      map_->CachesLeaf(probe.leaf_index, probe.leaf.table)) {
    (void)map_->SplitLeaf(probe.leaf_index, probe.hash);
  }
  const bool found = match && (item.meta & kFlagTombstone) == 0;
  if (found && !probe.pending_seen) {
    // Only version-checked, chain-resolved bindings get here; probe.head
    // is the bucket word the probe observed (the read-and-arm check).
    map_->CacheAdmitValue(probe.key, item.value, probe.bucket, probe.head);
  }
  if (txn_mode_) {
    // A miss is a successful negative view: it validates with the same
    // bucket word.
    TxnReadView& view = probe.view;
    view.found = found;
    view.value = found ? item.value : 0;
    view.bucket = probe.bucket;
    view.head_word = probe.head;
    view.version = probe.leaf.version;
    view.versioned = true;
    probe.result = view.value;
  } else if (found) {
    probe.result = item.value;
  } else {
    probe.result =
        Status(StatusCode::kNotFound, match ? "key removed" : "key absent");
  }
}

std::vector<Result<uint64_t>> HtTree::BatchGet::Take() {
  std::vector<Result<uint64_t>> results;
  results.reserve(probes_.size());
  for (Probe& probe : probes_) {
    results.push_back(std::move(probe.result));
  }
  return results;
}

Result<HtTree::TxnReadView> HtTree::BatchGet::TakeView(size_t i) const {
  const Probe& probe = probes_[i];
  if (!probe.result.ok()) {
    return probe.result.status();
  }
  return probe.view;
}

bool HtTree::BatchGet::TryRoute(uint64_t t0) {
  HtTree* map = map_;
  if (map->route_decider_ == nullptr || probes_.size() == 0 ||
      map->route_decider_->Decide(RoutedOp::kMultiGet, map->home_node_,
                                  map->lookup_units_, probes_.size()) !=
          DataplaneRoute::kRpc) {
    return false;
  }
  std::vector<uint64_t> residue;
  std::vector<size_t> residue_pos;
  for (size_t i = 0; i < probes_.size(); ++i) {
    if (probes_[i].stage != Stage::kDone) {
      residue.push_back(probes_[i].key);
      residue_pos.push_back(i);
    }
  }
  if (residue.empty()) {
    return true;  // nothing far to observe — all keys answered near
  }
  std::vector<RemoteMapPath::ReadView> views;
  if (!map->remote_path_->MultiGet(map->header_, residue, &views).ok()) {
    return false;
  }
  double hops = 0.0;
  for (size_t j = 0; j < residue.size(); ++j) {
    const RemoteMapPath::ReadView& view = views[j];
    hops += static_cast<double>(view.chain_hops);
    if (view.found && view.cacheable) {
      map->CacheAdmitValue(residue[j], view.value, view.bucket,
                           view.head_word);
    }
    const size_t i = residue_pos[j];
    probes_[i].result = view.found ? Result<uint64_t>(view.value)
                             : Result<uint64_t>(Status(StatusCode::kNotFound,
                                                       "key absent"));
    probes_[i].stage = Stage::kDone;
  }
  map->NoteLookupUnits(1.0 + hops / static_cast<double>(residue.size()));
  map->route_decider_->Observe(RoutedOp::kMultiGet, map->home_node_,
                               DataplaneRoute::kRpc,
                               map->client_->clock().now_ns() - t0,
                               map->lookup_units_, residue.size());
  return true;
}

std::vector<Result<uint64_t>> HtTree::MultiGet(
    std::span<const uint64_t> keys) {
  ScopedOpLabel label(&client_->recorder(), "httree.multiget");
  const uint64_t t0 = client_->clock().now_ns();
  BatchGet engine(this, keys);
  if (engine.TryRoute(t0)) {
    return engine.Take();
  }
  const uint64_t hops0 = op_stats_.chain_hops;
  RunWaves(client_, std::span(&engine, 1));
  if (!keys.empty()) {
    ObserveOneSidedMultiGet(keys.size(), op_stats_.chain_hops - hops0,
                            client_->clock().now_ns() - t0);
  }
  return engine.Take();
}

void HtTree::ObserveOneSidedMultiGet(size_t keys, uint64_t hops,
                                     uint64_t elapsed_ns) {
  // Feed chain-depth units from the one-sided path too; if only the RPC
  // path reported units, the per-unit one-sided estimate would be scaled by
  // units it never observed, biasing Decide() toward RPC.
  NoteLookupUnits(1.0 + static_cast<double>(hops) / static_cast<double>(keys));
  if (route_decider_ != nullptr) {
    route_decider_->Observe(RoutedOp::kMultiGet, home_node_,
                            DataplaneRoute::kOneSided, elapsed_ns,
                            lookup_units_, keys);
  }
}

Status HtTree::EnableRouting(RouteDecider* decider, RemoteMapPath* remote) {
  if (decider == nullptr || remote == nullptr) {
    return InvalidArgument("routing needs a decider and a remote path");
  }
  // The map's home node hosts every table/item this handle allocates, so
  // one node id keys all of this handle's route state.
  FMDS_ASSIGN_OR_RETURN(auto loc, client_->fabric()->Translate(header_));
  home_node_ = loc.node;
  route_decider_ = decider;
  remote_path_ = remote;
  return OkStatus();
}

void HtTree::ApplyLandedStore(uint64_t key, uint64_t value,
                              const WriteOutcome& outcome) {
  // The CAS — this handle's own, a txn round's or the RPC agent's — left the
  // bucket word equal to `outcome.head`, so the refill is exactly as fresh
  // as the word itself. Word-versioned coherence covers the
  // race with later writers: their events carry a different word and kill
  // the entry, and none of their queued events can have been dispatched
  // between the publish and this refill (no DispatchCacheInvalidations in
  // between). Non-resident keys are untouched and a moved watch degrades
  // to an invalidate, so read-your-writes holds in every case.
  if (near_cache_ == nullptr) {
    return;
  }
  if (outcome.refillable) {
    near_cache_->Refill(key, AsConstBytes(value), outcome.bucket, kWordSize,
                        outcome.head);
  } else {
    near_cache_->Invalidate(key);
  }
}

void HtTree::ApplyFlushedStore(NearCache* cache, uint64_t key, uint64_t value,
                               const WriteOutcome& outcome) {
  if (cache == nullptr) {
    return;
  }
  if (outcome.refillable) {
    cache->RefillExternal(key, AsConstBytes(value), outcome.bucket, kWordSize,
                          outcome.head);
  } else {
    // A tombstone or a key that did not land: drop the entry and let the
    // bucket notification (already in the app channel by now) rule.
    cache->InvalidateExternal(key);
  }
}

Status HtTree::Put(uint64_t key, uint64_t value) {
  ScopedOpLabel label(&client_->recorder(), "httree.put");
  return Store(key, value, /*tombstone=*/false);
}

Status HtTree::Remove(uint64_t key) {
  // A removal is an insert-at-head of a tombstone: same cost, same
  // concurrency story as Put. Splits drop tombstones and everything they
  // shadow.
  ScopedOpLabel label(&client_->recorder(), "httree.remove");
  return Store(key, 0, /*tombstone=*/true);
}

Status HtTree::Store(uint64_t key, uint64_t value, bool tombstone) {
  if (wb_ != nullptr) {
    // Write-behind: stage and return — no far round trip, no allocation,
    // no cache sweep on this client. The engine's flush steps publish on
    // the flusher's client; errors surface at FlushBarrier().
    ++(tombstone ? op_stats_.removes : op_stats_.puts);
    client_->AccountNear(1);
    if (tombstone) {
      wb_->Remove(key);
    } else {
      wb_->Put(key, value);
    }
    return OkStatus();
  }
  const uint8_t tomb = tombstone ? 1 : 0;
  BatchPut engine(this, std::span<const uint64_t>(&key, 1),
                  std::span<const uint64_t>(&value, 1),
                  std::span<const uint8_t>(&tomb, 1), nullptr);
  return Route(
      tombstone ? RoutedOp::kRemove : RoutedOp::kPut,
      [&]() -> std::optional<Status> {
        auto outcome = tombstone ? remote_path_->Remove(header_, key)
                                 : remote_path_->Put(header_, key, value);
        if (!outcome.ok()) {
          return std::nullopt;
        }
        ApplyLandedStore(key, value, *outcome);
        return OkStatus();
      },
      [&] {
        RunPoint(client_, engine);
        return engine.Take();
      });
}

bool HtTree::GrowthSplitDue(FarAddr table, bool grew) {
  if (!grew) {
    return false;
  }
  uint64_t& estimate = collision_estimate_[table];
  client_->AccountNear(1);
  if (++estimate <= buckets_per_table_ / 2) {
    return false;
  }
  estimate = 0;
  return true;
}

// ---------------------------- BatchPut engine ----------------------------

HtTree::BatchPut::BatchPut(HtTree* map, std::span<const uint64_t> keys,
                           std::span<const uint64_t> values,
                           std::span<const uint8_t> tombstones,
                           std::vector<WriteOutcome>* outcomes)
    : map_(map), ops_(keys.size()), outcomes_(outcomes) {
  map_->DispatchCacheInvalidations();
  if (outcomes_ != nullptr) {
    outcomes_->assign(keys.size(), WriteOutcome{});
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    Op& op = ops_[i];
    op.key = keys[i];
    op.tombstone = i < tombstones.size() && tombstones[i] != 0;
    op.value = (!op.tombstone && i < values.size()) ? values[i] : 0;
    op.hash = Mix64(keys[i]);
    ++(op.tombstone ? map_->op_stats_.removes : map_->op_stats_.puts);
  }
}

size_t HtTree::BatchPut::PostWave() {
  FarClient* client = map_->client_;
  // Same-bucket ops publishing in one wave chain their predictions: op k
  // links (and predicts) op k-1's slot, so the whole chain rides the
  // ordered doorbell with zero intra-batch misses. Without this, a batch of
  // hot keys (write-behind under Zipf) collides on its own buckets and every
  // op past the first pays a missed CAS and a second read. Only each
  // chain's FIRST op races external writers. A lone op has no chain.
  const bool chained = ops_.size() > 1;
  chain_tail_.clear();
  size_t posted = 0;
  for (Op& op : ops_) {
    switch (op.state) {
      case State::kRead:
        if (op.slot == kNullFarAddr) {
          auto slot = map_->AllocItemSlot();
          if (!slot.ok()) {
            op.result = slot.status();
            op.state = State::kDone;
            continue;
          }
          op.slot = *slot;
        }
        // Descend the cached trie again on every read: a read after a
        // refresh lands on the fresh leaf.
        op.leaf_index = map_->DescendCached(op.hash);
        op.leaf = map_->nodes_[op.leaf_index];
        op.bucket =
            map_->BucketAddr(op.leaf.table, map_->BucketIndex(op.hash));
        op.read_op = map_->options_.use_indirect
                         ? client->PostLoad0(op.bucket, AsBytes(op.head))
                         : client->PostReadWord(op.bucket);
        ++posted;
        continue;
      case State::kHead:
        op.read_op = client->PostRead(op.predicted, AsBytes(op.head));
        ++posted;
        continue;
      case State::kPublish: {
        if (chained) {
          const auto [tail, first] = chain_tail_.try_emplace(op.bucket, &op);
          if (!first) {
            op.predicted = op.link = tail->second->slot;
            tail->second = &op;
          }
        }
        // The item body: not reachable until the CAS links it. A removal is
        // the same insert-at-head with the tombstone flag set.
        const Item item{op.key, op.value,
                        VersionOf(op.leaf.version) |
                            (op.tombstone ? kFlagTombstone : 0ull),
                        op.link};
        op.write_op = client->PostWrite(op.slot, AsConstBytes(item));
        ++posted;
        if (!map_->OnOneNode(op.slot, op.bucket)) {
          // The CAS waits for the write's own round trip.
          op.cas_op = FarClient::kNoOp;
          continue;
        }
        break;
      }
      case State::kCas:
        op.write_op = FarClient::kNoOp;
        break;
      case State::kDone:
        continue;
    }
    // The bucket CAS links the item and validates the prediction (a frozen
    // bucket never equals a validated head). It runs only if this wave's
    // write of the slot landed.
    op.cas_op = client->PostCompareSwap(op.bucket, op.predicted, op.slot,
                                        /*guard=*/op.write_op);
    ++posted;
  }
  return posted;
}

void HtTree::BatchPut::AbsorbWave(
    std::span<const FarClient::Completion> done) {
  for (size_t i = 0; i < ops_.size(); ++i) {
    Op& op = ops_[i];
    switch (op.state) {
      case State::kRead:
      case State::kHead: {
        const FarClient::Completion& read = done[op.read_op];
        if (!read.status.ok()) {
          op.result = read.status;
          op.state = State::kDone;
          continue;
        }
        if (op.state == State::kRead) {
          op.predicted = read.word;
          if (!map_->options_.use_indirect) {
            op.state = State::kHead;  // the item read rides the next wave
            continue;
          }
        }
        AbsorbHead(op);
        continue;
      }
      case State::kPublish:
      case State::kCas:
        AbsorbPublish(i, done);
        continue;
      case State::kDone:
        continue;
    }
  }
}

void HtTree::BatchPut::AbsorbHead(Op& op) {
  const HeadCheck check = map_->CheckHead(op.head, op.leaf);
  if (check == HeadCheck::kLive) {
    // A validated live head of the cached table generation: the prediction,
    // linked past when it is this op's own key (same-key head replacement,
    // file comment).
    op.link = LinkPast(op.key, op.predicted, op.head);
    op.state = State::kPublish;
    return;
  }
  // A transaction's pending head is waited out: only its owner may change
  // the word, so predicting it would steal the lock. A retired or
  // version-mismatched head means a split froze or replaced the cached
  // table: the trie refreshes and the op reads the fresh table's bucket.
  const Status status = map_->BeforeReread(
      check == HeadCheck::kStale, op.leaf_index, op.leaf.table, op.hash,
      &op.attempts,
      op.tombstone ? "remove retries exhausted" : "put retries exhausted");
  if (!status.ok()) {
    op.result = status;
    op.state = State::kDone;
    return;
  }
  op.state = State::kRead;
}

void HtTree::BatchPut::AbsorbPublish(
    size_t i, std::span<const FarClient::Completion> done) {
  Op& op = ops_[i];
  if (op.write_op != FarClient::kNoOp && !done[op.write_op].status.ok()) {
    // A failed write cancels its CAS: the write's error is the op's.
    op.result = done[op.write_op].status;
    op.state = State::kDone;
    return;
  }
  if (op.cas_op == FarClient::kNoOp) {
    op.state = State::kCas;  // the write landed; the CAS rides next wave
    return;
  }
  const FarClient::Completion& cas = done[op.cas_op];
  if (!cas.status.ok()) {
    op.result = cas.status;
    op.state = State::kDone;
    return;
  }
  if (cas.word != op.predicted) {
    // A writer landed between this op's read and its CAS (same-batch
    // neighbours never collide — they chain at post time). The slot never
    // became reachable, so the op reads the bucket again and rewrites it.
    ++map_->op_stats_.cas_retries;
    if (++op.attempts >= kMaxOpRetries) {
      op.result = Aborted(op.tombstone ? "remove retries exhausted"
                                       : "put retries exhausted");
      op.state = State::kDone;
      return;
    }
    op.state = State::kRead;
    return;
  }
  // The CAS left the bucket word equal to op.slot: the landed-store exit
  // refills (or, for a tombstone, invalidates) under that word, and the
  // caller's outcome carries it to the flusher-side exit.
  const WriteOutcome landed{op.bucket, op.slot, !op.tombstone};
  map_->ApplyLandedStore(op.key, op.value, landed);
  if (outcomes_ != nullptr) {
    (*outcomes_)[i] = landed;
  }
  if (map_->GrowthSplitDue(op.leaf.table, op.link == op.predicted)) {
    deferred_splits_.push_back({op.leaf_index, op.leaf.table, op.hash});
  }
  op.result = OkStatus();
  op.state = State::kDone;
}

Status HtTree::BatchPut::Take() {
  Status first = OkStatus();
  for (const Op& op : ops_) {
    if (first.ok() && !op.result.ok()) {
      first = op.result;
    }
  }
  if (outcomes_ != nullptr) {
    // A member's refill word is the bucket head after its own CAS and every
    // batch CAS that landed directly on top of it: that chain of members
    // moves the word without changing this key's value. A racing writer's
    // CAS in between breaks the chain there, so the member keeps the word
    // its chain ended on, which that writer's event outdates.
    std::unordered_map<FarAddr, FarAddr> landed_on;  // replaced word -> slot
    for (const Op& op : ops_) {
      if (op.result.ok() && op.bucket != kNullFarAddr) {
        landed_on[op.predicted] = op.slot;
      }
    }
    for (WriteOutcome& o : *outcomes_) {
      if (!o.refillable) {
        continue;
      }
      for (auto it = landed_on.find(o.head); it != landed_on.end();
           it = landed_on.find(o.head)) {
        o.head = it->second;
      }
    }
  }
  // Deferred splits run after the waves so the batched fast path itself
  // stays split-free. An earlier split in this loop may have replaced the
  // recorded leaf; re-descend by hash then.
  for (const DeferredSplit& split : deferred_splits_) {
    const int32_t leaf_index = map_->CachesLeaf(split.leaf_index, split.table)
                                   ? split.leaf_index
                                   : map_->DescendCached(split.hash);
    (void)map_->SplitLeaf(leaf_index, split.hash);
  }
  deferred_splits_.clear();
  return first;
}

Status HtTree::MultiPut(std::span<const uint64_t> keys,
                        std::span<const uint64_t> values) {
  if (keys.size() != values.size()) {
    return InvalidArgument("MultiPut keys/values length mismatch");
  }
  return MultiWrite(keys, values, {});
}

Status HtTree::MultiWrite(std::span<const uint64_t> keys,
                          std::span<const uint64_t> values,
                          std::span<const uint8_t> tombstones,
                          std::vector<WriteOutcome>* outcomes) {
  if (keys.size() != values.size() ||
      (!tombstones.empty() && tombstones.size() != keys.size())) {
    return InvalidArgument("MultiWrite span length mismatch");
  }
  ScopedOpLabel label(&client_->recorder(), "httree.multiput");
  if (wb_ != nullptr) {
    // Write-behind handles stage instead of publishing: a direct publish
    // here could overtake an older staged write to the same key. The
    // engine's flusher handle has wb_ == null and takes the path below.
    client_->AccountNear(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const bool tombstone = i < tombstones.size() && tombstones[i] != 0;
      if (tombstone) {
        ++op_stats_.removes;
        wb_->Remove(keys[i]);
      } else {
        ++op_stats_.puts;
        wb_->Put(keys[i], values[i]);
      }
    }
    if (outcomes != nullptr) {
      outcomes->assign(keys.size(), WriteOutcome{});
    }
    return OkStatus();
  }
  BatchPut engine(this, keys, values, tombstones, outcomes);
  RunWaves(client_, std::span(&engine, 1));
  return engine.Take();
}

Status HtTree::SplitTableOf(uint64_t key) {
  const uint64_t hash = Mix64(key);
  return SplitLeaf(DescendCached(hash), hash);
}

Status HtTree::SplitLeaf(int32_t leaf_index, uint64_t hash) {
  ScopedOpLabel label(&client_->recorder(), "httree.split");
  ++client_->mutable_stats().slow_path_ops;
  CachedNode leaf = nodes_[leaf_index];
  if (!leaf.leaf) {
    return FailedPrecondition("node is not a leaf");
  }
  if (leaf.depth + 1 >= kMaxDepth) {
    return FailedPrecondition("trie depth limit reached");
  }
  const FarAddr table = leaf.table;
  FarMutex lock = FarMutex::Attach(table + kTabLock);
  FMDS_RETURN_IF_ERROR(lock.Lock(*client_, MutexWaitStrategy::kPoll));
  FarAddr internal = kNullFarAddr;
  bool already_split = false;
  // The locked body may fail at any step; the unlock below must always run
  // or every later split on this table wedges.
  const Status body = SplitLeafLocked(leaf, hash, &internal, &already_split);
  const Status unlocked = lock.Unlock(*client_);
  FMDS_RETURN_IF_ERROR(body);
  FMDS_RETURN_IF_ERROR(unlocked);
  if (already_split) {
    // Someone else replaced this table; just resynchronize the cache.
    return RefreshPath(hash);
  }

  // Retire the old far objects (quarantined, not recycled immediately).
  (void)alloc_->Free(table, kTableHeaderBytes + buckets_per_table_ * kWordSize);
  (void)alloc_->Free(leaf.addr, kNodeBytes);

  FMDS_RETURN_IF_ERROR(SpliceSubtree(leaf_index, internal, hash));
  ++op_stats_.splits;
  return OkStatus();
}

Status HtTree::SplitLeafLocked(const CachedNode& leaf, uint64_t hash,
                               FarAddr* internal_out, bool* already_split) {
  const FarAddr table = leaf.table;
  // Re-validate under the lock: someone may have split this table already.
  FMDS_ASSIGN_OR_RETURN(uint64_t state, client_->ReadWord(table + kTabState));
  if (state != 0) {
    *already_split = true;
    return OkStatus();
  }
  const uint64_t nb = buckets_per_table_;
  // Empty buckets hold the table's own sentinel, which ends every chain in
  // this table and is never pending: no step below needs to read it.
  const FarAddr sentinel = leaf.sentinel;

  // Freeze every bucket: after the CAS, no mutation can land in this table
  // (their bucket CAS can never match the retired sentinel). The final
  // observed value is the frozen chain head. Batched: one bucket-array
  // read, one gather of the non-empty heads, one doorbell of nb CASes, then
  // individual retries for the rare buckets a racing insert changed in
  // between.
  //
  // Pending pre-check: a freeze CAS must never predict a transaction's
  // lock record — succeeding would steal the bucket from its owner, whose
  // commit/rollback CAS is must-succeed by protocol. Items are immutable
  // and slots never reused, so a head that checks clean here stays clean;
  // a transaction preparing after the check changes the word, and the
  // freeze CAS then simply mispredicts into the retry loop below (which
  // waits pending heads out before retrying).
  std::vector<uint64_t> heads(nb);
  std::vector<Item> head_items(nb);  // images of the non-sentinel heads
  for (int attempt = 0;; ++attempt) {
    FMDS_RETURN_IF_ERROR(client_->Read(
        BucketAddr(table, 0),
        std::as_writable_bytes(std::span<uint64_t>(heads))));
    std::vector<uint64_t> gathered;
    std::vector<FarSeg> head_iov;
    for (uint64_t b = 0; b < nb; ++b) {
      if (heads[b] != sentinel) {
        gathered.push_back(b);
        head_iov.push_back(FarSeg{heads[b], kItemBytes});
      }
    }
    std::vector<Item> images(gathered.size());
    if (!images.empty()) {
      FMDS_RETURN_IF_ERROR(client_->RGather(
          head_iov, std::as_writable_bytes(std::span<Item>(images))));
    }
    bool pending = false;
    for (size_t i = 0; i < gathered.size(); ++i) {
      head_items[gathered[i]] = images[i];
      pending = pending || (images[i].meta & kFlagPending) != 0;
    }
    if (!pending) {
      break;
    }
    StaleBackoff(attempt);
  }
  std::vector<FarClient::CasTarget> wave(nb);
  std::vector<uint64_t> observed(nb);
  for (uint64_t b = 0; b < nb; ++b) {
    wave[b] = FarClient::CasTarget{BucketAddr(table, b), heads[b],
                                   retired_sentinel_};
  }
  FMDS_RETURN_IF_ERROR(client_->CasBatch(wave, observed));
  // Buckets whose batched freeze CAS matched froze on the head imaged
  // above; only the rest must read their frozen head again.
  std::vector<bool> imaged(nb);
  for (uint64_t b = 0; b < nb; ++b) {
    uint64_t predicted = heads[b];
    uint64_t got = observed[b];
    imaged[b] = got == predicted;
    int attempt = 0;
    while (got != predicted) {
      Item head_item;
      FMDS_RETURN_IF_ERROR(client_->Read(got, AsBytes(head_item)));
      if ((head_item.meta & kFlagPending) != 0) {
        // Owner-only word: wait for the transaction to commit or roll
        // back rather than CASing its lock record away.
        StaleBackoff(attempt++);
        FMDS_ASSIGN_OR_RETURN(got, client_->ReadWord(BucketAddr(table, b)));
        if (got == predicted) {
          // Rolled back to exactly the head we predicted — the earlier
          // CAS still failed, so retry it rather than exiting unfrozen.
          FMDS_ASSIGN_OR_RETURN(
              got, client_->CompareSwap(BucketAddr(table, b), predicted,
                                        retired_sentinel_));
        }
        continue;
      }
      predicted = got;
      FMDS_ASSIGN_OR_RETURN(
          got, client_->CompareSwap(BucketAddr(table, b), predicted,
                                    retired_sentinel_));
    }
    heads[b] = predicted;
  }
  FMDS_RETURN_IF_ERROR(client_->WriteWord(table + kTabState, 1));

  // Read the frozen chains level-by-level — one rgather per chain depth
  // instead of one round trip per item, starting from the held head images
  // — and compact: first occurrence per key wins; tombstones erase their
  // key.
  std::vector<std::vector<Item>> bucket_items(nb);
  std::vector<std::pair<uint64_t, FarAddr>> frontier;  // (bucket, item addr)
  auto absorb = [&](uint64_t b, const Item& item) {
    if ((item.meta & kFlagSentinel) != 0) {
      return;  // end of this chain
    }
    bucket_items[b].push_back(item);
    if (item.next != sentinel && item.next != kNullFarAddr) {
      frontier.emplace_back(b, item.next);
    }
  };
  for (uint64_t b = 0; b < nb; ++b) {
    if (heads[b] == sentinel) {
      continue;
    }
    if (imaged[b]) {
      absorb(b, head_items[b]);
    } else {
      frontier.emplace_back(b, heads[b]);
    }
  }
  for (uint32_t depth_guard = 0; !frontier.empty() && depth_guard < 1u << 20;
       ++depth_guard) {
    const std::vector<std::pair<uint64_t, FarAddr>> level =
        std::exchange(frontier, {});
    std::vector<FarSeg> iov;
    iov.reserve(level.size());
    for (const auto& [b, addr] : level) {
      iov.push_back(FarSeg{addr, kItemBytes});
    }
    std::vector<Item> items(level.size());
    FMDS_RETURN_IF_ERROR(client_->RGather(
        iov, std::as_writable_bytes(std::span<Item>(items))));
    for (size_t i = 0; i < level.size(); ++i) {
      absorb(level[i].first, items[i]);
    }
  }
  std::vector<std::vector<Item>> child_chains[2];
  child_chains[0].assign(nb, {});
  child_chains[1].assign(nb, {});
  std::unordered_set<uint64_t> seen;
  for (uint64_t b = 0; b < nb; ++b) {
    seen.clear();
    for (const Item& item : bucket_items[b]) {
      if (seen.insert(item.key).second &&
          (item.meta & kFlagTombstone) == 0) {
        const uint64_t item_hash = Mix64(item.key);
        const uint32_t side = HashBit(item_hash, leaf.depth);
        child_chains[side][item_hash % nb].push_back(item);
      }
    }
  }

  // Build the two replacement tables and their trie nodes.
  const uint64_t new_version = leaf.version + 1;
  FMDS_ASSIGN_OR_RETURN(FarAddr t0, BuildTable(new_version, child_chains[0]));
  FMDS_ASSIGN_OR_RETURN(FarAddr t1, BuildTable(new_version, child_chains[1]));
  FMDS_ASSIGN_OR_RETURN(FarAddr l0,
                        BuildLeafNode(leaf.depth + 1, t0, new_version));
  FMDS_ASSIGN_OR_RETURN(FarAddr l1,
                        BuildLeafNode(leaf.depth + 1, t1, new_version));
  FMDS_ASSIGN_OR_RETURN(FarAddr internal,
                        alloc_->Allocate(kNodeBytes, options_.placement));
  NodeRec internal_rec{static_cast<uint64_t>(leaf.depth) << 8, l0, l1, 0};
  FMDS_RETURN_IF_ERROR(client_->Write(internal, AsConstBytes(internal_rec)));

  // Republish: walk the far trie to the cell holding this leaf's address
  // and swing it to the new internal node. We hold the table lock, so no
  // one else can replace this particular leaf.
  FarAddr cell = header_ + kHdrRoot;
  for (uint32_t level = 0; level <= kMaxDepth; ++level) {
    FMDS_ASSIGN_OR_RETURN(FarAddr cur, client_->ReadWord(cell));
    if (cur == leaf.addr) {
      break;
    }
    NodeRec rec;
    FMDS_RETURN_IF_ERROR(client_->Read(cur, AsBytes(rec)));
    if (rec.leaf()) {
      return Internal("split lost the trie path");
    }
    cell = cur + (HashBit(hash, rec.depth()) == 0 ? kNodeLeft : kNodeRight);
  }
  FMDS_ASSIGN_OR_RETURN(uint64_t swung,
                        client_->CompareSwap(cell, leaf.addr, internal));
  if (swung != leaf.addr) {
    return Internal("trie republish CAS failed");
  }
  FMDS_RETURN_IF_ERROR(client_->FetchAdd(header_ + kHdrSplits, 1).status());
  FMDS_RETURN_IF_ERROR(
      client_->FetchAdd(header_ + kHdrTableCount, 1).status());
  *internal_out = internal;
  return OkStatus();
}

Status HtTree::EnableWriteBehind(const WriteBehindOptions& wb_options) {
  Options flusher_options = options_;
  flusher_options.cache = NearCacheOptions{};
  return AttachWriteBehind<HtTree>(&wb_, client_, alloc_, header_,
                                   flusher_options, {near_cache_.get()},
                                   wb_options);
}

Status HtTree::FlushBarrier() {
  if (wb_ == nullptr) {
    return OkStatus();
  }
  ScopedOpLabel label(&client_->recorder(), "httree.flush_barrier");
  return wb_->FlushBarrier();
}

Status HtTree::EnableSplitNotifications(DeliveryPolicy policy) {
  NotifySpec spec;
  spec.mode = NotifyMode::kOnWrite;
  spec.addr = header_ + kHdrSplits;
  spec.len = kWordSize;
  spec.policy = policy;
  split_watch_ = MakeOwnedSink<NotificationInbox>(
      client_, client_->channel().capacity());  // replaces an earlier watch
  return client_->Subscribe(spec, split_watch_.get()).status();
}

Result<bool> HtTree::PollSplitNotifications() {
  if (!split_watch_) {
    return false;
  }
  (void)client_->DispatchNotifications();
  const bool refresh = !split_watch_->empty();
  split_watch_->Clear();
  if (refresh) {
    FMDS_RETURN_IF_ERROR(RefreshCache());
  }
  return refresh;
}

uint64_t HtTree::cached_tables() const {
  // The mirror is a full binary tree: one more leaf than internal nodes.
  return (nodes_.size() + 1) / 2;
}

uint64_t HtTree::cache_bytes() const {
  // The §5.2 geometry: the mirrored trie and its directory are what the
  // client must cache to get 1-far-access lookups.
  return nodes_.size() * sizeof(CachedNode) + dir_.size() * sizeof(int32_t);
}

uint64_t HtTree::hint_cache_bytes() const {
  return collision_estimate_.size() * (sizeof(FarAddr) + sizeof(uint64_t));
}

}  // namespace fmds

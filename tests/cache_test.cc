// Tests for the near-memory caching layer (src/cache/): ClockRing
// second-chance mechanics, NearCache budget/admission/coherence accounting,
// and end-to-end coherence through HtTree / ShardedMap / HtBlobStore —
// including the randomized cache-on/off equivalence property and the
// threaded writer/reader invalidation race (run under TSan by check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "src/cache/bg_evictor.h"
#include "src/cache/clock_ring.h"
#include "src/cache/near_cache.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/blob_store.h"
#include "src/core/ht_tree.h"
#include "src/core/sharded_map.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

FabricOptions BigFabric() { return SmallFabric(1, 256ull << 20); }

// ---------------------------------------------------------------- ClockRing

TEST(ClockRingTest, FindTouchEraseBasics) {
  ClockRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.Find(1), ClockRing<int>::npos);
  const size_t slot = ring.Insert(1, 10);
  EXPECT_EQ(ring.Find(1), slot);
  EXPECT_EQ(ring.value(slot), 10);
  EXPECT_EQ(ring.key(slot), 1u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.Erase(1));
  EXPECT_FALSE(ring.Erase(1));
  EXPECT_EQ(ring.Find(1), ClockRing<int>::npos);
  EXPECT_TRUE(ring.empty());
}

TEST(ClockRingTest, SecondChanceEvictionOrder) {
  // A=referenced, B,C=unreferenced. The sweep must give A its second
  // chance (clear the bit, skip it) and evict B first, then C — the exact
  // CLOCK ordering the hint cache relies on instead of its old O(n) clear.
  ClockRing<int> ring(3);
  ring.Insert(1, 10);  // A
  ring.Insert(2, 20);  // B
  ring.Insert(3, 30);  // C
  ring.Unref(ring.Find(2));
  ring.Unref(ring.Find(3));
  std::optional<std::pair<uint64_t, int>> evicted;
  ring.Insert(4, 40, &evicted);  // D
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2u) << "B was first in line past referenced A";
  evicted.reset();
  ring.Insert(5, 50, &evicted);  // E: hand continues, C is next victim
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 3u);
  // A survived both sweeps; its bit was spent on the first one.
  EXPECT_NE(ring.Find(1), ClockRing<int>::npos);
}

TEST(ClockRingTest, AllReferencedWrapsAndEvictsOldest) {
  ClockRing<int> ring(3);
  ring.Insert(1, 10);
  ring.Insert(2, 20);
  ring.Insert(3, 30);
  // Every bit set: the sweep clears all three, wraps, and takes slot 0.
  std::optional<std::pair<uint64_t, int>> evicted;
  ring.Insert(4, 40, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1u);
  EXPECT_EQ(ring.size(), 3u);
}

// ---------------------------------------------------------------- NearCache

NearCacheOptions CacheOpts(uint64_t budget, uint32_t admit_after = 1) {
  NearCacheOptions options;
  options.budget_bytes = budget;
  options.admit_after = admit_after;
  return options;
}

constexpr uint64_t kEntryCost = kWordSize + NearCache::kEntryOverhead;  // 72

TEST(NearCacheTest, ByteBudgetExactFit) {
  TestEnv env;
  auto& client = env.NewClient();
  NearCache cache(&client, CacheOpts(2 * kEntryCost), /*word_versioned=*/false);
  uint64_t v1 = 111, v2 = 222, v3 = 333;
  cache.Admit(1, AsConstBytes(v1), /*watch=*/64, kWordSize, /*expected=*/0);
  cache.Admit(2, AsConstBytes(v2), /*watch=*/128, kWordSize, /*expected=*/0);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes_used(), 2 * kEntryCost);
  EXPECT_EQ(cache.stats().evictions, 0u) << "two entries fit exactly";
  cache.Admit(3, AsConstBytes(v3), /*watch=*/192, kWordSize, /*expected=*/0);
  EXPECT_EQ(cache.entries(), 2u) << "third entry forces an eviction";
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.bytes_used(), 2 * kEntryCost);
}

TEST(NearCacheTest, ByteBudgetOverByOneEvicts) {
  TestEnv env;
  auto& client = env.NewClient();
  NearCache cache(&client, CacheOpts(2 * kEntryCost - 1),
                  /*word_versioned=*/false);
  uint64_t v1 = 111, v2 = 222;
  cache.Admit(1, AsConstBytes(v1), 64, kWordSize, 0);
  cache.Admit(2, AsConstBytes(v2), 128, kWordSize, 0);
  EXPECT_EQ(cache.entries(), 1u) << "one byte short of two entries";
  EXPECT_EQ(cache.stats().evictions, 1u);
  uint64_t out = 0;
  EXPECT_TRUE(cache.Lookup(2, AsBytes(out)));
  EXPECT_EQ(out, 222u) << "the newer entry survives";
}

TEST(NearCacheTest, EntryLargerThanBudgetNeverAdmitted) {
  TestEnv env;
  auto& client = env.NewClient();
  NearCache cache(&client, CacheOpts(kEntryCost - 1), /*word_versioned=*/false);
  uint64_t v = 7;
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().admissions, 0u);
}

TEST(NearCacheTest, KHitAdmissionFilter) {
  TestEnv env;
  auto& client = env.NewClient();
  NearCache cache(&client, CacheOpts(1 << 20, /*admit_after=*/3),
                  /*word_versioned=*/false);
  uint64_t v = 42;
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  EXPECT_EQ(cache.entries(), 0u) << "two sightings, threshold is three";
  EXPECT_EQ(cache.stats().admissions, 0u);
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.stats().admissions, 1u);
  // A different key starts its count from scratch.
  cache.Admit(2, AsConstBytes(v), 128, kWordSize, 0);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(NearCacheTest, RefillAfterInvalidationSkipsResubscribe) {
  TestEnv env;
  auto& reader = env.NewClient();
  auto& writer = env.NewClient();
  NearCache cache(&reader, CacheOpts(1 << 20), /*word_versioned=*/false);
  uint64_t v = 100;
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  EXPECT_EQ(cache.stats().admissions, 1u);

  ASSERT_TRUE(writer.WriteWord(64, 5).ok());
  EXPECT_EQ(reader.DispatchNotifications(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  uint64_t out = 0;
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out))) << "invalidated entry misses";

  // The refill reuses the slot and the live subscription: zero far ops.
  // (Expected word = 5: the value the refilling read would have observed.)
  const uint64_t far_before = reader.stats().far_ops;
  uint64_t v2 = 200;
  cache.Admit(1, AsConstBytes(v2), 64, kWordSize, 5);
  EXPECT_EQ(reader.stats().far_ops, far_before) << "no subscribe round trip";
  EXPECT_EQ(cache.stats().refills, 1u);
  EXPECT_EQ(cache.stats().admissions, 1u) << "refill is not a new admission";
  EXPECT_TRUE(cache.Lookup(1, AsBytes(out)));
  EXPECT_EQ(out, 200u);
  // And coherence still works after the refill (same subscription).
  ASSERT_TRUE(writer.WriteWord(64, 6).ok());
  reader.DispatchNotifications();
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)));
}

TEST(NearCacheTest, RacedAdmissionEntersInvalid) {
  // A write that lands between the caller's validated read and the
  // subscribe registration publishes to nobody. The read-and-arm snapshot
  // must catch it: the entry is admitted invalid instead of pinning the
  // pre-write value forever (regression: admission used to subscribe after
  // the read with no re-validation).
  TestEnv env;
  auto& reader = env.NewClient();
  auto& writer = env.NewClient();
  NearCache cache(&reader, CacheOpts(1 << 20), /*word_versioned=*/false);
  // The racing write: the watched word is 7 by the time the subscribe
  // arms, but the admitting caller read it as 0.
  ASSERT_TRUE(writer.WriteWord(64, 7).ok());
  uint64_t stale = 100;
  cache.Admit(1, AsConstBytes(stale), 64, kWordSize, /*expected=*/0);
  EXPECT_EQ(cache.entries(), 1u) << "the subscription is live";
  EXPECT_EQ(cache.stats().admissions, 1u);
  EXPECT_EQ(cache.stats().raced_admits, 1u);
  uint64_t out = 0;
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)))
      << "the raced payload must never be served";
  // The next miss refills under the now-active subscription and is
  // trustworthy.
  uint64_t fresh = 200;
  cache.Admit(1, AsConstBytes(fresh), 64, kWordSize, 7);
  EXPECT_EQ(cache.stats().refills, 1u);
  EXPECT_TRUE(cache.Lookup(1, AsBytes(out)));
  EXPECT_EQ(out, 200u);
  // And coherence works from here on.
  ASSERT_TRUE(writer.WriteWord(64, 8).ok());
  reader.DispatchNotifications();
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)));
}

TEST(NearCacheTest, RefillWithMovedWatchRewatches) {
  // A key whose watched range moved (an HtTree split migrated it to a new
  // table; the old one was retired and freed) must not keep the old
  // subscription across the refill — it would watch dead memory and never
  // see another relevant write (regression: the refill path used to ignore
  // the watch argument entirely).
  TestEnv env;
  auto& reader = env.NewClient();
  auto& writer = env.NewClient();
  NearCache cache(&reader, CacheOpts(1 << 20), /*word_versioned=*/false);
  uint64_t v = 100;
  cache.Admit(1, AsConstBytes(v), /*watch=*/64, kWordSize, 0);
  ASSERT_TRUE(writer.WriteWord(64, 5).ok());
  EXPECT_EQ(reader.DispatchNotifications(), 1u);

  // Refill at a NEW watch (the key's bucket moved to address 128).
  uint64_t v2 = 200;
  cache.Admit(1, AsConstBytes(v2), /*watch=*/128, kWordSize, 0);
  EXPECT_EQ(cache.stats().rewatches, 1u);
  EXPECT_EQ(cache.stats().admissions, 1u) << "a rewatch is not a new entry";
  uint64_t out = 0;
  EXPECT_TRUE(cache.Lookup(1, AsBytes(out)));
  EXPECT_EQ(out, 200u);

  // Writes to the RETIRED range are noise now: no event, no invalidation.
  ASSERT_TRUE(writer.WriteWord(64, 6).ok());
  EXPECT_EQ(reader.DispatchNotifications(), 0u);
  EXPECT_TRUE(cache.Lookup(1, AsBytes(out))) << "old-range write is moot";

  // Writes to the NEW range must invalidate — this is the bug the rewatch
  // fixes: before, this write was never seen and the hit stayed stale.
  ASSERT_TRUE(writer.WriteWord(128, 9).ok());
  EXPECT_EQ(reader.DispatchNotifications(), 1u);
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)))
      << "cross-handle write to the new bucket must kill the entry";
}

size_t NodeSubscriptions(Fabric& fabric) {
  size_t total = 0;
  for (uint32_t n = 0; n < fabric.num_nodes(); ++n) {
    total += fabric.node(n).subscription_count();
  }
  return total;
}

TEST(NearCacheTest, BackgroundRewatchLeavesTheUnsubscribeToTheEvictor) {
  // In background mode a rewatch pays only the new range's subscribe on the
  // owner's client, as a first admission does: the old subscription is torn
  // down at the rewatch, on the watching evictor's client, like an evicted
  // entry's.
  TestEnv env;
  auto& reader = env.NewClient();
  auto& writer = env.NewClient();
  NearCacheOptions options = CacheOpts(1 << 20);
  options.background_eviction = true;
  NearCache cache(&reader, options, /*word_versioned=*/false);
  BackgroundEvictor evictor(&env.fabric(), /*client_id=*/9002);
  evictor.Watch(&cache);
  uint64_t v = 100;
  uint64_t far0 = reader.stats().far_ops;
  cache.Admit(1, AsConstBytes(v), /*watch=*/64, kWordSize, 0);
  const uint64_t admit_far_ops = reader.stats().far_ops - far0;
  ASSERT_TRUE(writer.WriteWord(64, 5).ok());
  EXPECT_EQ(reader.DispatchNotifications(), 1u);

  uint64_t v2 = 200;
  far0 = reader.stats().far_ops;
  cache.Admit(1, AsConstBytes(v2), /*watch=*/128, kWordSize, 0);
  EXPECT_EQ(reader.stats().far_ops - far0, admit_far_ops);
  EXPECT_EQ(cache.stats().rewatches, 1u);
  EXPECT_EQ(NodeSubscriptions(env.fabric()), 1u)
      << "the old subscription is gone at the rewatch";
  EXPECT_EQ(evictor.stats().far_ops, 1u) << "one unsubscribe round trip";
  EXPECT_EQ(evictor.stats().bg_evictions, 0u) << "a teardown is no eviction";
  EXPECT_EQ(cache.entries(), 1u);

  // The old range's writes reach no entry.
  ASSERT_TRUE(writer.WriteWord(64, 6).ok());
  EXPECT_EQ(reader.DispatchNotifications(), 0u);
  uint64_t out = 0;
  EXPECT_TRUE(cache.Lookup(1, AsBytes(out)));
  EXPECT_EQ(out, 200u);

  // The new range still invalidates.
  ASSERT_TRUE(writer.WriteWord(128, 9).ok());
  EXPECT_EQ(reader.DispatchNotifications(), 1u);
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)));
}

TEST(NearCacheTest, ClearTearsDownRewatchedSubscriptions) {
  // A background-mode cache that no evictor watches pays its released
  // subscriptions' unsubscribes on its own client, at release, as inline
  // mode does: after a rewatch and an eviction only the live entries stay
  // subscribed, and a destroyed cache leaves no subscription at the node.
  TestEnv env;
  auto& reader = env.NewClient();
  auto& writer = env.NewClient();
  NearCacheOptions options = CacheOpts(2 * kEntryCost);
  options.background_eviction = true;
  {
    NearCache cache(&reader, options, /*word_versioned=*/false);
    uint64_t v = 100;
    cache.Admit(1, AsConstBytes(v), /*watch=*/64, kWordSize, 0);
    ASSERT_TRUE(writer.WriteWord(64, 5).ok());
    EXPECT_EQ(reader.DispatchNotifications(), 1u);
    const uint64_t far0 = reader.stats().far_ops;
    cache.Admit(1, AsConstBytes(v), /*watch=*/128, kWordSize, 0);
    EXPECT_EQ(reader.stats().far_ops - far0, 2u)
        << "the new range's subscribe and the old range's unsubscribe";
    EXPECT_EQ(NodeSubscriptions(env.fabric()), 1u);
    // Two more keys pass the two-entry budget: key 1 is the CLOCK victim.
    cache.Admit(2, AsConstBytes(v), /*watch=*/192, kWordSize, 0);
    cache.Admit(3, AsConstBytes(v), /*watch=*/256, kWordSize, 0);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u) << "the owner paid the victim";
    EXPECT_EQ(cache.stats().bg_evictions, 0u);
    EXPECT_EQ(NodeSubscriptions(env.fabric()), cache.entries())
        << "only the live entries stay subscribed";
  }
  EXPECT_EQ(NodeSubscriptions(env.fabric()), 0u);
}

TEST(NearCacheTest, LossWarningInvalidatesEverything) {
  TestEnv env;
  ClientOptions tiny;
  tiny.channel_capacity = 2;
  FarClient reader(&env.fabric(), /*client_id=*/77, tiny);
  auto& writer = env.NewClient();
  NearCache cache(&reader, CacheOpts(1 << 20), /*word_versioned=*/false);
  uint64_t v = 1;
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  cache.Admit(2, AsConstBytes(v), 128, kWordSize, 0);
  // Flood the two watched words past the channel capacity: some events are
  // dropped, so the channel reports a loss warning and the cache must
  // assume the worst about every entry.
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer.WriteWord(64, i).ok());
    ASSERT_TRUE(writer.WriteWord(128, i).ok());
  }
  reader.DispatchNotifications();
  EXPECT_GE(cache.stats().loss_resets, 1u);
  uint64_t out = 0;
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)));
  EXPECT_FALSE(cache.Lookup(2, AsBytes(out)));
}

TEST(NearCacheTest, ExternalRefillAfterNewerEventMisses) {
  // A write-behind flush step refills the owner's cache under the word its
  // CAS left. With one writer, its echo confirms the refill and the next
  // read is a hit; a newer writer's event, dispatched after the refill,
  // kills it.
  TestEnv env;
  auto& owner = env.NewClient();
  auto& flusher = env.NewClient();
  auto& other = env.NewClient();
  NearCache cache(&owner, CacheOpts(1 << 20), /*word_versioned=*/true);
  const FarAddr w = 64;
  uint64_t v = 100;
  cache.Admit(1, AsConstBytes(v), w, kWordSize, 0);
  uint64_t out = 0;
  ASSERT_TRUE(cache.Lookup(1, AsBytes(out)));

  // One writer: its echo is the last event dispatched, so its own refill
  // lands and the next read is a hit.
  ASSERT_TRUE(flusher.WriteWord(w, 33).ok());
  EXPECT_EQ(owner.DispatchNotifications(), 1u);
  uint64_t fresh = 333;
  cache.RefillExternal(1, AsConstBytes(fresh), w, kWordSize, 33);
  ASSERT_TRUE(cache.Lookup(1, AsBytes(out)));
  EXPECT_EQ(out, 333u);

  // Another client writes 55 after the flusher's CAS left 44: the refill
  // under 44 lands, and the newer event, dispatched next, kills it.
  ASSERT_TRUE(flusher.WriteWord(w, 44).ok());
  uint64_t older = 444;
  cache.RefillExternal(1, AsConstBytes(older), w, kWordSize, 44);
  ASSERT_TRUE(other.WriteWord(w, 55).ok());
  EXPECT_EQ(owner.DispatchNotifications(), 2u);
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)))
      << "served " << out << " while the word holds 55";
}

TEST(NearCacheTest, DisabledCacheChargesNothing) {
  TestEnv env;
  auto& client = env.NewClient();
  NearCache cache(&client, CacheOpts(/*budget=*/0), /*word_versioned=*/false);
  EXPECT_FALSE(cache.enabled());
  const ClientStats before = client.stats();
  uint64_t out = 0;
  uint64_t v = 9;
  EXPECT_FALSE(cache.Lookup(1, AsBytes(out)));
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  EXPECT_EQ(cache.entries(), 0u);
  const ClientStats delta = client.stats().Delta(before);
  EXPECT_EQ(delta.near_ops, 0u) << "disabled probes are free";
  EXPECT_EQ(delta.far_ops, 0u);
  EXPECT_EQ(delta.cache_misses, 0u);
}

TEST(NearCacheTest, LookupChargesOneNearAccessHitOrMiss) {
  TestEnv env;
  auto& client = env.NewClient();
  NearCache cache(&client, CacheOpts(1 << 20), /*word_versioned=*/false);
  uint64_t v = 5, out = 0;
  cache.Admit(1, AsConstBytes(v), 64, kWordSize, 0);
  ClientStats before = client.stats();
  EXPECT_TRUE(cache.Lookup(1, AsBytes(out)));
  ClientStats delta = client.stats().Delta(before);
  EXPECT_EQ(delta.near_ops, 1u);
  EXPECT_EQ(delta.far_ops, 0u) << "a hit is the entire cost of the probe";
  EXPECT_EQ(delta.cache_hits, 1u);
  before = client.stats();
  EXPECT_FALSE(cache.Lookup(999, AsBytes(out)));
  delta = client.stats().Delta(before);
  EXPECT_EQ(delta.near_ops, 1u);
  EXPECT_EQ(delta.cache_misses, 1u);
}

TEST(NearCacheTest, BackgroundEvictorSweepsWithoutSweepNow) {
  // In background mode every admission lands and the owner evicts as inline
  // mode does, but pays no unsubscribe: the watching evictor's client pays
  // each victim's at release, so the node holds only the live entries' the
  // moment the loop ends, with no wait.
  TestEnv env;
  auto& client = env.NewClient();
  NearCacheOptions options = CacheOpts(16 * kEntryCost);
  options.background_eviction = true;
  NearCache cache(&client, options, /*word_versioned=*/false);
  BackgroundEvictor evictor(&env.fabric(), /*client_id=*/9001);
  evictor.Watch(&cache);
  const ClientStats before = client.stats();
  uint64_t v = 1;
  for (uint64_t k = 0; k < 20; ++k) {
    cache.Admit(k, AsConstBytes(v), /*watch=*/64 * (k + 1), kWordSize, 0);
  }
  EXPECT_EQ(NodeSubscriptions(env.fabric()), 16u);
  EXPECT_EQ(cache.stats().admissions, 20u);
  EXPECT_EQ(cache.entries(), 16u);
  EXPECT_EQ(cache.stats().bg_evictions, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(client.stats().Delta(before).far_ops, 20u)
      << "20 subscribes and no unsubscribe";
  EXPECT_EQ(evictor.stats().far_ops, 4u) << "the evictor paid 4 unsubscribes";
  EXPECT_EQ(evictor.stats().bg_evictions, 4u);
}

// Runs one fixed op sequence through a cache with 16 entries of budget: a
// Lookup per op, and an Admit on each miss. Keys are skewed (60% on 8 hot
// keys) so the run both hits and evicts; nothing writes, so nothing
// invalidates. The evictor watches throughout.
struct SequenceRun {
  NearCacheStats stats;
  size_t entries = 0;
  uint64_t owner_far_ops = 0;
  size_t node_subscriptions = 0;
};

SequenceRun RunAdmissionSequence(bool background_eviction) {
  TestEnv env;
  auto& owner = env.NewClient();
  NearCacheOptions options = CacheOpts(16 * kEntryCost, /*admit_after=*/2);
  options.background_eviction = background_eviction;
  NearCache cache(&owner, options, /*word_versioned=*/false);
  BackgroundEvictor evictor(&env.fabric(), /*client_id=*/9003);
  evictor.Watch(&cache);
  Rng rng(20261019);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t key =
        rng.NextBool(0.6) ? rng.NextInRange(0, 7) : rng.NextInRange(8, 127);
    uint64_t out = 0;
    if (!cache.Lookup(key, AsBytes(out))) {
      const uint64_t value = key * 10;
      cache.Admit(key, AsConstBytes(value), /*watch=*/64 * (key + 1),
                  kWordSize, 0);
    }
  }
  evictor.Unwatch(&cache);
  SequenceRun run;
  run.stats = cache.stats();
  run.entries = cache.entries();
  run.owner_far_ops = owner.stats().far_ops;
  run.node_subscriptions = NodeSubscriptions(env.fabric());
  return run;
}

TEST(NearCacheTest, BackgroundModeEvictsWhatInlineModeEvicts) {
  // One eviction rule: background mode reclaims the same CLOCK victims at
  // the same moments as inline mode, so one op sequence ends with the same
  // contents; only the victims' unsubscribe round trips move from the
  // owner to the evictor.
  const SequenceRun in = RunAdmissionSequence(/*background_eviction=*/false);
  const SequenceRun bg = RunAdmissionSequence(/*background_eviction=*/true);
  ASSERT_GT(in.stats.evictions, 0u);
  ASSERT_GT(in.stats.hits, 0u);
  EXPECT_EQ(bg.stats.hits, in.stats.hits);
  EXPECT_EQ(bg.stats.misses, in.stats.misses);
  EXPECT_EQ(bg.stats.admissions, in.stats.admissions);
  EXPECT_EQ(bg.entries, in.entries);
  EXPECT_EQ(bg.stats.bg_evictions, in.stats.evictions);
  EXPECT_EQ(bg.stats.evictions, 0u) << "the owner paid no unsubscribe";
  EXPECT_EQ(in.owner_far_ops - bg.owner_far_ops, in.stats.evictions)
      << "exactly the victims' unsubscribes left the owner";
  EXPECT_EQ(bg.node_subscriptions, bg.entries)
      << "only live entries stay subscribed";
  EXPECT_EQ(in.node_subscriptions, in.entries);
}

// --------------------------------------------------------- CacheCoherence

HtTree::Options CachedTables(uint64_t buckets = 1024, uint32_t depth = 0,
                             uint64_t budget = 1 << 20) {
  HtTree::Options options;
  options.buckets_per_table = buckets;
  options.initial_depth = depth;
  options.cache.budget_bytes = budget;
  options.cache.admit_after = 1;
  return options;
}

TEST(CacheCoherenceTest, RepeatGetCostsZeroFarAccesses) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), CachedTables());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(5, 55).ok());
  EXPECT_EQ(*map->Get(5), 55u);  // miss + admit
  const uint64_t before = client.stats().far_ops;
  EXPECT_EQ(*map->Get(5), 55u);
  EXPECT_EQ(client.stats().far_ops - before, 0u)
      << "a cache hit must not touch far memory at all";
  EXPECT_GE(map->near_cache()->stats().hits, 1u);
}

TEST(CacheCoherenceTest, ReadYourWritesThroughOwnCache) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), CachedTables());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(5, 55).ok());
  EXPECT_EQ(*map->Get(5), 55u);  // now cached
  ASSERT_TRUE(map->Put(5, 56).ok());
  EXPECT_EQ(*map->Get(5), 56u) << "the writer's own cache entry was killed";
  ASSERT_TRUE(map->Remove(5).ok());
  EXPECT_EQ(map->Get(5).status().code(), StatusCode::kNotFound)
      << "a cached value must not shadow a removal";
}

TEST(CacheCoherenceTest, CrossHandleInvalidationViaNotification) {
  TestEnv env(BigFabric());
  auto& writer_client = env.NewClient();
  auto& reader_client = env.NewClient();
  auto writer = HtTree::Create(&writer_client, &env.alloc(), CachedTables());
  ASSERT_TRUE(writer.ok());
  auto reader = HtTree::Attach(&reader_client, &env.alloc(), writer->header(),
                               CachedTables());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(writer->Put(5, 55).ok());
  EXPECT_EQ(*reader->Get(5), 55u);  // reader caches the value
  EXPECT_EQ(*reader->Get(5), 55u);  // and hits on it
  ASSERT_TRUE(writer->Put(5, 66).ok());
  EXPECT_EQ(*reader->Get(5), 66u)
      << "the writer's bucket CAS must invalidate the reader's entry";
  EXPECT_GE(reader->near_cache()->stats().invalidations, 1u);
  ASSERT_TRUE(writer->Remove(5).ok());
  EXPECT_EQ(reader->Get(5).status().code(), StatusCode::kNotFound);
}

TEST(CacheCoherenceTest, SplitInvalidatesRetiredBuckets) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(),
                            CachedTables(/*buckets=*/64, /*depth=*/0));
  ASSERT_TRUE(map.ok());
  for (uint64_t k = 1; k <= 100; ++k) {
    ASSERT_TRUE(map->Put(k, k * 10).ok());
  }
  for (uint64_t k = 1; k <= 100; ++k) {
    EXPECT_EQ(*map->Get(k), k * 10);  // populate the cache
  }
  ASSERT_TRUE(map->SplitTableOf(1).ok());  // retires every bucket it held
  for (uint64_t k = 1; k <= 100; ++k) {
    EXPECT_EQ(*map->Get(k), k * 10) << "key " << k << " after split";
  }
  EXPECT_GT(map->near_cache()->stats().invalidations, 0u)
      << "retired-bucket CASes must reach the cache";
  // The post-split refills moved every key's bucket to a new table, so the
  // cache must have rewatched — a refill that kept its retired-bucket
  // subscription would be blind to every write below.
  EXPECT_GT(map->near_cache()->stats().rewatches, 0u)
      << "post-split refills must move their subscriptions";

  // Regression for exactly that blindness: a SECOND handle now writes the
  // keys through the post-split table. Its bucket CASes land in the new
  // buckets; the first handle's cache only hears about them if its
  // subscriptions followed the migration.
  auto& writer_client = env.NewClient();
  auto writer = HtTree::Attach(&writer_client, &env.alloc(), map->header(),
                               CachedTables(/*buckets=*/64, /*depth=*/0));
  ASSERT_TRUE(writer.ok());
  for (uint64_t k = 1; k <= 100; ++k) {
    ASSERT_TRUE(writer->Put(k, k * 1000).ok());
  }
  for (uint64_t k = 1; k <= 100; ++k) {
    EXPECT_EQ(*map->Get(k), k * 1000)
        << "key " << k << ": cross-handle write after the split must be "
        << "seen — a stale hit means the entry still watches the old table";
  }
}

TEST(CacheCoherenceTest, MultiGetServesHitsWithoutFarOps) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), CachedTables());
  ASSERT_TRUE(map.ok());
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 32; ++k) {
    ASSERT_TRUE(map->Put(k, k + 1000).ok());
    keys.push_back(k);
  }
  auto first = map->MultiGet(keys);  // misses, admits
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    EXPECT_EQ(*first[i], keys[i] + 1000);
  }
  const uint64_t before = client.stats().far_ops;
  auto second = map->MultiGet(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(second[i].ok());
    EXPECT_EQ(*second[i], keys[i] + 1000);
  }
  EXPECT_EQ(client.stats().far_ops - before, 0u)
      << "an all-hit batch needs no wave at all";
}

TEST(CacheCoherenceTest, ShardedMapPerShardCaches) {
  TestEnv env(SmallFabric(/*nodes=*/2, /*capacity=*/64ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 256;
  options.shard.cache.budget_bytes = 64 << 10;
  options.shard.cache.admit_after = 1;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  for (uint64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(map->Put(k, k * 7).ok());
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t k = 1; k <= 200; ++k) {
      EXPECT_EQ(*map->Get(k), k * 7);
    }
  }
  const NearCacheStats stats = map->near_cache_stats();
  EXPECT_GE(stats.hits, 200u) << "second pass should hit per-shard caches";
  EXPECT_GT(map->near_cache_bytes(), 0u);
  // Writes keep the per-shard caches coherent.
  for (uint64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(map->Put(k, k * 9).ok());
    EXPECT_EQ(*map->Get(k), k * 9);
  }
}

TEST(CacheCoherenceTest, BlobChunkCacheHitsAndStaysCoherent) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto store = HtBlobStore::Create(&client, &env.alloc());
  ASSERT_TRUE(store.ok());
  store->EnableChunkCache(CacheOpts(1 << 20));
  const std::string small = "hello far memory";
  std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(small.data()), small.size());
  ASSERT_TRUE(store->Put(1, bytes).ok());

  auto first = store->Get(1);
  ASSERT_TRUE(first.ok());
  const uint64_t far_first = client.stats().far_ops;
  auto second = store->Get(1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_GE(store->chunk_cache()->stats().hits, 1u);
  EXPECT_LT(client.stats().far_ops - far_first,
            far_first == 0 ? 1 : far_first)
      << "the chunk hit must drop at least the blob-read far access";

  // An overwrite allocates a fresh blob and rewrites the map entry; the
  // next Get must see the new bytes, not the cached chunk of the old blob.
  const std::string updated = "a different value";
  std::span<const std::byte> updated_bytes(
      reinterpret_cast<const std::byte*>(updated.data()), updated.size());
  ASSERT_TRUE(store->Put(1, updated_bytes).ok());
  auto third = store->Get(1);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(third->data()),
                        third->size()),
            updated);

  // MultiGet shares the same chunk cache.
  for (uint64_t k = 2; k <= 4; ++k) {
    ASSERT_TRUE(store->Put(k, bytes).ok());
  }
  const std::vector<uint64_t> keys{1, 2, 3, 4};
  auto batch1 = store->MultiGet(keys);
  const uint64_t hits_before = store->chunk_cache()->stats().hits;
  auto batch2 = store->MultiGet(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(batch1[i].ok());
    ASSERT_TRUE(batch2[i].ok());
    EXPECT_EQ(*batch1[i], *batch2[i]);
  }
  EXPECT_GE(store->chunk_cache()->stats().hits, hits_before + keys.size());
}

// Randomized equivalence: a cache-on map, a cache-off map, and a local
// shadow must agree on every operation's outcome — over puts, overwrites,
// gets, removes, and forced splits. This is the "caching changes costs,
// never semantics" property.
TEST(CacheCoherenceTest, CacheOnOffEquivalenceUnderRandomOps) {
  TestEnv env(BigFabric());
  auto& cached_client = env.NewClient();
  auto& plain_client = env.NewClient();
  auto cached = HtTree::Create(&cached_client, &env.alloc(),
                               CachedTables(/*buckets=*/64, /*depth=*/0,
                                            /*budget=*/8 << 10));
  ASSERT_TRUE(cached.ok());
  HtTree::Options plain_options;
  plain_options.buckets_per_table = 64;
  auto plain = HtTree::Create(&plain_client, &env.alloc(), plain_options);
  ASSERT_TRUE(plain.ok());
  std::map<uint64_t, uint64_t> shadow;

  Rng rng(20260806);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t key = rng.NextInRange(1, 48);
    const double dice = rng.NextDouble();
    if (dice < 0.50) {
      auto got_cached = cached->Get(key);
      auto got_plain = plain->Get(key);
      auto it = shadow.find(key);
      if (it == shadow.end()) {
        EXPECT_EQ(got_cached.status().code(), StatusCode::kNotFound)
            << "op " << op << " key " << key;
        EXPECT_EQ(got_plain.status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(got_cached.ok()) << "op " << op << " key " << key;
        ASSERT_TRUE(got_plain.ok());
        EXPECT_EQ(*got_cached, it->second) << "op " << op << " key " << key;
        EXPECT_EQ(*got_plain, it->second);
      }
    } else if (dice < 0.85) {
      const uint64_t value = rng.Next() | 1;  // never the 0 sentinel
      ASSERT_TRUE(cached->Put(key, value).ok());
      ASSERT_TRUE(plain->Put(key, value).ok());
      shadow[key] = value;
    } else if (dice < 0.97) {
      const Status rc = cached->Remove(key);
      const Status rp = plain->Remove(key);
      EXPECT_EQ(rc.code(), rp.code()) << "op " << op << " key " << key;
      shadow.erase(key);
    } else {
      ASSERT_TRUE(cached->SplitTableOf(key).ok());
    }
  }
  // Full final sweep, both point and batched reads.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 48; ++k) {
    keys.push_back(k);
  }
  auto batch = cached->MultiGet(keys);
  for (uint64_t k = 1; k <= 48; ++k) {
    auto it = shadow.find(k);
    if (it == shadow.end()) {
      EXPECT_EQ(cached->Get(k).status().code(), StatusCode::kNotFound);
      EXPECT_EQ(batch[k - 1].status().code(), StatusCode::kNotFound);
    } else {
      EXPECT_EQ(*cached->Get(k), it->second);
      ASSERT_TRUE(batch[k - 1].ok());
      EXPECT_EQ(*batch[k - 1], it->second);
    }
  }
}

// Writer and cached reader race on one key. Under the default Reliable
// policy hits are linearizable: with a single writer storing a strictly
// increasing sequence, the reader must observe a non-decreasing sequence
// of legal values. Run under TSan by scripts/check.sh.
TEST(CacheCoherenceTest, ConcurrentWriterReaderInvalidationRace) {
  TestEnv env(BigFabric());
  auto& writer_client = env.NewClient();
  auto& reader_client = env.NewClient();
  auto writer = HtTree::Create(&writer_client, &env.alloc(), CachedTables());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Put(1, 100).ok());
  const FarAddr header = writer->header();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    auto handle =
        HtTree::Attach(&reader_client, &env.alloc(), header, CachedTables());
    ASSERT_TRUE(handle.ok());
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto value = handle->Get(1);
      ASSERT_TRUE(value.ok());
      ASSERT_GE(*value, 100u);
      ASSERT_LE(*value, 1100u);
      ASSERT_GE(*value, last) << "stale read after a newer one";
      last = *value;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
    // Convergence: after the writer finished, one dispatch-and-read must
    // surface the final value.
    EXPECT_EQ(*handle->Get(1), 1100u);
    EXPECT_GT(handle->near_cache()->stats().hits +
                  handle->near_cache()->stats().misses,
              0u);
  });
  // Gate on the reader's first read: under a sanitizer the reader's
  // Attach can otherwise lose the whole race to the writer loop and the
  // reads>0 assertion below turns into a flake.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (uint64_t v = 101; v <= 1100; ++v) {
    ASSERT_TRUE(writer->Put(1, v).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace fmds

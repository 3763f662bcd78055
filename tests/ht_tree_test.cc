#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <thread>

#include "src/core/ht_tree.h"
#include "src/core/sharded_map.h"
#include "src/core/txn.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

FabricOptions BigFabric() { return SmallFabric(1, 256ull << 20); }

HtTree::Options SmallTables(uint64_t buckets = 64, uint32_t depth = 0) {
  HtTree::Options options;
  options.buckets_per_table = buckets;
  options.initial_depth = depth;
  options.max_chain = 4;
  return options;
}

TEST(HtTreeTest, PutGetRoundTrip) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables());
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->Get(1).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(map->Put(1, 100).ok());
  EXPECT_EQ(*map->Get(1), 100u);
  ASSERT_TRUE(map->Put(1, 200).ok());  // update shadows
  EXPECT_EQ(*map->Get(1), 200u);
}

TEST(HtTreeTest, RemoveTombstones) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(7, 70).ok());
  ASSERT_TRUE(map->Remove(7).ok());
  EXPECT_EQ(map->Get(7).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(map->Put(7, 71).ok());  // re-insert after remove
  EXPECT_EQ(*map->Get(7), 71u);
}

TEST(HtTreeTest, FreshLookupIsOneFarAccess) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(),
                            SmallTables(/*buckets=*/1024));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(5, 55).ok());
  const uint64_t before = client.stats().far_ops;
  EXPECT_EQ(*map->Get(5), 55u);
  EXPECT_EQ(client.stats().far_ops - before, 1u)
      << "§5.2: fresh-cache lookups take one far access";
  // Negative lookups too (the sentinel carries the version).
  const uint64_t before_miss = client.stats().far_ops;
  EXPECT_EQ(map->Get(987654).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.stats().far_ops - before_miss, 1u);
}

TEST(HtTreeTest, FreshPutIsTwoFarAccesses) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(),
                            SmallTables(/*buckets=*/4096));
  ASSERT_TRUE(map.ok());
  // Warm the arena so allocation is local.
  ASSERT_TRUE(map->Put(1, 1).ok());
  const uint64_t before = client.stats().far_ops;
  ASSERT_TRUE(map->Put(2, 2).ok());
  EXPECT_EQ(client.stats().far_ops - before, 2u)
      << "§5.2: stores take two far accesses (item write + bucket CAS)";
}

TEST(HtTreeTest, ManyKeysWithSplits) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(32));
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kKeys = 2000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(map->Put(k, k * 2).ok()) << "key " << k;
  }
  EXPECT_GT(map->op_stats().splits, 0u) << "small tables must have split";
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(*map->Get(k), k * 2) << "key " << k;
  }
  EXPECT_GT(map->cached_tables(), 1u);
}

TEST(HtTreeTest, InitialDepthPreSplits) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(),
                            SmallTables(64, /*depth=*/3));
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->cached_tables(), 8u);
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(map->Put(k, k).ok());
  }
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(*map->Get(k), k);
  }
}

TEST(HtTreeTest, SecondClientSeesData) {
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables());
  ASSERT_TRUE(map_a.ok());
  ASSERT_TRUE(map_a->Put(11, 111).ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  EXPECT_EQ(*map_b->Get(11), 111u);
  ASSERT_TRUE(map_b->Put(22, 222).ok());
  EXPECT_EQ(*map_a->Get(22), 222u);
}

TEST(HtTreeTest, StaleCacheRecoversAfterRemoteSplit) {
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(16));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  // Client A inserts enough to split several times; B's cache goes stale.
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(map_a->Put(k, k + 1).ok());
  }
  ASSERT_GT(map_a->op_stats().splits, 0u);
  // B still finds everything (staleness detected via retired buckets /
  // version mismatches, then refresh).
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_EQ(*map_b->Get(k), k + 1) << "key " << k;
  }
  EXPECT_GT(map_b->op_stats().stale_refreshes, 0u);
}

TEST(HtTreeTest, ForcedSplitPreservesContent) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(128));
  ASSERT_TRUE(map.ok());
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(map->Put(k, k * 3).ok());
    expected[k] = k * 3;
  }
  ASSERT_TRUE(map->Remove(5).ok());
  expected.erase(5);
  ASSERT_TRUE(map->SplitTableOf(0).ok());
  for (const auto& [k, v] : expected) {
    EXPECT_EQ(*map->Get(k), v);
  }
  EXPECT_EQ(map->Get(5).status().code(), StatusCode::kNotFound)
      << "tombstones survive (as absence) across splits";
}

TEST(HtTreeTest, SplitNotificationsRefreshCache) {
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_b->EnableSplitNotifications().ok());
  ASSERT_TRUE(map_a->Put(1, 2).ok());
  ASSERT_TRUE(map_a->SplitTableOf(1).ok());
  auto refreshed = map_b->PollSplitNotifications();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(*refreshed);
  // After the pushed refresh, the lookup is fresh: one access, no stale
  // retry.
  const uint64_t stale_before = map_b->op_stats().stale_refreshes;
  EXPECT_EQ(*map_b->Get(1), 2u);
  EXPECT_EQ(map_b->op_stats().stale_refreshes, stale_before);
}

TEST(HtTreeTest, SplitWatchKeepsCacheInvalidations) {
  // A near cache and a split watch share one client: polling the watch
  // routes the cache's invalidation instead of swallowing it.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(map_a.ok());
  ASSERT_TRUE(map_a->Put(7, 1).ok());
  HtTree::Options cached = SmallTables(64);
  cached.cache.budget_bytes = 1 << 20;
  cached.cache.admit_after = 1;
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header(), cached);
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_b->EnableSplitNotifications().ok());
  EXPECT_EQ(*map_b->Get(7), 1u);  // warms the cache
  ASSERT_TRUE(map_a->Put(7, 2).ok());
  auto refreshed = map_b->PollSplitNotifications();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_FALSE(*refreshed) << "no split happened";
  EXPECT_EQ(*map_b->Get(7), 2u) << "the invalidation reached the cache";
}

TEST(HtTreeTest, SplitWatchesOnOneClientKeepTheirOwnEvents) {
  TestEnv env(BigFabric());
  auto& owner = env.NewClient();
  auto& watcher = env.NewClient();
  auto first = HtTree::Create(&owner, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(first.ok());
  auto second = HtTree::Create(&owner, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(second.ok());
  auto watch_first = HtTree::Attach(&watcher, &env.alloc(), first->header());
  ASSERT_TRUE(watch_first.ok());
  auto watch_second =
      HtTree::Attach(&watcher, &env.alloc(), second->header());
  ASSERT_TRUE(watch_second.ok());
  ASSERT_TRUE(watch_first->EnableSplitNotifications().ok());
  ASSERT_TRUE(watch_second->EnableSplitNotifications().ok());
  ASSERT_TRUE(second->Put(1, 2).ok());
  ASSERT_TRUE(second->SplitTableOf(1).ok());
  auto polled_first = watch_first->PollSplitNotifications();
  ASSERT_TRUE(polled_first.ok());
  EXPECT_FALSE(*polled_first) << "the first map did not split";
  auto polled_second = watch_second->PollSplitNotifications();
  ASSERT_TRUE(polled_second.ok());
  EXPECT_TRUE(*polled_second) << "the second map's split reached its watch";
}

TEST(HtTreeTest, DestroyedSplitWatchLeavesItsClientDispatching) {
  // A handle that dies before its client takes its split watch along: the
  // next split publishes nothing, and the client's other watch still polls.
  TestEnv env(BigFabric());
  auto& owner = env.NewClient();
  auto& watcher = env.NewClient();
  auto first = HtTree::Create(&owner, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(first.ok());
  auto second = HtTree::Create(&owner, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(second.ok());
  {
    auto gone = HtTree::Attach(&watcher, &env.alloc(), first->header());
    ASSERT_TRUE(gone.ok());
    ASSERT_TRUE(gone->EnableSplitNotifications().ok());
  }
  auto live = HtTree::Attach(&watcher, &env.alloc(), second->header());
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->EnableSplitNotifications().ok());
  const uint64_t published = watcher.channel().published();
  ASSERT_TRUE(first->Put(1, 2).ok());
  ASSERT_TRUE(first->SplitTableOf(1).ok());
  EXPECT_EQ(watcher.channel().published(), published);
  ASSERT_TRUE(second->Put(1, 2).ok());
  ASSERT_TRUE(second->SplitTableOf(1).ok());
  auto polled = live->PollSplitNotifications();
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(*polled);
}

TEST(HtTreeTest, CacheBytesGrowWithTables) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(16));
  ASSERT_TRUE(map.ok());
  const uint64_t before = map->cache_bytes();
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(map->Put(k, k).ok());
  }
  EXPECT_GT(map->cache_bytes(), before);
}

// The depth of the trie mirror's directory over `leaves` cached leaves: the
// smallest with 2^bits >= 2 × leaves (zero for one leaf).
uint32_t DirectoryBits(uint64_t leaves) {
  uint32_t bits = 0;
  while (leaves > 1 && (1ull << bits) < 2 * leaves) {
    ++bits;
  }
  return bits;
}

TEST(HtTreeTest, DescentReadsOneDirectorySlotAndTheNodeItNames) {
  // 256 tables, every leaf at depth 8: the directory slot and the node it
  // names find the leaf, and one more near access validates the head. A
  // per-level descent would read the 9 trie nodes on the path instead.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(),
                            SmallTables(64, /*depth=*/8));
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->cached_tables(), 256u);
  ASSERT_TRUE(map->Put(5, 55).ok());
  const uint64_t before = client.stats().near_ops;
  EXPECT_EQ(*map->Get(5), 55u);
  EXPECT_EQ(client.stats().near_ops - before, 2u + 1u);
}

TEST(HtTreeTest, DeepLeafWalksOnlyTheLevelsBelowTheDirectory) {
  // Twenty forced splits of one key's table leave that key's leaf at depth
  // 20, far below the directory's depth for 21 leaves. The key pays one
  // near access per level below the directory, every key still reads back,
  // and the directory stays linear in leaves rather than 2^depth.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kKey = 7;
  constexpr uint64_t kKeys = 30;  // too few to split a 64-bucket table
  constexpr uint32_t kSplits = 20;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(map->Put(k, k * 5).ok());
  }
  ASSERT_EQ(map->cached_tables(), 1u);
  for (uint32_t i = 0; i < kSplits; ++i) {
    ASSERT_TRUE(map->SplitTableOf(kKey).ok()) << "split " << i;
  }
  ASSERT_EQ(map->cached_tables(), 1u + kSplits);
  const uint32_t bits = DirectoryBits(map->cached_tables());
  ASSERT_LT(bits, kSplits);
  const uint64_t before = client.stats().near_ops;
  EXPECT_EQ(*map->Get(kKey), kKey * 5);
  EXPECT_EQ(client.stats().near_ops - before, 2u + (kSplits - bits) + 1u);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(*map->Get(k), k * 5) << "key " << k;
  }
  // 2 × leaves − 1 mirrored nodes of 48 B and at most 4 × leaves slots.
  EXPECT_LT(map->cache_bytes(), 128 * map->cached_tables());
}

TEST(HtTreeTest, RefreshedMirrorHoldsOnlyLiveNodes) {
  // A handle that refreshed across another handle's splits caches exactly
  // what a handle attached afterwards does: each refresh writes the new
  // subtree into the stale leaf's own cell, so no dead node stays behind.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(16));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  constexpr uint64_t kKeys = 600;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(map_a->Put(k, k + 1).ok());
    if (k % 100 == 99) {
      for (uint64_t j = 0; j <= k; ++j) {
        ASSERT_EQ(*map_b->Get(j), j + 1) << "key " << j;
      }
    }
  }
  ASSERT_GT(map_a->op_stats().splits, 8u);
  ASSERT_GT(map_b->op_stats().stale_refreshes, 1u);
  auto& c = env.NewClient();
  auto map_c = HtTree::Attach(&c, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_c.ok());
  EXPECT_EQ(map_b->cached_tables(), map_c->cached_tables());
  EXPECT_EQ(map_b->cache_bytes(), map_c->cache_bytes());
  EXPECT_EQ(map_a->cache_bytes(), map_c->cache_bytes());
}

TEST(HtTreeTest, GrowthEstimatesLeaveWithTheirTables) {
  // Handle A's growth estimate of a table goes once the table leaves A's
  // mirror, whoever split it: after B splits the root table (A re-reads the
  // whole trie), after B splits an inner table (A splices one subtree), and
  // when A's own split finds the table B already split.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(1024));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  ASSERT_EQ(map_a->hint_cache_bytes(), 0u);
  for (uint64_t key : {11, 12, 13}) {
    ASSERT_TRUE(map_a->Put(key, key).ok());  // grows the key's table
    ASSERT_GT(map_a->hint_cache_bytes(), 0u) << "key " << key;
    ASSERT_TRUE(map_b->SplitTableOf(key).ok());
    if (key == 13) {
      ASSERT_TRUE(map_a->SplitTableOf(key).ok());
      EXPECT_EQ(map_a->op_stats().splits, 0u) << "B had split it already";
    } else {
      EXPECT_EQ(*map_a->Get(key), key);  // stale head: A refreshes
    }
    EXPECT_EQ(map_a->hint_cache_bytes(), 0u) << "key " << key;
  }
  EXPECT_EQ(map_a->op_stats().stale_refreshes, 3u);
}

TEST(HtTreeTest, ConcurrentWritersDistinctKeys) {
  TestEnv env(BigFabric());
  auto& creator = env.NewClient();
  auto map = HtTree::Create(&creator, &env.alloc(), SmallTables(256));
  ASSERT_TRUE(map.ok());
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 300;
  std::vector<FarClient*> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(&env.NewClient());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto handle =
          HtTree::Attach(clients[t], &env.alloc(), map->header());
      ASSERT_TRUE(handle.ok());
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = t * kPerThread + i + 1;
        ASSERT_TRUE(handle->Put(key, key * 10).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (uint64_t key = 1; key <= kThreads * kPerThread; ++key) {
    ASSERT_EQ(*map->Get(key), key * 10) << "key " << key;
  }
}

TEST(HtTreeTest, ConcurrentReadersDuringWrites) {
  TestEnv env(BigFabric());
  auto& creator = env.NewClient();
  auto map = HtTree::Create(&creator, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(map.ok());
  for (uint64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(map->Put(k, k).ok());
  }
  std::atomic<bool> stop{false};
  auto& reader_client = env.NewClient();
  auto& writer_client = env.NewClient();
  std::thread reader([&] {
    auto handle =
        HtTree::Attach(&reader_client, &env.alloc(), map->header());
    ASSERT_TRUE(handle.ok());
    Rng rng(3);
    while (!stop.load()) {
      const uint64_t key = rng.NextInRange(1, 200);
      auto value = handle->Get(key);
      ASSERT_TRUE(value.ok());
      ASSERT_EQ(*value % key == 0, true);  // value is k or k*7
    }
  });
  std::thread writer([&] {
    auto handle =
        HtTree::Attach(&writer_client, &env.alloc(), map->header());
    ASSERT_TRUE(handle.ok());
    for (uint64_t k = 201; k <= 1200; ++k) {
      ASSERT_TRUE(handle->Put(k, k).ok());  // force splits under readers
    }
  });
  writer.join();
  stop.store(true);
  reader.join();
}

TEST(HtTreeTest, AblationModesStayCorrect) {
  // The ablation knob (no load0 indirection) changes the access count,
  // never the semantics.
  for (bool indirect : {true, false}) {
    TestEnv env(BigFabric());
    auto& client = env.NewClient();
    HtTree::Options options = SmallTables(64);
    options.use_indirect = indirect;
    auto map = HtTree::Create(&client, &env.alloc(), options);
    ASSERT_TRUE(map.ok());
    for (uint64_t k = 1; k <= 400; ++k) {
      ASSERT_TRUE(map->Put(k, k * 9).ok());
    }
    ASSERT_TRUE(map->Remove(13).ok());
    for (uint64_t k = 1; k <= 400; ++k) {
      if (k == 13) {
        EXPECT_EQ(map->Get(k).status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_EQ(*map->Get(k), k * 9) << "indirect=" << indirect;
      }
    }
  }
}

TEST(HtTreeTest, NonIndirectLookupCostsTwoAccesses) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  HtTree::Options options = SmallTables(4096);
  options.use_indirect = false;
  auto map = HtTree::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(5, 55).ok());
  const uint64_t before = client.stats().far_ops;
  EXPECT_EQ(*map->Get(5), 55u);
  EXPECT_EQ(client.stats().far_ops - before, 2u)
      << "without load0: bucket word + item";
}

TEST(HtTreeTest, AlternatingWritersReplaceTheirKeysHead) {
  // Two handles take turns rewriting one key, so every store finds at the
  // head the item the other handle just wrote. Each store links past it,
  // so the chain never grows and no split fires.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  constexpr uint64_t kKey = 1;
  uint64_t mate = kKey + 1;
  while (Mix64(mate) % kBuckets != Mix64(kKey) % kBuckets) {
    ++mate;
  }
  ASSERT_TRUE(map_a->Put(mate, 7).ok());
  for (uint64_t i = 0; i < 2000; ++i) {
    HtTree& writer = (i % 2 == 0) ? *map_a : *map_b;
    ASSERT_TRUE(writer.Put(kKey, i).ok());
  }
  // Every store read the rival's item before its CAS, so none missed; the
  // replacement shows in the split count and the mate's hop count below.
  EXPECT_EQ(map_a->op_stats().cas_retries + map_b->op_stats().cas_retries,
            0u);
  EXPECT_EQ(map_a->op_stats().splits + map_b->op_stats().splits, 0u);
  const uint64_t hops = map_a->op_stats().chain_hops;
  EXPECT_EQ(*map_a->Get(mate), 7u);
  EXPECT_LE(map_a->op_stats().chain_hops - hops, 1u)
      << "the bucket-mate sits right behind the key's single item";
  EXPECT_EQ(*map_b->Get(kKey), 1999u);
}

TEST(HtTreeTest, AlternatingBatchWritersReplaceTheirKeysHeads) {
  // The same rule in BatchPut's read and publish waves: two handles take
  // turns publishing one batch of stores and removes over the same keys,
  // one key per bucket. Every op reads its key's previous item at the head
  // and links past it, so each bucket keeps exactly one item.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  std::vector<uint64_t> keys;
  std::set<uint64_t> buckets;
  for (uint64_t k = 1; keys.size() < 8; ++k) {
    if (buckets.insert(Mix64(k) % kBuckets).second) {
      keys.push_back(k);
    }
  }
  std::vector<uint64_t> values(keys.size());
  std::vector<uint8_t> tombstones(keys.size());
  constexpr uint64_t kRounds = 400;
  for (uint64_t round = 0; round < kRounds; ++round) {
    HtTree& writer = (round % 2 == 0) ? *map_a : *map_b;
    for (size_t i = 0; i < keys.size(); ++i) {
      values[i] = round * 100 + i;
      tombstones[i] = (round + i) % 5 == 0 ? 1 : 0;
    }
    ASSERT_TRUE(writer.MultiWrite(keys, values, tombstones).ok());
  }
  // No CAS missed (each op read the rival's item first); the replacement
  // shows in the split count and in the zero-hop reads below.
  EXPECT_EQ(map_a->op_stats().cas_retries + map_b->op_stats().cas_retries,
            0u);
  EXPECT_EQ(map_a->op_stats().splits + map_b->op_stats().splits, 0u);
  const uint64_t hops = map_a->op_stats().chain_hops;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto value = map_a->Get(keys[i]);
    if (tombstones[i] != 0) {
      EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(value.ok()) << "key " << keys[i];
      EXPECT_EQ(*value, values[i]);
    }
  }
  EXPECT_EQ(map_a->op_stats().chain_hops, hops);
}

TEST(HtTreeTest, SplitReadsEachNonEmptyHeadOnce) {
  // A split must CAS every bucket, but it reads only the non-empty heads,
  // once: empty buckets hold the table's sentinel, and a bucket whose
  // freeze CAS matched starts its chain walk from the image it holds.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  constexpr uint64_t kBuckets = 1024;
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map.ok());
  for (uint64_t round = 0; round < 2; ++round) {
    for (uint64_t k = 1; k <= 20; ++k) {
      ASSERT_TRUE(map->Put(k, k * 10 + round).ok());
    }
  }
  ASSERT_EQ(map->op_stats().splits, 0u);
  const uint64_t before = client.stats().messages;
  ASSERT_TRUE(map->SplitTableOf(1).ok());
  EXPECT_LT(client.stats().messages - before, kBuckets + 128);
  EXPECT_EQ(map->op_stats().splits, 1u);
  for (uint64_t k = 1; k <= 20; ++k) {
    EXPECT_EQ(*map->Get(k), k * 10 + 1) << "key " << k;
  }
}

TEST(HtTreeTest, GetGivingUpOnFrozenBucketLeavesNoRetiredHint) {
  // A Get that gives up on a frozen table nobody republishes (its splitter
  // stalled) must not leave the retired sentinel as the bucket's CAS
  // prediction, or the next Put "succeeds" into the dead table.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kKey = 5;
  ASSERT_TRUE(map->Put(kKey, 50).ok());
  // Far layout (ht_tree.h): header word 0 is the trie root, here the only
  // leaf, whose word 8 is its table; header word 24 is the map's retired
  // sentinel; the bucket array follows the 48-byte table header.
  const FarAddr header = map->header();
  const FarAddr root = *client.ReadWord(header);
  const FarAddr table = *client.ReadWord(root + 8);
  const FarAddr retired = *client.ReadWord(header + 24);
  const FarAddr bucket = table + 48 + (Mix64(kKey) % kBuckets) * kWordSize;
  const uint64_t head = *client.ReadWord(bucket);
  ASSERT_EQ(*client.CompareSwap(bucket, head, retired), head);
  EXPECT_EQ(map->Get(kKey).status().code(), StatusCode::kAborted);
  EXPECT_FALSE(map->Put(kKey, 51).ok());
  EXPECT_EQ(*client.ReadWord(bucket), retired)
      << "the Put landed in the frozen table";
}

TEST(HtTreeTest, PointOpAccountingIsPinned) {
  // A fixed-seed script of point ops through two handles on two clients:
  // same-key head replacement, splits, a bucket compaction, stale
  // refreshes after the other handle's splits, one forced split, then one
  // transaction (TxnRead, prepare, validate, commit). Every far access,
  // near access, byte and simulated nanosecond of it is pinned.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  Rng rng(20261017);
  for (int op = 0; op < 3000; ++op) {
    if (op == 1500) {
      ASSERT_TRUE(map_a->SplitTableOf(rng.NextInRange(1, 200)).ok());
    }
    HtTree& map = (op % 2 == 0) ? *map_a : *map_b;
    const uint64_t key = rng.NextInRange(1, 200);
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {
      ASSERT_TRUE(map.Put(key, rng.Next()).ok());
    } else if (kind < 5) {
      ASSERT_TRUE(map.Remove(key).ok());
    } else {
      const auto value = map.Get(key);
      ASSERT_TRUE(value.ok() || value.status().code() == StatusCode::kNotFound);
    }
  }
  ShardedMap::Options options;
  options.num_shards = 1;
  options.shard = SmallTables(64);
  auto sharded = ShardedMap::Create(&a, &env.alloc(), options);
  ASSERT_TRUE(sharded.ok());
  for (uint64_t k = 1; k <= 10; ++k) {
    ASSERT_TRUE(sharded->Put(k, k).ok());
  }
  Txn txn(&*sharded);
  ASSERT_EQ(*txn.Get(3), 3u);
  ASSERT_TRUE(txn.Put(4, 44).ok());
  ASSERT_TRUE(txn.Commit().ok());

  using Counts = std::vector<uint64_t>;
  auto client_counts = [](FarClient& c) {
    const ClientStats& s = c.stats();
    return Counts{s.far_ops,    s.messages,      s.near_ops,
                  s.bytes_read, s.bytes_written, c.clock().now_ns()};
  };
  auto op_counts = [](const HtTree::OpStats& s) {
    return Counts{s.gets,       s.puts,           s.removes,
                  s.chain_hops, s.stale_refreshes, s.cas_retries,
                  s.splits,     s.compactions};
  };
  EXPECT_EQ(client_counts(a),
            (Counts{2755, 4208, 6303, 83360, 48664, 3221270}));
  EXPECT_EQ(client_counts(b),
            (Counts{2626, 3614, 6162, 72216, 35296, 3080340}));
  EXPECT_EQ(op_counts(map_a->op_stats()),
            (Counts{750, 611, 139, 275, 2, 0, 5, 1}));
  EXPECT_EQ(op_counts(map_b->op_stats()),
            (Counts{784, 548, 168, 313, 5, 0, 2, 0}));
  EXPECT_EQ(op_counts(sharded->op_stats()),
            (Counts{2, 10, 0, 1, 0, 0, 0, 0}));
}

TEST(HtTreeTest, PutAfterMultiGetCostsTwoFarAccesses) {
  // A store reads its bucket head itself, so what the handle read before
  // does not matter: a Put right after a Get or a MultiGet of a key another
  // handle wrote costs the paper's two far accesses and no CAS miss.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(4096));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_a->Put(5, 55).ok());
  ASSERT_TRUE(map_a->Put(6, 66).ok());
  ASSERT_TRUE(map_b->Put(7, 77).ok());  // warms b's item slab

  EXPECT_EQ(*map_b->Get(5), 55u);
  uint64_t before = b.stats().far_ops;
  ASSERT_TRUE(map_b->Put(5, 56).ok());
  EXPECT_EQ(b.stats().far_ops - before, 2u) << "Put after Get";

  const uint64_t key = 6;
  const auto got = map_b->MultiGet(std::span<const uint64_t>(&key, 1));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(*got[0], 66u);
  before = b.stats().far_ops;
  ASSERT_TRUE(map_b->Put(6, 67).ok());
  EXPECT_EQ(b.stats().far_ops - before, 2u) << "Put after MultiGet";
  EXPECT_EQ(map_b->op_stats().cas_retries, 0u);
  EXPECT_EQ(*map_a->Get(5), 56u);
  EXPECT_EQ(*map_a->Get(6), 67u);
}

// The first key after `key` that shares its bucket in a one-table map of
// `buckets` buckets.
uint64_t BucketMate(uint64_t key, uint64_t buckets) {
  uint64_t mate = key + 1;
  while (Mix64(mate) % buckets != Mix64(key) % buckets) {
    ++mate;
  }
  return mate;
}

TEST(HtTreeTest, PutAfterRivalRewriteCostsTwoFarAccesses) {
  // Handle A puts a key, handle B rewrites it, then A puts it again. A's
  // store reads B's item at the head and links past it: §5.2's two far
  // accesses (the head read, then the item write and bucket CAS in one
  // doorbell) and three messages, with one item of the key left in the
  // bucket.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  constexpr uint64_t kKey = 1;
  const uint64_t mate = BucketMate(kKey, kBuckets);
  ASSERT_TRUE(map_a->Put(mate, 7).ok());
  ASSERT_TRUE(map_a->Put(kKey, 1).ok());
  ASSERT_TRUE(map_b->Put(kKey, 2).ok());
  const uint64_t far0 = a.stats().far_ops;
  const uint64_t messages0 = a.stats().messages;
  ASSERT_TRUE(map_a->Put(kKey, 3).ok());
  EXPECT_EQ(a.stats().far_ops - far0, 2u);
  EXPECT_EQ(a.stats().messages - messages0, 3u);
  EXPECT_EQ(map_a->op_stats().cas_retries, 0u);
  const uint64_t hops = map_b->op_stats().chain_hops;
  EXPECT_EQ(*map_b->Get(mate), 7u);
  EXPECT_LE(map_b->op_stats().chain_hops - hops, 1u)
      << "the bucket-mate sits right behind the key's single item";
  EXPECT_EQ(*map_b->Get(kKey), 3u);
}

TEST(HtTreeTest, MissedCasReadsAgainAndLinksPastTheKeysHead) {
  // A writer that lands between a store's head read and its CAS makes the
  // CAS miss. Handle A drives a one-key BatchPut by hand and lets handle B
  // rewrite the key between A's read wave and A's publish wave: A reads
  // the bucket again, finds B's item and links past it.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  constexpr uint64_t kKey = 1;
  const uint64_t mate = BucketMate(kKey, kBuckets);
  ASSERT_TRUE(map_a->Put(mate, 7).ok());
  ASSERT_TRUE(map_a->Put(kKey, 1).ok());

  const uint64_t key = kKey;
  const uint64_t value = 3;
  HtTree::BatchPut engine(&*map_a, std::span<const uint64_t>(&key, 1),
                          std::span<const uint64_t>(&value, 1), {}, nullptr);
  std::vector<FarClient::Completion> done;
  auto run_wave = [&](size_t expected_ops) {
    ASSERT_EQ(engine.PostWave(), expected_ops);
    done.resize(a.pending_ops());
    ASSERT_TRUE(a.WaitAll(done).ok());
    engine.AbsorbWave(done);
  };
  run_wave(1);  // the head read: A's own item of the key
  ASSERT_TRUE(map_b->Put(kKey, 2).ok());
  run_wave(2);  // the item write and the CAS, which misses B's item
  EXPECT_EQ(map_a->op_stats().cas_retries, 1u);
  run_wave(1);  // the read again
  run_wave(2);  // the publish past B's item
  EXPECT_EQ(engine.PostWave(), 0u);
  ASSERT_TRUE(engine.Take().ok());

  EXPECT_EQ(map_a->op_stats().splits + map_b->op_stats().splits, 0u);
  const uint64_t hops = map_b->op_stats().chain_hops;
  EXPECT_EQ(*map_b->Get(mate), 7u);
  EXPECT_LE(map_b->op_stats().chain_hops - hops, 1u)
      << "the bucket-mate sits right behind the key's single item";
  EXPECT_EQ(*map_b->Get(kKey), 3u);
}

// `key` and the next `count - 1` keys that share its bucket in a one-table
// map of `buckets` buckets.
std::vector<uint64_t> SharedBucket(uint64_t key, size_t count,
                                   uint64_t buckets) {
  std::vector<uint64_t> keys{key};
  while (keys.size() < count) {
    keys.push_back(BucketMate(keys.back(), buckets));
  }
  return keys;
}

// Leaves `keys[0]` and `keys[1]` rewritten in turn six times over
// `keys[2]`: each store's head is the other key's item, so the bucket
// holds, head first, keys[1] and keys[0] six times each, then keys[2] — 13
// items, 3 of them live (keys[0] = 105, keys[1] = 205, keys[2] = 300).
void BuryUnderRewrites(HtTree& map, std::span<const uint64_t> keys) {
  ASSERT_TRUE(map.Put(keys[2], 300).ok());
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(map.Put(keys[0], 100 + i).ok());
    ASSERT_TRUE(map.Put(keys[1], 200 + i).ok());
  }
}

TEST(HtTreeTest, LongGarbageChainCompactsItsBucket) {
  // A lookup of the buried key walks past max_chain (4). Its bucket holds
  // three live keys, so it rewrites the chain as one run of them and
  // publishes the run with one CAS in the doorbell that writes it: no split,
  // and the next lookup finds the key at its run position.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map.ok());
  const std::vector<uint64_t> keys = SharedBucket(1, 3, kBuckets);
  BuryUnderRewrites(*map, keys);
  uint64_t before = client.stats().far_ops;
  EXPECT_EQ(*map->Get(keys[2]), 300u);
  EXPECT_EQ(client.stats().far_ops - before, 1 + 12 + 1u)
      << "the head, 12 hops, then the run's write and CAS in one doorbell";
  EXPECT_EQ(map->op_stats().splits, 0u);
  EXPECT_EQ(map->op_stats().compactions, 1u);
  // The run, head first: keys[1], keys[0], keys[2].
  before = client.stats().far_ops;
  EXPECT_EQ(*map->Get(keys[2]), 300u);
  EXPECT_EQ(client.stats().far_ops - before, 1 + 2u);
  EXPECT_EQ(*map->Get(keys[0]), 105u);
  EXPECT_EQ(*map->Get(keys[1]), 205u);
  EXPECT_EQ(map->op_stats().compactions, 1u);
  EXPECT_EQ(map->op_stats().splits, 0u);
}

TEST(HtTreeTest, LongLiveChainStillSplits) {
  // Six distinct live keys in one bucket leave nothing to compact: the
  // lookup that walks past max_chain splits the table, at the cost a split
  // had before compaction existed (the same 35 far accesses and 99
  // messages: six walk reads, then the split's reads, freeze, rewrite and
  // republish).
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map.ok());
  const std::vector<uint64_t> keys = SharedBucket(1, 6, kBuckets);
  for (uint64_t key : keys) {
    ASSERT_TRUE(map->Put(key, key * 10).ok());
  }
  const uint64_t far0 = client.stats().far_ops;
  const uint64_t messages0 = client.stats().messages;
  EXPECT_EQ(*map->Get(keys[0]), keys[0] * 10);  // five hops down
  EXPECT_EQ(client.stats().far_ops - far0, 35u);
  EXPECT_EQ(client.stats().messages - messages0, 99u);
  EXPECT_EQ(map->op_stats().splits, 1u);
  EXPECT_EQ(map->op_stats().compactions, 0u);
  for (uint64_t key : keys) {
    EXPECT_EQ(*map->Get(key), key * 10) << "key " << key;
  }
}

TEST(HtTreeTest, CompactionKeepsTombstonesAboveAPartialWalk) {
  // A walk that ends at its match leaves older items below it. The run
  // keeps the tombstones the walk passed, because one may shadow its key's
  // older item down there: a key removed above the match stays absent.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map.ok());
  const std::vector<uint64_t> keys = SharedBucket(1, 4, kBuckets);
  const uint64_t removed = keys[0];
  const uint64_t target = keys[1];
  ASSERT_TRUE(map->Put(removed, 1).ok());
  ASSERT_TRUE(map->Put(target, 2).ok());
  ASSERT_TRUE(map->Remove(removed).ok());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(map->Put(keys[2], 30 + i).ok());
    ASSERT_TRUE(map->Put(keys[3], 40 + i).ok());
  }
  // Head first: six rewrites, removed's tombstone, target, removed's item.
  EXPECT_EQ(*map->Get(target), 2u);
  ASSERT_EQ(map->op_stats().compactions, 1u);
  EXPECT_EQ(map->Get(removed).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*map->Get(keys[2]), 32u);
  EXPECT_EQ(*map->Get(keys[3]), 42u);
  EXPECT_EQ(*map->Get(target), 2u);
  EXPECT_EQ(map->op_stats().splits, 0u);
}

TEST(HtTreeTest, AllDeadBucketCompactsToItsSentinel) {
  // A miss that walks to the sentinel through only dead items (versions
  // and tombstones of two removed keys) leaves no run to write: the one
  // CAS swings the bucket back to the table's sentinel.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map.ok());
  const std::vector<uint64_t> keys = SharedBucket(1, 3, kBuckets);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(map->Put(keys[0], i).ok());
    ASSERT_TRUE(map->Put(keys[1], i).ok());
  }
  ASSERT_TRUE(map->Remove(keys[0]).ok());
  ASSERT_TRUE(map->Remove(keys[1]).ok());
  uint64_t before = client.stats().far_ops;
  EXPECT_EQ(map->Get(keys[2]).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.stats().far_ops - before, 1 + 8 + 1u)
      << "the head, eight hops to the sentinel, then the CAS alone";
  EXPECT_EQ(map->op_stats().compactions, 1u);
  for (uint64_t key : keys) {
    before = client.stats().far_ops;
    EXPECT_EQ(map->Get(key).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(client.stats().far_ops - before, 1u) << "an empty bucket";
  }
  ASSERT_TRUE(map->Put(keys[0], 7).ok());
  EXPECT_EQ(*map->Get(keys[0]), 7u);
  EXPECT_EQ(map->op_stats().splits, 0u);
}

TEST(HtTreeTest, CompactionThatLosesItsCasIsNotRetried) {
  // Handle A drives a one-key lookup wave by wave, and handle B stores into
  // the same bucket after A posted its compaction and before it runs. A's
  // CAS misses: the run never became reachable, so A frees it and posts
  // nothing more, and B's store and every older value stay visible.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  const std::vector<uint64_t> keys = SharedBucket(1, 4, kBuckets);
  BuryUnderRewrites(*map_a, keys);

  const uint64_t key = keys[2];
  HtTree::BatchGet engine(&*map_a, std::span<const uint64_t>(&key, 1));
  const uint64_t freed = env.alloc().freed_bytes();
  std::vector<FarClient::Completion> done;
  size_t waves = 0;
  size_t compaction_waves = 0;
  for (size_t posted; (posted = engine.PostWave()) != 0; ++waves) {
    if (posted == 2) {
      // The run's write and its CAS are posted but not run: B lands first.
      ++compaction_waves;
      ASSERT_TRUE(map_b->Put(keys[3], 400).ok());
    }
    done.resize(a.pending_ops());
    ASSERT_TRUE(a.WaitAll(done).ok());
    engine.AbsorbWave(done);
  }
  EXPECT_EQ(waves, 1 + 12 + 1u) << "the head, 12 hops, one compaction";
  EXPECT_EQ(compaction_waves, 1u);
  EXPECT_EQ(*engine.Take(0), 300u);
  EXPECT_EQ(map_a->op_stats().compactions, 0u);
  EXPECT_EQ(map_a->op_stats().splits, 0u);
  EXPECT_EQ(env.alloc().freed_bytes() - freed, 3 * 32u)
      << "the three-item run was freed";

  EXPECT_EQ(*map_a->Get(keys[3]), 400u);
  EXPECT_EQ(*map_a->Get(keys[0]), 105u);
  EXPECT_EQ(*map_a->Get(keys[1]), 205u);
  EXPECT_EQ(*map_b->Get(keys[2]), 300u);
}

TEST(HtTreeTest, CompactionInvalidatesBucketWatchers) {
  // A compaction moves the bucket word like a store, so every NearCache
  // entry watching the bucket is invalidated, and the compacting handle
  // admits its own key under the run's word.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  HtTree::Options options = SmallTables(kBuckets);
  options.cache.budget_bytes = 64 << 10;
  options.cache.admit_after = 1;
  auto map_a = HtTree::Create(&a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header(), options);
  ASSERT_TRUE(map_b.ok());
  const std::vector<uint64_t> keys = SharedBucket(1, 3, kBuckets);
  BuryUnderRewrites(*map_a, keys);
  EXPECT_EQ(*map_b->Get(keys[0]), 105u);  // admitted, one hop down
  uint64_t before = b.stats().far_ops;
  EXPECT_EQ(*map_b->Get(keys[0]), 105u);
  EXPECT_EQ(b.stats().far_ops - before, 0u) << "a near hit";

  EXPECT_EQ(*map_a->Get(keys[2]), 300u);
  ASSERT_EQ(map_a->op_stats().compactions, 1u);
  before = a.stats().far_ops;
  EXPECT_EQ(*map_a->Get(keys[2]), 300u);
  EXPECT_EQ(a.stats().far_ops - before, 0u) << "admitted under the run";

  const uint64_t invalidations = map_b->near_cache()->stats().invalidations;
  before = b.stats().far_ops;
  EXPECT_EQ(*map_b->Get(keys[0]), 105u);
  EXPECT_GT(b.stats().far_ops - before, 0u) << "the compaction's event";
  EXPECT_EQ(map_b->near_cache()->stats().invalidations - invalidations, 1u);

  ASSERT_TRUE(map_b->Put(keys[0], 999).ok());
  ASSERT_TRUE(map_b->Remove(keys[1]).ok());
  for (HtTree* map : {&*map_a, &*map_b}) {
    EXPECT_EQ(*map->Get(keys[0]), 999u);
    EXPECT_EQ(map->Get(keys[1]).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(*map->Get(keys[2]), 300u);
  }
}

TEST(HtTreeTest, CompactingLookupsRaceStoresRemovesAndSplits) {
  // Two writers store and remove their own keys in four shared buckets, so
  // their stores keep burying each other's versions; two readers compact
  // those chains, and a fifth thread forces splits. Readers never see a
  // value written for another key, and every key ends at its owner's last
  // acknowledged write.
  TestEnv env(BigFabric());
  auto& creator = env.NewClient();
  constexpr uint64_t kBuckets = 64;
  auto map = HtTree::Create(&creator, &env.alloc(), SmallTables(kBuckets));
  ASSERT_TRUE(map.ok());
  // Four keys in each of buckets 0-3, all with the same top 8 hash bits, so
  // the forced splits (at most 6 deep on that path) never part them. Writers
  // re-attach every 16 stores, which restarts their growth counts below the
  // trigger (half the buckets): no other split parts them either.
  std::vector<uint64_t> keys;
  std::map<uint64_t, int> per_bucket;
  for (uint64_t k = 1; keys.size() < 16; ++k) {
    const uint64_t hash = Mix64(k);
    if (hash >> 56 == 0 && hash % kBuckets < 4 &&
        per_bucket[hash % kBuckets]++ < 4) {
      keys.push_back(k);
    }
  }
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr uint64_t kWrites = 4000;
  std::vector<FarClient*> clients;
  for (int t = 0; t < kWriters + kReaders + 1; ++t) {
    clients.push_back(&env.NewClient());
  }
  // Writer w owns keys[i] for i % kWriters == w: the last value it had
  // acknowledged per key (nullopt: removed).
  std::vector<std::map<uint64_t, std::optional<uint64_t>>> last(kWriters);
  std::atomic<int> writing{kWriters};
  std::atomic<uint64_t> compactions{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(w + 1);
      for (uint64_t n = 0; n < kWrites; n += 16) {
        auto handle =
            HtTree::Attach(clients[w], &env.alloc(), map->header());
        ASSERT_TRUE(handle.ok());
        for (uint64_t i = n; i < n + 16; ++i) {
          const uint64_t key =
              keys[rng.NextBelow(keys.size() / kWriters) * kWriters + w];
          if (rng.NextBelow(5) == 0) {
            ASSERT_TRUE(handle->Remove(key).ok());
            last[w][key] = std::nullopt;
          } else {
            const uint64_t value = key << 32 | i;
            ASSERT_TRUE(handle->Put(key, value).ok());
            last[w][key] = value;
          }
        }
      }
      --writing;
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      auto handle = HtTree::Attach(clients[kWriters + r], &env.alloc(),
                                   map->header());
      ASSERT_TRUE(handle.ok());
      Rng rng(100 + r);
      while (writing.load() > 0) {
        const uint64_t key = keys[rng.NextBelow(keys.size())];
        const auto value = handle->Get(key);
        if (value.ok()) {
          ASSERT_EQ(*value >> 32, key);
        } else {
          ASSERT_EQ(value.status().code(), StatusCode::kNotFound);
        }
      }
      compactions += handle->op_stats().compactions;
    });
  }
  threads.emplace_back([&] {
    auto handle = HtTree::Attach(clients[kWriters + kReaders], &env.alloc(),
                                 map->header());
    ASSERT_TRUE(handle.ok());
    Rng rng(200);
    for (int splits = 0; splits < 6 && writing.load() > 0; ++splits) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      ASSERT_TRUE(handle->SplitTableOf(keys[rng.NextBelow(keys.size())]).ok());
    }
  });
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_GT(compactions.load(), 0u);
  for (const auto& owned : last) {
    for (const auto& [key, value] : owned) {
      const auto got = map->Get(key);
      if (value.has_value()) {
        ASSERT_TRUE(got.ok()) << "key " << key;
        EXPECT_EQ(*got, *value) << "key " << key;
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << "key " << key;
      }
    }
  }
}

TEST(HtTreeTest, StaleHandleBatchStaysBatched) {
  // A handle whose cached trie lags another handle's split reads the
  // retired sentinel in every bucket of its batch. The batch refreshes its
  // trie once and reads and publishes in waves; no key drops to a serial
  // store of its own.
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a = HtTree::Create(&a, &env.alloc(), SmallTables(64));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_a->SplitTableOf(1).ok());
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (uint64_t k = 1000; k < 1064; ++k) {
    keys.push_back(k);
    values.push_back(k * 3);
  }
  const uint64_t puts = map_b->op_stats().puts;
  const uint64_t before = b.stats().far_ops;
  ASSERT_TRUE(map_b->MultiPut(keys, values).ok());
  // Three doorbells (reads, reads of the fresh table, publish) plus a
  // four-access trie refresh, whatever the batch's size; one serial store
  // per key would cost well over 100.
  EXPECT_EQ(b.stats().far_ops - before, 7u);
  EXPECT_EQ(map_b->op_stats().puts - puts, keys.size());
  EXPECT_GE(map_b->op_stats().stale_refreshes, 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(*map_a->Get(keys[i]), values[i]) << "key " << keys[i];
  }
}

TEST(HtTreeTest, ShedItemWriteNeverPublishesItsSlot) {
  // A batched store posts its item write and bucket CAS in one doorbell.
  // When the node holding the writer's item slab sheds the write while the
  // bucket's node admits the CAS, the bucket must not link the unwritten
  // slot: every key behind it would become unreadable.
  TestEnv env(SmallFabric(2, 64ull << 20));
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  HtTree::Options options = SmallTables(64);
  options.placement = AllocHint::OnNode(0);
  auto map_a = HtTree::Create(&a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  for (uint64_t k = 1; k <= 20; ++k) {
    ASSERT_TRUE(map_a->Put(k, k * 10).ok());
  }
  options.placement = AllocHint::OnNode(1);
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header(), options);
  ASSERT_TRUE(map_b.ok());
  ASSERT_EQ(*map_b->Get(5), 50u);  // b now predicts that bucket's head
  CongestionOptions shed;
  shed.enabled = true;
  shed.queue_ops = 0;
  env.fabric().node(1).SetCongestion(shed);
  const uint64_t key = 5;
  const uint64_t value = 555;
  EXPECT_EQ(map_b
                ->MultiPut(std::span<const uint64_t>(&key, 1),
                           std::span<const uint64_t>(&value, 1))
                .code(),
            StatusCode::kOverloaded);
  for (uint64_t k = 1; k <= 20; ++k) {
    const auto got = map_a->Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, k * 10) << "key " << k;
  }
}

// A front end that holds four ops (the one in service included) and
// services one per `service_ns`.
CongestionOptions ShortQueue(uint64_t service_ns) {
  CongestionOptions congestion;
  congestion.enabled = true;
  congestion.service_ns = service_ns;
  congestion.queue_ops = 4;
  return congestion;
}

// A rival client's offered load at `now_ns`: ops until the node sheds one.
void Saturate(MemoryNode& node, uint64_t now_ns) {
  while (node.OfferLoad(now_ns, 1).admitted) {
  }
}

std::vector<uint64_t> KeyRange(uint64_t first, uint64_t count) {
  std::vector<uint64_t> keys(count);
  std::iota(keys.begin(), keys.end(), first);
  return keys;
}

// Runs one wave of `engine` through a doorbell; returns the ops it posted.
size_t RunOneWave(FarClient& client, HtTree::BatchPut& engine) {
  const size_t posted = engine.PostWave();
  std::vector<FarClient::Completion> done(client.pending_ops());
  (void)client.WaitAll(done);
  engine.AbsorbWave(done);
  return posted;
}

TEST(HtTreeTest, ShedDoorbellOpsRetryLikeSyncVerbs) {
  // A congested node sheds doorbell ops as it sheds sync verbs: a 64-key
  // MultiPut's waves, and a one-key store's publish doorbell when a rival
  // fills the queue between its head read and its publish. Under a
  // RetryPolicy with attempts to spare, each shed op backs off and is
  // offered again, and every store lands.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(1024));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 1).ok());  // warms the item slab
  MemoryNode& node = env.fabric().node(0);
  node.SetCongestion(ShortQueue(/*service_ns=*/20'000));
  client.set_retry_policy(
      RetryPolicy{.max_attempts = 8, .deadline_ns = 1'000'000});

  const std::vector<uint64_t> keys = KeyRange(100, 64);
  Saturate(node, client.clock().now_ns());
  ASSERT_TRUE(map->MultiPut(keys, keys).ok());
  EXPECT_GT(client.stats().overload_retries, 0u);

  uint64_t retries = client.stats().overload_retries;
  Saturate(node, client.clock().now_ns());
  ASSERT_TRUE(map->Put(2, 22).ok());
  EXPECT_GT(client.stats().overload_retries, retries);

  const uint64_t key = 3;
  const uint64_t value = 33;
  HtTree::BatchPut engine(&*map, std::span<const uint64_t>(&key, 1),
                          std::span<const uint64_t>(&value, 1), {}, nullptr);
  ASSERT_EQ(RunOneWave(client, engine), 1u);  // the head read
  Saturate(node, client.clock().now_ns());
  retries = client.stats().overload_retries;
  ASSERT_EQ(RunOneWave(client, engine), 2u);  // the write and the CAS
  EXPECT_GT(client.stats().overload_retries, retries);
  EXPECT_EQ(engine.PostWave(), 0u);
  ASSERT_TRUE(engine.Take().ok());
  EXPECT_EQ(client.stats().overload_failures, 0u);

  node.SetCongestion(CongestionOptions{});
  for (uint64_t k : keys) {
    ASSERT_EQ(*map->Get(k), k) << "key " << k;
  }
  EXPECT_EQ(*map->Get(2), 22u);
  EXPECT_EQ(*map->Get(3), 33u);
}

TEST(HtTreeTest, ShedDoorbellOpsWithoutRetriesChargeTheSyncBounce) {
  // With no retry to spare, a shed doorbell op fails kOverloaded after the
  // same bounce round trip a shed sync verb is charged: one far access and
  // one message each, and the clock moves by that bounce alone.
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables(1024));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 1).ok());
  MemoryNode& node = env.fabric().node(0);
  // Nothing drains while the test runs: every op past the queue is shed.
  node.SetCongestion(ShortQueue(/*service_ns=*/1'000'000'000));
  const uint64_t near_ns = env.fabric().options().latency.near_ns;
  struct Snapshot {
    uint64_t far, messages, near, failures, ns;
  };
  auto snap = [&] {
    const ClientStats& s = client.stats();
    return Snapshot{s.far_ops, s.messages, s.near_ops, s.overload_failures,
                    client.clock().now_ns()};
  };
  auto expect_bounces = [&](const Snapshot& before, uint64_t bounces,
                            uint64_t bounce_ns) {
    const Snapshot after = snap();
    EXPECT_EQ(after.far - before.far, bounces);
    EXPECT_EQ(after.messages - before.messages, bounces);
    EXPECT_EQ(after.failures - before.failures, bounces);
    EXPECT_EQ(after.ns - before.ns,
              bounces * bounce_ns + (after.near - before.near) * near_ns);
  };

  Saturate(node, client.clock().now_ns());
  Snapshot before = snap();
  EXPECT_EQ(client.ReadWord(map->header()).status().code(),
            StatusCode::kOverloaded);
  const uint64_t bounce_ns = snap().ns - before.ns;
  expect_bounces(before, 1, bounce_ns);

  // Each of the 64 head reads in the batch's first doorbell bounces once.
  const std::vector<uint64_t> keys = KeyRange(100, 64);
  before = snap();
  EXPECT_EQ(map->MultiPut(keys, keys).code(), StatusCode::kOverloaded);
  expect_bounces(before, keys.size(), bounce_ns);

  // A point Put's head read bounces like the sync verb it runs as.
  before = snap();
  EXPECT_EQ(map->Put(1, 2).code(), StatusCode::kOverloaded);
  expect_bounces(before, 1, bounce_ns);

  // A one-key store whose publish doorbell meets a full queue: the item
  // write bounces, and the CAS it guards never runs.
  node.SetCongestion(CongestionOptions{});
  node.SetCongestion(ShortQueue(/*service_ns=*/1'000'000'000));
  const uint64_t key = 1;
  const uint64_t value = 3;
  HtTree::BatchPut engine(&*map, std::span<const uint64_t>(&key, 1),
                          std::span<const uint64_t>(&value, 1), {}, nullptr);
  ASSERT_EQ(RunOneWave(client, engine), 1u);  // the head read
  Saturate(node, client.clock().now_ns());
  before = snap();
  ASSERT_EQ(RunOneWave(client, engine), 2u);  // the write and the CAS
  expect_bounces(before, 1, bounce_ns);
  EXPECT_EQ(engine.PostWave(), 0u);
  EXPECT_EQ(engine.Take().code(), StatusCode::kOverloaded);

  node.SetCongestion(CongestionOptions{});
  EXPECT_EQ(*map->Get(1), 1u);
  EXPECT_EQ(map->Get(100).status().code(), StatusCode::kNotFound);
}

// Property sweep: content matches a reference map across geometries.
class HtTreeParamTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {
 protected:
  // 3000 random Put/Remove/Get ops on keys 1..key_range, each through a
  // randomly chosen handle, checked against a reference map; then every
  // reference key is read back through every handle.
  static void CheckAgainstReference(std::span<HtTree* const> handles,
                                    uint64_t key_range, Rng& rng) {
    std::map<uint64_t, uint64_t> reference;
    for (int op = 0; op < 3000; ++op) {
      HtTree& map = *handles[handles.size() > 1
                                 ? rng.NextBelow(handles.size())
                                 : 0];
      const uint64_t key = rng.NextInRange(1, key_range);
      const int kind = static_cast<int>(rng.NextBelow(10));
      if (kind < 6) {  // put
        const uint64_t value = rng.Next() | 1;
        ASSERT_TRUE(map.Put(key, value).ok());
        reference[key] = value;
      } else if (kind < 8) {  // remove
        ASSERT_TRUE(map.Remove(key).ok());
        reference.erase(key);
      } else {  // get
        auto value = map.Get(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
        } else {
          ASSERT_TRUE(value.ok());
          EXPECT_EQ(*value, it->second);
        }
      }
    }
    // Final full validation.
    for (HtTree* map : handles) {
      for (const auto& [key, value] : reference) {
        EXPECT_EQ(*map->Get(key), value);
      }
    }
  }
};

TEST_P(HtTreeParamTest, MatchesReferenceMap) {
  const auto [buckets, depth] = GetParam();
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(),
                            SmallTables(buckets, depth));
  ASSERT_TRUE(map.ok());
  Rng rng(buckets * 31 + depth);
  HtTree* handles[] = {&*map};
  CheckAgainstReference(handles, 400, rng);
}

TEST_P(HtTreeParamTest, TwoHandlesMatchReferenceMap) {
  // Interleaving two handles on few keys makes stores read heads the other
  // handle wrote, so same-key replacement runs in every mix: value over
  // value, tombstone over value, and value over tombstone.
  const auto [buckets, depth] = GetParam();
  TestEnv env(BigFabric());
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto map_a =
      HtTree::Create(&a, &env.alloc(), SmallTables(buckets, depth));
  ASSERT_TRUE(map_a.ok());
  auto map_b = HtTree::Attach(&b, &env.alloc(), map_a->header());
  ASSERT_TRUE(map_b.ok());
  Rng rng(buckets * 37 + depth);
  HtTree* handles[] = {&*map_a, &*map_b};
  CheckAgainstReference(handles, 64, rng);
  // Same-key replacement ran: once a key heads its bucket, rewrites of it
  // that alternate between the handles link past its previous item and
  // never count as growth. Without it, each handle would cross its split
  // threshold (buckets / 2 growth stores per table) within this loop.
  constexpr uint64_t kKey = 1;
  ASSERT_TRUE(map_a->Put(kKey, 0).ok());
  const uint64_t splits = map_a->op_stats().splits + map_b->op_stats().splits;
  const uint64_t rewrites = 2 * (buckets / 2 + 1);
  for (uint64_t i = 1; i <= rewrites; ++i) {
    ASSERT_TRUE(handles[i % 2]->Put(kKey, i).ok());
  }
  EXPECT_EQ(map_a->op_stats().splits + map_b->op_stats().splits, splits);
  EXPECT_EQ(*map_a->Get(kKey), rewrites);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HtTreeParamTest,
    ::testing::Combine(::testing::Values<uint64_t>(8, 64, 512),
                       ::testing::Values<uint32_t>(0, 2)));

}  // namespace
}  // namespace fmds

// ShardedMap (§7 scale-out): routing, placement pinning, batched fan-out
// equivalence with the synchronous paths, and the fan-out accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/baselines/chained_hash.h"
#include "src/common/rng.h"
#include "src/core/blob_store.h"
#include "src/core/sharded_map.h"
#include "src/core/txn.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

TEST(ShardedMapTest, PointOpsRouteAndRoundTrip) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 64;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  for (uint64_t k = 1; k <= 500; ++k) {
    ASSERT_TRUE(map->Put(k, k * 11).ok());
  }
  for (uint64_t k = 1; k <= 500; ++k) {
    auto v = map->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(*v, k * 11);
  }
  ASSERT_TRUE(map->Remove(123).ok());
  EXPECT_EQ(map->Get(123).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(map->Get(501).ok());
  // 500 keys over 4 shards: every shard must have seen traffic.
  for (uint32_t s = 0; s < map->num_shards(); ++s) {
    EXPECT_GT(map->shard(s).op_stats().puts, 0u) << "shard " << s;
  }
}

TEST(ShardedMapTest, ShardsArePinnedOnePerNode) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 8;  // wraps: shard i on node i % 4
  options.shard.buckets_per_table = 64;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  for (uint32_t s = 0; s < map->num_shards(); ++s) {
    auto loc = env.fabric().Translate(map->shard(s).header());
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc->node, s % 4) << "shard " << s;
  }
}

TEST(ShardedMapTest, ShardBoundaryKeysSurvive) {
  // Extremes and near-boundary keys of the 64-bit key space, including the
  // values whose salted hashes land on every shard residue.
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 3;  // non-power-of-two on a 2-node fabric
  options.shard.buckets_per_table = 32;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  std::vector<uint64_t> keys{0,
                             1,
                             2,
                             UINT64_MAX,
                             UINT64_MAX - 1,
                             UINT64_MAX / 2,
                             UINT64_MAX / 2 + 1,
                             1ull << 63,
                             (1ull << 63) - 1};
  // Cover every shard explicitly.
  std::vector<bool> covered(map->num_shards(), false);
  for (uint64_t k = 100; covered != std::vector<bool>(map->num_shards(), true);
       ++k) {
    if (!covered[map->ShardOf(k)]) {
      covered[map->ShardOf(k)] = true;
      keys.push_back(k);
    }
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(map->Put(k, ~k).ok()) << "key " << k;
  }
  for (uint64_t k : keys) {
    auto v = map->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(*v, ~k);
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(map->Remove(k).ok()) << "key " << k;
    EXPECT_EQ(map->Get(k).status().code(), StatusCode::kNotFound);
  }
}

TEST(ShardedMapTest, MultiGetMatchesSyncGets) {
  // Equivalence property: for a random mix of present, absent, and removed
  // keys, the one-doorbell-per-wave MultiGet must agree with Get key by key.
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 64;  // small tables: chains and splits
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  Rng rng(42);
  for (uint64_t k = 1; k <= 800; ++k) {
    ASSERT_TRUE(map->Put(k, Mix64(k)).ok());
  }
  for (uint64_t k = 1; k <= 800; k += 7) {
    ASSERT_TRUE(map->Remove(k).ok());
  }
  std::vector<uint64_t> batch;
  for (int i = 0; i < 256; ++i) {
    batch.push_back(rng.NextInRange(1, 1000));  // some keys absent
  }
  auto batched = map->MultiGet(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto sync = map->Get(batch[i]);
    ASSERT_EQ(batched[i].ok(), sync.ok()) << "key " << batch[i];
    if (sync.ok()) {
      EXPECT_EQ(*batched[i], *sync) << "key " << batch[i];
    } else {
      EXPECT_EQ(batched[i].status().code(), sync.status().code());
    }
  }
}

TEST(ShardedMapTest, MultiPutMatchesSyncState) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 64;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (uint64_t k = 1; k <= 512; ++k) {
    keys.push_back(k);
    values.push_back(k * 2);
  }
  ASSERT_TRUE(map->MultiPut(keys, values).ok());
  for (uint64_t k = 1; k <= 512; ++k) {
    auto v = map->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(*v, k * 2);
  }
  // Overwrites through a second batch win over the first.
  for (auto& v : values) {
    v += 1000000;
  }
  ASSERT_TRUE(map->MultiPut(keys, values).ok());
  for (uint64_t k = 1; k <= 512; ++k) {
    EXPECT_EQ(*map->Get(k), k * 2 + 1000000);
  }
  EXPECT_FALSE(map->MultiPut(keys, std::span<const uint64_t>(values)
                                       .subspan(0, 3))
                   .ok());
}

TEST(ShardedMapTest, SameBucketDuplicatesInOneBatchResolve) {
  // Duplicate keys inside one MultiPut collide on the bucket CAS; the loser
  // must fall back and the final value must be one of the two written.
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 2;
  options.shard.buckets_per_table = 32;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  const std::vector<uint64_t> keys{9, 9, 9, 10, 10};
  const std::vector<uint64_t> values{1, 2, 3, 4, 5};
  ASSERT_TRUE(map->MultiPut(keys, values).ok());
  auto v9 = map->Get(9);
  ASSERT_TRUE(v9.ok());
  EXPECT_TRUE(*v9 == 1 || *v9 == 2 || *v9 == 3);
  auto v10 = map->Get(10);
  ASSERT_TRUE(v10.ok());
  EXPECT_TRUE(*v10 == 4 || *v10 == 5);
}

TEST(ShardedMapTest, FanOutAccountingSpansNodes) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 256;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (uint64_t k = 1; k <= 64; ++k) {
    keys.push_back(k);
    values.push_back(k);
  }
  ASSERT_TRUE(map->MultiPut(keys, values).ok());
  const ClientStats before = client.stats();
  for (auto& r : map->MultiGet(keys)) {
    ASSERT_TRUE(r.ok());
  }
  const ClientStats delta = client.stats().Delta(before);
  // 64 keys over 4 pinned shards: the probe wave spans all 4 nodes in one
  // doorbell, overlapping 3 node round trips.
  EXPECT_GT(delta.fanout_batches, 0u);
  EXPECT_GE(delta.cross_node_rtts_saved, 3u);
  // Spanning nodes does not add waited round trips per key.
  EXPECT_LT(static_cast<double>(delta.far_ops) / keys.size(), 1.0);
}

TEST(ShardedMapTest, AttachSeesExistingData) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& writer = env.NewClient();
  auto& reader = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 64;
  auto map_w = ShardedMap::Create(&writer, &env.alloc(), options);
  ASSERT_TRUE(map_w.ok());
  for (uint64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(map_w->Put(k, k + 7).ok());
  }
  auto map_r = ShardedMap::Attach(&reader, &env.alloc(), map_w->directory());
  ASSERT_TRUE(map_r.ok());
  EXPECT_EQ(map_r->num_shards(), 4u);
  for (uint64_t k = 1; k <= 200; ++k) {
    auto v = map_r->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(*v, k + 7);
  }
  std::vector<uint64_t> batch{1, 50, 100, 150, 200, 999};
  auto results = map_r->MultiGet(batch);
  for (size_t i = 0; i + 1 < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(*results[i], batch[i] + 7);
  }
  EXPECT_EQ(results.back().status().code(), StatusCode::kNotFound);
}

TEST(ShardedMapTest, ConcurrentBatchedWritersStayConsistent) {
  // Two clients, disjoint key ranges, concurrent MultiPut waves through the
  // same far directory — then each side batch-reads the other's range.
  // Exercises the engines under real thread interleavings (sanitizer runs).
  TestEnv env(SmallFabric(4, 32ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 128;
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  auto map_b = ShardedMap::Attach(&client_b, &env.alloc(),
                                  map_a->directory());
  ASSERT_TRUE(map_b.ok());

  constexpr uint64_t kPerWriter = 600;
  const auto writer = [](ShardedMap* map, uint64_t base) {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> values;
    for (uint64_t k = base; k < base + kPerWriter; ++k) {
      keys.push_back(k);
      values.push_back(k * 3);
      if (keys.size() == 64) {
        ASSERT_TRUE(map->MultiPut(keys, values).ok());
        keys.clear();
        values.clear();
      }
    }
    if (!keys.empty()) {
      ASSERT_TRUE(map->MultiPut(keys, values).ok());
    }
  };
  std::thread ta(writer, &*map_a, 1);
  std::thread tb(writer, &*map_b, 1 + kPerWriter);
  ta.join();
  tb.join();

  const auto check = [](ShardedMap* map, uint64_t base) {
    std::vector<uint64_t> keys;
    for (uint64_t k = base; k < base + kPerWriter; ++k) {
      keys.push_back(k);
    }
    auto results = map->MultiGet(keys);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "key " << keys[i];
      EXPECT_EQ(*results[i], keys[i] * 3);
    }
  };
  std::thread ra(check, &*map_a, 1 + kPerWriter);  // A reads B's range
  std::thread rb(check, &*map_b, 1);               // B reads A's range
  ra.join();
  rb.join();
}

TEST(ShardedMapTest, BatchAccountingIsPinned) {
  // The batched counterpart of HtTreeTest.PointOpAccountingIsPinned: a
  // fixed-seed script of doorbell paths through two handles on two clients
  // over four pinned shards. MultiPut, MultiGet and MultiWrite (tombstones,
  // outcomes) waves with growth splits; a forced split on one handle whose
  // stale refresh the other handle's MultiGet fetches level by level; a
  // transaction whose read set comes from Txn::MultiGet; and the
  // ChainedHash and HtBlobStore MultiGets. Every far access, near access,
  // byte, doorbell and simulated nanosecond of it is pinned.
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  options.shard.buckets_per_table = 64;
  options.shard.max_chain = 4;
  auto map_a = ShardedMap::Create(&a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  auto map_b =
      ShardedMap::Attach(&b, &env.alloc(), map_a->directory(), options);
  ASSERT_TRUE(map_b.ok());
  Rng rng(20261019);
  auto draw = [&rng](size_t n) {
    std::vector<uint64_t> keys(n);
    for (uint64_t& key : keys) {
      key = rng.NextInRange(1, 400);
    }
    return keys;
  };
  for (int round = 0; round < 6; ++round) {
    ShardedMap& map = (round % 2 == 0) ? *map_a : *map_b;
    const std::vector<uint64_t> put_keys = draw(48);
    ASSERT_TRUE(map.MultiPut(put_keys, draw(48)).ok());
    for (const auto& r : map.MultiGet(draw(32))) {
      ASSERT_TRUE(r.ok() || r.status().code() == StatusCode::kNotFound);
    }
    const std::vector<uint64_t> write_keys = draw(40);
    std::vector<uint8_t> tombstones(write_keys.size());
    for (uint8_t& tombstone : tombstones) {
      tombstone = rng.NextBool(0.25) ? 1 : 0;
    }
    std::vector<WriteOutcome> outcomes;
    ASSERT_TRUE(
        map.MultiWrite(write_keys, draw(40), tombstones, &outcomes).ok());
    ASSERT_EQ(outcomes.size(), write_keys.size());
  }

  const uint64_t split_key = rng.NextInRange(1, 400);
  HtTree& shard_b = map_b->shard(map_b->ShardOf(split_key));
  const uint64_t stale_before = shard_b.op_stats().stale_refreshes;
  ASSERT_TRUE(
      map_a->shard(map_a->ShardOf(split_key)).SplitTableOf(split_key).ok());
  std::vector<uint64_t> lookups = draw(24);
  lookups.push_back(split_key);
  for (const auto& r : map_b->MultiGet(lookups)) {
    ASSERT_TRUE(r.ok() || r.status().code() == StatusCode::kNotFound);
  }
  EXPECT_GT(shard_b.op_stats().stale_refreshes, stale_before);

  Txn txn(&*map_a);
  for (const auto& r : txn.MultiGet(draw(12))) {
    ASSERT_TRUE(r.ok() || r.status().code() == StatusCode::kNotFound);
  }
  ASSERT_TRUE(txn.Put(rng.NextInRange(1, 400), 7).ok());
  ASSERT_TRUE(txn.Put(rng.NextInRange(1, 400), 8).ok());
  ASSERT_TRUE(txn.Commit().ok());

  ChainedHash::Options chained_options;
  chained_options.buckets = 32;  // load factor forces chains
  auto chained = ChainedHash::Create(&b, &env.alloc(), chained_options);
  ASSERT_TRUE(chained.ok());
  for (uint64_t k = 1; k <= 120; ++k) {
    ASSERT_TRUE(chained->Put(k, k + 5).ok());
  }
  std::vector<uint64_t> chained_keys = draw(20);
  for (uint64_t& key : chained_keys) {
    key = key % 140 + 1;  // hits and misses
  }
  for (const auto& r : chained->MultiGet(chained_keys)) {
    ASSERT_TRUE(r.ok() || r.status().code() == StatusCode::kNotFound);
  }

  ShardedMap::Options blob_options = options;
  auto blobs = HtBlobStore::CreateSharded(&a, &env.alloc(), blob_options);
  ASSERT_TRUE(blobs.ok());
  std::vector<uint64_t> blob_keys;
  for (uint64_t k = 1; k <= 12; ++k) {
    // Every fourth value outgrows the speculative first fetch.
    const size_t len = (k % 4 == 0) ? HtBlobStore::kInlineFetch + 40 : 24 * k;
    std::vector<std::byte> value(len, static_cast<std::byte>(k));
    ASSERT_TRUE(blobs->Put(k, value).ok());
    blob_keys.push_back(k);
  }
  blob_keys.push_back(99);  // absent
  for (const auto& r : blobs->MultiGet(blob_keys)) {
    ASSERT_TRUE(r.ok() || r.status().code() == StatusCode::kNotFound);
  }

  using Counts = std::vector<uint64_t>;
  auto client_counts = [](FarClient& c) {
    const ClientStats& s = c.stats();
    return Counts{s.far_ops,     s.messages,      s.near_ops,
                  s.bytes_read,  s.bytes_written, s.batches,
                  s.batched_ops, c.clock().now_ns()};
  };
  EXPECT_EQ(client_counts(a), (Counts{251, 1686, 1912, 32648, 32248, 60,
                                      1040, 463076}));
  EXPECT_EQ(client_counts(b), (Counts{513, 1674, 2082, 24984, 20640, 50,
                                      1090, 714762}));
}

}  // namespace
}  // namespace fmds

// Optimistic multi-key transactions (src/core/txn.*): commit semantics,
// conflict detection, the NearCache fast paths (cached txn reads still
// validate; writer-side refills cost zero far accesses), and splits racing
// in-flight transactions.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/sharded_map.h"
#include "src/core/txn.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

ShardedMap::Options SmallMapOptions(uint32_t shards = 4) {
  ShardedMap::Options options;
  options.num_shards = shards;
  options.shard.buckets_per_table = 64;
  return options;
}

TEST(TxnTest, ReadYourWritesAndRepeatableReads) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 100).ok());

  Txn txn(&*map);
  auto v = txn.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 100u);
  ASSERT_TRUE(txn.Put(1, 200).ok());
  // Buffered write is visible inside the txn ...
  EXPECT_EQ(*txn.Get(1), 200u);
  // ... and invisible outside until commit.
  EXPECT_EQ(*map->Get(1), 100u);
  ASSERT_TRUE(txn.Remove(1).ok());
  EXPECT_EQ(txn.Get(1).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(txn.Put(1, 300).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(*map->Get(1), 300u);
}

TEST(TxnTest, ReadGivingUpOnFrozenBucketLeavesNoRetiredHint) {
  // A txn read that gives up on a frozen table nobody republishes (its
  // splitter stalled) must not leave the retired sentinel as the shard's
  // CAS prediction for that bucket, or the next Put "succeeds" into the
  // dead table.
  TestEnv env(SmallFabric(1, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions(1));
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kKey = 5;
  ASSERT_TRUE(map->Put(kKey, 50).ok());
  // Far layout (ht_tree.h): header word 0 is the trie root, here the only
  // leaf, whose word 8 is its table; header word 24 is the map's retired
  // sentinel; the bucket array follows the 48-byte table header.
  const FarAddr header = map->shard(0).header();
  const FarAddr root = *client.ReadWord(header);
  const FarAddr table = *client.ReadWord(root + 8);
  const FarAddr retired = *client.ReadWord(header + 24);
  const FarAddr bucket = table + 48 + (Mix64(kKey) % 64) * kWordSize;
  const uint64_t head = *client.ReadWord(bucket);
  ASSERT_EQ(*client.CompareSwap(bucket, head, retired), head);
  Txn txn(&*map);
  EXPECT_FALSE(txn.Get(kKey).ok());
  EXPECT_FALSE(map->Put(kKey, 51).ok());
  EXPECT_EQ(*client.ReadWord(bucket), retired)
      << "the Put landed in the frozen table";
}

TEST(TxnTest, ShedBodyWriteNeverPublishesItsBucketCas) {
  // A commit posts item (and lock-record) bodies and the bucket CAS that
  // links them in one doorbell. When the node holding this handle's item
  // slab sheds the bodies while the bucket's node admits the CAS, the
  // bucket must not link slots that were never written — neither on the
  // one-bucket fast path nor in the prepare round.
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  ShardedMap::Options options = SmallMapOptions(1);  // pinned to node 0
  auto map_a = ShardedMap::Create(&a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  for (uint64_t k = 1; k <= 20; ++k) {
    ASSERT_TRUE(map_a->Put(k, k * 10).ok());
  }
  options.pin_shards = false;
  options.shard.placement = AllocHint::OnNode(1);  // b's item slab
  auto map_b =
      ShardedMap::Attach(&b, &env.alloc(), map_a->directory(), options);
  ASSERT_TRUE(map_b.ok());
  uint64_t other = 4;  // a key in another bucket than key 3
  while (Mix64(other) % 64 == Mix64(3) % 64) {
    ++other;
  }
  ASSERT_TRUE(map_b->Put(other, 1).ok());  // b's slab exists before the shed
  CongestionOptions shed;
  shed.enabled = true;
  shed.queue_ops = 0;
  env.fabric().node(1).SetCongestion(shed);
  {
    Txn fast(&*map_b);  // one write bucket, no other read: fast path
    ASSERT_TRUE(fast.Put(3, 33).ok());
    EXPECT_FALSE(fast.Commit().ok());
  }
  {
    Txn prepared(&*map_b);  // two write buckets: prepare round
    ASSERT_TRUE(prepared.Put(3, 34).ok());
    ASSERT_TRUE(prepared.Put(other, 2).ok());
    EXPECT_FALSE(prepared.Commit().ok());
  }
  env.fabric().node(1).SetCongestion(CongestionOptions{});
  for (uint64_t k = 1; k <= 20; ++k) {
    const auto got = map_a->Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, k == other ? 1 : k * 10) << "key " << k;
  }
}

TEST(TxnTest, ShedValidateReadRollsBackPreparedBuckets) {
  // The txn reads a key on shard 1 (node 1) and writes one on shard 0
  // (node 0): round P locks the write bucket on node 0, then node 1 sheds
  // round V's validate read. The commit fails, and the lock record it left
  // must be rolled back — pending words are owner-only, so nobody else
  // could ever clear it.
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions(2));
  ASSERT_TRUE(map.ok());
  uint64_t read_key = 1;
  while (map->ShardOf(read_key) != 1) {
    ++read_key;
  }
  uint64_t write_key = 1;
  while (map->ShardOf(write_key) != 0) {
    ++write_key;
  }
  ASSERT_TRUE(map->Put(read_key, 10).ok());
  ASSERT_TRUE(map->Put(write_key, 20).ok());
  {
    Txn txn(&*map);
    ASSERT_TRUE(txn.Get(read_key).ok());
    ASSERT_TRUE(txn.Put(write_key, 21).ok());
    CongestionOptions shed;
    shed.enabled = true;
    shed.queue_ops = 0;
    env.fabric().node(1).SetCongestion(shed);
    EXPECT_EQ(txn.Commit().code(), StatusCode::kOverloaded);
    env.fabric().node(1).SetCongestion(CongestionOptions{});
  }
  // The write bucket is clean again: a plain store, a txn store and a
  // lookup all go through.
  const Status put = map->Put(write_key, 22);
  ASSERT_TRUE(put.ok()) << put.ToString();
  EXPECT_EQ(*map->Get(write_key), 22u);
  Txn txn(&*map);
  const Status txn_put = txn.Put(write_key, 23);
  ASSERT_TRUE(txn_put.ok()) << txn_put.ToString();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(*map->Get(write_key), 23u);
}

TEST(TxnTest, NegativeReadsAreRecordedAndPublishable) {
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions(2));
  ASSERT_TRUE(map.ok());

  Txn txn(&*map);
  EXPECT_EQ(txn.Get(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(txn.read_set_size(), 1u);  // a miss is an observation
  ASSERT_TRUE(txn.Put(42, 7).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(*map->Get(42), 7u);

  // Remove through a txn leaves a tombstone readers observe as NotFound.
  Txn txn2(&*map);
  ASSERT_TRUE(txn2.Remove(42).ok());
  ASSERT_TRUE(txn2.Commit().ok());
  EXPECT_EQ(map->Get(42).status().code(), StatusCode::kNotFound);
}

TEST(TxnTest, MultiKeyCommitAcrossShardsIsAtomic) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions());
  ASSERT_TRUE(map.ok());
  // Pick keys that land on distinct shards so the commit exercises the
  // two-round pending-lock path across nodes.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < 4; ++k) {
    bool dup = false;
    for (uint64_t other : keys) {
      dup |= map->ShardOf(other) == map->ShardOf(k);
    }
    if (!dup) {
      keys.push_back(k);
    }
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(map->Put(k, 1000).ok());
  }

  const ClientStats before = client.stats();
  Txn txn(&*map);
  for (uint64_t k : keys) {
    ASSERT_TRUE(txn.Get(k).ok());
    ASSERT_TRUE(txn.Put(k, 2000 + k).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  const ClientStats delta = client.stats().Delta(before);
  EXPECT_EQ(delta.txn_commits, 1u);
  EXPECT_EQ(delta.txn_aborts, 0u);
  for (uint64_t k : keys) {
    EXPECT_EQ(*map->Get(k), 2000 + k);
  }
}

TEST(TxnTest, MultiGetMatchesGetAndJoinsTheReadSet) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions());
  ASSERT_TRUE(map.ok());
  for (uint64_t k = 1; k <= 64; ++k) {
    ASSERT_TRUE(map->Put(k, k * 3).ok());
  }
  std::vector<uint64_t> batch{1, 17, 33, 64, 999, 17};  // dup + absent
  Txn txn(&*map);
  ASSERT_TRUE(txn.Put(33, 5555).ok());  // buffered write shadows far state
  auto results = txn.MultiGet(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(*results[0], 3u);
  EXPECT_EQ(*results[1], 51u);
  EXPECT_EQ(*results[2], 5555u);  // read-your-writes through the batch
  EXPECT_EQ(*results[3], 192u);
  EXPECT_EQ(results[4].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*results[5], 51u);
  EXPECT_GE(txn.read_set_size(), 4u);  // batch reads are validated too
  ASSERT_TRUE(txn.Commit().ok());
}

TEST(TxnTest, WriteConflictAbortsLoser) {
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), SmallMapOptions(2));
  ASSERT_TRUE(map_a.ok());
  auto map_b =
      ShardedMap::Attach(&client_b, &env.alloc(), map_a->directory());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_a->Put(5, 1).ok());

  Txn txn_a(&*map_a);
  Txn txn_b(&*map_b);
  ASSERT_TRUE(txn_a.Get(5).ok());
  ASSERT_TRUE(txn_b.Get(5).ok());
  ASSERT_TRUE(txn_a.Put(5, 10).ok());
  ASSERT_TRUE(txn_b.Put(5, 20).ok());
  ASSERT_TRUE(txn_a.Commit().ok());
  Status s = txn_b.Commit();
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_TRUE(txn_b.aborted());
  EXPECT_EQ(*map_a->Get(5), 10u);
  EXPECT_EQ(client_b.stats().txn_aborts, 1u);
}

TEST(TxnTest, ReadOnlySnapshotAbortsWhenAKeyMoves) {
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), SmallMapOptions(2));
  ASSERT_TRUE(map_a.ok());
  auto map_b =
      ShardedMap::Attach(&client_b, &env.alloc(), map_a->directory());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_a->Put(1, 100).ok());
  ASSERT_TRUE(map_a->Put(2, 200).ok());

  // Untouched snapshot commits.
  Txn quiet(&*map_a);
  ASSERT_TRUE(quiet.Get(1).ok());
  ASSERT_TRUE(quiet.Get(2).ok());
  EXPECT_TRUE(quiet.Commit().ok());

  // A write landing between the reads and the commit aborts the snapshot.
  Txn txn(&*map_a);
  ASSERT_TRUE(txn.Get(1).ok());
  ASSERT_TRUE(txn.Get(2).ok());
  ASSERT_TRUE(map_b->Put(2, 999).ok());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  EXPECT_GE(client_a.stats().txn_validate_fails, 1u);
}

TEST(TxnTest, AbortedCommitPublishesNothing) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), SmallMapOptions());
  ASSERT_TRUE(map_a.ok());
  auto map_b =
      ShardedMap::Attach(&client_b, &env.alloc(), map_a->directory());
  ASSERT_TRUE(map_b.ok());
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < 3; ++k) {
    bool dup = false;
    for (uint64_t other : keys) {
      dup |= map_a->ShardOf(other) == map_a->ShardOf(k);
    }
    if (!dup) {
      keys.push_back(k);
    }
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(map_a->Put(k, 1).ok());
  }

  // The txn reads all three keys and writes two of them; the conflicting
  // write lands on the *read-only* key, so the multi-bucket prepare
  // succeeds and the abort must roll the pending locks back.
  Txn txn(&*map_a);
  for (uint64_t k : keys) {
    ASSERT_TRUE(txn.Get(k).ok());
  }
  ASSERT_TRUE(txn.Put(keys[0], 7).ok());
  ASSERT_TRUE(txn.Put(keys[1], 8).ok());
  ASSERT_TRUE(map_b->Put(keys[2], 500).ok());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  // Nothing from the txn leaked; the rolled-back buckets still work.
  EXPECT_EQ(*map_a->Get(keys[0]), 1u);
  EXPECT_EQ(*map_a->Get(keys[1]), 1u);
  EXPECT_EQ(*map_a->Get(keys[2]), 500u);
  ASSERT_TRUE(map_a->Put(keys[0], 11).ok());
  EXPECT_EQ(*map_a->Get(keys[0]), 11u);
}

TEST(TxnTest, RunTxnRetriesThroughInterference) {
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), SmallMapOptions(2));
  ASSERT_TRUE(map_a.ok());
  auto map_b =
      ShardedMap::Attach(&client_b, &env.alloc(), map_a->directory());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_a->Put(1, 500).ok());
  ASSERT_TRUE(map_a->Put(2, 500).ok());

  // Two threads transfer in opposite directions; every attempt is an RMW
  // txn, so the 1000-unit total is conserved no matter who aborts whom.
  const auto transfer = [](ShardedMap* map, uint64_t from, uint64_t to,
                           int rounds) {
    TxnOptions options;
    options.max_attempts = 256;
    options.backoff_base_us = 5;
    options.seed = from * 1000 + to;
    for (int i = 0; i < rounds; ++i) {
      Status s = RunTxn(map, options, [&](Txn& txn) -> Status {
        FMDS_ASSIGN_OR_RETURN(uint64_t src, txn.Get(from));
        FMDS_ASSIGN_OR_RETURN(uint64_t dst, txn.Get(to));
        if (src == 0) {
          return OkStatus();  // nothing to move
        }
        FMDS_RETURN_IF_ERROR(txn.Put(from, src - 1));
        FMDS_RETURN_IF_ERROR(txn.Put(to, dst + 1));
        return OkStatus();
      });
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  };
  std::thread ta(transfer, &*map_a, 1, 2, 50);
  std::thread tb(transfer, &*map_b, 2, 1, 50);
  ta.join();
  tb.join();
  EXPECT_EQ(*map_a->Get(1) + *map_a->Get(2), 1000u);
  // Both sides committed all their rounds.
  EXPECT_EQ(client_a.stats().txn_commits + client_b.stats().txn_commits,
            100u);
}

TEST(TxnTest, DeadHandleRejectsEverything) {
  TestEnv env(SmallFabric(1, 8ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions(1));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 1).ok());
  Txn txn(&*map);
  ASSERT_TRUE(txn.Put(1, 2).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(txn.Get(1).ok());
  EXPECT_FALSE(txn.Put(1, 3).ok());
}

// ---- Satellite: cached txn reads still validate ----

TEST(TxnCacheTest, CachedReadRecordsWatchWordAndAbortsOnConflict) {
  TestEnv env(SmallFabric(1, 16ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  ShardedMap::Options options = SmallMapOptions(1);
  options.shard.cache.budget_bytes = 64 << 10;
  options.shard.cache.admit_after = 1;
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  auto map_b = ShardedMap::Attach(&client_b, &env.alloc(),
                                  map_a->directory());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_a->Put(1, 100).ok());
  ASSERT_TRUE(*map_a->Get(1) == 100u);  // admit into A's NearCache
  ASSERT_TRUE(*map_a->Get(1) == 100u);  // warm: hits from here on

  // The txn read is served from near memory — zero far accesses — yet it
  // must still join the read set under the entry's watched head word.
  const ClientStats before = client_a.stats();
  Txn txn(&*map_a);
  auto v = txn.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 100u);
  EXPECT_EQ(client_a.stats().Delta(before).far_ops, 0u)
      << "cached txn read must not pay a round trip";
  EXPECT_EQ(txn.read_set_size(), 1u);

  // A conflicting write through another handle swings the bucket word; the
  // commit's validation round must observe it and abort, even though this
  // client never dispatched the invalidation notification.
  ASSERT_TRUE(map_b->Put(1, 999).ok());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  EXPECT_GE(client_a.stats().txn_validate_fails, 1u);
}

TEST(TxnCacheTest, CachedReadCommitsWhenUnchanged) {
  TestEnv env(SmallFabric(1, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options = SmallMapOptions(1);
  options.shard.cache.budget_bytes = 64 << 10;
  options.shard.cache.admit_after = 1;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 100).ok());
  ASSERT_TRUE(map->Get(1).ok());
  Txn txn(&*map);
  ASSERT_TRUE(txn.Get(1).ok());
  ASSERT_TRUE(txn.Put(2, 7).ok());
  EXPECT_TRUE(txn.Commit().ok()) << "quiet cached read must validate clean";
  EXPECT_EQ(*map->Get(2), 7u);
}

// ---- Satellite: writer-side cache refill ----

TEST(TxnCacheTest, PutRefillsCacheWithZeroExtraFarOps) {
  TestEnv env(SmallFabric(1, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options = SmallMapOptions(1);
  options.shard.cache.budget_bytes = 64 << 10;
  options.shard.cache.admit_after = 1;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 100).ok());
  ASSERT_TRUE(map->Get(1).ok());  // admit (pays the subscribe round trip)

  // A store is exactly 2 far accesses (item write + bucket CAS); the refill
  // that keeps the cache warm must add none.
  const ClientStats before = client.stats();
  ASSERT_TRUE(map->Put(1, 200).ok());
  EXPECT_EQ(client.stats().Delta(before).far_ops, 2u)
      << "writer-side refill must be free";

  // The refilled entry survives the echo of the writer's own CAS (the
  // notification's word matches the fill word) and serves the next read
  // with zero far accesses.
  const ClientStats mid = client.stats();
  auto v = map->Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 200u);
  EXPECT_EQ(client.stats().Delta(mid).far_ops, 0u)
      << "read-after-write should hit the refilled entry";
  NearCache* cache = map->shard(0).near_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->stats().writer_refills, 1u);
  EXPECT_GE(cache->stats().word_confirms, 1u)
      << "the CAS echo must confirm, not kill, the refilled entry";
}

TEST(TxnCacheTest, CrossClientWriteStillInvalidatesRefilledEntry) {
  // Word-versioned keep-alive must not weaken cross-client coherence: a
  // *different* client's write carries a different head word, so the
  // notification still kills the entry.
  TestEnv env(SmallFabric(1, 16ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  ShardedMap::Options options = SmallMapOptions(1);
  options.shard.cache.budget_bytes = 64 << 10;
  options.shard.cache.admit_after = 1;
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  auto map_b = ShardedMap::Attach(&client_b, &env.alloc(),
                                  map_a->directory());
  ASSERT_TRUE(map_b.ok());
  ASSERT_TRUE(map_a->Put(1, 100).ok());
  ASSERT_TRUE(map_a->Get(1).ok());      // admit
  ASSERT_TRUE(map_a->Put(1, 200).ok()); // refill keeps it warm
  ASSERT_TRUE(map_b->Put(1, 300).ok()); // foreign write
  auto v = map_a->Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 300u) << "foreign write must invalidate the refilled entry";
}

// ---- Satellite: splits racing in-flight transactions ----

TEST(TxnSplitTest, SplitOfReadSetBucketAbortsTxn) {
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions(2));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 100).ok());
  ASSERT_TRUE(map->Put(2, 200).ok());

  Txn txn(&*map);
  ASSERT_TRUE(txn.Get(1).ok());
  ASSERT_TRUE(txn.Put(2, 777).ok());
  // A split freezes every bucket of key 1's table to the retired sentinel —
  // the recorded word is gone no matter which bucket held it.
  ASSERT_TRUE(map->shard(map->ShardOf(1)).SplitTableOf(1).ok());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  EXPECT_EQ(*map->Get(1), 100u);
  EXPECT_EQ(*map->Get(2), 200u) << "aborted write must not surface";
}

TEST(TxnSplitTest, SplitOfWriteSetBucketAbortsTxnCleanly) {
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallMapOptions(2));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(1, 100).ok());

  Txn txn(&*map);
  ASSERT_TRUE(txn.Get(1).ok());
  ASSERT_TRUE(txn.Put(1, 777).ok());
  ASSERT_TRUE(map->shard(map->ShardOf(1)).SplitTableOf(1).ok());
  // Prepare CASes against the retired table and mispredicts.
  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  EXPECT_GE(client.stats().txn_prepare_fails + client.stats().txn_validate_fails,
            1u);
  // The map is fully usable afterwards and a retry lands in the new table.
  EXPECT_EQ(*map->Get(1), 100u);
  TxnOptions retry;
  ASSERT_TRUE(RunTxn(&*map, retry, [](Txn& t) -> Status {
                return t.Put(1, 888);
              }).ok());
  EXPECT_EQ(*map->Get(1), 888u);
}

TEST(TxnSplitTest, RandomizedSplitsNeverCorruptCommittedState) {
  // Transactions RMW-increment a counter key while a second thread keeps
  // splitting the tables under them. Every committed increment must stick.
  TestEnv env(SmallFabric(2, 32ull << 20));
  auto& client_a = env.NewClient();
  auto& client_b = env.NewClient();
  ShardedMap::Options options = SmallMapOptions(2);
  options.shard.buckets_per_table = 16;  // small tables: cheap splits
  auto map_a = ShardedMap::Create(&client_a, &env.alloc(), options);
  ASSERT_TRUE(map_a.ok());
  auto map_b = ShardedMap::Attach(&client_b, &env.alloc(), map_a->directory(),
                                  options);
  ASSERT_TRUE(map_b.ok());
  constexpr uint64_t kKeys = 4;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(map_a->Put(k, 0).ok());
  }

  constexpr int kRounds = 40;
  std::thread incrementer([&] {
    TxnOptions topt;
    topt.max_attempts = 512;
    topt.backoff_base_us = 5;
    for (int i = 0; i < kRounds; ++i) {
      Status s = RunTxn(&*map_a, topt, [&](Txn& txn) -> Status {
        for (uint64_t k = 0; k < kKeys; ++k) {
          FMDS_ASSIGN_OR_RETURN(uint64_t v, txn.Get(k));
          FMDS_RETURN_IF_ERROR(txn.Put(k, v + 1));
        }
        return OkStatus();
      });
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  });
  std::thread splitter([&] {
    Rng rng(77);
    for (int i = 0; i < 12; ++i) {
      const uint64_t k = rng.NextBelow(kKeys);
      Status s = map_b->shard(map_b->ShardOf(k)).SplitTableOf(k);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  });
  incrementer.join();
  splitter.join();
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto v = map_a->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(*v, static_cast<uint64_t>(kRounds)) << "key " << k;
  }
}

}  // namespace
}  // namespace fmds

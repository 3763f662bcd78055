// Write-behind dataplane (DESIGN.md §11): equivalence against a shadow
// map, read-your-writes via the pending table, FlushBarrier ordering,
// combining under concurrent CAS retries, background eviction vs
// invalidation races, the Txn drain interop, and exact replay of a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cache/bg_evictor.h"
#include "src/common/rng.h"
#include "src/core/sharded_map.h"
#include "src/core/txn.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

FabricOptions BigFabric(uint32_t nodes = 1) {
  return SmallFabric(nodes, 256ull << 20);
}

HtTree::Options SmallTables(uint64_t buckets = 256) {
  HtTree::Options options;
  options.buckets_per_table = buckets;
  options.max_chain = 4;
  return options;
}

// Write-behind knobs that keep everything staged until a barrier: the
// table never reaches max_pending (twice max_batch) in these tests, and the
// flush interval is 1000 simulated seconds.
WriteBehindOptions ManualFlush(size_t max_batch = 1 << 20) {
  WriteBehindOptions wb;
  wb.max_batch = max_batch;
  wb.max_pending = max_batch * 2;
  wb.flush_interval_us = 1000ull * 1000 * 1000;
  return wb;
}

TEST(WriteBehindTest, ReadYourWritesCostsZeroFarOps) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->EnableWriteBehind(ManualFlush()).ok());

  const uint64_t before = client.stats().far_ops;
  ASSERT_TRUE(map->Put(1, 100).ok());
  EXPECT_EQ(*map->Get(1), 100u) << "pending table serves the staged write";
  ASSERT_TRUE(map->Put(1, 200).ok());
  EXPECT_EQ(*map->Get(1), 200u) << "newer staged write shadows the older";
  ASSERT_TRUE(map->Remove(1).ok());
  EXPECT_EQ(map->Get(1).status().code(), StatusCode::kNotFound)
      << "pending tombstone reads as absent";
  EXPECT_EQ(client.stats().far_ops - before, 0u)
      << "the app thread never paid a round trip pre-barrier";
  EXPECT_GT(client.stats().writes_combined, 0u);
}

TEST(WriteBehindTest, FlushBarrierPublishesToOtherClients) {
  TestEnv env(BigFabric());
  auto& writer = env.NewClient();
  auto& reader = env.NewClient();
  auto map = HtTree::Create(&writer, &env.alloc(), SmallTables());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->EnableWriteBehind(ManualFlush()).ok());

  for (uint64_t k = 1; k <= 64; ++k) {
    ASSERT_TRUE(map->Put(k, k * 10).ok());
  }
  ASSERT_TRUE(map->FlushBarrier().ok());

  auto view = HtTree::Attach(&reader, &env.alloc(), map->header(),
                             SmallTables());
  ASSERT_TRUE(view.ok());
  for (uint64_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(*view->Get(k), k * 10) << "key " << k;
  }
  // The pipeline stages ran on the flusher's client, not the app's.
  ASSERT_NE(map->write_behind(), nullptr);
  EXPECT_GT(map->write_behind()->flusher_client()->stats().flush_stages, 0u);
  EXPECT_EQ(writer.stats().flush_stages, 0u);
}

TEST(WriteBehindTest, WriterSideRefillKeepsCacheWarm) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  HtTree::Options options = SmallTables();
  options.cache.budget_bytes = 1 << 20;
  options.cache.admit_after = 0;
  auto map = HtTree::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->EnableWriteBehind(ManualFlush()).ok());

  // Cache the key, then rewrite it through the pipeline: the flusher's
  // RefillCaches pass must leave the entry fresh, so the post-barrier read
  // is a hit (zero far accesses) at the NEW value.
  ASSERT_TRUE(map->Put(5, 50).ok());
  ASSERT_TRUE(map->FlushBarrier().ok());
  EXPECT_EQ(*map->Get(5), 50u);
  ASSERT_TRUE(map->Put(5, 51).ok());
  ASSERT_TRUE(map->FlushBarrier().ok());
  const uint64_t before = client.stats().far_ops;
  EXPECT_EQ(*map->Get(5), 51u);
  EXPECT_EQ(client.stats().far_ops - before, 0u)
      << "writer-side refill served the read from near memory";
}

TEST(WriteBehindTest, FlusherRefillNeverResurrectsAnOlderValue) {
  // A flush step refills the app's cache only after its whole batch
  // published. A rival client that rewrites the key between the flusher's
  // CAS and that refill must not leave the app's cache serving the app's
  // own older value. The rival aims at that window: it polls far memory
  // until the flusher's write of the key shows, then writes the key itself,
  // racing the owner's FlushBarrier, which publishes and refills on the
  // owner's thread. Wherever the rival's write lands, the app's next Get
  // must return the far value.
  TestEnv env(BigFabric());
  auto& app = env.NewClient();
  auto& rival = env.NewClient();
  HtTree::Options options = SmallTables(/*buckets=*/4096);
  options.cache.budget_bytes = 4 << 20;
  options.cache.admit_after = 1;
  auto map = HtTree::Create(&app, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->EnableWriteBehind(ManualFlush(/*max_batch=*/256)).ok());
  auto rival_map = HtTree::Attach(&rival, &env.alloc(), map->header(),
                                  SmallTables(/*buckets=*/4096));
  ASSERT_TRUE(rival_map.ok());

  constexpr uint64_t kFillerBase = 1'000;  // 255 fillers complete a batch
  constexpr uint64_t kKeyBase = 10'000;
  constexpr int kRounds = 200;
  int stale = 0;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t key = kKeyBase + round;
    ASSERT_TRUE(map->Put(key, 1).ok());
    ASSERT_TRUE(map->FlushBarrier().ok());
    ASSERT_TRUE(map->Get(key).ok());  // resident and valid
    const uint64_t app_value = 1'000'000 + round;
    const uint64_t rival_value = 2'000'000 + round;
    ASSERT_TRUE(map->Put(key, app_value).ok());
    for (uint64_t f = 0; f < 255; ++f) {
      ASSERT_TRUE(map->Put(kFillerBase + f, round).ok());
    }
    std::thread writer([&] {
      for (;;) {
        const Result<uint64_t> seen = rival_map->Get(key);
        if (seen.ok() && *seen == app_value) {
          break;
        }
      }
      ASSERT_TRUE(rival_map->Put(key, rival_value).ok());
    });
    const Status barrier = map->FlushBarrier();
    writer.join();
    ASSERT_TRUE(barrier.ok()) << barrier.message();
    const Result<uint64_t> truth = rival_map->Get(key);
    const Result<uint64_t> got = map->Get(key);
    ASSERT_TRUE(truth.ok() && got.ok());
    EXPECT_EQ(*truth, rival_value) << "the rival writes last";
    stale += *got != *truth ? 1 : 0;
  }
  EXPECT_EQ(stale, 0) << "of " << kRounds << " rounds";
}

TEST(WriteBehindTest, RandomizedShadowEquivalence) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  HtTree::Options options = SmallTables();
  options.cache.budget_bytes = 64 << 10;
  options.cache.admit_after = 0;
  auto map = HtTree::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  WriteBehindOptions wb;
  wb.max_batch = 16;  // small batches: exercise mid-stream publishes
  wb.flush_interval_us = 50;
  ASSERT_TRUE(map->EnableWriteBehind(wb).ok());

  Rng gen(0x5eed5eed);
  std::unordered_map<uint64_t, uint64_t> shadow;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t key = gen.Next() % 257;
    const int op = static_cast<int>(gen.Next() % 10);
    if (op < 6) {
      const uint64_t value = gen.Next() | 1;
      ASSERT_TRUE(map->Put(key, value).ok());
      shadow[key] = value;
    } else if (op < 8) {
      ASSERT_TRUE(map->Remove(key).ok());
      shadow.erase(key);
    } else if (op < 9) {
      auto got = map->Get(key);
      auto want = shadow.find(key);
      if (want == shadow.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
      } else {
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(*got, want->second) << key;
      }
    } else {
      ASSERT_TRUE(map->FlushBarrier().ok());
    }
  }
  ASSERT_TRUE(map->FlushBarrier().ok());
  // Post-drain, a fresh handle agrees with the shadow on every key.
  auto& reader = env.NewClient();
  auto view = HtTree::Attach(&reader, &env.alloc(), map->header(),
                             SmallTables());
  ASSERT_TRUE(view.ok());
  for (uint64_t key = 0; key < 257; ++key) {
    auto got = view->Get(key);
    auto want = shadow.find(key);
    if (want == shadow.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(*got, want->second) << key;
    }
  }
}

TEST(WriteBehindTest, InterleavedWritersConverge) {
  TestEnv env(BigFabric());
  auto& c1 = env.NewClient();
  auto& c2 = env.NewClient();
  auto owner = HtTree::Create(&c1, &env.alloc(), SmallTables());
  ASSERT_TRUE(owner.ok());
  const FarAddr header = owner->header();

  // Two threads, each with its OWN write-behind handle, on disjoint key
  // ranges; both flushers publish concurrently into the same far map.
  auto writer = [&](FarClient* client, uint64_t base) {
    auto map = HtTree::Attach(client, &env.alloc(), header, SmallTables());
    ASSERT_TRUE(map.ok());
    WriteBehindOptions wb;
    wb.max_batch = 32;
    wb.flush_interval_us = 20;
    ASSERT_TRUE(map->EnableWriteBehind(wb).ok());
    Rng gen(base);
    for (int i = 0; i < 1500; ++i) {
      const uint64_t key = base + gen.Next() % 200;
      ASSERT_TRUE(map->Put(key, key * 7 + 1).ok());
      if (i % 97 == 0) {
        ASSERT_TRUE(map->FlushBarrier().ok());
      }
    }
    ASSERT_TRUE(map->FlushBarrier().ok());
  };
  std::thread t1(writer, &c1, 1000);
  std::thread t2(writer, &c2, 5000);
  t1.join();
  t2.join();

  auto& reader = env.NewClient();
  auto view = HtTree::Attach(&reader, &env.alloc(), header, SmallTables());
  ASSERT_TRUE(view.ok());
  int found = 0;
  for (uint64_t base : {1000u, 5000u}) {
    for (uint64_t key = base; key < base + 200; ++key) {
      auto got = view->Get(key);
      if (got.ok()) {
        EXPECT_EQ(*got, key * 7 + 1);
        ++found;
      }
    }
  }
  EXPECT_GT(found, 100) << "both writers' publishes landed";
}

TEST(WriteBehindTest, CombiningSurvivesConcurrentCasRetries) {
  TestEnv env(BigFabric());
  auto& wb_client = env.NewClient();
  auto& sync_client = env.NewClient();
  auto owner = HtTree::Create(&wb_client, &env.alloc(), SmallTables());
  ASSERT_TRUE(owner.ok());
  const FarAddr header = owner->header();
  WriteBehindOptions wb;
  wb.max_batch = 64;
  wb.flush_interval_us = 10;
  ASSERT_TRUE(owner->EnableWriteBehind(wb).ok());

  constexpr uint64_t kKeys = 16;
  constexpr uint64_t kRounds = 400;
  // Sync writer: hammers the same buckets so the flusher's CAS predictions
  // miss and retry mid-publish.
  std::thread contender([&] {
    auto map = HtTree::Attach(&sync_client, &env.alloc(), header,
                              SmallTables());
    ASSERT_TRUE(map.ok());
    for (uint64_t r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(map->Put(r % kKeys, 1'000'000 + r).ok());
    }
  });
  for (uint64_t r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(owner->Put(r % kKeys, 2'000'000 + r).ok());
  }
  ASSERT_TRUE(owner->FlushBarrier().ok());
  contender.join();

  // Per key, the surviving value is SOME write to that key (no torn or
  // invented values, no lost tombstone resurrection).
  auto& reader = env.NewClient();
  auto view = HtTree::Attach(&reader, &env.alloc(), header, SmallTables());
  ASSERT_TRUE(view.ok());
  for (uint64_t key = 0; key < kKeys; ++key) {
    auto got = view->Get(key);
    ASSERT_TRUE(got.ok()) << got.status().message();
    const bool from_sync = *got >= 1'000'000 && *got < 1'000'000 + kRounds;
    const bool from_wb = *got >= 2'000'000 && *got < 2'000'000 + kRounds;
    EXPECT_TRUE(from_sync || from_wb) << "key " << key << " -> " << *got;
    EXPECT_EQ(*got % kKeys, key) << "value landed on the wrong key";
  }
  EXPECT_GT(wb_client.stats().writes_combined, 0u)
      << "same-key rewrites combined before the doorbell";
}

TEST(WriteBehindTest, FifoModeKeepsPerKeyOrderWithoutCombining) {
  TestEnv env(BigFabric());
  auto& client = env.NewClient();
  auto map = HtTree::Create(&client, &env.alloc(), SmallTables());
  ASSERT_TRUE(map.ok());
  WriteBehindOptions wb = ManualFlush();
  wb.combine = false;
  ASSERT_TRUE(map->EnableWriteBehind(wb).ok());
  for (uint64_t v = 1; v <= 10; ++v) {
    ASSERT_TRUE(map->Put(3, v).ok());
  }
  EXPECT_EQ(*map->Get(3), 10u);
  EXPECT_EQ(client.stats().writes_combined, 0u);
  ASSERT_TRUE(map->FlushBarrier().ok());
  EXPECT_EQ(*map->Get(3), 10u) << "last staged write wins after the drain";
}

TEST(WriteBehindTest, BackgroundEvictionRacesInvalidationSafely) {
  TestEnv env(BigFabric());
  auto& app = env.NewClient();
  auto& writer = env.NewClient();
  HtTree::Options options = SmallTables(/*buckets=*/512);
  // Tiny ring with background mode: the app thread evicts as reads admit,
  // but ONLY the evictor's client pays the victims' unsubscribes, while a
  // second client's writes invalidate entries concurrently.
  options.cache.budget_bytes = 8 << 10;
  options.cache.admit_after = 0;
  options.cache.background_eviction = true;
  auto map = HtTree::Create(&app, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  ASSERT_NE(map->near_cache(), nullptr);

  BackgroundEvictor evictor(&env.fabric(), /*client_id=*/9001);
  evictor.Watch(map->near_cache());

  constexpr uint64_t kKeys = 600;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(map->Put(k, k + 1).ok());
  }
  std::thread invalidator([&] {
    auto far_writer = HtTree::Attach(&writer, &env.alloc(), map->header(),
                                     SmallTables(/*buckets=*/512));
    ASSERT_TRUE(far_writer.ok());
    for (uint64_t k = 0; k < kKeys; k += 3) {
      ASSERT_TRUE(far_writer->Put(k, k + 100).ok());
    }
  });
  for (int round = 0; round < 4; ++round) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      auto got = map->Get(k);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_TRUE(*got == k + 1 || *got == k + 100) << "key " << k;
    }
  }
  invalidator.join();
  evictor.Unwatch(map->near_cache());
  evictor.StopAndJoin();

  EXPECT_EQ(map->near_cache()->stats().evictions, 0u)
      << "the app thread paid no eviction unsubscribe";
  EXPECT_GT(evictor.stats().bg_evictions, 0u)
      << "the victims' unsubscribes landed on the evictor's client";
  // Final reads still agree with far memory.
  for (uint64_t k = 0; k < kKeys; k += 3) {
    EXPECT_EQ(*map->Get(k), k + 100);
  }
}

// ---- ShardedMap-level engine ----

ShardedMap::Options SmallShards(uint32_t num_shards = 4) {
  ShardedMap::Options options;
  options.num_shards = num_shards;
  options.shard = SmallTables();
  return options;
}

TEST(WriteBehindShardedTest, PointOpsAndMultiPutStage) {
  TestEnv env(BigFabric(/*nodes=*/4));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallShards());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->EnableWriteBehind(ManualFlush()).ok());

  const uint64_t before = client.stats().far_ops;
  std::vector<uint64_t> keys, values;
  for (uint64_t k = 0; k < 128; ++k) {
    keys.push_back(k);
    values.push_back(k * 3 + 1);
  }
  ASSERT_TRUE(map->MultiPut(keys, values).ok());
  ASSERT_TRUE(map->Put(500, 501).ok());
  ASSERT_TRUE(map->Remove(7).ok());
  EXPECT_EQ(client.stats().far_ops - before, 0u) << "all staged, no RTTs";
  EXPECT_EQ(*map->Get(500), 501u);
  EXPECT_EQ(map->Get(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*map->Get(12), 37u) << "MultiPut writes visible pre-barrier";
  auto got = map->MultiGet(std::vector<uint64_t>{1, 7, 500});
  EXPECT_EQ(*got[0], 4u);
  EXPECT_EQ(got[1].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*got[2], 501u);

  ASSERT_TRUE(map->FlushBarrier().ok());
  auto& reader = env.NewClient();
  auto view = ShardedMap::Attach(&reader, &env.alloc(), map->directory());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*view->Get(12), 37u);
  EXPECT_EQ(*view->Get(500), 501u);
  EXPECT_EQ(view->Get(7).status().code(), StatusCode::kNotFound);
}

TEST(WriteBehindShardedTest, TxnEntryPointsDrainTheEngine) {
  TestEnv env(BigFabric(/*nodes=*/2));
  auto& client = env.NewClient();
  auto map = ShardedMap::Create(&client, &env.alloc(), SmallShards(2));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->EnableWriteBehind(ManualFlush()).ok());

  ASSERT_TRUE(map->Put(42, 4200).ok());
  ASSERT_NE(map->write_behind(), nullptr);
  EXPECT_FALSE(map->write_behind()->Empty());
  // A transactional read must see the staged write: the entry point drains
  // the engine before the bucket probe.
  const Status status = RunTxn(&*map, TxnOptions{}, [&](Txn& txn) {
    auto got = txn.Get(42);
    EXPECT_TRUE(got.ok()) << got.status().message();
    if (got.ok()) {
      EXPECT_EQ(*got, 4200u);
    }
    FMDS_RETURN_IF_ERROR(txn.Put(43, 4300));
    return OkStatus();
  });
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_TRUE(map->write_behind()->Empty());
  EXPECT_EQ(*map->Get(43), 4300u);
}

TEST(WriteBehindShardedTest, GlobalBudgetCapsFleetBytes) {
  // Each shard's cache holds to its own budget, so the fleet's near
  // footprint is capped at num_shards budgets.
  TestEnv env(BigFabric(/*nodes=*/4));
  auto& client = env.NewClient();
  ShardedMap::Options options = SmallShards(4);
  options.shard.cache.admit_after = 0;
  options.shard.cache.budget_bytes = 4 << 10;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());

  uint64_t shard_bytes_max = 0;
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(map->Put(k, k + 1).ok());
    (void)map->Get(k);
    for (uint32_t s = 0; s < map->num_shards(); ++s) {
      shard_bytes_max = std::max(shard_bytes_max,
                                 map->shard(s).near_cache()->bytes_used());
    }
  }
  EXPECT_LE(shard_bytes_max, 4u << 10)
      << "every shard's ring respects its own budget";
  EXPECT_GT(map->near_cache_stats().evictions, 0u)
      << "the loop put the caches under pressure";
  EXPECT_LE(map->near_cache_bytes(), 16u << 10)
      << "summed shard rings stay within num_shards budgets";
  // Reads still correct under constant budget pressure.
  for (uint64_t k = 0; k < 2000; k += 37) {
    EXPECT_EQ(*map->Get(k), k + 1);
  }
}

// ---- Replay: the flusher and the evictor are clocks, not threads ----

// What one run of the fixed sequence below leaves behind.
struct ReplayRun {
  std::string app;
  std::string flusher;
  std::string evictor;
  uint64_t app_ns = 0;
  uint64_t flusher_ns = 0;
  uint64_t evictor_ns = 0;
  NearCacheStats cache;
};

// One fixed Put/Get/Remove sequence, on a fresh fabric, through a
// write-behind ShardedMap whose background-mode caches an evictor watches.
// The caches hold far fewer keys than the run touches, so they evict, and
// the flush rule's three triggers all fire: a full table, the interval and
// the final barrier.
void RunReplay(ReplayRun* run) {
  TestEnv env(BigFabric(/*nodes=*/4));
  auto& client = env.NewClient();
  ShardedMap::Options options = SmallShards(4);
  options.shard.cache.budget_bytes = 4 << 10;
  options.shard.cache.admit_after = 1;
  options.shard.cache.background_eviction = true;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  WriteBehindOptions wb;
  wb.max_batch = 32;
  wb.max_pending = 128;
  wb.flush_interval_us = 20;
  ASSERT_TRUE(map->EnableWriteBehind(wb).ok());
  BackgroundEvictor evictor(&env.fabric(), /*client_id=*/9004);
  for (uint32_t s = 0; s < map->num_shards(); ++s) {
    evictor.Watch(map->shard(s).near_cache());
  }
  Rng gen(0x5eedf00d);
  for (int i = 0; i < 6000; ++i) {
    const uint64_t key = gen.Next() % 2000;
    const uint64_t op = gen.Next() % 10;
    if (op < 5) {
      ASSERT_TRUE(map->Put(key, gen.Next() | 1).ok());
    } else if (op < 6) {
      ASSERT_TRUE(map->Remove(key).ok());
    } else {
      (void)map->Get(key);
    }
  }
  ASSERT_TRUE(map->FlushBarrier().ok());
  FarClient* flusher = map->write_behind()->flusher_client();
  run->app = client.stats().ToString();
  run->flusher = flusher->stats().ToString();
  run->evictor = evictor.stats().ToString();
  run->app_ns = client.clock().now_ns();
  run->flusher_ns = flusher->clock().now_ns();
  run->evictor_ns = evictor.client()->clock().now_ns();
  run->cache = map->near_cache_stats();
}

TEST(WriteBehindShardedTest, RunsRepeatExactly) {
  ReplayRun first;
  ReplayRun second;
  ASSERT_NO_FATAL_FAILURE(RunReplay(&first));
  ASSERT_NO_FATAL_FAILURE(RunReplay(&second));
  ASSERT_GT(first.cache.bg_evictions, 0u) << "the caches evicted";
  ASSERT_GT(first.evictor_ns, 0u);
  EXPECT_EQ(first.app, second.app);
  EXPECT_EQ(first.flusher, second.flusher);
  EXPECT_EQ(first.evictor, second.evictor);
  EXPECT_EQ(first.app_ns, second.app_ns);
  EXPECT_EQ(first.flusher_ns, second.flusher_ns);
  EXPECT_EQ(first.evictor_ns, second.evictor_ns);
  const NearCacheStats& a = first.cache;
  const NearCacheStats& b = second.cache;
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.admissions, b.admissions);
  EXPECT_EQ(a.refills, b.refills);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.loss_resets, b.loss_resets);
  EXPECT_EQ(a.rewatches, b.rewatches);
  EXPECT_EQ(a.raced_admits, b.raced_admits);
  EXPECT_EQ(a.writer_refills, b.writer_refills);
  EXPECT_EQ(a.word_confirms, b.word_confirms);
  EXPECT_EQ(a.bg_evictions, b.bg_evictions);
}

}  // namespace
}  // namespace fmds

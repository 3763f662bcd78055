// FarMap interface tests: one generic shadow-equivalence driver runs against
// every map in the repo — HtTree, ShardedMap (both FarMap subclasses) and the
// baseline hash tables via the FarMapRef adapter — through the abstract
// interface only. Also pins the one way to arm write-behind on a map:
// EnableWriteBehind(options) on the handle at its final location.
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/chained_hash.h"
#include "src/baselines/neighborhood_hash.h"
#include "src/core/far_map.h"
#include "src/core/ht_tree.h"
#include "src/core/sharded_map.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

// Deterministic mixed workload driven purely through the FarMap interface,
// checked against an in-memory shadow map after every phase.
void RunShadowEquivalence(FarMap& map) {
  std::map<uint64_t, uint64_t> shadow;
  auto check_all = [&] {
    for (const auto& [key, value] : shadow) {
      auto got = map.Get(key);
      ASSERT_TRUE(got.ok()) << map.kind() << " key " << key;
      EXPECT_EQ(*got, value) << map.kind() << " key " << key;
    }
  };

  // Phase 1: point puts + overwrites.
  for (uint64_t k = 1; k <= 64; ++k) {
    ASSERT_TRUE(map.Put(k, k * 10).ok());
    shadow[k] = k * 10;
  }
  for (uint64_t k = 1; k <= 64; k += 3) {
    ASSERT_TRUE(map.Put(k, k * 100).ok());
    shadow[k] = k * 100;
  }
  check_all();

  // Phase 2: removes, including double-remove and missing keys.
  for (uint64_t k = 2; k <= 64; k += 4) {
    ASSERT_TRUE(map.Remove(k).ok());
    shadow.erase(k);
  }
  EXPECT_FALSE(map.Get(2).ok());
  check_all();

  // Phase 3: batched ops (wave engines where the map has them, the FarMap
  // default loops elsewhere — results must be identical either way).
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (uint64_t k = 100; k < 164; ++k) {
    keys.push_back(k);
    values.push_back(k ^ 0xABCDu);
  }
  ASSERT_TRUE(map.MultiPut(keys, values).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    shadow[keys[i]] = values[i];
  }
  // MultiGet over a mix of present and absent keys.
  std::vector<uint64_t> probe = keys;
  probe.push_back(9'999);  // never inserted
  probe.push_back(2);      // removed in phase 2
  const std::vector<Result<uint64_t>> got = map.MultiGet(probe);
  ASSERT_EQ(got.size(), probe.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << map.kind() << " key " << probe[i];
    EXPECT_EQ(*got[i], shadow[probe[i]]);
  }
  EXPECT_FALSE(got[keys.size()].ok());
  EXPECT_FALSE(got[keys.size() + 1].ok());

  // Publish any staging (a no-op for maps without write-behind), then the
  // final full sweep.
  ASSERT_TRUE(map.FlushBarrier().ok());
  check_all();

  // Portable counters moved (maps that track them).
  const FarMapStats stats = map.map_stats();
  if (stats.gets + stats.puts != 0) {
    EXPECT_GE(stats.puts, 64u);
  }
}

TEST(FarMap, ShadowEquivalenceHtTree) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  auto tree = HtTree::Create(&client, &env.alloc(), HtTree::Options{});
  ASSERT_TRUE(tree.ok());
  RunShadowEquivalence(*tree);
  EXPECT_STREQ(tree->kind(), "ht_tree");
}

TEST(FarMap, ShadowEquivalenceShardedMap) {
  TestEnv env(SmallFabric(4, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 4;
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  RunShadowEquivalence(*map);
  EXPECT_STREQ(map->kind(), "sharded_map");
}

TEST(FarMap, ShadowEquivalenceBaselinesViaRef) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  auto chained =
      ChainedHash::Create(&client, &env.alloc(), ChainedHash::Options{});
  ASSERT_TRUE(chained.ok());
  FarMapRef<ChainedHash> chained_ref(&*chained, "chained_hash");
  RunShadowEquivalence(chained_ref);
  EXPECT_STREQ(chained_ref.kind(), "chained_hash");

  auto hood = NeighborhoodHash::Create(&client, &env.alloc(),
                                       NeighborhoodHash::Options{});
  ASSERT_TRUE(hood.ok());
  FarMapRef<NeighborhoodHash> hood_ref(&*hood, "neighborhood_hash");
  RunShadowEquivalence(hood_ref);
}

TEST(FarMap, PolymorphicUseThroughBasePointers) {
  // The harness pattern: heterogeneous maps behind FarMap*.
  TestEnv env(SmallFabric(2, 16ull << 20));
  auto& client = env.NewClient();
  auto tree = HtTree::Create(&client, &env.alloc(), HtTree::Options{});
  ASSERT_TRUE(tree.ok());
  ShardedMap::Options sharded_options;
  sharded_options.num_shards = 2;
  auto sharded = ShardedMap::Create(&client, &env.alloc(), sharded_options);
  ASSERT_TRUE(sharded.ok());

  std::vector<FarMap*> maps = {&*tree, &*sharded};
  for (FarMap* map : maps) {
    ASSERT_TRUE(map->Put(42, 4242).ok());
    auto got = map->Get(42);
    ASSERT_TRUE(got.ok()) << map->kind();
    EXPECT_EQ(*got, 4242u);
    EXPECT_TRUE(map->FlushBarrier().ok());
  }
}

TEST(FarMap, DefaultMultiPutRejectsSizeMismatch) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  auto chained =
      ChainedHash::Create(&client, &env.alloc(), ChainedHash::Options{});
  ASSERT_TRUE(chained.ok());
  FarMapRef<ChainedHash> ref(&*chained, "chained_hash");
  const std::vector<uint64_t> keys = {1, 2, 3};
  const std::vector<uint64_t> values = {1};
  EXPECT_EQ(ref.MultiPut(keys, values).code(), StatusCode::kInvalidArgument);
}

// ---------------------------- write-behind arming ----------------------------

TEST(MapOptions, StoredWriteBehindBlockEnablesNoArg) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  auto tree_result = HtTree::Create(&client, &env.alloc(), HtTree::Options{});
  ASSERT_TRUE(tree_result.ok());
  // Move to the final location first (the EnableWriteBehind contract), then
  // arm with explicit options.
  auto tree = std::make_unique<HtTree>(std::move(*tree_result));
  WriteBehindOptions wb_options;
  wb_options.max_batch = 8;
  ASSERT_TRUE(tree->EnableWriteBehind(wb_options).ok());
  ASSERT_TRUE(tree->Put(7, 70).ok());
  ASSERT_TRUE(tree->FlushBarrier().ok());
  auto got = tree->Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 70u);
}

}  // namespace
}  // namespace fmds

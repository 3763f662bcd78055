// Tests for the adaptive dataplane (DESIGN.md §13): DataplaneRouter policy
// mechanics, the RPC map agents' semantic equivalence (bucket-head CAS
// publication, cache admission, watch coherence), end-to-end convergence of
// routed HtTree/ShardedMap handles, and the batched transaction chain-walk
// doorbell bound (EXPERIMENTS.md E16 satellite).
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/core/ht_tree.h"
#include "src/core/sharded_map.h"
#include "src/core/txn.h"
#include "src/obs/telemetry.h"
#include "src/route/router.h"
#include "src/route/rpc_dataplane.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

// Finds `count` keys whose bucket index collides in a single-leaf map with
// `buckets` buckets (all land in one chain). Starts scanning at `seed` so
// different tests get disjoint key sets.
std::vector<uint64_t> CollidingKeys(uint64_t buckets, uint64_t target,
                                    size_t count, uint64_t seed = 1) {
  std::vector<uint64_t> keys;
  for (uint64_t k = seed; keys.size() < count; ++k) {
    if (Mix64(k) % buckets == target) {
      keys.push_back(k);
    }
  }
  return keys;
}

HtTree::Options DeepChainOptions(uint64_t buckets = 512) {
  HtTree::Options options;
  options.buckets_per_table = buckets;
  options.max_chain = 1 << 20;  // no depth-triggered splits
  return options;
}

// ------------------------- router policy mechanics -------------------------

// Runs the cold start on the (kGet, node 0) cell: kMinSamples decide/observe
// rounds per route at constant per-unit costs, after which each estimate
// equals its route's cost.
void WarmUp(DataplaneRouter& router, uint64_t one_sided_ns, uint64_t rpc_ns) {
  for (uint64_t i = 0; i < DataplaneRouter::kMinSamples; ++i) {
    (void)router.Decide(RoutedOp::kGet, 0, 1.0, 1);
    router.Observe(RoutedOp::kGet, 0, DataplaneRoute::kOneSided, one_sided_ns,
                   1.0, 1);
    (void)router.Decide(RoutedOp::kGet, 0, 1.0, 1);
    router.Observe(RoutedOp::kGet, 0, DataplaneRoute::kRpc, rpc_ns, 1.0, 1);
  }
}

TEST(RouterPolicy, ColdStartAlternatesThenConverges) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  DataplaneRouterOptions options;
  options.probe_period = 0;  // isolate the decision rule
  DataplaneRouter router(&client, options);

  // Cold start: each route must be offered until both have kMinSamples.
  std::vector<DataplaneRoute> first;
  for (int i = 0; i < 6; ++i) {
    const DataplaneRoute route = router.Decide(RoutedOp::kGet, 0, 1.0, 1);
    first.push_back(route);
    router.Observe(RoutedOp::kGet, 0, route,
                   route == DataplaneRoute::kOneSided ? 4000 : 1000, 1.0, 1);
  }
  int one_sided = 0;
  int rpc = 0;
  for (DataplaneRoute route : first) {
    (route == DataplaneRoute::kOneSided ? one_sided : rpc) += 1;
  }
  EXPECT_EQ(one_sided, 3);
  EXPECT_EQ(rpc, 3);

  // Warm: RPC has been consistently 4x cheaper, so it must win.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.Decide(RoutedOp::kGet, 0, 1.0, 1), DataplaneRoute::kRpc);
  }
  EXPECT_EQ(router.Preferred(RoutedOp::kGet, 0), DataplaneRoute::kRpc);
  EXPECT_NEAR(router.EstimateNs(RoutedOp::kGet, 0, DataplaneRoute::kRpc),
              1000.0, 1.0);
}

TEST(RouterPolicy, HysteresisDefendsIncumbent) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  DataplaneRouterOptions options;
  options.probe_period = 0;
  DataplaneRouter router(&client, options);

  // Seed both routes; one-sided (1000) beats RPC (1200) and stays the
  // incumbent.
  WarmUp(router, 1000, 1200);
  EXPECT_EQ(router.Decide(RoutedOp::kGet, 0, 1.0, 1),
            DataplaneRoute::kOneSided);
  const uint64_t flips_before = router.flips();

  // Walk the RPC estimate down with 500 ns observations. While RPC ×
  // kHysteresis stays at or above the incumbent's 1000 ns — even once RPC
  // alone is cheaper — one-sided keeps the traffic; the first decision
  // past that point flips.
  double rpc_estimate = 1200.0;
  int cheaper_inside_band = 0;
  bool flipped = false;
  for (int step = 0; step < 20 && !flipped; ++step) {
    router.Observe(RoutedOp::kGet, 0, DataplaneRoute::kRpc, 500, 1.0, 1);
    rpc_estimate += DataplaneRouter::kEwmaAlpha * (500.0 - rpc_estimate);
    EXPECT_NEAR(router.EstimateNs(RoutedOp::kGet, 0, DataplaneRoute::kRpc),
                rpc_estimate, 1e-6);
    flipped = rpc_estimate * DataplaneRouter::kHysteresis < 1000.0;
    if (!flipped && rpc_estimate < 1000.0) {
      ++cheaper_inside_band;
    }
    EXPECT_EQ(router.Decide(RoutedOp::kGet, 0, 1.0, 1),
              flipped ? DataplaneRoute::kRpc : DataplaneRoute::kOneSided)
        << "rpc estimate " << rpc_estimate;
    EXPECT_EQ(router.flips(), flips_before + (flipped ? 1 : 0));
  }
  ASSERT_TRUE(flipped);
  EXPECT_GT(cheaper_inside_band, 0)
      << "a cheaper RPC inside the band must not take over";
  EXPECT_EQ(client.stats().route_flips, router.flips());
}

TEST(RouterPolicy, ComplexityUnitsScaleOneSidedCost) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  DataplaneRouterOptions options;
  options.probe_period = 0;
  DataplaneRouter router(&client, options);

  // One-sided costs 900 ns per round trip; RPC costs 2000 ns per key flat.
  WarmUp(router, 900, 2000);

  // Shallow op (1 unit): 900 < 2000 -> one-sided.
  EXPECT_EQ(router.Decide(RoutedOp::kGet, 0, 1.0, 1),
            DataplaneRoute::kOneSided);
  // Deep op (8 units): 7200 vs 2000 -> the SAME estimates extrapolate to
  // RPC. This is the §3.1 crossover in one decision rule.
  EXPECT_EQ(router.Decide(RoutedOp::kGet, 0, 8.0, 1), DataplaneRoute::kRpc);
}

TEST(RouterPolicy, ProbesRideTheLosingRoute) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  DataplaneRouterOptions options;
  options.probe_period = 4;
  DataplaneRouter router(&client, options);

  WarmUp(router, 500, 5000);

  const uint64_t probes_before = router.probes();
  int rpc_decisions = 0;
  for (int i = 0; i < 16; ++i) {
    if (router.Decide(RoutedOp::kGet, 0, 1.0, 1) == DataplaneRoute::kRpc) {
      ++rpc_decisions;
    }
  }
  // Every probe_period-th decision explores the loser; everything else
  // stays with the winner.
  EXPECT_EQ(router.probes() - probes_before, 4u);
  EXPECT_EQ(rpc_decisions, 4);
  EXPECT_EQ(client.stats().route_probes, router.probes());
}

TEST(RouterPolicy, ForceOverridesAndFreezesLearning) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  DataplaneRouterOptions options;
  options.force = DataplaneRoute::kRpc;
  DataplaneRouter router(&client, options);

  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(router.Decide(RoutedOp::kPut, 0, 2.0, 1), DataplaneRoute::kRpc);
    router.Observe(RoutedOp::kPut, 0, DataplaneRoute::kRpc, 1234, 2.0, 1);
  }
  // A forced arm is a static baseline: no estimates accumulate, no probes.
  EXPECT_EQ(router.EstimateNs(RoutedOp::kPut, 0, DataplaneRoute::kRpc), 0.0);
  EXPECT_EQ(router.probes(), 0u);
  EXPECT_EQ(router.rpc_decisions(), 8u);
  EXPECT_EQ(client.stats().route_rpc, 8u);
  EXPECT_EQ(client.stats().route_one_sided, 0u);
}

TEST(RouterPolicy, GaugesExportDecisionCounters) {
  TestEnv env(SmallFabric(1));
  auto& client = env.NewClient();
  DataplaneRouter router(&client);
  TelemetryHub hub;
  GaugeGroup group(&hub);
  router.AddGauges(&group, "route");
  (void)router.Decide(RoutedOp::kGet, 0, 1.0, 1);

  bool saw_one_sided = false;
  for (const auto& sample : hub.Snapshot()) {
    if (sample.name == "route.one_sided") {
      saw_one_sided = true;
      EXPECT_EQ(sample.value, 1.0);
    }
  }
  EXPECT_TRUE(saw_one_sided);
  EXPECT_EQ(hub.gauge_count(), 4u);
}

// --------------------- RPC agent semantic equivalence ---------------------

class RpcPathTest : public ::testing::Test {
 protected:
  RpcPathTest() : env_(SmallFabric(2, 16ull << 20)) {}

  TestEnv env_;
};

TEST_F(RpcPathTest, AgentWritesPublishThroughBucketCas) {
  auto& client = env_.NewClient();
  auto map = HtTree::Create(&client, &env_.alloc(), DeepChainOptions());
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  RpcMapPath path(&client, &dataplane);

  // Write through the agent; read back one-sided with an independent
  // handle. The value must be there — the agent ran the same protocol.
  auto put = path.Put(map->header(), 7, 70);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_NE(put->bucket, kNullFarAddr);
  EXPECT_TRUE(put->refillable);

  auto& other_client = env_.NewClient();
  auto other = HtTree::Attach(&other_client, &env_.alloc(), map->header(),
                              DeepChainOptions());
  ASSERT_TRUE(other.ok());
  auto got = other->Get(7);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, 70u);

  // Agent-side remove lands as a tombstone (not refillable) and the
  // one-sided reader sees the miss.
  auto removed = path.Remove(map->header(), 7);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_FALSE(removed->refillable);
  EXPECT_EQ(other->Get(7).status().code(), StatusCode::kNotFound);
}

TEST_F(RpcPathTest, AgentReadsReturnValidatableViews) {
  auto& client = env_.NewClient();
  auto map = HtTree::Create(&client, &env_.alloc(), DeepChainOptions());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(11, 110).ok());
  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  RpcMapPath path(&client, &dataplane);

  auto view = path.Get(map->header(), 11);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->found);
  EXPECT_TRUE(view->cacheable);
  EXPECT_EQ(view->value, 110u);
  // The returned watch location must be the real bucket head: stable
  // across reads while nothing writes, and swung by any write to the key.
  EXPECT_NE(view->bucket, kNullFarAddr);
  EXPECT_NE(view->head_word, 0u);
  auto again = path.Get(map->header(), 11);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(view->bucket, again->bucket);
  EXPECT_EQ(view->head_word, again->head_word);
  ASSERT_TRUE(map->Put(11, 111).ok());
  auto after = path.Get(map->header(), 11);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->bucket, view->bucket);
  EXPECT_NE(after->head_word, view->head_word);
  EXPECT_EQ(after->value, 111u);

  auto miss = path.Get(map->header(), 999);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->found);

  std::vector<RemoteMapPath::ReadView> views;
  const uint64_t keys[2] = {11, 999};
  ASSERT_TRUE(path.MultiGet(map->header(), keys, &views).ok());
  ASSERT_EQ(views.size(), 2u);
  EXPECT_TRUE(views[0].found);
  EXPECT_EQ(views[0].value, 111u);
  EXPECT_FALSE(views[1].found);
  EXPECT_GT(client.stats().rpc_calls, 0u);
}

TEST_F(RpcPathTest, OccupancyInflatesAgentCalls) {
  auto& client = env_.NewClient();
  auto map = HtTree::Create(&client, &env_.alloc(), DeepChainOptions());
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Put(3, 30).ok());
  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  RpcMapPath path(&client, &dataplane);
  auto loc = env_.fabric().Translate(map->header());
  ASSERT_TRUE(loc.ok());

  const uint64_t t0 = client.clock().now_ns();
  ASSERT_TRUE(path.Get(map->header(), 3).ok());
  const uint64_t idle_ns = client.clock().now_ns() - t0;

  dataplane.SetLoadFactor(loc->node, 0.9);  // M/M/1: service waits 10x
  const uint64_t t1 = client.clock().now_ns();
  ASSERT_TRUE(path.Get(map->header(), 3).ok());
  const uint64_t busy_ns = client.clock().now_ns() - t1;
  EXPECT_GT(busy_ns, idle_ns * 2);
}

TEST_F(RpcPathTest, HomeNodeAgentAccessIsMemoryLocal) {
  // The agent's own far accesses are priced at memory-controller cost, not
  // fabric RTTs — the §3.1 "processor close to the memory".
  auto addr = env_.alloc().Allocate(64, AllocHint::OnNode(0));
  ASSERT_TRUE(addr.ok());
  auto& fabric_client = env_.NewClient();
  ClientOptions agent_options;
  agent_options.home_node = 0;
  FarClient agent(&env_.fabric(), 77, agent_options);

  const uint64_t f0 = fabric_client.clock().now_ns();
  ASSERT_TRUE(fabric_client.ReadWord(*addr).ok());
  const uint64_t fabric_ns = fabric_client.clock().now_ns() - f0;
  const uint64_t a0 = agent.clock().now_ns();
  ASSERT_TRUE(agent.ReadWord(*addr).ok());
  const uint64_t agent_ns = agent.clock().now_ns() - a0;
  EXPECT_LT(agent_ns * 2, fabric_ns);
}

// ------------------------- routed handle end-to-end ------------------------

TEST_F(RpcPathTest, RoutedMapConvergesToRpcOnDeepChains) {
  auto& client = env_.NewClient();
  auto map = HtTree::Create(&client, &env_.alloc(), DeepChainOptions());
  ASSERT_TRUE(map.ok());
  const auto keys = CollidingKeys(512, 9, 10);
  for (uint64_t key : keys) {
    ASSERT_TRUE(map->Put(key, key + 1).ok());
  }

  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  RpcMapPath path(&client, &dataplane);
  DataplaneRouter router(&client);
  ASSERT_TRUE(map->EnableRouting(&router, &path).ok());
  const NodeId home = map->home_node();

  // The chain is ~10 deep; an idle agent walks it at memory-local cost, so
  // the adaptive policy must land on RPC — while every read stays correct.
  for (int round = 0; round < 30; ++round) {
    for (uint64_t key : keys) {
      auto got = map->Get(key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, key + 1);
    }
  }
  EXPECT_EQ(router.Preferred(RoutedOp::kGet, home), DataplaneRoute::kRpc);
  EXPECT_GT(router.rpc_decisions(), router.one_sided_decisions());
  EXPECT_GT(map->lookup_units(), 2.0);  // chain depth fed back into units
}

TEST_F(RpcPathTest, RoutedMapConvergesToOneSidedUnderAgentLoad) {
  auto& client = env_.NewClient();
  auto map = HtTree::Create(&client, &env_.alloc(), DeepChainOptions());
  ASSERT_TRUE(map.ok());
  for (uint64_t key = 1; key <= 32; ++key) {  // distinct buckets: head hits
    ASSERT_TRUE(map->Put(key, key).ok());
  }

  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  dataplane.SetLoadFactorAll(0.9);  // the colocated processor is busy
  RpcMapPath path(&client, &dataplane);
  DataplaneRouter router(&client);
  ASSERT_TRUE(map->EnableRouting(&router, &path).ok());

  for (int round = 0; round < 20; ++round) {
    for (uint64_t key = 1; key <= 32; ++key) {
      auto got = map->Get(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, key);
    }
  }
  EXPECT_EQ(router.Preferred(RoutedOp::kGet, map->home_node()),
            DataplaneRoute::kOneSided);
  EXPECT_GT(router.one_sided_decisions(), router.rpc_decisions());
}

TEST_F(RpcPathTest, RpcLandedWritesKeepWatchCoherence) {
  // Client A routes everything through the agent and keeps a NearCache;
  // client B is a plain one-sided handle on the same map. Mutations must
  // stay visible in BOTH directions because agent writes publish through
  // the same bucket-head CAS the watches subscribe to.
  HtTree::Options cached = DeepChainOptions();
  cached.cache.budget_bytes = 1 << 16;
  cached.cache.admit_after = 1;

  auto& a = env_.NewClient();
  auto map_a = HtTree::Create(&a, &env_.alloc(), cached);
  ASSERT_TRUE(map_a.ok());
  auto& b = env_.NewClient();
  auto map_b =
      HtTree::Attach(&b, &env_.alloc(), map_a->header(), DeepChainOptions());
  ASSERT_TRUE(map_b.ok());

  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  RpcMapPath path(&a, &dataplane);
  DataplaneRouterOptions force_rpc;
  force_rpc.force = DataplaneRoute::kRpc;
  DataplaneRouter router(&a, force_rpc);
  ASSERT_TRUE(map_a->EnableRouting(&router, &path).ok());

  // RPC-landed put refills A's cache; A reads it near.
  ASSERT_TRUE(map_a->Put(42, 1).ok());
  auto got = map_a->Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1u);
  const uint64_t hits0 = a.stats().cache_hits;
  ASSERT_TRUE(map_a->Get(42).ok());
  EXPECT_GT(a.stats().cache_hits, hits0);

  // B overwrites one-sided: the CAS notification must kill A's entry.
  ASSERT_TRUE(map_b->Put(42, 2).ok());
  got = map_a->Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 2u);

  // A overwrites through the agent while B (re-attached with a cache)
  // holds the key near: B's watch must fire on the agent's CAS.
  auto map_b2 = HtTree::Attach(&b, &env_.alloc(), map_a->header(), cached);
  ASSERT_TRUE(map_b2.ok());
  ASSERT_TRUE(map_b2->Get(42).ok());  // admit
  ASSERT_TRUE(map_b2->Get(42).ok());  // served near
  ASSERT_TRUE(map_a->Put(42, 3).ok());
  got = map_b2->Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 3u);
  // And the RPC-landed remove invalidates rather than refills.
  ASSERT_TRUE(map_a->Remove(42).ok());
  EXPECT_EQ(map_b2->Get(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(map_a->Get(42).status().code(), StatusCode::kNotFound);
}

// The owner's near state once `writer` landed a store of `key`: the next
// Get answers `value` from the refilled NearCache entry at zero far
// accesses (a removed key misses to kNotFound instead). An owner that
// writes one-sided then pays `next_put_far` far accesses for its next Put
// and no CAS retry: it reads the head the landed store left, then writes
// the item and CASes the bucket (one doorbell when the item slab and the
// bucket share a node, a round trip each when they do not).
void ExpectLandedStoreExit(const char* writer, FarClient& owner, FarMap& map,
                           uint64_t key, std::optional<uint64_t> value,
                           std::optional<uint64_t> next_put_far) {
  SCOPED_TRACE(writer);
  const uint64_t get_far0 = owner.stats().far_ops;
  const Result<uint64_t> got = map.Get(key);
  if (value.has_value()) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *value);
    EXPECT_EQ(owner.stats().far_ops - get_far0, 0u)
        << "the next Get must hit the writer-side refill";
  } else {
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  }
  if (next_put_far.has_value()) {
    const uint64_t put_far0 = owner.stats().far_ops;
    const uint64_t retries0 = map.map_stats().cas_retries;
    ASSERT_TRUE(map.Put(key, 7777).ok());
    EXPECT_EQ(owner.stats().far_ops - put_far0, *next_put_far);
    EXPECT_EQ(map.map_stats().cas_retries - retries0, 0u)
        << "the head read must predict the next CAS";
  }
}

TEST_F(RpcPathTest, EveryWriterLeavesTheSameNearState) {
  // Every writer whose bucket CAS landed applies the same exit to its own
  // near state: Put, Remove, MultiPut, both txn commit paths, a routed Put
  // and the write-behind flushers of an HtTree and of a ShardedMap. Each
  // case starts from a resident, valid entry and a drained channel (a Get
  // of the key right before the write).
  HtTree::Options options = DeepChainOptions(64);
  options.cache.budget_bytes = 1 << 16;
  options.cache.admit_after = 1;
  ShardedMap::Options sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.shard = options;
  auto warm = [](FarMap& map, uint64_t key) {
    ASSERT_TRUE(map.Put(key, 1).ok());
    ASSERT_TRUE(map.FlushBarrier().ok());
    ASSERT_TRUE(map.Get(key).ok());  // admits the entry
  };

  auto& client = env_.NewClient();
  auto tree = HtTree::Create(&client, &env_.alloc(), options);
  ASSERT_TRUE(tree.ok());
  // This unpinned map put the owner's item slab and the keys' buckets on
  // different nodes; the pinned ShardedMap shards below share one.
  constexpr uint64_t kSplitPutFar = 3;
  constexpr uint64_t kPinnedPutFar = 2;
  warm(*tree, 1);
  ASSERT_TRUE(tree->Put(1, 11).ok());
  ExpectLandedStoreExit("Put", client, *tree, 1, 11, kSplitPutFar);
  warm(*tree, 2);
  ASSERT_TRUE(tree->Remove(2).ok());
  ExpectLandedStoreExit("Remove", client, *tree, 2, std::nullopt,
                        kSplitPutFar);
  warm(*tree, 3);
  const uint64_t multi_keys[2] = {3, 4};
  const uint64_t multi_values[2] = {33, 44};
  ASSERT_TRUE(tree->MultiPut(multi_keys, multi_values).ok());
  ExpectLandedStoreExit("MultiPut", client, *tree, 3, 33, kSplitPutFar);

  auto& txn_client = env_.NewClient();
  auto sharded = ShardedMap::Create(&txn_client, &env_.alloc(),
                                    sharded_options);
  ASSERT_TRUE(sharded.ok());
  warm(*sharded, 5);
  {
    Txn fast(&*sharded);  // one write bucket, no other read: fast path
    ASSERT_TRUE(fast.Put(5, 55).ok());
    ASSERT_TRUE(fast.Commit().ok());
  }
  ExpectLandedStoreExit("fast-path txn", txn_client, *sharded, 5, 55,
                        kPinnedPutFar);
  uint64_t other = 7;  // a second write bucket: the prepare path
  while (sharded->ShardOf(other) == sharded->ShardOf(6) &&
         Mix64(other) % 64 == Mix64(6) % 64) {
    ++other;
  }
  warm(*sharded, 6);
  {
    Txn prepared(&*sharded);
    ASSERT_TRUE(prepared.Put(6, 66).ok());
    ASSERT_TRUE(prepared.Put(other, 67).ok());
    ASSERT_TRUE(prepared.Commit().ok());
  }
  ExpectLandedStoreExit("prepare-path txn", txn_client, *sharded, 6, 66,
                        kPinnedPutFar);

  auto& routed_client = env_.NewClient();
  auto routed = HtTree::Attach(&routed_client, &env_.alloc(), tree->header(),
                               options);
  ASSERT_TRUE(routed.ok());
  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  RpcMapPath path(&routed_client, &dataplane);
  DataplaneRouterOptions force_rpc;
  force_rpc.force = DataplaneRoute::kRpc;
  DataplaneRouter router(&routed_client, force_rpc);
  ASSERT_TRUE(routed->EnableRouting(&router, &path).ok());
  warm(*routed, 8);
  ASSERT_TRUE(routed->Put(8, 88).ok());
  ExpectLandedStoreExit("routed Put", routed_client, *routed, 8, 88,
                        std::nullopt);

  auto& wb_tree_client = env_.NewClient();
  auto wb_tree = HtTree::Create(&wb_tree_client, &env_.alloc(), options);
  ASSERT_TRUE(wb_tree.ok());
  ASSERT_TRUE(wb_tree->EnableWriteBehind(WriteBehindOptions{}).ok());
  warm(*wb_tree, 9);
  ASSERT_TRUE(wb_tree->Put(9, 99).ok());
  ASSERT_TRUE(wb_tree->FlushBarrier().ok());
  ExpectLandedStoreExit("HtTree flusher", wb_tree_client, *wb_tree, 9, 99,
                        std::nullopt);

  auto& wb_sharded_client = env_.NewClient();
  auto wb_sharded = ShardedMap::Create(&wb_sharded_client, &env_.alloc(),
                                       sharded_options);
  ASSERT_TRUE(wb_sharded.ok());
  ASSERT_TRUE(wb_sharded->EnableWriteBehind(WriteBehindOptions{}).ok());
  uint64_t flushed = 10;  // on shard 1: the refill must pick its shard's cache
  while (wb_sharded->ShardOf(flushed) != 1) {
    ++flushed;
  }
  warm(*wb_sharded, flushed);
  ASSERT_TRUE(wb_sharded->Put(flushed, 1010).ok());
  ASSERT_TRUE(wb_sharded->FlushBarrier().ok());
  ExpectLandedStoreExit("ShardedMap flusher", wb_sharded_client, *wb_sharded,
                        flushed, 1010, std::nullopt);
}

TEST_F(RpcPathTest, ShardedMapRoutesPerShard) {
  auto& client = env_.NewClient();
  ShardedMap::Options options;
  options.num_shards = 2;
  options.shard = DeepChainOptions();
  auto map = ShardedMap::Create(&client, &env_.alloc(), options);
  ASSERT_TRUE(map.ok());

  // Deep chains in both shards; node 1's agent is saturated while node 0's
  // is idle — the SAME router must send shard-0 batches to the agent and
  // keep shard-1 batches one-sided.
  std::vector<uint64_t> shard_keys[2];
  for (uint64_t k = 1; shard_keys[0].size() < 8 || shard_keys[1].size() < 8;
       ++k) {
    const uint32_t s = map->ShardOf(k);
    if (shard_keys[s].size() < 8 && Mix64(k) % 512 == 3) {
      shard_keys[s].push_back(k);
    }
  }
  for (const auto& keys : shard_keys) {
    for (uint64_t key : keys) {
      ASSERT_TRUE(map->Put(key, key * 2).ok());
    }
  }

  RpcDataplane dataplane(&env_.fabric(), &env_.alloc());
  dataplane.SetLoadFactor(1, 0.9);
  RpcMapPath path(&client, &dataplane);
  DataplaneRouter router(&client);
  ASSERT_TRUE(map->EnableRouting(&router, &path).ok());

  // Small per-shard batches over deep chains: the regime where shipping
  // the walk wins on an idle agent but loses to the one-sided wave engine
  // when the agent queues (M/M/1 at rho = 0.9).
  for (int round = 0; round < 40; ++round) {
    for (size_t pair = 0; pair + 1 < 8; pair += 2) {
      const uint64_t batch[4] = {
          shard_keys[0][pair], shard_keys[0][pair + 1],
          shard_keys[1][pair], shard_keys[1][pair + 1]};
      auto results = map->MultiGet(batch);
      ASSERT_EQ(results.size(), 4u);
      for (size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
        EXPECT_EQ(*results[i], batch[i] * 2);
      }
    }
  }
  const NodeId node0 = map->shard(0).home_node();
  const NodeId node1 = map->shard(1).home_node();
  ASSERT_NE(node0, node1);
  const NodeId busy = 1;
  const NodeId idle = node0 == busy ? node1 : node0;
  EXPECT_EQ(router.Preferred(RoutedOp::kMultiGet, idle),
            DataplaneRoute::kRpc);
  EXPECT_EQ(router.Preferred(RoutedOp::kMultiGet, busy),
            DataplaneRoute::kOneSided);
  EXPECT_GT(router.rpc_decisions(), 0u);
  EXPECT_GT(router.one_sided_decisions(), 0u);
}

// ----------------- batched transaction chain walks (E16 sat) ---------------

TEST(TxnMultiGetBatch, DeepChainDoorbellsScaleWithChainNotKeys) {
  TestEnv env(SmallFabric(1, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 1;
  options.shard = DeepChainOptions();
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());

  // 12 keys in ONE bucket chain (depth 12), plus one absent key that hashes
  // to the same bucket (a full-chain negative walk).
  constexpr size_t kDepth = 12;
  const auto keys = CollidingKeys(512, 5, kDepth + 1, /*seed=*/1000);
  for (size_t i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(map->Put(keys[i], keys[i] + 7).ok());
  }

  // Batched arm: every key's walk shares the wave doorbells.
  std::vector<uint64_t> batch(keys.begin(), keys.end());
  const uint64_t batches0 = client.stats().batches;
  const uint64_t far0 = client.stats().far_ops;
  Txn txn(&*map);
  auto results = txn.MultiGet(batch);
  const uint64_t batched_doorbells = client.stats().batches - batches0;
  const uint64_t batched_far = client.stats().far_ops - far0;
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(*results[i], keys[i] + 7);
  }
  EXPECT_EQ(results[kDepth].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(txn.Commit().ok());

  // The whole 13-key read set must cost O(chain) doorbells — one probe
  // wave plus at most one wave per chain hop — NOT O(keys x chain).
  EXPECT_LE(batched_doorbells, kDepth + 4);

  // Per-key arm on the same read set for contrast: serial TxnReads pay
  // ~depth far round trips PER KEY.
  const uint64_t sync0 = client.stats().far_ops;
  Txn per_key(&*map);
  for (uint64_t key : batch) {
    (void)per_key.Get(key);
  }
  const uint64_t sync_far = client.stats().far_ops - sync0;
  ASSERT_TRUE(per_key.Commit().ok());
  EXPECT_LT(batched_far * 2, sync_far);
}

TEST(TxnMultiGetBatch, ViewsValidateAtCommit) {
  // The batched views are real validation handles: a conflicting write
  // between MultiGet and Commit must abort the transaction.
  TestEnv env(SmallFabric(1, 16ull << 20));
  auto& client = env.NewClient();
  ShardedMap::Options options;
  options.num_shards = 1;
  options.shard = DeepChainOptions();
  auto map = ShardedMap::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  const auto keys = CollidingKeys(512, 6, 6, /*seed=*/5000);
  for (uint64_t key : keys) {
    ASSERT_TRUE(map->Put(key, 1).ok());
  }

  Txn txn(&*map);
  auto results = txn.MultiGet(keys);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
  }
  ASSERT_TRUE(txn.Put(keys[0], 2).ok());
  // A foreign write to a chain the txn read (deep key, not the one being
  // written) swings the shared bucket word.
  auto& other = env.NewClient();
  auto other_map =
      ShardedMap::Attach(&other, &env.alloc(), map->directory(), options);
  ASSERT_TRUE(other_map.ok());
  ASSERT_TRUE(other_map->Put(keys[3], 99).ok());

  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace fmds

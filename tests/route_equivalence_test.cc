// Randomized shadow-equivalence for the adaptive dataplane (DESIGN.md §13):
// the same operation stream applied through three arms — one-sided only
// (routing off), adaptive router (probing keeps BOTH paths live mid-stream),
// and RPC-forced — must produce identical observable state, matching a
// std::unordered_map shadow. Runs under TSan/ASan/UBSan via scripts/check.sh
// with concurrent writers to shake out races between agent-landed CAS
// publications and caller-side caches/watches.
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ht_tree.h"
#include "src/core/txn.h"
#include "src/route/router.h"
#include "src/route/rpc_dataplane.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

HtTree::Options CachedOptions() {
  HtTree::Options options;
  options.buckets_per_table = 128;  // small tables: real chains and splits
  options.cache.budget_bytes = 16 << 10;
  options.cache.admit_after = 2;
  return options;
}

enum class ArmKind { kOneSidedOnly, kAdaptive, kRpcForced };

DataplaneRouterOptions ArmRouterOptions(ArmKind kind) {
  DataplaneRouterOptions options;
  if (kind == ArmKind::kRpcForced) {
    options.force = DataplaneRoute::kRpc;
  } else {
    // Aggressive exploration: flip-flop between paths mid-stream so the
    // equivalence check covers interleavings of both protocols.
    options.probe_period = 4;
  }
  return options;
}

// One handle wired per `kind`; owns the router/path the handle borrows.
struct Arm {
  Arm(TestEnv* env, RpcDataplane* dataplane, ArmKind kind,
      std::optional<FarAddr> attach_to = std::nullopt)
      : client(env->NewClient()) {
    auto made = attach_to.has_value()
                    ? HtTree::Attach(&client, &env->alloc(), *attach_to,
                                     CachedOptions())
                    : HtTree::Create(&client, &env->alloc(), CachedOptions());
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    map.emplace(std::move(*made));
    if (kind != ArmKind::kOneSidedOnly) {
      router.emplace(&client, ArmRouterOptions(kind));
      path.emplace(&client, dataplane);
      EXPECT_TRUE(map->EnableRouting(&*router, &*path).ok());
    }
  }

  FarClient& client;
  std::optional<HtTree> map;
  std::optional<DataplaneRouter> router;
  std::optional<RpcMapPath> path;
};

TEST(RouteEquivalence, RandomizedOpsMatchShadowAcrossArms) {
  TestEnv env(SmallFabric(2, 32ull << 20));
  RpcDataplane dataplane(&env.fabric(), &env.alloc());
  std::vector<std::unique_ptr<Arm>> arms;
  arms.push_back(
      std::make_unique<Arm>(&env, &dataplane, ArmKind::kOneSidedOnly));
  arms.push_back(std::make_unique<Arm>(&env, &dataplane, ArmKind::kAdaptive));
  arms.push_back(std::make_unique<Arm>(&env, &dataplane, ArmKind::kRpcForced));
  std::unordered_map<uint64_t, uint64_t> shadow;

  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<uint64_t> key_dist(1, 300);
  std::uniform_int_distribution<int> op_dist(0, 99);
  for (int step = 0; step < 2500; ++step) {
    const int roll = op_dist(rng);
    const uint64_t key = key_dist(rng);
    if (roll < 45) {
      const uint64_t value = rng();
      shadow[key] = value;
      for (auto& arm : arms) {
        ASSERT_TRUE(arm->map->Put(key, value).ok());
      }
    } else if (roll < 60) {
      shadow.erase(key);
      for (auto& arm : arms) {
        ASSERT_TRUE(arm->map->Remove(key).ok());
      }
    } else if (roll < 85) {
      const auto want = shadow.find(key);
      for (auto& arm : arms) {
        auto got = arm->map->Get(key);
        if (want == shadow.end()) {
          ASSERT_EQ(got.status().code(), StatusCode::kNotFound)
              << "step " << step << " key " << key;
        } else {
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(*got, want->second) << "step " << step << " key " << key;
        }
      }
    } else {
      uint64_t batch[8];
      for (uint64_t& k : batch) {
        k = key_dist(rng);
      }
      for (auto& arm : arms) {
        auto results = arm->map->MultiGet(batch);
        ASSERT_EQ(results.size(), 8u);
        for (size_t i = 0; i < 8; ++i) {
          const auto want = shadow.find(batch[i]);
          if (want == shadow.end()) {
            ASSERT_EQ(results[i].status().code(), StatusCode::kNotFound);
          } else {
            ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
            ASSERT_EQ(*results[i], want->second);
          }
        }
      }
    }
  }

  // Full-state sweep, cross-checked one-sided by an independent reader per
  // arm (no cache, no routing): the far-memory state itself must match,
  // not just each arm's own view of it.
  for (auto& arm : arms) {
    auto reader = HtTree::Attach(&env.NewClient(), &env.alloc(),
                                 arm->map->header(), HtTree::Options());
    ASSERT_TRUE(reader.ok());
    for (uint64_t key = 1; key <= 300; ++key) {
      const auto want = shadow.find(key);
      for (HtTree* view : {&*arm->map, &*reader}) {
        auto got = view->Get(key);
        if (want == shadow.end()) {
          ASSERT_EQ(got.status().code(), StatusCode::kNotFound) << key;
        } else {
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(*got, want->second) << key;
        }
      }
    }
  }
  // The adaptive arm must actually have exercised both protocols.
  EXPECT_GT(arms[1]->router->one_sided_decisions(), 0u);
  EXPECT_GT(arms[1]->router->rpc_decisions(), 0u);
}

// Deterministic per-range writer: the verifier replays the same sequence
// into a local shadow to know the expected final state.
void ApplyRange(HtTree* map, uint64_t base, int ops,
                std::unordered_map<uint64_t, uint64_t>* shadow) {
  std::mt19937_64 rng(base * 7919 + 13);
  std::uniform_int_distribution<uint64_t> key_dist(base, base + 63);
  std::uniform_int_distribution<int> op_dist(0, 99);
  for (int i = 0; i < ops; ++i) {
    const int roll = op_dist(rng);
    const uint64_t key = key_dist(rng);
    if (roll < 55) {
      const uint64_t value = rng();
      if (shadow != nullptr) {
        (*shadow)[key] = value;
      }
      if (map != nullptr) {
        ASSERT_TRUE(map->Put(key, value).ok());
      }
    } else if (roll < 75) {
      if (shadow != nullptr) {
        shadow->erase(key);
      }
      if (map != nullptr) {
        ASSERT_TRUE(map->Remove(key).ok());
      }
    } else if (roll < 90) {
      if (map != nullptr) {
        (void)map->Get(key);
      }
    } else {
      // Drawn even in shadow-replay mode so both passes consume the same
      // random stream.
      uint64_t batch[4];
      for (uint64_t& k : batch) {
        k = key_dist(rng);
      }
      if (map != nullptr) {
        (void)map->MultiGet(batch);
      }
    }
  }
}

class ConcurrentEquivalence : public ::testing::TestWithParam<ArmKind> {};

TEST_P(ConcurrentEquivalence, DisjointRangeWritersConverge) {
  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 400;
  TestEnv env(SmallFabric(2, 32ull << 20));
  RpcDataplane dataplane(&env.fabric(), &env.alloc());
  Arm owner(&env, &dataplane, ArmKind::kOneSidedOnly);

  // Pre-create per-thread clients (TestEnv is not thread-safe).
  std::vector<std::unique_ptr<Arm>> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.push_back(std::make_unique<Arm>(&env, &dataplane, GetParam(),
                                            owner.map->header()));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ApplyRange(&*workers[t]->map, 1000 + 100 * t, kOpsPerThread, nullptr);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Replay each range into a shadow; verify through a fresh one-sided
  // reader AND through each worker's own (cached, possibly routed) handle.
  for (int t = 0; t < kThreads; ++t) {
    const uint64_t base = 1000 + 100 * t;
    std::unordered_map<uint64_t, uint64_t> shadow;
    ApplyRange(nullptr, base, kOpsPerThread, &shadow);
    for (uint64_t key = base; key < base + 64; ++key) {
      const auto want = shadow.find(key);
      for (HtTree* view : {&*owner.map, &*workers[t]->map}) {
        auto got = view->Get(key);
        if (want == shadow.end()) {
          ASSERT_EQ(got.status().code(), StatusCode::kNotFound)
              << "key " << key;
        } else {
          ASSERT_TRUE(got.ok()) << got.status().ToString() << " key " << key;
          ASSERT_EQ(*got, want->second) << "key " << key;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arms, ConcurrentEquivalence,
                         ::testing::Values(ArmKind::kOneSidedOnly,
                                           ArmKind::kAdaptive,
                                           ArmKind::kRpcForced),
                         [](const auto& arm_info) {
                           switch (arm_info.param) {
                             case ArmKind::kOneSidedOnly:
                               return "OneSided";
                             case ArmKind::kAdaptive:
                               return "Adaptive";
                             case ArmKind::kRpcForced:
                               return "RpcForced";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace fmds

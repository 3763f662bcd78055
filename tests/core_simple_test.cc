#include <gtest/gtest.h>

#include <thread>

#include "src/core/far_barrier.h"
#include "src/core/far_counter.h"
#include "src/core/far_mutex.h"
#include "src/core/far_vector.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

// ------------------------------- FarCounter -------------------------------

TEST(FarCounterTest, BasicOps) {
  TestEnv env;
  auto& client = env.NewClient();
  auto counter = FarCounter::Create(client, env.alloc(), 10);
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ(*counter->Get(client), 10u);
  ASSERT_TRUE(counter->Add(client, 5).ok());
  EXPECT_EQ(*counter->Get(client), 15u);
  EXPECT_EQ(*counter->FetchAdd(client, 1), 15u);
  ASSERT_TRUE(counter->Set(client, 0).ok());
  EXPECT_EQ(*counter->Get(client), 0u);
}

TEST(FarCounterTest, EveryOpIsOneFarAccess) {
  TestEnv env;
  auto& client = env.NewClient();
  auto counter = FarCounter::Create(client, env.alloc());
  ASSERT_TRUE(counter.ok());
  const uint64_t before = client.stats().far_ops;
  ASSERT_TRUE(counter->Add(client, 1).ok());
  ASSERT_TRUE(counter->Get(client).ok());
  ASSERT_TRUE(counter->Set(client, 9).ok());
  EXPECT_EQ(client.stats().far_ops - before, 3u);
}

TEST(FarCounterTest, SharedAcrossClients) {
  TestEnv env;
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto counter = FarCounter::Create(a, env.alloc());
  ASSERT_TRUE(counter.ok());
  auto attached = FarCounter::Attach(counter->addr());
  ASSERT_TRUE(attached.Add(b, 7).ok());
  EXPECT_EQ(*counter->Get(a), 7u);
}

TEST(FarCounterTest, EqualsNotification) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  auto counter = FarCounter::Create(writer, env.alloc(), 3);
  ASSERT_TRUE(counter.ok());
  NotifySpec spec;
  spec.mode = NotifyMode::kOnEqual;
  spec.addr = counter->addr();
  spec.len = kWordSize;
  spec.value = 0;
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(watcher.Subscribe(spec, &inbox).ok());
  ASSERT_TRUE(counter->FetchAdd(writer, static_cast<uint64_t>(-1)).ok());
  ASSERT_TRUE(counter->FetchAdd(writer, static_cast<uint64_t>(-1)).ok());
  watcher.DispatchNotifications();
  EXPECT_FALSE(inbox.Pop().has_value());
  ASSERT_TRUE(counter->FetchAdd(writer, static_cast<uint64_t>(-1)).ok());
  watcher.DispatchNotifications();
  EXPECT_TRUE(inbox.Pop().has_value());  // hit zero
}

// ------------------------------- FarVector --------------------------------

TEST(FarVectorTest, DirectGetSet) {
  TestEnv env;
  auto& client = env.NewClient();
  auto vec = FarVector<uint64_t>::Create(client, env.alloc(), 128);
  ASSERT_TRUE(vec.ok());
  ASSERT_TRUE(vec->Set(client, 5, 42).ok());
  EXPECT_EQ(*vec->Get(client, 5), 42u);
  EXPECT_EQ(*vec->Get(client, 6), 0u);  // zero-initialized
  EXPECT_FALSE(vec->Get(client, 128).ok());
  EXPECT_FALSE(vec->Set(client, 128, 1).ok());
}

TEST(FarVectorTest, IndirectMatchesDirect) {
  TestEnv env;
  auto& client = env.NewClient();
  auto vec = FarVector<uint64_t>::Create(client, env.alloc(), 64);
  ASSERT_TRUE(vec.ok());
  ASSERT_TRUE(vec->SetIndirect(client, 3, 77).ok());
  EXPECT_EQ(*vec->Get(client, 3), 77u);
  EXPECT_EQ(*vec->GetIndirect(client, 3), 77u);
}

TEST(FarVectorTest, IndirectIsOneFarAccess) {
  TestEnv env;
  auto& client = env.NewClient();
  auto vec = FarVector<uint64_t>::Create(client, env.alloc(), 64);
  ASSERT_TRUE(vec.ok());
  const uint64_t before = client.stats().far_ops;
  ASSERT_TRUE(vec->GetIndirect(client, 1).ok());
  ASSERT_TRUE(vec->SetIndirect(client, 1, 5).ok());
  ASSERT_TRUE(vec->AddIndirect(client, 1, 2).ok());
  EXPECT_EQ(client.stats().far_ops - before, 3u);
  EXPECT_EQ(*vec->Get(client, 1), 7u);
}

TEST(FarVectorTest, RangeOps) {
  TestEnv env;
  auto& client = env.NewClient();
  auto vec = FarVector<uint64_t>::Create(client, env.alloc(), 64);
  ASSERT_TRUE(vec.ok());
  std::vector<uint64_t> values{1, 2, 3, 4, 5};
  ASSERT_TRUE(vec->WriteRange(client, 10, values).ok());
  std::vector<uint64_t> out(5);
  ASSERT_TRUE(vec->ReadRange(client, 10, std::span<uint64_t>(out)).ok());
  EXPECT_EQ(out, values);
  EXPECT_FALSE(vec->ReadRange(client, 62, std::span<uint64_t>(out)).ok());
}

TEST(FarVectorTest, RebaseSwitchesIndirectReaders) {
  TestEnv env;
  auto& owner = env.NewClient();
  auto& reader = env.NewClient();
  auto vec = FarVector<uint64_t>::Create(owner, env.alloc(), 16);
  ASSERT_TRUE(vec.ok());
  ASSERT_TRUE(vec->Set(owner, 0, 1).ok());
  auto attached = FarVector<uint64_t>::Attach(reader, vec->header());
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ(*attached->GetIndirect(reader, 0), 1u);
  // Owner swings the base pointer to fresh storage.
  auto fresh = env.alloc().Allocate(16 * sizeof(uint64_t));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(owner.WriteWord(*fresh, 999).ok());
  ASSERT_TRUE(vec->Rebase(owner, *fresh).ok());
  // Indirect readers follow without re-attaching.
  EXPECT_EQ(*attached->GetIndirect(reader, 0), 999u);
}

TEST(FarVectorTest, RangeSubscription) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  auto vec = FarVector<uint64_t>::Create(writer, env.alloc(), 64,
                                         AllocHint::Any());
  ASSERT_TRUE(vec.ok());
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(
      vec->SubscribeRange(watcher, 8, 8, /*with_data=*/true, &inbox).ok());
  ASSERT_TRUE(vec->Set(writer, 3, 1).ok());  // outside
  watcher.DispatchNotifications();
  EXPECT_FALSE(inbox.Pop().has_value());
  ASSERT_TRUE(vec->Set(writer, 9, 123).ok());  // inside
  watcher.DispatchNotifications();
  auto event = inbox.Pop();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->data.size(), sizeof(uint64_t));
  EXPECT_EQ(LoadAs<uint64_t>(std::span<const std::byte>(event->data)), 123u);
}

// -------------------------------- FarMutex --------------------------------

TEST(FarMutexTest, TryLockSemantics) {
  TestEnv env;
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto mutex = FarMutex::Create(a, env.alloc());
  ASSERT_TRUE(mutex.ok());
  EXPECT_TRUE(*mutex->TryLock(a));
  EXPECT_FALSE(*mutex->TryLock(b));
  ASSERT_TRUE(mutex->Unlock(a).ok());
  EXPECT_TRUE(*mutex->TryLock(b));
}

class FarMutexStrategyTest
    : public ::testing::TestWithParam<MutexWaitStrategy> {};

TEST_P(FarMutexStrategyTest, MutualExclusionAcrossThreads) {
  TestEnv env;
  auto& creator = env.NewClient();
  auto mutex = FarMutex::Create(creator, env.alloc());
  ASSERT_TRUE(mutex.ok());
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  uint64_t shared_counter = 0;  // plain variable: the far mutex protects it
  std::vector<FarClient*> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(&env.NewClient());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(mutex->Lock(*clients[t], GetParam()).ok());
        ++shared_counter;
        ASSERT_TRUE(mutex->Unlock(*clients[t]).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(shared_counter, static_cast<uint64_t>(kThreads) * kIters);
}

INSTANTIATE_TEST_SUITE_P(Strategies, FarMutexStrategyTest,
                         ::testing::Values(MutexWaitStrategy::kNotify,
                                           MutexWaitStrategy::kPoll));

TEST(FarMutexTest, GuardReleasesOnScopeExit) {
  TestEnv env;
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto mutex = FarMutex::Create(a, env.alloc());
  ASSERT_TRUE(mutex.ok());
  {
    FarMutexGuard guard(*mutex, a);
    ASSERT_TRUE(guard.status().ok());
    EXPECT_FALSE(*mutex->TryLock(b));
  }
  EXPECT_TRUE(*mutex->TryLock(b));
}

// ------------------------------- FarBarrier -------------------------------

TEST(FarBarrierTest, SingleParticipantPassesImmediately) {
  TestEnv env;
  auto& client = env.NewClient();
  auto barrier = FarBarrier::Create(client, env.alloc(), 1);
  ASSERT_TRUE(barrier.ok());
  EXPECT_TRUE(barrier->Arrive(client).ok());
  EXPECT_TRUE(barrier->Arrive(client).ok());  // reusable
}

TEST(FarBarrierTest, ThreadsRendezvousAcrossRounds) {
  TestEnv env;
  auto& creator = env.NewClient();
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  auto barrier = FarBarrier::Create(creator, env.alloc(), kThreads);
  ASSERT_TRUE(barrier.ok());
  std::atomic<int> phase_counter{0};
  std::vector<FarClient*> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(&env.NewClient());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto handle = FarBarrier::Attach(*clients[t], barrier->base());
      ASSERT_TRUE(handle.ok());
      for (int round = 0; round < kRounds; ++round) {
        phase_counter.fetch_add(1);
        ASSERT_TRUE(handle->Arrive(*clients[t]).ok());
        // After the barrier, every thread of this round has arrived.
        EXPECT_GE(phase_counter.load(), (round + 1) * kThreads);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(phase_counter.load(), kThreads * kRounds);
}

}  // namespace
}  // namespace fmds

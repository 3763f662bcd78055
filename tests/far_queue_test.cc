#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "src/core/far_queue.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

FarQueue::Options SmallQueue(uint64_t capacity = 64, uint64_t clients = 4) {
  FarQueue::Options options;
  options.capacity = capacity;
  options.max_clients = clients;
  return options;
}

TEST(FarQueueTest, FifoSingleClient) {
  TestEnv env;
  auto& client = env.NewClient();
  auto queue = FarQueue::Create(&client, &env.alloc(), SmallQueue());
  ASSERT_TRUE(queue.ok());
  for (uint64_t v = 1; v <= 10; ++v) {
    ASSERT_TRUE(queue->Enqueue(v).ok());
  }
  EXPECT_EQ(*queue->SizeSlow(), 10u);
  for (uint64_t v = 1; v <= 10; ++v) {
    EXPECT_EQ(*queue->Dequeue(), v);
  }
  EXPECT_EQ(queue->Dequeue().status().code(), StatusCode::kNotFound);
}

TEST(FarQueueTest, RejectsZeroValues) {
  TestEnv env;
  auto& client = env.NewClient();
  auto queue = FarQueue::Create(&client, &env.alloc(), SmallQueue());
  ASSERT_TRUE(queue.ok());
  EXPECT_FALSE(queue->Enqueue(0).ok());
}

TEST(FarQueueTest, FastPathIsOneFarAccess) {
  TestEnv env;
  auto& client = env.NewClient();
  auto queue = FarQueue::Create(&client, &env.alloc(),
                                SmallQueue(/*capacity=*/1024));
  ASSERT_TRUE(queue.ok());
  // Steady state away from boundaries.
  for (uint64_t v = 1; v <= 20; ++v) {
    ASSERT_TRUE(queue->Enqueue(v).ok());
  }
  const auto before = client.stats();
  ASSERT_TRUE(queue->Enqueue(99).ok());
  auto delta = client.stats().Delta(before);
  EXPECT_EQ(delta.far_ops, 1u) << "§5.3: enqueue = one far access (saai)";
  const auto before_deq = client.stats();
  ASSERT_TRUE(queue->Dequeue().ok());
  delta = client.stats().Delta(before_deq);
  EXPECT_EQ(delta.far_ops, 1u) << "§5.3: dequeue = one far access (faai)";
  EXPECT_GE(delta.background_ops, 1u);  // slot reset off the critical path
}

TEST(FarQueueTest, WrapAroundManyLaps) {
  TestEnv env;
  auto& client = env.NewClient();
  auto queue = FarQueue::Create(&client, &env.alloc(),
                                SmallQueue(/*capacity=*/32, /*clients=*/2));
  ASSERT_TRUE(queue.ok());
  // Push the pointers through several laps of the 32-slot ring.
  uint64_t next_in = 1;
  uint64_t next_out = 1;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(queue->Enqueue(next_in++).ok());
    }
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(*queue->Dequeue(), next_out++);
    }
  }
  EXPECT_GT(queue->op_stats().wraps, 0u) << "laps must have wrapped";
  EXPECT_EQ(queue->Dequeue().status().code(), StatusCode::kNotFound);
}

TEST(FarQueueTest, ConservativeFullDetection) {
  TestEnv env;
  auto& client = env.NewClient();
  auto queue = FarQueue::Create(&client, &env.alloc(),
                                SmallQueue(/*capacity=*/64, /*clients=*/4));
  ASSERT_TRUE(queue.ok());
  uint64_t accepted = 0;
  for (uint64_t v = 1; v <= 64; ++v) {
    if (!queue->Enqueue(v).ok()) {
      break;
    }
    ++accepted;
  }
  // The margin reserves up to max_clients+1 slots; everything else fits.
  EXPECT_GE(accepted, 64u - 5u);
  EXPECT_LT(accepted, 64u);
  // Space reappears after consuming.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue->Dequeue().ok());
  }
  EXPECT_TRUE(queue->Enqueue(1000).ok());
}

TEST(FarQueueTest, AttachSharesState) {
  TestEnv env;
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto qa = FarQueue::Create(&a, &env.alloc(), SmallQueue());
  ASSERT_TRUE(qa.ok());
  auto qb = FarQueue::Attach(&b, qa->header());
  ASSERT_TRUE(qb.ok());
  ASSERT_TRUE(qa->Enqueue(5).ok());
  EXPECT_EQ(*qb->Dequeue(), 5u);
}

TEST(FarQueueTest, StaleDequeueAtWrapKeepsQueueLive) {
  // A dequeue on a stale estimate lands in the slack of an empty queue. It
  // must give its reservation back at once: waiting for a producer while
  // the head sits past the lapped tail would read as "full" to every
  // producer, and abandoning the reservation would leave the head past
  // slots nobody fills.
  TestEnv env;
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  auto queue = FarQueue::Create(&a, &env.alloc(),
                                SmallQueue(/*capacity=*/16, /*clients=*/2));
  ASSERT_TRUE(queue.ok());
  for (uint64_t i = 1; i <= 15; ++i) {
    ASSERT_TRUE(queue->Enqueue(i).ok());
    ASSERT_EQ(*queue->Dequeue(), i);
  }
  ASSERT_TRUE(queue->Enqueue(100).ok());
  FarQueue::Options never_refresh;
  never_refresh.refresh_every = 1 << 30;
  auto stale = FarQueue::Attach(&b, queue->header(), never_refresh);
  ASSERT_TRUE(stale.ok());  // its estimate: one item queued
  ASSERT_EQ(*queue->Dequeue(), 100u);
  const uint64_t before = b.stats().far_ops;
  EXPECT_EQ(stale->Dequeue().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(b.stats().far_ops - before, 3u)
      << "faai, one slot read, one unwind CAS: no spin";
  ASSERT_TRUE(queue->Enqueue(200).ok());
  EXPECT_EQ(*queue->Dequeue(), 200u);
  EXPECT_EQ(*queue->SizeSlow(), 0u);
}

// MPMC stress: every enqueued value is dequeued exactly once, across laps.
class FarQueueMpmcTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(FarQueueMpmcTest, NoLossNoDuplication) {
  const auto [producers, consumers, capacity] = GetParam();
  TestEnv env;
  auto& creator = env.NewClient();
  FarQueue::Options options;
  options.capacity = capacity;
  options.max_clients = producers + consumers;
  auto queue = FarQueue::Create(&creator, &env.alloc(), options);
  ASSERT_TRUE(queue.ok());
  constexpr uint64_t kPerProducer = 2000;
  const uint64_t total = producers * kPerProducer;
  std::vector<std::atomic<int>> seen(total + 1);
  for (auto& s : seen) {
    s.store(0);
  }
  std::atomic<uint64_t> consumed{0};
  std::vector<FarClient*> clients;
  for (int t = 0; t < producers + consumers; ++t) {
    clients.push_back(&env.NewClient());
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto handle = FarQueue::Attach(clients[p], queue->header());
      ASSERT_TRUE(handle.ok());
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t value = p * kPerProducer + i + 1;
        while (true) {
          Status status = handle->Enqueue(value);
          if (status.ok()) {
            break;
          }
          ASSERT_EQ(status.code(), StatusCode::kResourceExhausted)
              << status.ToString();
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      auto handle =
          FarQueue::Attach(clients[producers + c], queue->header());
      ASSERT_TRUE(handle.ok());
      while (consumed.load() < total) {
        auto value = handle->Dequeue();
        if (value.ok()) {
          ASSERT_GE(*value, 1u);
          ASSERT_LE(*value, total);
          seen[*value].fetch_add(1);
          consumed.fetch_add(1);
        } else {
          ASSERT_EQ(value.status().code(), StatusCode::kNotFound)
              << value.status().ToString();
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (uint64_t v = 1; v <= total; ++v) {
    ASSERT_EQ(seen[v].load(), 1) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FarQueueMpmcTest,
    ::testing::Values(std::make_tuple(1, 1, uint64_t{64}),
                      std::make_tuple(2, 2, uint64_t{64}),
                      std::make_tuple(4, 4, uint64_t{256}),
                      std::make_tuple(4, 1, uint64_t{1024}),
                      std::make_tuple(1, 4, uint64_t{256})));

TEST(FarQueueTest, PerClientFifoOrderPreserved) {
  // With one producer and one consumer, strict FIFO must hold even across
  // wraps and slack landings.
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  auto queue = FarQueue::Create(&producer_client, &env.alloc(),
                                SmallQueue(/*capacity=*/32, /*clients=*/2));
  ASSERT_TRUE(queue.ok());
  auto consumer = FarQueue::Attach(&consumer_client, queue->header());
  ASSERT_TRUE(consumer.ok());
  constexpr uint64_t kTotal = 5000;
  std::thread producer([&] {
    for (uint64_t v = 1; v <= kTotal; ++v) {
      while (!queue->Enqueue(v).ok()) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 1;
  while (expected <= kTotal) {
    auto value = consumer->Dequeue();
    if (value.ok()) {
      ASSERT_EQ(*value, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

TEST(FarQueueWatchTest, IdlePollCostsZeroFarAccesses) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  FarQueue::Options options = SmallQueue(/*capacity=*/256);
  options.watch_estimates = true;
  auto producer = FarQueue::Create(&producer_client, &env.alloc(), options);
  ASSERT_TRUE(producer.ok());
  auto consumer =
      FarQueue::Attach(&consumer_client, producer->header(), options);
  ASSERT_TRUE(consumer.ok());

  // Drain to a genuinely idle queue first.
  EXPECT_EQ(consumer->Dequeue().status().code(), StatusCode::kNotFound);
  const uint64_t before = consumer_client.stats().far_ops;
  for (int poll = 0; poll < 100; ++poll) {
    EXPECT_EQ(consumer->Dequeue().status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(consumer_client.stats().far_ops - before, 0u)
      << "watched pointers: idle polls never touch the fabric";

  // A push wakes the watch (notification), not a poll loop of reads.
  ASSERT_TRUE(producer->Enqueue(77).ok());
  auto got = consumer->Dequeue();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(*got, 77u);
}

TEST(FarQueueWatchTest, DestroyedWatchLeavesItsClientDispatching) {
  // A watched handle that dies before its client unsubscribes its pointer
  // watch; the client's other watched handle keeps dispatching.
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  FarQueue::Options options = SmallQueue(/*capacity=*/256);
  options.watch_estimates = true;
  auto producer = FarQueue::Create(&producer_client, &env.alloc(), options);
  ASSERT_TRUE(producer.ok());
  {
    auto gone = FarQueue::Attach(&consumer_client, producer->header(), options);
    ASSERT_TRUE(gone.ok());
  }
  auto consumer =
      FarQueue::Attach(&consumer_client, producer->header(), options);
  ASSERT_TRUE(consumer.ok());
  const uint64_t published = consumer_client.channel().published();
  ASSERT_TRUE(producer->Enqueue(77).ok());
  EXPECT_EQ(consumer_client.channel().published(), published + 1)
      << "only the live handle's tail watch fires";
  auto got = consumer->Dequeue();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(*got, 77u);
}

TEST(FarQueueWatchTest, WatchedFifoThroughWraps) {
  TestEnv env;
  auto& client = env.NewClient();
  FarQueue::Options options = SmallQueue(/*capacity=*/64);
  options.watch_estimates = true;
  auto queue = FarQueue::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(queue.ok());
  // Several laps at steady ~30 occupancy: fixups force-write the
  // pointers; the watch must track the lap subtractions without
  // desyncing.
  uint64_t next_out = 1;
  for (uint64_t v = 1; v <= 400; ++v) {
    ASSERT_TRUE(queue->Enqueue(v).ok()) << "at " << v;
    if (v > 30) {
      auto got = queue->Dequeue();
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(*got, next_out);
      ++next_out;
    }
  }
  while (next_out <= 400) {
    auto got = queue->Dequeue();
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, next_out);
    ++next_out;
  }
  EXPECT_EQ(queue->Dequeue().status().code(), StatusCode::kNotFound);
  EXPECT_GT(queue->op_stats().wraps, 0u);
}

TEST(FarQueueWatchTest, ProducerConsumerAcrossThreads) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  FarQueue::Options options = SmallQueue(/*capacity=*/128, /*clients=*/2);
  options.watch_estimates = true;
  auto owner = FarQueue::Create(&producer_client, &env.alloc(), options);
  ASSERT_TRUE(owner.ok());
  auto consumer =
      FarQueue::Attach(&consumer_client, owner->header(), options);
  ASSERT_TRUE(consumer.ok());

  constexpr uint64_t kTotal = 2000;
  std::thread producer([&] {
    for (uint64_t v = 1; v <= kTotal; ++v) {
      while (!owner->Enqueue(v).ok()) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 1;
  while (expected <= kTotal) {
    auto value = consumer->Dequeue();
    if (value.ok()) {
      ASSERT_EQ(*value, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

}  // namespace
}  // namespace fmds

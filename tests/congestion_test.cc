// Unit tests for the per-node congestion model (DESIGN.md §14): ServiceQueue
// virtual-time FIFO mechanics (service order, bandwidth sharing, bounded
// overflow, drain-to-idle), the MemoryNode front end, and the FarClient
// admission/retry path that surfaces kOverloaded through sync verbs and the
// async Post*/WaitAll completions.
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/status.h"
#include "src/fabric/far_client.h"
#include "src/fabric/memory_node.h"
#include "src/sim/congestion.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

CongestionOptions Congested(uint64_t service_ns = 1'000,
                            uint64_t queue_ops = 4) {
  CongestionOptions options;
  options.enabled = true;
  options.service_ns = service_ns;
  options.queue_ops = queue_ops;
  options.reject_ns = 150;
  return options;
}

// ------------------------------ ServiceQueue ------------------------------

TEST(ServiceQueue, DisabledQueueAdmitsForFree) {
  ServiceQueue queue(CongestionOptions{});  // enabled = false
  for (int i = 0; i < 100; ++i) {
    const AdmissionOutcome outcome = queue.Offer(0, 1);
    EXPECT_TRUE(outcome.admitted);
    EXPECT_EQ(outcome.queue_ns, 0u);
  }
  EXPECT_EQ(queue.DepthOps(), 0u);
  EXPECT_EQ(queue.Sheds(), 0u);
}

TEST(ServiceQueue, IdleArrivalWaitsZero) {
  // The service rate is occupancy, not latency: the first op at an idle
  // node starts immediately, preserving the base model's fixed RTT.
  ServiceQueue queue(Congested(1'000));
  const AdmissionOutcome outcome = queue.Offer(0, 1);
  EXPECT_TRUE(outcome.admitted);
  EXPECT_EQ(outcome.queue_ns, 0u);
}

TEST(ServiceQueue, FifoBacklogGrowsByServiceTime) {
  // Simultaneous arrivals queue in FIFO order: the i-th waits exactly
  // i * service_ns behind its predecessors.
  ServiceQueue queue(Congested(/*service_ns=*/1'000, /*queue_ops=*/64));
  for (uint64_t i = 0; i < 8; ++i) {
    const AdmissionOutcome outcome = queue.Offer(0, 1);
    ASSERT_TRUE(outcome.admitted);
    EXPECT_EQ(outcome.queue_ns, i * 1'000) << "op " << i;
  }
  EXPECT_EQ(queue.DepthOps(), 8u);
  EXPECT_EQ(queue.BacklogNs(), 8u * 1'000);
}

TEST(ServiceQueue, BoundedQueueShedsAndChargesRejects) {
  ServiceQueue queue(Congested(/*service_ns=*/1'000, /*queue_ops=*/4));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Offer(0, 1).admitted);
  }
  // Queue full: the 5th simultaneous arrival is shed...
  EXPECT_FALSE(queue.Offer(0, 1).admitted);
  EXPECT_EQ(queue.Sheds(), 1u);
  // ...and the bounce itself consumed reject_ns of front-end time, so the
  // backlog a later arrival sees includes it.
  EXPECT_EQ(queue.BacklogNs(), 4u * 1'000 + 150);
  // Batch offers are all-or-nothing: 2 ops into 1 free slot (after one op
  // drains) shed together.
  const AdmissionOutcome batch = queue.Offer(1'200, 2);
  EXPECT_FALSE(batch.admitted);
  EXPECT_EQ(queue.Sheds(), 3u);
}

TEST(ServiceQueue, DrainToIdleRestoresZeroWait) {
  ServiceQueue queue(Congested(/*service_ns=*/1'000, /*queue_ops=*/8));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.Offer(0, 1).admitted);
  }
  EXPECT_EQ(queue.DepthOps(), 8u);
  // Long after the backlog completes, the node is idle again: zero wait,
  // zero depth — fixed-RTT behaviour is fully recovered.
  const AdmissionOutcome late = queue.Offer(100'000, 1);
  ASSERT_TRUE(late.admitted);
  EXPECT_EQ(late.queue_ns, 0u);
  EXPECT_EQ(queue.DepthOps(), 1u);
  EXPECT_EQ(queue.Offer(200'000, 1).queue_ns, 0u);
}

TEST(ServiceQueue, SetOptionsReconfiguresAtRuntime) {
  ServiceQueue queue(CongestionOptions{});
  EXPECT_FALSE(queue.enabled());
  queue.SetOptions(Congested(/*service_ns=*/500, /*queue_ops=*/16));
  EXPECT_TRUE(queue.enabled());
  ASSERT_TRUE(queue.Offer(0, 1).admitted);
  EXPECT_EQ(queue.Offer(0, 1).queue_ns, 500u);
  // Slowdown phase: new work is priced at the new rate; backlog persists.
  CongestionOptions slow = Congested(/*service_ns=*/5'000, /*queue_ops=*/16);
  queue.SetOptions(slow);
  EXPECT_EQ(queue.Offer(0, 1).queue_ns, 2u * 500);
  EXPECT_EQ(queue.Offer(0, 1).queue_ns, 2u * 500 + 5'000);
  // Disable: admission is free again.
  queue.SetOptions(CongestionOptions{});
  EXPECT_EQ(queue.Offer(0, 1).queue_ns, 0u);
}

// ------------------------- MemoryNode + FarClient -------------------------

TEST(Congestion, CongestionOffKeepsFixedRtt) {
  // An enabled-but-idle front end must price a closed-loop single client
  // identically to a congestion-free fabric (queue_ns == 0 throughout).
  FabricOptions plain = SmallFabric(1);
  FabricOptions congested = SmallFabric(1);
  congested.congestion = Congested(/*service_ns=*/100, /*queue_ops=*/256);

  uint64_t elapsed[2];
  FabricOptions* options[] = {&plain, &congested};
  for (int i = 0; i < 2; ++i) {
    TestEnv env(*options[i]);
    auto& client = env.NewClient();
    auto addr = env.alloc().Allocate(64);
    ASSERT_TRUE(addr.ok());
    const uint64_t start = client.clock().now_ns();
    for (int op = 0; op < 50; ++op) {
      ASSERT_TRUE(client.WriteWord(*addr, op).ok());
      ASSERT_TRUE(client.ReadWord(*addr).ok());
    }
    elapsed[i] = client.clock().now_ns() - start;
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

TEST(Congestion, ShedSurfacesOverloadedOnSyncVerb) {
  FabricOptions options = SmallFabric(1);
  options.congestion = Congested(/*service_ns=*/100'000, /*queue_ops=*/4);
  TestEnv env(options);
  auto& client = env.NewClient();  // default retry: max_attempts = 1
  auto addr = env.alloc().Allocate(64);
  ASSERT_TRUE(addr.ok());

  // Fill the node's queue open-loop (other clients' offered load).
  MemoryNode& node = env.fabric().node(0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(node.OfferLoad(0, 1).admitted);
  }
  const Result<uint64_t> result = client.ReadWord(*addr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOverloaded);
  EXPECT_GE(client.stats().overload_sheds, 1u);
  EXPECT_EQ(client.stats().overload_failures, 1u);
  EXPECT_GE(node.stats().ops_shed.load(), 1u);
}

TEST(Congestion, RetryWithBackoffDrainsAndSucceeds) {
  FabricOptions options = SmallFabric(1);
  options.congestion = Congested(/*service_ns=*/10'000, /*queue_ops=*/4);
  TestEnv env(options);
  auto& client = env.NewClient();
  RetryPolicy retry;
  retry.max_attempts = 16;
  retry.backoff_base_ns = 2'000;
  retry.backoff_max_ns = 500'000;
  retry.deadline_ns = 0;  // unlimited budget
  client.set_retry_policy(retry);
  auto addr = env.alloc().Allocate(64);
  ASSERT_TRUE(addr.ok());

  MemoryNode& node = env.fabric().node(0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(node.OfferLoad(0, 1).admitted);
  }
  // Backoff advances the client's clock, which advances the node's virtual
  // time, draining the backlog: with enough attempts the op always lands
  // (the gate-d zero-leak property, unit-sized).
  ASSERT_TRUE(client.ReadWord(*addr).ok());
  EXPECT_GE(client.stats().overload_retries, 1u);
  EXPECT_EQ(client.stats().overload_failures, 0u);
}

TEST(Congestion, DeadlineBudgetFailsFast) {
  FabricOptions options = SmallFabric(1);
  options.congestion = Congested(/*service_ns=*/100'000, /*queue_ops=*/4);
  TestEnv env(options);
  auto& client = env.NewClient();
  RetryPolicy retry;
  retry.max_attempts = 100;
  retry.backoff_base_ns = 4'000;
  retry.deadline_ns = 10'000;  // far less than the 400us backlog
  client.set_retry_policy(retry);
  auto addr = env.alloc().Allocate(64);
  ASSERT_TRUE(addr.ok());

  MemoryNode& node = env.fabric().node(0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(node.OfferLoad(0, 1).admitted);
  }
  const uint64_t start = client.clock().now_ns();
  const Result<uint64_t> result = client.ReadWord(*addr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOverloaded);
  // The op gave up within its budget instead of sleeping past it.
  EXPECT_LE(client.clock().now_ns() - start, 2u * retry.deadline_ns);
}

TEST(Congestion, BatchCompletionCarriesOverloaded) {
  // The doorbell offers once per op: a shed op's completion carries
  // kOverloaded while admitted ops in the same doorbell succeed.
  FabricOptions options = SmallFabric(1);
  options.congestion = Congested(/*service_ns=*/100'000, /*queue_ops=*/4);
  TestEnv env(options);
  auto& client = env.NewClient();
  auto addr = env.alloc().Allocate(64);
  ASSERT_TRUE(addr.ok());

  MemoryNode& node = env.fabric().node(0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(node.OfferLoad(0, 1).admitted);
  }
  // One waiting slot left: the first posted op is admitted, the second is
  // shed at the (single-offer, no-retry) batch admission point.
  client.PostWriteWord(*addr, 1);
  client.PostWriteWord(*addr, 2);
  std::array<FarClient::Completion, 2> completions;
  EXPECT_EQ(client.WaitAll(completions).code(), StatusCode::kOverloaded);
  EXPECT_TRUE(completions[0].status.ok());
  EXPECT_EQ(completions[1].status.code(), StatusCode::kOverloaded);
  EXPECT_GE(client.stats().overload_sheds, 1u);
}

TEST(Congestion, QueueingDelayExtendsRoundTrip) {
  // A client op that lands behind a backlog pays the queueing delay in its
  // own clock: the modelled round trip stretches with load.
  FabricOptions options = SmallFabric(1);
  options.congestion = Congested(/*service_ns=*/50'000, /*queue_ops=*/64);
  TestEnv env(options);
  auto& client = env.NewClient();
  auto addr = env.alloc().Allocate(64);
  ASSERT_TRUE(addr.ok());

  // Idle baseline round trip.
  uint64_t t0 = client.clock().now_ns();
  ASSERT_TRUE(client.ReadWord(*addr).ok());
  const uint64_t idle_rtt = client.clock().now_ns() - t0;

  // Pile 8 foreign ops onto the node, then measure again.
  MemoryNode& node = env.fabric().node(0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(node.OfferLoad(client.clock().now_ns(), 1).admitted);
  }
  t0 = client.clock().now_ns();
  ASSERT_TRUE(client.ReadWord(*addr).ok());
  const uint64_t loaded_rtt = client.clock().now_ns() - t0;
  EXPECT_GE(loaded_rtt, idle_rtt + 8u * 50'000);
}

}  // namespace
}  // namespace fmds

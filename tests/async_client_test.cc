// Async batched pipeline (Post*, then the WaitAll doorbell or the
// ExecuteSerially driver, each completing op i into the caller's slot i):
// completion ordering, back-to-back doorbells, per-op error propagation,
// latency/stats accounting (doorbell batching, §3.1/§4.2), equivalence of
// async interleavings with the sync path, a multi-threaded doorbell stress,
// and MultiGet hot paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "src/baselines/chained_hash.h"
#include "src/baselines/neighborhood_hash.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/blob_store.h"
#include "src/core/ht_tree.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

// ---------------------------- Core pipeline ----------------------------

TEST(AsyncClientTest, CompletionsArriveInPostOrder) {
  TestEnv env;
  auto& client = env.NewClient();
  ASSERT_TRUE(client.WriteWord(64, 11).ok());
  ASSERT_TRUE(client.WriteWord(72, 22).ok());
  ASSERT_TRUE(client.WriteWord(80, 33).ok());

  // Each Post* returns its op's index in the coming doorbell.
  EXPECT_EQ(client.PostReadWord(80), 0u);
  EXPECT_EQ(client.PostReadWord(64), 1u);
  EXPECT_EQ(client.PostReadWord(72), 2u);
  EXPECT_EQ(client.pending_ops(), 3u);
  std::array<FarClient::Completion, 3> done;
  ASSERT_TRUE(client.WaitAll(done).ok());
  EXPECT_EQ(client.pending_ops(), 0u);

  EXPECT_EQ(done[0].word, 33u);
  EXPECT_EQ(done[1].word, 11u);
  EXPECT_EQ(done[2].word, 22u);
  // The next doorbell numbers its ops from 0 again.
  EXPECT_EQ(client.PostReadWord(64), 0u);
  std::array<FarClient::Completion, 1> again;
  ASSERT_TRUE(client.WaitAll(again).ok());
  EXPECT_EQ(again[0].word, 11u);
}

TEST(AsyncClientTest, BatchExecutesInPostOrderWithinOneFlush) {
  // A write posted before a read of the same word must be visible to it.
  TestEnv env;
  auto& client = env.NewClient();
  ASSERT_TRUE(client.WriteWord(64, 1).ok());
  client.PostWriteWord(64, 42);
  client.PostReadWord(64);
  client.PostCompareSwap(64, 42, 99);
  client.PostFetchAdd(64, 1);
  std::vector<FarClient::Completion> done(client.pending_ops());
  ASSERT_TRUE(client.WaitAll(done).ok());
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[1].word, 42u);   // read sees the posted write
  EXPECT_EQ(done[2].word, 42u);   // CAS observes 42, installs 99
  EXPECT_EQ(done[3].word, 99u);   // fetch-add observes the CAS result
  EXPECT_EQ(*client.ReadWord(64), 100u);
}

TEST(AsyncClientTest, PartialBatchFlushes) {
  TestEnv env;
  auto& client = env.NewClient();
  const ClientStats before = client.stats();
  client.PostWriteWord(64, 7);
  client.PostWriteWord(72, 8);
  std::array<FarClient::Completion, 2> writes;
  ASSERT_TRUE(client.WaitAll(writes).ok());
  client.PostReadWord(64);
  client.PostReadWord(72);
  client.PostReadWord(64);
  std::array<FarClient::Completion, 3> reads;
  ASSERT_TRUE(client.WaitAll(reads).ok());
  const ClientStats delta = client.stats().Delta(before);
  EXPECT_EQ(delta.batches, 2u);
  EXPECT_EQ(delta.batched_ops, 5u);
  EXPECT_EQ(delta.far_ops, 2u);  // one waited round trip per doorbell
  EXPECT_EQ(reads[0].word, 7u);
  EXPECT_EQ(reads[1].word, 8u);
  EXPECT_EQ(reads[2].word, 7u);
  // An empty doorbell rings nothing: only its completion check is charged.
  const ClientStats before_empty = client.stats();
  ASSERT_TRUE(client.WaitAll({}).ok());
  const ClientStats empty = client.stats().Delta(before_empty);
  EXPECT_EQ(empty.batches, 0u);
  EXPECT_EQ(empty.far_ops, 0u);
  EXPECT_EQ(empty.near_ops, 1u);
}

TEST(AsyncClientTest, WaitAllFlushesPendingOps) {
  TestEnv env;
  auto& client = env.NewClient();
  client.PostWriteWord(64, 5);
  client.PostReadWord(64);
  EXPECT_EQ(client.pending_ops(), 2u);
  std::vector<FarClient::Completion> done(client.pending_ops());
  ASSERT_TRUE(client.WaitAll(done).ok());
  EXPECT_EQ(client.pending_ops(), 0u);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1].word, 5u);
}

TEST(AsyncClientTest, PerOpErrorsDoNotPoisonTheBatch) {
  TestEnv env(SmallFabric(1, 1 << 20));
  auto& client = env.NewClient();
  const FarAddr beyond = env.fabric().total_capacity();
  ASSERT_TRUE(client.WriteWord(64, 77).ok());

  client.PostReadWord(64);
  client.PostReadWord(beyond);       // out of range
  client.PostWriteWord(beyond, 1);   // out of range
  client.PostReadWord(64 + 1);       // misaligned
  client.PostReadWord(72);
  std::vector<FarClient::Completion> done(client.pending_ops());
  const Status overall = client.WaitAll(done);
  EXPECT_EQ(overall.code(), StatusCode::kOutOfRange);  // first error surfaces
  ASSERT_EQ(done.size(), 5u);
  EXPECT_TRUE(done[0].status.ok());
  EXPECT_EQ(done[0].word, 77u);
  EXPECT_EQ(done[1].status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(done[2].status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(done[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(done[4].status.ok());
}

TEST(AsyncClientTest, PostReadAndWriteBuffers) {
  TestEnv env;
  auto& client = env.NewClient();
  std::vector<std::byte> payload(100);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i);
  }
  client.PostWrite(256, payload);
  // Write payloads are copied at Post time: clobber the source before the
  // doorbell.
  std::fill(payload.begin(), payload.end(), std::byte{0xFF});
  std::vector<std::byte> echo(100);
  client.PostRead(256, echo);
  std::array<FarClient::Completion, 2> done;
  ASSERT_TRUE(client.WaitAll(done).ok());
  for (size_t i = 0; i < echo.size(); ++i) {
    EXPECT_EQ(echo[i], static_cast<std::byte>(i));
  }
}

TEST(AsyncClientTest, PostRGatherCollectsScatteredSegments) {
  TestEnv env;
  auto& client = env.NewClient();
  ASSERT_TRUE(client.WriteWord(64, 0x1111).ok());
  ASSERT_TRUE(client.WriteWord(512, 0x2222).ok());
  uint64_t out[2] = {0, 0};
  client.PostRGather({{64, 8}, {512, 8}},
                     std::as_writable_bytes(std::span<uint64_t>(out)));
  std::array<FarClient::Completion, 1> done;
  ASSERT_TRUE(client.WaitAll(done).ok());
  EXPECT_EQ(out[0], 0x1111u);
  EXPECT_EQ(out[1], 0x2222u);
}

TEST(AsyncClientTest, PostLoad0NullPointerFailsPrecondition) {
  TestEnv env;
  auto& client = env.NewClient();
  ASSERT_TRUE(client.WriteWord(64, 0).ok());  // null pointer word
  uint64_t out;
  client.PostLoad0(64, AsBytes(out));
  std::array<FarClient::Completion, 1> done;
  EXPECT_FALSE(client.WaitAll(done).ok());
  EXPECT_EQ(done[0].status.code(), StatusCode::kFailedPrecondition);
}

TEST(AsyncClientTest, PostLoad0FollowsPointerLikeSyncLoad0) {
  TestEnv env;
  auto& client = env.NewClient();
  ASSERT_TRUE(client.WriteWord(128, 0xabcd).ok());
  ASSERT_TRUE(client.WriteWord(64, 128).ok());  // pointer -> 128
  uint64_t out = 0;
  client.PostLoad0(64, AsBytes(out));
  std::array<FarClient::Completion, 1> done;
  ASSERT_TRUE(client.WaitAll(done).ok());
  EXPECT_EQ(out, 0xabcdu);
  EXPECT_EQ(done[0].word, 128u);  // indirect pointer surfaces in the word
}

// ------------------------- Latency accounting -------------------------
// A doorbell's clock delta is its batch wait plus one near access for the
// completion check; these tests subtract that access to time the batch.

TEST(AsyncClientTest, SingleOpBatchCostsExactlyOneSyncOp) {
  TestEnv env;
  auto& sync_client = env.NewClient();
  auto& async_client = env.NewClient();
  const LatencyModel model;  // defaults match the fabric's model

  const uint64_t sync_t0 = sync_client.clock().now_ns();
  ASSERT_TRUE(sync_client.ReadWord(64).ok());
  const uint64_t sync_cost = sync_client.clock().now_ns() - sync_t0;

  const uint64_t near_before = async_client.stats().near_ops;
  const uint64_t async_t0 = async_client.clock().now_ns();
  async_client.PostReadWord(64);
  std::array<FarClient::Completion, 1> done;
  ASSERT_TRUE(async_client.WaitAll(done).ok());
  const uint64_t async_cost =
      async_client.clock().now_ns() - async_t0 - model.near_ns;
  EXPECT_EQ(async_cost, sync_cost);
  EXPECT_EQ(async_client.stats().near_ops - near_before, 1u);
}

TEST(AsyncClientTest, BatchOfKCostsOneRttPlusPerOpOccupancy) {
  TestEnv env;
  auto& client = env.NewClient();
  const LatencyModel model;  // defaults match the fabric's model
  constexpr uint64_t kOps = 8;

  const ClientStats before = client.stats();
  const uint64_t t0 = client.clock().now_ns();
  for (uint64_t i = 0; i < kOps; ++i) {
    client.PostReadWord(64 + 8 * i);
  }
  std::array<FarClient::Completion, kOps> done;
  ASSERT_TRUE(client.WaitAll(done).ok());
  const uint64_t elapsed = client.clock().now_ns() - t0 - model.near_ns;
  EXPECT_EQ(elapsed, model.BatchNs(kOps, kOps * kWordSize));

  const ClientStats delta = client.stats().Delta(before);
  EXPECT_EQ(delta.near_ops, 1u);              // the completion check
  EXPECT_EQ(delta.far_ops, 1u);               // one waited round trip
  EXPECT_EQ(delta.messages, kOps);            // traffic is still k messages
  EXPECT_EQ(delta.batches, 1u);
  EXPECT_EQ(delta.batched_ops, kOps);
  EXPECT_EQ(delta.overlapped_rtts_saved, kOps - 1);
  // Strictly cheaper than k sync round trips.
  EXPECT_LT(elapsed, kOps * model.FarRoundTripNs(kWordSize));
}

TEST(AsyncClientTest, CrossNodeGroupsOverlap) {
  TestEnv env(SmallFabric(2, 1 << 20));
  auto& client = env.NewClient();
  const LatencyModel model;
  const FarAddr node1_word = (1ull << 20) + 64;  // contiguous partitions

  uint64_t near_before = client.stats().near_ops;
  const uint64_t t0 = client.clock().now_ns();
  client.PostReadWord(64);          // node 0
  client.PostReadWord(node1_word);  // node 1
  std::array<FarClient::Completion, 2> pair;
  ASSERT_TRUE(client.WaitAll(pair).ok());
  const uint64_t both = client.clock().now_ns() - t0 - model.near_ns;
  EXPECT_EQ(client.stats().near_ops - near_before, 1u);

  near_before = client.stats().near_ops;
  const uint64_t t1 = client.clock().now_ns();
  client.PostReadWord(64);
  std::array<FarClient::Completion, 1> single;
  ASSERT_TRUE(client.WaitAll(single).ok());
  const uint64_t one = client.clock().now_ns() - t1 - model.near_ns;
  EXPECT_EQ(client.stats().near_ops - near_before, 1u);

  // Two single-op groups on different nodes overlap: same cost as one.
  EXPECT_EQ(both, one);
}

TEST(AsyncClientTest, ErrorPolicyIndirectionChargesSerialRoundTrip) {
  // Pointer on node 0 targeting node 1 under kError: the client completes
  // the dependent read itself — a second, non-overlappable round trip.
  FabricOptions options = SmallFabric(2, 1 << 20);
  options.indirection = IndirectionPolicy::kError;
  TestEnv env(options);
  auto& client = env.NewClient();
  const FarAddr remote = (1ull << 20) + 256;
  ASSERT_TRUE(client.WriteWord(remote, 0x5a5a).ok());
  ASSERT_TRUE(client.WriteWord(64, remote).ok());

  const ClientStats before = client.stats();
  uint64_t out = 0;
  client.PostLoad0(64, AsBytes(out));
  std::array<FarClient::Completion, 1> done;
  ASSERT_TRUE(client.WaitAll(done).ok());
  EXPECT_EQ(out, 0x5a5au);
  // Doorbell round trip + serialized dependent access.
  EXPECT_EQ(client.stats().Delta(before).far_ops, 2u);
}

// ------------------- Async/sync equivalence (property) -------------------

TEST(AsyncClientTest, RandomAsyncInterleavingsMatchSyncExecution) {
  // The same deterministic op stream applied (a) synchronously and (b) in
  // randomly sized batches must produce identical memory images and
  // identical per-op results.
  constexpr uint64_t kWords = 32;
  constexpr int kOpsTotal = 600;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    TestEnv sync_env(SmallFabric());
    TestEnv async_env(SmallFabric());
    auto& sync_client = sync_env.NewClient();
    auto& async_client = async_env.NewClient();

    // One deterministic op stream drives both legs.
    struct Op {
      uint64_t kind;
      uint64_t slot;
      uint64_t arg;
      bool flush_after;
    };
    Rng rng(seed);
    std::vector<Op> ops;
    for (int i = 0; i < kOpsTotal; ++i) {
      ops.push_back(Op{rng.NextBelow(4), rng.NextBelow(kWords),
                       rng.NextBelow(1000), rng.NextBool(0.2)});
    }
    std::vector<uint64_t> sync_results;

    auto addr_of = [](uint64_t slot) { return 64 + 8 * slot; };

    // Sync leg.
    for (const Op& op : ops) {
      switch (op.kind) {
        case 0:
          ASSERT_TRUE(sync_client.WriteWord(addr_of(op.slot), op.arg).ok());
          sync_results.push_back(0);
          break;
        case 1:
          sync_results.push_back(*sync_client.ReadWord(addr_of(op.slot)));
          break;
        case 2:
          sync_results.push_back(*sync_client.CompareSwap(
              addr_of(op.slot), op.arg, op.arg + 1));
          break;
        default:
          sync_results.push_back(
              *sync_client.FetchAdd(addr_of(op.slot), op.arg));
          break;
      }
    }

    // Async leg: identical stream, doorbells at random batch boundaries;
    // each batch completes into the next slots of `done`.
    std::vector<FarClient::Completion> done;
    auto ring = [&] {
      const size_t first = done.size();
      done.resize(first + async_client.pending_ops());
      return async_client.WaitAll(std::span(done).subspan(first));
    };
    for (const Op& op : ops) {
      switch (op.kind) {
        case 0:
          async_client.PostWriteWord(addr_of(op.slot), op.arg);
          break;
        case 1:
          async_client.PostReadWord(addr_of(op.slot));
          break;
        case 2:
          async_client.PostCompareSwap(addr_of(op.slot), op.arg, op.arg + 1);
          break;
        default:
          async_client.PostFetchAdd(addr_of(op.slot), op.arg);
          break;
      }
      if (op.flush_after) {
        ASSERT_TRUE(ring().ok());
      }
    }
    ASSERT_TRUE(ring().ok());

    ASSERT_EQ(done.size(), sync_results.size());
    for (size_t i = 0; i < done.size(); ++i) {
      EXPECT_EQ(done[i].word, sync_results[i]) << "op " << i;
    }
    for (uint64_t slot = 0; slot < kWords; ++slot) {
      EXPECT_EQ(*async_client.ReadWord(addr_of(slot)),
                *sync_client.ReadWord(addr_of(slot)))
          << "slot " << slot;
    }
    // Batching must have saved round trips somewhere.
    EXPECT_GT(async_client.stats().overlapped_rtts_saved, 0u);
    EXPECT_LT(async_client.stats().far_ops, sync_client.stats().far_ops);
  }

  // Every posted kind, on two page-striped nodes under the kError policy:
  // ranges across the stripe boundary, load0 through a null, a same-node
  // and a cross-node pointer (the bounce), rgather, and a CAS guarded by a
  // write that may fail. One stream drives three legs: the sync verbs, the
  // doorbell (WaitAll) and the serial driver (ExecuteSerially). All three
  // must leave the same memory and complete every op alike; the serial
  // driver must also charge exactly what the sync verbs charge.
  enum Kind : uint64_t {
    kWriteWord, kReadWord, kCas, kFetchAdd, kWrite, kRead, kLoad0, kRGather,
    kGuardedCas, kKinds
  };
  struct RichOp {
    uint64_t kind;
    uint64_t slot;
    uint64_t arg;
    bool flush_after;
  };
  struct Outcome {
    StatusCode code = StatusCode::kOk;
    uint64_t word = 0;
    std::array<uint64_t, 3> out{};
  };
  // Slot kWords/2 starts page 1 (node 1); the slots before it end page 0.
  constexpr FarAddr kBase = kPageSize - kWordSize * (kWords / 2);
  constexpr FarAddr kPtrs = kBase - 64;  // page 0: null, same-node, remote
  auto slot_addr = [](uint64_t slot) { return kBase + kWordSize * slot; };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    FabricOptions options = StripedFabric(2, kPageSize, 1 << 20);
    options.indirection = IndirectionPolicy::kError;
    TestEnv sync_env(options);
    TestEnv async_env(options);
    TestEnv serial_env(options);
    FarClient& sync_client = sync_env.NewClient();
    FarClient& async_client = async_env.NewClient();
    FarClient& serial_client = serial_env.NewClient();
    const FarAddr beyond = sync_env.fabric().total_capacity();
    for (FarClient* c : {&sync_client, &async_client, &serial_client}) {
      for (uint64_t slot = 0; slot < kWords; ++slot) {
        ASSERT_TRUE(c->WriteWord(slot_addr(slot), slot * 10).ok());
      }
      ASSERT_TRUE(c->WriteWord(kPtrs, kNullFarAddr).ok());
      ASSERT_TRUE(c->WriteWord(kPtrs + 8, slot_addr(2)).ok());
      ASSERT_TRUE(c->WriteWord(kPtrs + 16, slot_addr(kWords - 3)).ok());
    }

    Rng rng(seed);
    std::vector<RichOp> ops;
    size_t entries = 0;  // completions: a guarded pair posts two ops
    for (int i = 0; i < kOpsTotal; ++i) {
      ops.push_back(RichOp{rng.NextBelow(kKinds), rng.NextBelow(kWords - 3),
                           rng.NextBelow(1000), rng.NextBool(0.2)});
      entries += ops.back().kind == kGuardedCas ? 2 : 1;
    }
    // Outcome slots stay put while ops are in flight (read destinations).
    std::vector<Outcome> sync_got(entries);
    std::vector<Outcome> async_got(entries);
    std::vector<Outcome> serial_got(entries);
    auto out_bytes = [](Outcome& o, size_t words) {
      return std::as_writable_bytes(std::span<uint64_t>(o.out.data(), words));
    };
    // A 3-word range starting one or two words before node 1's page.
    auto range_addr = [&](const RichOp& op) {
      return slot_addr(kWords / 2 - 1 - op.arg % 2);
    };
    auto gather_iov = [&](const RichOp& op) {
      return std::vector<FarSeg>{{slot_addr(op.slot), 8},
                                 {slot_addr((op.slot + op.arg) % kWords), 8},
                                 {slot_addr(kWords - 1 - op.slot), 8}};
    };
    // The guarded pair's write fails (out of range) on odd args.
    auto guard_write_addr = [&](const RichOp& op) {
      return op.arg % 2 == 1 ? beyond : slot_addr(op.slot + 1);
    };

    auto word = [](const Result<uint64_t>& r, Outcome* o) {
      o->code = r.status().code();
      o->word = r.ok() ? *r : 0;
    };
    auto run_sync = [&](const RichOp& op, Outcome* o) {
      const uint64_t payload[3] = {op.arg, op.arg + 1, op.arg + 2};
      const auto data = std::as_bytes(std::span<const uint64_t>(payload));
      FarClient& c = sync_client;
      switch (op.kind) {
        case kWriteWord:
          o->code = c.WriteWord(slot_addr(op.slot), op.arg).code();
          break;
        case kReadWord:
          word(c.ReadWord(slot_addr(op.slot)), o);
          break;
        case kCas:
          word(c.CompareSwap(slot_addr(op.slot), op.arg, op.arg + 1), o);
          break;
        case kFetchAdd:
          word(c.FetchAdd(slot_addr(op.slot), op.arg), o);
          break;
        case kWrite:
          o->code = c.Write(range_addr(op), data).code();
          break;
        case kRead:
          o->code = c.Read(range_addr(op), out_bytes(*o, 3)).code();
          break;
        case kLoad0:
          word(c.Load0(kPtrs + 8 * (op.arg % 3), out_bytes(*o, 2)), o);
          break;
        case kRGather:
          o->code = c.RGather(gather_iov(op), out_bytes(*o, 3)).code();
          break;
        default: {  // kGuardedCas: the CAS runs only if its write succeeded
          const Status wrote = c.Write(guard_write_addr(op), data.first(8));
          o[0].code = wrote.code();
          if (wrote.ok()) {
            word(c.CompareSwap(slot_addr(op.slot), op.arg, op.arg + 1), &o[1]);
          } else {
            o[1].code = wrote.code();
          }
          break;
        }
      }
    };
    auto post = [&](FarClient& c, const RichOp& op, Outcome* o) {
      const uint64_t payload[3] = {op.arg, op.arg + 1, op.arg + 2};
      const auto data = std::as_bytes(std::span<const uint64_t>(payload));
      switch (op.kind) {
        case kWriteWord:
          c.PostWriteWord(slot_addr(op.slot), op.arg);
          break;
        case kReadWord:
          c.PostReadWord(slot_addr(op.slot));
          break;
        case kCas:
          c.PostCompareSwap(slot_addr(op.slot), op.arg, op.arg + 1);
          break;
        case kFetchAdd:
          c.PostFetchAdd(slot_addr(op.slot), op.arg);
          break;
        case kWrite:
          c.PostWrite(range_addr(op), data);  // copied: payload dies here
          break;
        case kRead:
          c.PostRead(range_addr(op), out_bytes(*o, 3));
          break;
        case kLoad0:
          c.PostLoad0(kPtrs + 8 * (op.arg % 3), out_bytes(*o, 2));
          break;
        case kRGather:
          c.PostRGather(gather_iov(op), out_bytes(*o, 3));
          break;
        default: {
          const size_t write =
              c.PostWrite(guard_write_addr(op), data.first(8));
          c.PostCompareSwap(slot_addr(op.slot), op.arg, op.arg + 1, write);
          break;
        }
      }
    };
    auto absorb = [](std::span<const FarClient::Completion> done,
                     Outcome* first) {
      for (size_t k = 0; k < done.size(); ++k) {
        first[k].code = done[k].status.code();
        first[k].word = done[k].word;
      }
    };

    size_t next = 0;         // next outcome slot
    size_t batch_start = 0;  // first outcome slot of the open batch
    for (size_t i = 0; i < ops.size(); ++i) {
      const RichOp& op = ops[i];
      run_sync(op, &sync_got[next]);
      post(async_client, op, &async_got[next]);
      post(serial_client, op, &serial_got[next]);
      next += op.kind == kGuardedCas ? 2 : 1;
      if (!op.flush_after && i + 1 < ops.size()) {
        continue;
      }
      std::vector<FarClient::Completion> done(async_client.pending_ops());
      (void)async_client.WaitAll(done);
      ASSERT_EQ(done.size(), next - batch_start);
      absorb(done, &async_got[batch_start]);
      std::vector<FarClient::Completion> serial_done(
          serial_client.pending_ops());
      serial_client.ExecuteSerially(serial_done);
      ASSERT_EQ(serial_done.size(), next - batch_start);
      absorb(serial_done, &serial_got[batch_start]);
      batch_start = next;
      // The serial driver charges exactly the sync verbs' costs.
      EXPECT_EQ(serial_client.stats().ToString(),
                sync_client.stats().ToString())
          << "after op " << i;
      EXPECT_EQ(serial_client.clock().now_ns(), sync_client.clock().now_ns())
          << "after op " << i;
    }
    ASSERT_EQ(next, entries);

    for (size_t k = 0; k < entries; ++k) {
      for (const auto* got : {&async_got, &serial_got}) {
        EXPECT_EQ((*got)[k].code, sync_got[k].code) << "entry " << k;
        EXPECT_EQ((*got)[k].word, sync_got[k].word) << "entry " << k;
        EXPECT_EQ((*got)[k].out, sync_got[k].out) << "entry " << k;
      }
    }
    for (uint64_t slot = 0; slot < kWords; ++slot) {
      const uint64_t want = *sync_client.ReadWord(slot_addr(slot));
      EXPECT_EQ(*async_client.ReadWord(slot_addr(slot)), want) << slot;
      EXPECT_EQ(*serial_client.ReadWord(slot_addr(slot)), want) << slot;
    }
    // The stream reached every outcome the op kinds can produce.
    auto count = [&](StatusCode code) {
      return std::count_if(sync_got.begin(), sync_got.end(),
                           [code](const Outcome& o) { return o.code == code; });
    };
    EXPECT_GT(count(StatusCode::kFailedPrecondition), 0);  // null load0
    EXPECT_GT(count(StatusCode::kOutOfRange), 0);  // failed guard write
    EXPECT_GT(sync_client.stats().far_ops, async_client.stats().far_ops);
  }
}

// --------------------------- Threaded stress ---------------------------

TEST(AsyncClientTest, ConcurrentFlushesKeepWordsAtomic) {
  // N client threads ring mixed doorbells against one memory node. Counter
  // words accumulate exactly; hammered words never tear (always hold a
  // value some thread wrote whole).
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr uint64_t kCounter = 64;
  constexpr uint64_t kShared = 72;
  TestEnv env(SmallFabric(1));
  std::vector<FarClient*> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(&env.NewClient());
  }
  ASSERT_TRUE(clients[0]->WriteWord(kCounter, 0).ok());
  ASSERT_TRUE(clients[0]->WriteWord(kShared, 0).ok());

  auto tagged = [](int thread, int round) {
    const uint64_t tag = 0x1000 + thread;
    return tag << 32 | static_cast<uint64_t>(round);
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FarClient& client = *clients[t];
      for (int r = 0; r < kRounds; ++r) {
        client.PostFetchAdd(kCounter, 1);
        client.PostWriteWord(kShared, tagged(t, r));
        client.PostReadWord(kShared);
        std::vector<FarClient::Completion> done(client.pending_ops());
        if (!client.WaitAll(done).ok() || done.size() != 3) {
          failures.fetch_add(1);
          continue;
        }
        // The shared word must be SOME whole tagged value (no tearing).
        const uint64_t seen = done[2].word;
        const uint64_t tag = seen >> 32;
        const uint64_t round = seen & 0xffffffffu;
        if (tag < 0x1000 || tag >= 0x1000 + kThreads ||
            round >= static_cast<uint64_t>(kRounds)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(*clients[0]->ReadWord(kCounter),
            static_cast<uint64_t>(kThreads) * kRounds);
}

// ------------------------- MultiGet hot paths -------------------------

TEST(AsyncClientTest, HtTreeMultiGetMatchesSyncGets) {
  TestEnv env;
  auto& client = env.NewClient();
  HtTree::Options options;
  options.buckets_per_table = 256;
  auto map = HtTree::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kKeys = 500;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(map->Put(k, k * 3).ok());
  }
  std::vector<uint64_t> lookups;
  for (uint64_t k = 1; k <= 40; ++k) {
    lookups.push_back(k * 13 % (kKeys + 50) + 1);  // mix of hits and misses
  }
  const ClientStats before = client.stats();
  auto batched = map->MultiGet(lookups);
  const ClientStats batch_delta = client.stats().Delta(before);
  ASSERT_EQ(batched.size(), lookups.size());
  const ClientStats mid = client.stats();
  for (size_t i = 0; i < lookups.size(); ++i) {
    auto expected = map->Get(lookups[i]);
    EXPECT_EQ(batched[i].ok(), expected.ok()) << "key " << lookups[i];
    if (expected.ok()) {
      EXPECT_EQ(*batched[i], *expected) << "key " << lookups[i];
    } else {
      EXPECT_EQ(batched[i].status().code(), expected.status().code());
    }
  }
  const ClientStats sync_delta = client.stats().Delta(mid);
  // The batched path waits on strictly fewer round trips than sync.
  EXPECT_LT(batch_delta.far_ops, sync_delta.far_ops);
  EXPECT_GT(batch_delta.overlapped_rtts_saved, 0u);
}

TEST(AsyncClientTest, ChainedHashMultiGetMatchesSyncGets) {
  for (const bool indirect : {false, true}) {
    TestEnv env;
    auto& client = env.NewClient();
    ChainedHash::Options options;
    options.buckets = 64;  // load factor forces chains
    options.use_indirect = indirect;
    auto table = ChainedHash::Create(&client, &env.alloc(), options);
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 1; k <= 300; ++k) {
      ASSERT_TRUE(table->Put(k, k + 7).ok());
    }
    ASSERT_TRUE(table->Remove(42).ok());  // tombstone

    std::vector<uint64_t> lookups;
    for (uint64_t k = 30; k < 60; ++k) {
      lookups.push_back(k);  // includes the tombstoned 42
    }
    lookups.push_back(4040);  // absent
    const ClientStats before = client.stats();
    auto batched = table->MultiGet(lookups);
    const ClientStats batch_delta = client.stats().Delta(before);
    ASSERT_EQ(batched.size(), lookups.size());
    const ClientStats mid = client.stats();
    for (size_t i = 0; i < lookups.size(); ++i) {
      auto expected = table->Get(lookups[i]);
      EXPECT_EQ(batched[i].ok(), expected.ok())
          << "key " << lookups[i] << " indirect " << indirect;
      if (expected.ok()) {
        EXPECT_EQ(*batched[i], *expected);
      } else {
        EXPECT_EQ(batched[i].status().code(), expected.status().code());
      }
    }
    const ClientStats sync_delta = client.stats().Delta(mid);
    EXPECT_LT(batch_delta.far_ops, sync_delta.far_ops);
  }
}

TEST(AsyncClientTest, NeighborhoodHashMultiGetMatchesSyncGets) {
  TestEnv env;
  auto& client = env.NewClient();
  NeighborhoodHash::Options options;
  options.buckets = 512;
  auto table = NeighborhoodHash::Create(&client, &env.alloc(), options);
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 1; k <= 200; ++k) {
    const Status put = table->Put(k, k * 2);
    if (put.code() != StatusCode::kResourceExhausted) {
      ASSERT_TRUE(put.ok());
    }
  }
  std::vector<uint64_t> lookups{5, 17, 9999, 0, 60, 123};
  const ClientStats before = client.stats();
  auto batched = table->MultiGet(lookups);
  const ClientStats batch_delta = client.stats().Delta(before);
  ASSERT_EQ(batched.size(), lookups.size());
  for (size_t i = 0; i < lookups.size(); ++i) {
    auto expected = table->Get(lookups[i]);
    EXPECT_EQ(batched[i].ok(), expected.ok()) << "key " << lookups[i];
    if (expected.ok()) {
      EXPECT_EQ(*batched[i], *expected);
    } else {
      EXPECT_EQ(batched[i].status().code(), expected.status().code());
    }
  }
  // 5 live probes (key 0 never leaves the client) ride one doorbell.
  EXPECT_EQ(batch_delta.far_ops, 1u);
  EXPECT_EQ(batch_delta.batches, 1u);
}

TEST(AsyncClientTest, BlobStoreMultiGetMatchesSyncGets) {
  TestEnv env;
  auto& client = env.NewClient();
  auto store = HtBlobStore::Create(&client, &env.alloc());
  ASSERT_TRUE(store.ok());
  // Small values (inline fetch) and large ones (tail wave).
  auto value_for = [](uint64_t key) {
    const size_t len = key % 3 == 0 ? 700 : 40;
    std::vector<std::byte> value(len);
    for (size_t i = 0; i < len; ++i) {
      value[i] = static_cast<std::byte>((key + i) & 0xff);
    }
    return value;
  };
  for (uint64_t k = 1; k <= 60; ++k) {
    ASSERT_TRUE(store->Put(k, value_for(k)).ok());
  }
  std::vector<uint64_t> lookups{1, 3, 6, 9, 12, 25, 777, 30};
  const ClientStats before = client.stats();
  auto batched = store->MultiGet(lookups);
  const ClientStats batch_delta = client.stats().Delta(before);
  ASSERT_EQ(batched.size(), lookups.size());
  const ClientStats mid = client.stats();
  for (size_t i = 0; i < lookups.size(); ++i) {
    auto expected = store->Get(lookups[i]);
    EXPECT_EQ(batched[i].ok(), expected.ok()) << "key " << lookups[i];
    if (expected.ok()) {
      EXPECT_EQ(*batched[i], *expected) << "key " << lookups[i];
    } else {
      EXPECT_EQ(batched[i].status().code(), expected.status().code());
    }
  }
  const ClientStats sync_delta = client.stats().Delta(mid);
  EXPECT_LT(batch_delta.far_ops, sync_delta.far_ops);
  EXPECT_GT(batch_delta.overlapped_rtts_saved, 0u);
}

}  // namespace
}  // namespace fmds

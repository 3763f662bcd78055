#include <gtest/gtest.h>

#include "src/core/cached_vector.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

TEST(CachedVectorTest, MirrorFollowsRemoteWrites) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& reader = env.NewClient();
  auto vec_w = CachedFarVector::Create(&writer, &env.alloc(), 128);
  ASSERT_TRUE(vec_w.ok());
  auto vec_r = CachedFarVector::Attach(&reader, vec_w->header());
  ASSERT_TRUE(vec_r.ok());
  ASSERT_TRUE(vec_r->EnableMirror().ok());
  ASSERT_TRUE(vec_w->Set(7, 77).ok());
  ASSERT_TRUE(vec_w->Set(99, 999).ok());
  ASSERT_TRUE(vec_r->Sync().ok());
  EXPECT_EQ(*vec_r->Get(7), 77u);
  EXPECT_EQ(*vec_r->Get(99), 999u);
  EXPECT_EQ(vec_r->stats().events_applied, 2u);
}

TEST(CachedVectorTest, ReadsCostZeroFarAccesses) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& reader = env.NewClient();
  auto vec_w = CachedFarVector::Create(&writer, &env.alloc(), 64);
  ASSERT_TRUE(vec_w.ok());
  auto vec_r = CachedFarVector::Attach(&reader, vec_w->header());
  ASSERT_TRUE(vec_r.ok());
  ASSERT_TRUE(vec_r->EnableMirror().ok());
  ASSERT_TRUE(vec_w->Set(1, 11).ok());
  const uint64_t before = reader.stats().far_ops;
  ASSERT_TRUE(vec_r->Sync().ok());
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(vec_r->Get(i).ok());
  }
  EXPECT_EQ(reader.stats().far_ops - before, 0u)
      << "§5.1: notification-updated caches serve reads locally";
}

TEST(CachedVectorTest, InitialMirrorSeesPreexistingData) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& reader = env.NewClient();
  auto vec_w = CachedFarVector::Create(&writer, &env.alloc(), 32);
  ASSERT_TRUE(vec_w.ok());
  ASSERT_TRUE(vec_w->Set(3, 333).ok());  // before the mirror exists
  auto vec_r = CachedFarVector::Attach(&reader, vec_w->header());
  ASSERT_TRUE(vec_r.ok());
  ASSERT_TRUE(vec_r->EnableMirror().ok());
  EXPECT_EQ(*vec_r->Get(3), 333u);
}

TEST(CachedVectorTest, LossTriggersResync) {
  TestEnv env;
  auto& writer = env.NewClient();
  ClientOptions tiny;
  tiny.channel_capacity = 2;
  FarClient reader(&env.fabric(), 88, tiny);
  auto vec_w = CachedFarVector::Create(&writer, &env.alloc(), 256);
  ASSERT_TRUE(vec_w.ok());
  auto vec_r = CachedFarVector::Attach(&reader, vec_w->header());
  ASSERT_TRUE(vec_r.ok());
  ASSERT_TRUE(vec_r->EnableMirror().ok());
  for (uint64_t i = 0; i < 256; i += 2) {
    ASSERT_TRUE(vec_w->Set(i, i + 1).ok());  // overflows the channel
  }
  ASSERT_TRUE(vec_r->Sync().ok());
  EXPECT_GT(vec_r->stats().loss_resyncs, 0u);
  for (uint64_t i = 0; i < 256; i += 2) {
    ASSERT_EQ(*vec_r->Get(i), i + 1);
  }
}

TEST(CachedVectorTest, RepeatedLossRoundsReconverge) {
  // Every overflow round must end in a consistent mirror, and the resync
  // must restore the zero-far-access read property — loss is a performance
  // event, never a correctness one.
  TestEnv env;
  auto& writer = env.NewClient();
  ClientOptions tiny;
  tiny.channel_capacity = 2;
  FarClient reader(&env.fabric(), 89, tiny);
  auto vec_w = CachedFarVector::Create(&writer, &env.alloc(), 128);
  ASSERT_TRUE(vec_w.ok());
  auto vec_r = CachedFarVector::Attach(&reader, vec_w->header());
  ASSERT_TRUE(vec_r.ok());
  ASSERT_TRUE(vec_r->EnableMirror().ok());
  uint64_t resyncs_seen = 0;
  for (uint64_t round = 1; round <= 4; ++round) {
    for (uint64_t i = 0; i < 128; ++i) {
      ASSERT_TRUE(vec_w->Set(i, round * 1000 + i).ok());  // overflows
    }
    ASSERT_TRUE(vec_r->Sync().ok());
    EXPECT_GT(vec_r->stats().loss_resyncs, resyncs_seen)
        << "round " << round << " overflowed the channel";
    resyncs_seen = vec_r->stats().loss_resyncs;
    const uint64_t far_before = reader.stats().far_ops;
    for (uint64_t i = 0; i < 128; ++i) {
      ASSERT_EQ(*vec_r->Get(i), round * 1000 + i);
    }
    EXPECT_EQ(reader.stats().far_ops, far_before)
        << "post-resync reads must be local again";
  }
}

TEST(CachedVectorTest, EventsResumeAfterLossResync) {
  // A loss resync drains the channel; later in-capacity updates flow as
  // ordinary events again without re-triggering resyncs.
  TestEnv env;
  auto& writer = env.NewClient();
  ClientOptions tiny;
  tiny.channel_capacity = 2;
  FarClient reader(&env.fabric(), 90, tiny);
  auto vec_w = CachedFarVector::Create(&writer, &env.alloc(), 64);
  ASSERT_TRUE(vec_w.ok());
  auto vec_r = CachedFarVector::Attach(&reader, vec_w->header());
  ASSERT_TRUE(vec_r.ok());
  ASSERT_TRUE(vec_r->EnableMirror().ok());
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(vec_w->Set(i, i).ok());
  }
  ASSERT_TRUE(vec_r->Sync().ok());
  const uint64_t resyncs = vec_r->stats().loss_resyncs;
  ASSERT_GT(resyncs, 0u);
  const uint64_t applied = vec_r->stats().events_applied;
  ASSERT_TRUE(vec_w->Set(5, 5555).ok());  // fits the channel
  ASSERT_TRUE(vec_r->Sync().ok());
  EXPECT_EQ(*vec_r->Get(5), 5555u);
  EXPECT_EQ(vec_r->stats().loss_resyncs, resyncs);
  EXPECT_GT(vec_r->stats().events_applied, applied);
}

TEST(CachedVectorTest, MultipleMirrorsAllFollow) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto vec_w = CachedFarVector::Create(&writer, &env.alloc(), 16);
  ASSERT_TRUE(vec_w.ok());
  std::vector<FarClient*> readers;
  std::vector<CachedFarVector> mirrors;
  for (int i = 0; i < 3; ++i) {
    readers.push_back(&env.NewClient());
    auto mirror = CachedFarVector::Attach(readers.back(), vec_w->header());
    ASSERT_TRUE(mirror.ok());
    ASSERT_TRUE(mirror->EnableMirror().ok());
    mirrors.push_back(std::move(mirror).value());
  }
  ASSERT_TRUE(vec_w->Set(5, 55).ok());
  for (auto& mirror : mirrors) {
    ASSERT_TRUE(mirror.Sync().ok());
    EXPECT_EQ(*mirror.Get(5), 55u);
  }
}

TEST(CachedVectorTest, TwoMirrorsOnOneClientSeeTheirOwnWrites) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& reader = env.NewClient();
  auto vec_a = CachedFarVector::Create(&writer, &env.alloc(), 16);
  ASSERT_TRUE(vec_a.ok());
  auto vec_b = CachedFarVector::Create(&writer, &env.alloc(), 16);
  ASSERT_TRUE(vec_b.ok());
  auto mirror_a = CachedFarVector::Attach(&reader, vec_a->header());
  ASSERT_TRUE(mirror_a.ok());
  ASSERT_TRUE(mirror_a->EnableMirror().ok());
  auto mirror_b = CachedFarVector::Attach(&reader, vec_b->header());
  ASSERT_TRUE(mirror_b.ok());
  ASSERT_TRUE(mirror_b->EnableMirror().ok());
  ASSERT_TRUE(vec_b->Set(3, 7).ok());
  ASSERT_TRUE(mirror_a->Sync().ok());  // must leave B's update for B
  ASSERT_TRUE(mirror_b->Sync().ok());
  EXPECT_EQ(*mirror_b->Get(3), 7u);
  EXPECT_EQ(*mirror_a->Get(3), 0u);
  EXPECT_EQ(mirror_a->stats().events_applied, 0u);
  EXPECT_EQ(mirror_b->stats().events_applied, 1u);
}

TEST(CachedVectorTest, LossWarningReachesEveryMirrorOnOneClient) {
  TestEnv env;
  auto& writer = env.NewClient();
  ClientOptions small;
  small.channel_capacity = 4;
  FarClient reader(&env.fabric(), 89, small);
  auto vec_a = CachedFarVector::Create(&writer, &env.alloc(), 16);
  ASSERT_TRUE(vec_a.ok());
  auto vec_b = CachedFarVector::Create(&writer, &env.alloc(), 16);
  ASSERT_TRUE(vec_b.ok());
  auto mirror_a = CachedFarVector::Attach(&reader, vec_a->header());
  ASSERT_TRUE(mirror_a.ok());
  ASSERT_TRUE(mirror_a->EnableMirror().ok());
  auto mirror_b = CachedFarVector::Attach(&reader, vec_b->header());
  ASSERT_TRUE(mirror_b.ok());
  ASSERT_TRUE(mirror_b->EnableMirror().ok());
  for (uint64_t i = 0; i < 16; ++i) {  // overflows the reader's channel
    ASSERT_TRUE(vec_a->Set(i, i + 1).ok());
    ASSERT_TRUE(vec_b->Set(i, 100 + i).ok());
  }
  ASSERT_TRUE(mirror_a->Sync().ok());
  ASSERT_TRUE(mirror_b->Sync().ok());
  EXPECT_EQ(mirror_a->stats().loss_resyncs, 1u);
  EXPECT_EQ(mirror_b->stats().loss_resyncs, 1u);
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(*mirror_a->Get(i), i + 1) << "A[" << i << "]";
    EXPECT_EQ(*mirror_b->Get(i), 100 + i) << "B[" << i << "]";
  }
}

TEST(CachedVectorTest, DestroyedMirrorLeavesItsClientDispatching) {
  // A mirror that dies before its client unsubscribes: writes to its range
  // publish nothing, and the client's dispatches (events, then a loss
  // warning) reach only the live mirror.
  TestEnv env;
  auto& writer = env.NewClient();
  ClientOptions small;
  small.channel_capacity = 4;
  FarClient reader(&env.fabric(), 90, small);
  auto vec_a = CachedFarVector::Create(&writer, &env.alloc(), 16);
  ASSERT_TRUE(vec_a.ok());
  auto vec_b = CachedFarVector::Create(&writer, &env.alloc(), 16);
  ASSERT_TRUE(vec_b.ok());
  {
    auto gone = CachedFarVector::Attach(&reader, vec_a->header());
    ASSERT_TRUE(gone.ok());
    ASSERT_TRUE(gone->EnableMirror().ok());
  }
  auto mirror_b = CachedFarVector::Attach(&reader, vec_b->header());
  ASSERT_TRUE(mirror_b.ok());
  ASSERT_TRUE(mirror_b->EnableMirror().ok());
  const uint64_t published = reader.channel().published();
  ASSERT_TRUE(vec_a->Set(3, 7).ok());
  EXPECT_EQ(reader.channel().published(), published);
  ASSERT_TRUE(mirror_b->Sync().ok());
  for (uint64_t i = 0; i < 16; ++i) {  // overflows the reader's channel
    ASSERT_TRUE(vec_a->Set(i, i + 1).ok());
    ASSERT_TRUE(vec_b->Set(i, 100 + i).ok());
  }
  ASSERT_TRUE(mirror_b->Sync().ok());
  EXPECT_EQ(mirror_b->stats().loss_resyncs, 1u);
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(*mirror_b->Get(i), 100 + i) << "B[" << i << "]";
  }
}

TEST(CachedVectorTest, BoundsAndPreconditions) {
  TestEnv env;
  auto& client = env.NewClient();
  auto vec = CachedFarVector::Create(&client, &env.alloc(), 8);
  ASSERT_TRUE(vec.ok());
  EXPECT_FALSE(vec->Set(8, 1).ok());
  EXPECT_FALSE(vec->Get(0).ok());   // mirror not enabled
  EXPECT_FALSE(vec->Sync().ok());
  ASSERT_TRUE(vec->EnableMirror().ok());
  EXPECT_FALSE(vec->Get(8).ok());
  EXPECT_FALSE(CachedFarVector::Create(&client, &env.alloc(), 0).ok());
}

TEST(CachedVectorTest, SelfWriteAlsoNotifiesOwnMirror) {
  // A client mirroring a vector it also writes sees its own writes pushed
  // back through the fabric (hardware does not filter by origin).
  TestEnv env;
  auto& client = env.NewClient();
  auto vec = CachedFarVector::Create(&client, &env.alloc(), 16);
  ASSERT_TRUE(vec.ok());
  ASSERT_TRUE(vec->EnableMirror().ok());
  ASSERT_TRUE(vec->Set(2, 22).ok());
  ASSERT_TRUE(vec->Sync().ok());
  EXPECT_EQ(*vec->Get(2), 22u);
}

}  // namespace
}  // namespace fmds

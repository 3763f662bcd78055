#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

NotifySpec OnWrite(FarAddr addr, uint64_t len = kWordSize) {
  NotifySpec spec;
  spec.mode = NotifyMode::kOnWrite;
  spec.addr = addr;
  spec.len = len;
  return spec;
}

// Dispatches `client`'s channel, then pops the oldest event `inbox` holds.
std::optional<NotifyEvent> Next(FarClient& client, NotificationInbox& inbox) {
  client.DispatchNotifications();
  return inbox.Pop();
}

TEST(NotifyTest, Notify0FiresOnWrite) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(watcher.Subscribe(OnWrite(64), &inbox).ok());
  ASSERT_TRUE(writer.WriteWord(64, 42).ok());
  auto event = Next(watcher, inbox);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, NotifyEventKind::kChanged);
  EXPECT_EQ(event->addr, 64u);
  EXPECT_EQ(event->len, 8u);
}

TEST(NotifyTest, NoEventWithoutWrite) {
  TestEnv env;
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(watcher.Subscribe(OnWrite(64), &inbox).ok());
  EXPECT_FALSE(Next(watcher, inbox).has_value());
}

TEST(NotifyTest, OutsideRangeDoesNotFire) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(watcher.Subscribe(OnWrite(64, 16), &inbox).ok());
  ASSERT_TRUE(writer.WriteWord(96, 1).ok());
  EXPECT_FALSE(Next(watcher, inbox).has_value());
  ASSERT_TRUE(writer.WriteWord(72, 1).ok());  // inside [64, 80)
  EXPECT_TRUE(Next(watcher, inbox).has_value());
}

TEST(NotifyTest, RangeWriteIntersectionReported) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(watcher.Subscribe(OnWrite(64, 32), &inbox).ok());
  std::vector<std::byte> data(64, std::byte{1});
  ASSERT_TRUE(writer.Write(32, data).ok());  // covers [32, 96)
  auto event = Next(watcher, inbox);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->addr, 64u);  // clipped to the subscription
  EXPECT_EQ(event->len, 32u);
}

TEST(NotifyTest, AtomicsPublishToo) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(watcher.Subscribe(OnWrite(64), &inbox).ok());
  ASSERT_TRUE(writer.FetchAdd(64, 1).ok());
  EXPECT_TRUE(Next(watcher, inbox).has_value());
  ASSERT_TRUE(writer.CompareSwap(64, 1, 2).ok());
  EXPECT_TRUE(Next(watcher, inbox).has_value());
  // Failed CAS does not publish.
  ASSERT_TRUE(writer.CompareSwap(64, 99, 3).ok());
  EXPECT_FALSE(Next(watcher, inbox).has_value());
}

TEST(NotifyTest, NotifyeFiresOnlyOnTargetValue) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  NotifySpec spec;
  spec.mode = NotifyMode::kOnEqual;
  spec.addr = 64;
  spec.len = kWordSize;
  spec.value = 0;  // mutex-free convention
  ASSERT_TRUE(watcher.Subscribe(spec, &inbox).ok());
  ASSERT_TRUE(writer.WriteWord(64, 7).ok());
  EXPECT_FALSE(Next(watcher, inbox).has_value());
  ASSERT_TRUE(writer.WriteWord(64, 0).ok());
  EXPECT_TRUE(Next(watcher, inbox).has_value());
}

TEST(NotifyTest, Notify0dCarriesData) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  NotifySpec spec;
  spec.mode = NotifyMode::kOnWriteData;
  spec.addr = 64;
  spec.len = 16;
  ASSERT_TRUE(watcher.Subscribe(spec, &inbox).ok());
  ASSERT_TRUE(writer.WriteWord(72, 0xabcd).ok());
  auto event = Next(watcher, inbox);
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->data.size(), 8u);  // only the intersecting word
  EXPECT_EQ(LoadAs<uint64_t>(std::span<const std::byte>(event->data)),
            0xabcdull);
}

TEST(NotifyTest, PageCrossingSubscriptionRejected) {
  TestEnv env;
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  EXPECT_FALSE(watcher.Subscribe(OnWrite(kPageSize - 8, 16), &inbox).ok());
  EXPECT_TRUE(watcher.Subscribe(OnWrite(kPageSize - 8, 8), &inbox).ok());
}

TEST(NotifyTest, UnalignedSubscriptionRejected) {
  TestEnv env;
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  EXPECT_FALSE(watcher.Subscribe(OnWrite(65), &inbox).ok());
}

TEST(NotifyTest, UnsubscribeStopsEvents) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  auto sub = watcher.Subscribe(OnWrite(64), &inbox);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(watcher.Unsubscribe(*sub).ok());
  ASSERT_TRUE(writer.WriteWord(64, 1).ok());
  EXPECT_FALSE(Next(watcher, inbox).has_value());
  EXPECT_FALSE(watcher.Unsubscribe(*sub).ok());  // idempotence check
}

TEST(NotifyTest, DropPolicyLosesRoughlyTheConfiguredFraction) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  NotifySpec spec = OnWrite(64);
  spec.policy.drop_probability = 0.5;
  spec.policy.coalesce = false;
  ASSERT_TRUE(watcher.Subscribe(spec, &inbox).ok());
  constexpr int kWrites = 2000;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(writer.WriteWord(64, i + 1).ok());
    watcher.DispatchNotifications();  // keep the channel from overflowing
    inbox.Clear();
  }
  const uint64_t dropped =
      env.fabric().node(0).stats().notifications_dropped.load();
  EXPECT_NEAR(static_cast<double>(dropped), kWrites * 0.5, kWrites * 0.1);
}

TEST(NotifyTest, CoalescingMergesBackToBackEvents) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  NotifySpec spec = OnWrite(64, 32);
  spec.policy.coalesce = true;
  ASSERT_TRUE(watcher.Subscribe(spec, &inbox).ok());
  ASSERT_TRUE(writer.WriteWord(64, 1).ok());
  ASSERT_TRUE(writer.WriteWord(80, 2).ok());
  ASSERT_TRUE(writer.WriteWord(72, 3).ok());
  // One merged event covering [64, 88).
  auto event = Next(watcher, inbox);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->coalesced, 2u);
  EXPECT_EQ(event->addr, 64u);
  EXPECT_EQ(event->len, 24u);
  EXPECT_FALSE(Next(watcher, inbox).has_value());
  EXPECT_EQ(watcher.channel().coalesced(), 2u);
}

TEST(NotifyTest, OverflowSurfacesLossWarning) {
  TestEnv env;
  auto& writer = env.NewClient();
  ClientOptions small;
  small.channel_capacity = 4;
  FarClient watcher(&env.fabric(), 99, small);
  NotificationInbox inbox(watcher.channel().capacity());
  NotifySpec spec = OnWrite(64);
  spec.policy.coalesce = false;
  ASSERT_TRUE(watcher.Subscribe(spec, &inbox).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.WriteWord(64, i + 1).ok());
  }
  bool saw_loss = false;
  while (auto event = Next(watcher, inbox)) {
    saw_loss |= event->kind == NotifyEventKind::kLossWarning;
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_GT(watcher.channel().overflow_lost(), 0u);
}

TEST(NotifyTest, TwoSubscribersBothFire) {
  TestEnv env;
  auto& writer = env.NewClient();
  auto& w1 = env.NewClient();
  auto& w2 = env.NewClient();
  NotificationInbox inbox1(w1.channel().capacity());
  NotificationInbox inbox2(w2.channel().capacity());
  ASSERT_TRUE(w1.Subscribe(OnWrite(64), &inbox1).ok());
  ASSERT_TRUE(w2.Subscribe(OnWrite(64), &inbox2).ok());
  ASSERT_TRUE(writer.WriteWord(64, 5).ok());
  EXPECT_TRUE(Next(w1, inbox1).has_value());
  EXPECT_TRUE(Next(w2, inbox2).has_value());
}

TEST(NotifyTest, SubscriptionOnStripedNodeRoutesToOwner) {
  TestEnv env(StripedFabric(4, kPageSize, 1 << 20));
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  const FarAddr addr = 2 * kPageSize + 128;  // node 2
  ASSERT_TRUE(watcher.Subscribe(OnWrite(addr), &inbox).ok());
  EXPECT_EQ(env.fabric().node(2).subscription_count(), 1u);
  ASSERT_TRUE(writer.WriteWord(addr, 1).ok());
  EXPECT_TRUE(Next(watcher, inbox).has_value());
}

TEST(NotifyTest, SubscribeSnapshotReadsArmTimeWord) {
  // Read-and-arm: the snapshot is the watched word at registration time,
  // taken atomically with the registration. A subscriber that read the
  // word *before* subscribing compares the two to detect a raced write.
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  ASSERT_TRUE(writer.WriteWord(64, 7).ok());
  uint64_t snapshot = 123;
  ASSERT_TRUE(watcher.Subscribe(OnWrite(64), &inbox, &snapshot).ok());
  EXPECT_EQ(snapshot, 7u) << "snapshot must reflect the pre-arm write";
  // The pre-arm write produced no event; the next write does.
  EXPECT_FALSE(Next(watcher, inbox).has_value());
  ASSERT_TRUE(writer.WriteWord(64, 8).ok());
  EXPECT_TRUE(Next(watcher, inbox).has_value());
}

struct CountingSink : NotificationSink {
  int events = 0;
  void OnNotify(const NotifyEvent&) override { ++events; }
};

TEST(NotifyTest, EachEventCountedOnceAcrossSinks) {
  // Two sinks on one client (a near cache and a split watch, in miniature):
  // dispatch hands each its own event and counts each delivery once.
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  CountingSink first;
  CountingSink second;
  ASSERT_TRUE(watcher.Subscribe(OnWrite(64), &first).ok());
  ASSERT_TRUE(watcher.Subscribe(OnWrite(128), &second).ok());
  ASSERT_TRUE(writer.WriteWord(64, 1).ok());
  ASSERT_TRUE(writer.WriteWord(128, 2).ok());
  EXPECT_EQ(watcher.DispatchNotifications(), 2u);
  EXPECT_EQ(first.events, 1);
  EXPECT_EQ(second.events, 1);
  EXPECT_EQ(watcher.stats().notifications, 2u);
  EXPECT_EQ(watcher.DispatchNotifications(), 0u);
}

TEST(NotifyTest, SubscribeWithoutSinkRejected) {
  TestEnv env;
  auto& watcher = env.NewClient();
  EXPECT_EQ(watcher.Subscribe(OnWrite(64), nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.fabric().node(0).subscription_count(), 0u);
}

TEST(NotifyTest, UnsubscribedEventsAreDropped) {
  // An event already queued for a subscription that is gone finds no sink.
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  CountingSink sink;
  auto sub = watcher.Subscribe(OnWrite(64), &sink);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(writer.WriteWord(64, 1).ok());
  ASSERT_TRUE(watcher.Unsubscribe(*sub).ok());
  EXPECT_EQ(watcher.DispatchNotifications(), 0u);
  EXPECT_EQ(sink.events, 0);
  EXPECT_EQ(watcher.stats().notifications, 0u);
}

// SubscriptionTable ids of the subscriptions a write of [offset,
// offset+len) would fire, in the order the node publishes them.
std::vector<SubId> Hits(SubscriptionTable& table, uint64_t offset,
                        uint64_t len) {
  std::vector<Subscription*> hits;
  table.Collect(offset, len, hits);
  std::vector<SubId> ids;
  for (const Subscription* sub : hits) {
    ids.push_back(sub->id);
  }
  return ids;
}

TEST(SubscriptionTableTest, MultiWordWriteHitsInSubscriptionOrder) {
  SubscriptionTable table;
  NotificationChannel channel;
  // Registered out of offset order: the highest range first.
  table.Add(4096 + 48, OnWrite(4096 + 48), &channel, 1);
  table.Add(4096 + 8, OnWrite(4096 + 8, 16), &channel, 2);
  table.Add(4096, OnWrite(4096), &channel, 3);
  table.Add(4096 + 24, OnWrite(4096 + 24), &channel, 4);
  EXPECT_EQ(Hits(table, 4096, 64), (std::vector<SubId>{1, 2, 3, 4}));
  EXPECT_EQ(Hits(table, 4096 + 16, 16), (std::vector<SubId>{2, 4}));
  EXPECT_EQ(Hits(table, 4096 + 32, 16), (std::vector<SubId>{}));

  // The same order end to end: one range write publishes the watcher's
  // events in the order it subscribed.
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  std::vector<SubId> subscribed;
  for (uint64_t offset : {48, 8, 0, 24}) {
    auto sub = watcher.Subscribe(OnWrite(64 + offset), &inbox);
    ASSERT_TRUE(sub.ok());
    subscribed.push_back(*sub);
  }
  ASSERT_TRUE(writer.Write(64, std::vector<std::byte>(64)).ok());
  watcher.DispatchNotifications();
  std::vector<SubId> delivered;
  while (auto event = inbox.Pop()) {
    delivered.push_back(event->sub_id);
  }
  EXPECT_EQ(delivered, subscribed);
}

TEST(SubscriptionTableTest, PageWideSubscriptionFiresForEveryWord) {
  SubscriptionTable table;
  NotificationChannel channel;
  table.Add(kPageSize, OnWrite(kPageSize, kPageSize), &channel, 7);
  for (uint64_t offset = kPageSize; offset < 2 * kPageSize;
       offset += kWordSize) {
    ASSERT_EQ(Hits(table, offset, kWordSize), (std::vector<SubId>{7}))
        << "offset " << offset;
  }
  // A write covering the whole page fires it once; neighbouring pages never.
  EXPECT_EQ(Hits(table, kPageSize, kPageSize), (std::vector<SubId>{7}));
  EXPECT_EQ(Hits(table, kPageSize - kWordSize, kWordSize),
            (std::vector<SubId>{}));
  EXPECT_EQ(Hits(table, 2 * kPageSize, kWordSize), (std::vector<SubId>{}));
}

TEST(SubscriptionTableTest, UnsubscribedRangeYieldsNoEvent) {
  SubscriptionTable table;
  NotificationChannel channel;
  table.Add(kPageSize, OnWrite(kPageSize, kPageSize), &channel, 1);
  table.Add(kPageSize + 64, OnWrite(kPageSize + 64), &channel, 2);
  EXPECT_TRUE(table.Remove(1));
  EXPECT_FALSE(table.Remove(1));
  EXPECT_EQ(table.size(), 1u);
  // The survivor sharing a word with the removed range still fires.
  EXPECT_EQ(Hits(table, kPageSize, kPageSize), (std::vector<SubId>{2}));
  EXPECT_TRUE(table.Remove(2));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(Hits(table, kPageSize, kPageSize), (std::vector<SubId>{}));
  EXPECT_EQ(Hits(table, kPageSize + 64, kWordSize), (std::vector<SubId>{}));

  // End to end: subscribe, unsubscribe, then write.
  TestEnv env;
  auto& writer = env.NewClient();
  auto& watcher = env.NewClient();
  NotificationInbox inbox(watcher.channel().capacity());
  auto sub = watcher.Subscribe(OnWrite(kPageSize, kPageSize), &inbox);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(watcher.Unsubscribe(*sub).ok());
  ASSERT_TRUE(writer.WriteWord(kPageSize + 64, 1).ok());
  EXPECT_EQ(watcher.channel().size(), 0u);
  EXPECT_FALSE(Next(watcher, inbox).has_value());
}

TEST(NotifyChannelTest, DrainReturnsEverything) {
  NotificationChannel channel;
  for (int i = 0; i < 5; ++i) {
    NotifyEvent ev;
    ev.sub_id = i + 1;
    channel.Publish(std::move(ev), /*coalesce=*/false);
  }
  EXPECT_EQ(channel.size(), 5u);
  EXPECT_EQ(channel.Drain().size(), 5u);
  EXPECT_EQ(channel.size(), 0u);
}

TEST(NotifyChannelTest, InboxOverflowKeepsOneLossWarning) {
  NotificationInbox inbox(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    NotifyEvent ev;
    ev.sub_id = i;
    inbox.OnNotify(ev);
  }
  // The fifth event overflowed: the four held events gave way to a single
  // warning, and the sixth queued behind it.
  auto first = inbox.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, NotifyEventKind::kLossWarning);
  auto second = inbox.Pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->sub_id, 6u);
  EXPECT_FALSE(inbox.Pop().has_value());
}

}  // namespace
}  // namespace fmds

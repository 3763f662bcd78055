#include <gtest/gtest.h>

#include "src/apps/monitoring/monitoring.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

MonitorConfig Config() {
  MonitorConfig config;
  config.num_bins = 64;
  config.min_value = 0.0;
  config.max_value = 100.0;
  config.num_windows = 3;
  config.warn_bin = 48;      // samples >= 75.0
  config.critical_bin = 56;  // >= 87.5
  config.failure_bin = 62;   // >= 96.9
  config.alarm_duration = 2;
  return config;
}

TEST(MonitoringTest, RecordIsOneFarAccess) {
  TestEnv env;
  auto& client = env.NewClient();
  auto store = MonitorStore::Create(&client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &client);
  const uint64_t before = client.stats().far_ops;
  ASSERT_TRUE(producer.Record(50.0).ok());
  EXPECT_EQ(client.stats().far_ops - before, 1u)
      << "§6: one far access with indexed indirect addressing (add2)";
}

TEST(MonitoringTest, HistogramCountsAccumulate) {
  TestEnv env;
  auto& client = env.NewClient();
  auto store = MonitorStore::Create(&client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &client);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Record(10.0).ok());  // bin 6
  }
  ASSERT_TRUE(producer.Record(99.0).ok());  // bin 63
  uint64_t bin6 = 0;
  ASSERT_TRUE(client.Read(store->window_base(0) + 6 * kWordSize,
                          AsBytes(bin6)).ok());
  EXPECT_EQ(bin6, 10u);
  uint64_t bin63 = 0;
  ASSERT_TRUE(client.Read(store->window_base(0) + 63 * kWordSize,
                          AsBytes(bin63)).ok());
  EXPECT_EQ(bin63, 1u);
}

TEST(MonitoringTest, NormalSamplesCauseNoConsumerTraffic) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  auto store =
      MonitorStore::Create(&producer_client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer consumer(&*store, &consumer_client,
                          AlarmSeverity::kWarning);
  ASSERT_TRUE(consumer.Subscribe().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(producer.Record(30.0).ok());  // normal range
  }
  auto alarms = consumer.Poll();
  ASSERT_TRUE(alarms.ok());
  EXPECT_TRUE(alarms->empty());
  EXPECT_EQ(consumer.data_events(), 0u)
      << "§6: notifications are rare because samples are normal";
}

TEST(MonitoringTest, AlarmsFireBySeverity) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& warn_client = env.NewClient();
  auto& fail_client = env.NewClient();
  auto store =
      MonitorStore::Create(&producer_client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer warn_consumer(&*store, &warn_client,
                               AlarmSeverity::kWarning);
  MetricConsumer fail_consumer(&*store, &fail_client,
                               AlarmSeverity::kFailure);
  ASSERT_TRUE(warn_consumer.Subscribe().ok());
  ASSERT_TRUE(fail_consumer.Subscribe().ok());
  // Two warning-range samples (duration = 2).
  ASSERT_TRUE(producer.Record(80.0).ok());
  ASSERT_TRUE(producer.Record(80.0).ok());
  auto warn_alarms = warn_consumer.Poll();
  ASSERT_TRUE(warn_alarms.ok());
  ASSERT_FALSE(warn_alarms->empty());
  EXPECT_EQ(warn_alarms->front().severity, AlarmSeverity::kWarning);
  // The failure-only consumer saw nothing (different threshold).
  auto fail_alarms = fail_consumer.Poll();
  ASSERT_TRUE(fail_alarms.ok());
  EXPECT_TRUE(fail_alarms->empty());
  // Failure-range samples reach both.
  ASSERT_TRUE(producer.Record(99.5).ok());
  ASSERT_TRUE(producer.Record(99.5).ok());
  fail_alarms = fail_consumer.Poll();
  ASSERT_TRUE(fail_alarms.ok());
  ASSERT_FALSE(fail_alarms->empty());
  EXPECT_EQ(fail_alarms->front().severity, AlarmSeverity::kFailure);
}

TEST(MonitoringTest, AlarmRequiresDuration) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  auto store =
      MonitorStore::Create(&producer_client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer consumer(&*store, &consumer_client,
                          AlarmSeverity::kWarning);
  ASSERT_TRUE(consumer.Subscribe().ok());
  ASSERT_TRUE(producer.Record(80.0).ok());  // once: below duration 2
  auto alarms = consumer.Poll();
  ASSERT_TRUE(alarms.ok());
  EXPECT_TRUE(alarms->empty());
}

TEST(MonitoringTest, WindowRotationNotifiesAndResets) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  auto store =
      MonitorStore::Create(&producer_client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer consumer(&*store, &consumer_client,
                          AlarmSeverity::kWarning);
  ASSERT_TRUE(consumer.Subscribe().ok());
  ASSERT_TRUE(producer.Record(80.0).ok());
  ASSERT_TRUE(producer.Record(80.0).ok());
  ASSERT_TRUE(consumer.Poll().ok());
  ASSERT_TRUE(producer.RotateWindow().ok());
  ASSERT_TRUE(consumer.Poll().ok());
  EXPECT_EQ(consumer.rotations_seen(), 1u);
  // New window: the producer's add2 lands in window 1.
  ASSERT_TRUE(producer.Record(10.0).ok());
  uint64_t w1_bin6 = 0;
  ASSERT_TRUE(producer_client.Read(
      store->window_base(1) + 6 * kWordSize, AsBytes(w1_bin6)).ok());
  EXPECT_EQ(w1_bin6, 1u);
  // Alarm state reset: one exceedance in the new window is not enough.
  ASSERT_TRUE(producer.Record(80.0).ok());
  auto alarms = consumer.Poll();
  ASSERT_TRUE(alarms.ok());
  EXPECT_TRUE(alarms->empty());
}

TEST(MonitoringTest, MultiWindowLapReusesBuffers) {
  TestEnv env;
  auto& client = env.NewClient();
  auto store = MonitorStore::Create(&client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &client);
  ASSERT_TRUE(producer.Record(10.0).ok());
  // Rotate through a full lap; window 0 must be zeroed on reuse.
  for (uint64_t r = 0; r < store->config().num_windows; ++r) {
    ASSERT_TRUE(producer.RotateWindow().ok());
  }
  uint64_t bin6 = 0;
  ASSERT_TRUE(client.Read(store->window_base(0) + 6 * kWordSize,
                          AsBytes(bin6)).ok());
  EXPECT_EQ(bin6, 0u);
}

TEST(MonitoringTest, CopyAlarmRangeSnapshots) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  auto store =
      MonitorStore::Create(&producer_client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer consumer(&*store, &consumer_client,
                          AlarmSeverity::kWarning);
  ASSERT_TRUE(consumer.Subscribe().ok());
  ASSERT_TRUE(producer.Record(80.0).ok());
  ASSERT_TRUE(producer.Record(99.0).ok());
  auto snapshot = consumer.CopyAlarmRange();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->size(), 64u - 48u);
  uint64_t total = 0;
  for (uint64_t count : *snapshot) {
    total += count;
  }
  EXPECT_EQ(total, 2u);
}

TEST(MonitoringTest, SnapshotAllWindowsIsOneFarAccess) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  auto store =
      MonitorStore::Create(&producer_client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer consumer(&*store, &consumer_client,
                          AlarmSeverity::kWarning);
  ASSERT_TRUE(consumer.Subscribe().ok());
  ASSERT_TRUE(producer.Record(80.0).ok());
  const uint64_t before = consumer_client.stats().far_ops;
  auto windows = consumer.SnapshotAllWindows();
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(consumer_client.stats().far_ops - before, 1u)
      << "rgather pulls all windows' alarm ranges in one round trip";
  ASSERT_EQ(windows->size(), 3u);
  uint64_t total = 0;
  for (const auto& window : *windows) {
    for (uint64_t count : window) {
      total += count;
    }
  }
  EXPECT_EQ(total, 1u);
}

TEST(MonitoringTest, WindowDriftDetectsRegimeChange) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  auto store =
      MonitorStore::Create(&producer_client, &env.alloc(), Config());
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer consumer(&*store, &consumer_client,
                          AlarmSeverity::kWarning);
  ASSERT_TRUE(consumer.Subscribe().ok());
  // Window 0: a steady alarm-range load.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(producer.Record(80.0).ok());
  }
  ASSERT_TRUE(producer.RotateWindow().ok());
  ASSERT_TRUE(consumer.Poll().ok());  // track the rotation
  // Window 1: identical load -> low drift.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(producer.Record(80.0).ok());
  }
  auto same = consumer.WindowDrift();
  ASSERT_TRUE(same.ok());
  EXPECT_LT(*same, 0.1);
  // Window 2: the load shifts to the failure range -> high drift.
  ASSERT_TRUE(producer.RotateWindow().ok());
  ASSERT_TRUE(consumer.Poll().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(producer.Record(99.0).ok());
  }
  auto changed = consumer.WindowDrift();
  ASSERT_TRUE(changed.ok());
  EXPECT_GT(*changed, 0.9);
}

// Virtual-time replay: drive the §6 monitoring pipeline from a fixed
// schedule over simulated milliseconds — the producer samples every 1 ms,
// windows rotate every 100 ms, the consumer polls every 10 ms (at 5 ms
// offsets) — so the run does not depend on host scheduling. At a shared
// timestamp the rotation runs first, then the poll, then the sample.
TEST(MonitoringTest, DrivesReplayDeterministically) {
  TestEnv env;
  auto& producer_client = env.NewClient();
  auto& consumer_client = env.NewClient();
  MonitorConfig config;
  config.num_bins = 32;
  config.max_value = 32.0;
  config.warn_bin = 24;
  config.critical_bin = 28;
  config.failure_bin = 30;
  config.alarm_duration = 2;
  config.num_windows = 4;
  auto store = MonitorStore::Create(&producer_client, &env.alloc(), config);
  ASSERT_TRUE(store.ok());
  MetricProducer producer(&*store, &producer_client);
  MetricConsumer consumer(&*store, &consumer_client,
                          AlarmSeverity::kWarning);
  ASSERT_TRUE(consumer.Subscribe().ok());

  uint64_t samples = 0;
  uint64_t alarms = 0;
  Rng rng(5);
  for (uint64_t ms = 0; ms <= 405; ++ms) {
    if (ms >= 100 && ms <= 400 && ms % 100 == 0) {
      ASSERT_TRUE(producer.RotateWindow().ok());
    }
    if (ms % 10 == 5) {
      auto polled = consumer.Poll();
      ASSERT_TRUE(polled.ok());
      alarms += polled->size();
    }
    if (ms <= 400) {
      // Spike into the alarm range between 150 ms and 250 ms.
      const bool spike = ms >= 150 && ms < 250;
      const double value = spike ? 26.0 : rng.NextDouble() * 20.0;
      ASSERT_TRUE(producer.Record(value).ok());
      ++samples;
    }
  }

  EXPECT_GE(samples, 400u);
  EXPECT_GT(alarms, 0u) << "the 150-250ms spike must alarm";
  EXPECT_GE(consumer.rotations_seen(), 3u);
}

// ------------- §6's headline: transfer counts, smart vs naive -------------

TEST(MonitoringTest, HistogramBeatsNaiveOnTransfers) {
  constexpr int kSamples = 500;
  constexpr int kConsumers = 3;
  constexpr double kAlarmFraction = 0.02;

  // Naive: producer logs raw samples, every consumer reads every sample.
  uint64_t naive_transfers = 0;
  {
    TestEnv env;
    auto& producer_client = env.NewClient();
    auto naive =
        NaiveMonitor::Create(&producer_client, &env.alloc(), kSamples);
    ASSERT_TRUE(naive.ok());
    Rng rng(41);
    for (int i = 0; i < kSamples; ++i) {
      const double sample = rng.NextBool(kAlarmFraction) ? 80.0 : 30.0;
      ASSERT_TRUE(naive->Record(&producer_client, sample).ok());
    }
    naive_transfers += producer_client.stats().far_ops;
    for (int c = 0; c < kConsumers; ++c) {
      auto& consumer_client = env.NewClient();
      uint64_t cursor = 0;
      ASSERT_EQ(
          *naive->PollSamples(&consumer_client, &cursor, nullptr),
          static_cast<uint64_t>(kSamples));
      naive_transfers += consumer_client.stats().far_ops;
    }
  }

  // Histogram + notifications.
  uint64_t smart_transfers = 0;
  uint64_t smart_notifications = 0;
  {
    TestEnv env;
    auto& producer_client = env.NewClient();
    auto store =
        MonitorStore::Create(&producer_client, &env.alloc(), Config());
    ASSERT_TRUE(store.ok());
    MetricProducer producer(&*store, &producer_client);
    std::vector<FarClient*> consumer_clients;
    std::vector<std::unique_ptr<MetricConsumer>> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumer_clients.push_back(&env.NewClient());
      consumers.push_back(std::make_unique<MetricConsumer>(
          &*store, consumer_clients.back(), AlarmSeverity::kWarning));
      ASSERT_TRUE(consumers.back()->Subscribe().ok());
    }
    const uint64_t setup_ops = consumer_clients[0]->stats().far_ops;
    Rng rng(41);
    for (int i = 0; i < kSamples; ++i) {
      const double sample = rng.NextBool(kAlarmFraction) ? 80.0 : 30.0;
      ASSERT_TRUE(producer.Record(sample).ok());
    }
    smart_transfers += producer_client.stats().far_ops;
    for (int c = 0; c < kConsumers; ++c) {
      ASSERT_TRUE(consumers[c]->Poll().ok());
      smart_transfers += consumer_clients[c]->stats().far_ops - setup_ops;
      smart_notifications += consumer_clients[c]->stats().notifications;
    }
  }

  // Naive ~ (k+1)N; smart ~ N + m where m << N.
  EXPECT_GE(naive_transfers, (kConsumers + 1) * kSamples * 9ull / 10);
  EXPECT_LE(smart_transfers,
            static_cast<uint64_t>(kSamples) + kConsumers * 10);
  EXPECT_LT(smart_notifications,
            static_cast<uint64_t>(kSamples) * kConsumers / 5)
      << "m < N: only alarm-range samples notify";
}

}  // namespace
}  // namespace fmds

// Flight-recorder tests: scoped label stack, per-op-kind histogram
// attribution, TraceRing wraparound, Chrome-trace JSON well-formedness,
// and the sync-vs-batched invariant that per-op latencies sum exactly to
// the simulated clock delta.
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/alloc/far_allocator.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/recorder.h"
#include "src/obs/trace_export.h"
#include "src/obs/trace_ring.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

// ---------------------------- label stack ----------------------------

TEST(OpLabelTest, PushPopNesting) {
  OpRecorder recorder(1);
  recorder.set_options(ObsOptions::HistogramsOnly());
  EXPECT_EQ(recorder.label_depth(), 0u);
  EXPECT_EQ(recorder.current_label(), "");
  recorder.PushLabel("outer");
  recorder.PushLabel("inner");
  EXPECT_EQ(recorder.label_depth(), 2u);
  EXPECT_EQ(recorder.current_label(), "inner");
  recorder.PopLabel();
  EXPECT_EQ(recorder.current_label(), "outer");
  recorder.PopLabel();
  EXPECT_EQ(recorder.label_depth(), 0u);
}

TEST(OpLabelTest, ScopedLabelIsRaii) {
  OpRecorder recorder(1);
  recorder.set_options(ObsOptions::HistogramsOnly());
  {
    ScopedOpLabel outer(&recorder, "httree.multiget");
    EXPECT_EQ(recorder.current_label(), "httree.multiget");
    {
      ScopedOpLabel inner(&recorder, "httree.get");
      EXPECT_EQ(recorder.current_label(), "httree.get");
    }
    EXPECT_EQ(recorder.current_label(), "httree.multiget");
  }
  EXPECT_EQ(recorder.label_depth(), 0u);
}

TEST(OpLabelTest, DisabledRecorderIsNoOp) {
  OpRecorder recorder(1);  // default options: everything off
  {
    ScopedOpLabel label(&recorder, "should.not.intern");
    EXPECT_EQ(recorder.label_depth(), 0u);
  }
  // Only the pre-interned unlabeled bucket exists.
  EXPECT_EQ(recorder.label_count(), 1u);
  recorder.RecordOp(FarOpKind::kRead, 0, 0, 64, 0, 100, true);
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kRead).count(), 0u);
}

// ----------------------- histogram attribution -----------------------

TEST(ObsClientTest, KindHistogramsMatchClockDelta) {
  TestEnv env(SmallFabric());
  FarClient& client = env.NewClient();
  client.EnableObs(ObsOptions::HistogramsOnly());
  const FarAddr addr = 0;

  const uint64_t t0 = client.clock().now_ns();
  ASSERT_TRUE(client.WriteWord(addr, 7).ok());
  ASSERT_TRUE(client.ReadWord(addr).ok());
  ASSERT_TRUE(client.FetchAdd(addr, 1).ok());
  ASSERT_TRUE(client.CompareSwap(addr, 8, 9).ok());
  const uint64_t elapsed = client.clock().now_ns() - t0;

  const OpRecorder& recorder = client.recorder();
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kWriteWord).count(), 1u);
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kReadWord).count(), 1u);
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kFetchAdd).count(), 1u);
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kCas).count(), 1u);
  uint64_t recorded = 0;
  for (size_t k = 0; k < kFarOpKindCount; ++k) {
    recorded += recorder.kind_histogram(static_cast<FarOpKind>(k)).sum();
  }
  // Synchronous path: every op's recorded latency is exactly what it
  // charged the simulated clock.
  EXPECT_EQ(recorded, elapsed);
}

TEST(ObsClientTest, LabelAttributionAndNodeTraffic) {
  TestEnv env(SmallFabric());
  FarClient& client = env.NewClient();
  client.EnableObs(ObsOptions::HistogramsOnly());
  {
    ScopedOpLabel label(&client.recorder(), "test.op");
    ASSERT_TRUE(client.WriteWord(0, 1).ok());
    ASSERT_TRUE(client.ReadWord(0).ok());
  }
  ASSERT_TRUE(client.ReadWord(0).ok());  // unlabeled

  const OpRecorder& recorder = client.recorder();
  int label_id = -1;
  for (size_t id = 0; id < recorder.label_count(); ++id) {
    if (recorder.label_name(static_cast<uint32_t>(id)) == "test.op") {
      label_id = static_cast<int>(id);
    }
  }
  ASSERT_GE(label_id, 0);
  EXPECT_EQ(recorder.label_histograms()[label_id].count(), 2u);
  EXPECT_EQ(recorder.label_traffic()[label_id].ops, 2u);
  EXPECT_EQ(recorder.label_traffic()[label_id].bytes, 2 * kWordSize);
  EXPECT_EQ(recorder.label_histograms()[0].count(), 1u);  // unlabeled bucket
  // Single-node fabric: all traffic lands on node 0.
  ASSERT_EQ(recorder.node_traffic().size(), 1u);
  EXPECT_EQ(recorder.node_traffic()[0].ops, 3u);

  // Fleet roll-up sees the same label.
  MetricsRegistry registry;
  registry.Absorb(recorder);
  ASSERT_TRUE(registry.labels().count("test.op"));
  EXPECT_EQ(registry.labels().at("test.op").ops, 2u);
}

// --------------------------- trace ring ------------------------------

TEST(TraceRingTest, WraparoundKeepsNewestWindow) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 6; ++i) {
    TraceEvent event;
    event.start_ns = i;
    ring.Push(event);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ns, i + 2);  // oldest two overwritten
  }
}

TEST(TraceRingTest, ZeroCapacityDropsEverything) {
  TraceRing ring(0);
  ring.Push(TraceEvent{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.recorded(), 0u);
}

// --------------------------- trace export ----------------------------

TEST(TraceExportTest, ChromeTraceHasRequiredKeysOnEveryEvent) {
  TestEnv env(SmallFabric());
  FarClient& client = env.NewClient();
  client.EnableObs(ObsOptions::All());
  {
    ScopedOpLabel label(&client.recorder(), "test.sweep");
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.WriteWord(i * kWordSize, i + 1).ok());
    }
    client.PostReadWord(0);
    client.PostReadWord(kWordSize);
    std::array<FarClient::Completion, 2> done;
    ASSERT_TRUE(client.WaitAll(done).ok());
  }

  MetricsRegistry registry;
  registry.Absorb(client.recorder());
  std::ostringstream out;
  WriteChromeTrace(out, registry);
  const std::string json = out.str();

  // Envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  // The exporter writes one event object per line; every one must carry
  // the Chrome trace-event required keys.
  std::istringstream lines(json);
  std::string line;
  int events = 0;
  int batch_spans = 0;
  while (std::getline(lines, line)) {
    if (line.find('{') == std::string::npos ||
        line.find("traceEvents") != std::string::npos) {
      continue;
    }
    ++events;
    for (const char* key : {"\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":",
                            "\"name\":"}) {
      EXPECT_NE(line.find(key), std::string::npos)
          << "event missing " << key << ": " << line;
    }
    if (line.find("batch#") != std::string::npos) {
      ++batch_spans;
    }
  }
  // 2 metadata + 4 sync ops + 1 batch span + 2 batched ops.
  EXPECT_EQ(events, 9);
  EXPECT_EQ(batch_spans, 1);
}

// ----------------------- sync vs batched clock -----------------------

TEST(ObsClientTest, BatchedLatencySharesSumToClockDelta) {
  TestEnv env(SmallFabric());
  FarClient& client = env.NewClient();
  client.EnableObs(ObsOptions::All());

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.WriteWord(i * kWordSize, i + 100).ok());
  }
  client.recorder().Reset();

  const uint64_t near_before = client.stats().near_ops;
  const uint64_t t0 = client.clock().now_ns();
  for (int i = 0; i < 8; ++i) {
    client.PostReadWord(i * kWordSize);
  }
  std::array<FarClient::Completion, 8> done;
  ASSERT_TRUE(client.WaitAll(done).ok());
  // The doorbell's one near access, its completion check, is not fabric
  // time: subtract it.
  EXPECT_EQ(client.stats().near_ops - near_before, 1u);
  const uint64_t elapsed =
      client.clock().now_ns() - t0 - env.fabric().options().latency.near_ns;
  ASSERT_GT(elapsed, 0u);

  const OpRecorder& recorder = client.recorder();
  // The batch span covers the doorbell's whole simulated wait...
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kBatch).count(), 1u);
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kBatch).sum(), elapsed);
  // ...and the per-op shares tile it exactly (remainder on the first op).
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kReadWord).count(), 8u);
  EXPECT_EQ(recorder.kind_histogram(FarOpKind::kReadWord).sum(), elapsed);

  // Trace nesting: every batched op span lies inside the batch span.
  uint64_t batch_start = 0;
  uint64_t batch_end = 0;
  std::vector<TraceEvent> events = recorder.trace().Snapshot();
  for (const TraceEvent& event : events) {
    if (event.kind == FarOpKind::kBatch) {
      batch_start = event.start_ns;
      batch_end = event.start_ns + event.latency_ns;
    }
  }
  ASSERT_GT(batch_end, batch_start);
  for (const TraceEvent& event : events) {
    if (event.kind == FarOpKind::kReadWord) {
      EXPECT_GE(event.start_ns, batch_start);
      EXPECT_LE(event.start_ns + event.latency_ns, batch_end);
      EXPECT_GT(event.batch_id, 0u);
    }
  }
}

TEST(ObsClientTest, DisabledObsRecordsNothing) {
  TestEnv env(SmallFabric());
  FarClient& client = env.NewClient();  // obs off by default
  ASSERT_TRUE(client.WriteWord(0, 1).ok());
  ASSERT_TRUE(client.ReadWord(0).ok());
  const OpRecorder& recorder = client.recorder();
  EXPECT_FALSE(recorder.enabled());
  for (size_t k = 0; k < kFarOpKindCount; ++k) {
    EXPECT_EQ(recorder.kind_histogram(static_cast<FarOpKind>(k)).count(), 0u);
  }
  EXPECT_EQ(recorder.trace().recorded(), 0u);
  EXPECT_TRUE(recorder.node_traffic().empty());
}

}  // namespace
}  // namespace fmds

// TelemetryHub / GaugeGroup / TelemetrySnapshotter tests: registry
// semantics (sorted snapshots, non-finite clamping, RAII unregistration),
// Prometheus text export, JSON escaping, snapshotter lifecycle (start/stop
// idempotence, restart-appends, final tick on stop), the JSON-lines schema
// of every emitted tick, and a TSan-facing stress run with recording
// threads live while the snapshotter samples.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/recorder.h"
#include "src/obs/telemetry.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fmds_telemetry_" + name + ".jsonl";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// ------------------------------ TelemetryHub ------------------------------

TEST(TelemetryHubTest, SnapshotIsSortedAndClampsNonFinite) {
  TelemetryHub hub;
  hub.AddGauge("zz.last", [] { return 3.0; });
  hub.AddGauge("aa.first", [] { return 1.0; });
  hub.AddGauge("mm.nan", [] { return std::nan(""); });
  hub.AddGauge("mm.inf", [] { return HUGE_VAL; });
  ASSERT_EQ(hub.gauge_count(), 4u);
  const auto samples = hub.Snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "aa.first");
  EXPECT_EQ(samples[3].name, "zz.last");
  for (const auto& s : samples) {
    if (s.name.rfind("mm.", 0) == 0) {
      EXPECT_EQ(s.value, 0.0) << s.name;
    }
  }
}

TEST(TelemetryHubTest, AddGaugeReplacesAndRemoveDeletes) {
  TelemetryHub hub;
  hub.AddGauge("g", [] { return 1.0; });
  hub.AddGauge("g", [] { return 2.0; });
  EXPECT_EQ(hub.gauge_count(), 1u);
  EXPECT_EQ(hub.Snapshot()[0].value, 2.0);
  hub.RemoveGauge("g");
  EXPECT_EQ(hub.gauge_count(), 0u);
  hub.RemoveGauge("g");  // idempotent
}

TEST(TelemetryHubTest, PromExportSanitizesNames) {
  TelemetryHub hub;
  hub.AddGauge("wb.pending-entries", [] { return 12.0; });
  const std::string prom = hub.ExportPromText();
  EXPECT_NE(prom.find("fmds_wb_pending_entries"), std::string::npos);
  EXPECT_EQ(prom.find('-'), std::string::npos);
  EXPECT_NE(prom.find("12"), std::string::npos);
}

TEST(TelemetryHubTest, JsonObjectEscapesAndSorts) {
  TelemetryHub hub;
  hub.AddGauge("b\"quote", [] { return 1.0; });
  hub.AddGauge("a\\slash", [] { return 2.0; });
  std::ostringstream os;
  hub.WriteJsonObject(os);
  const std::string json = os.str();
  // Escaped names, 'a' before 'b'.
  const size_t a = json.find("a\\\\slash");
  const size_t b = json.find("b\\\"quote");
  ASSERT_NE(a, std::string::npos) << json;
  ASSERT_NE(b, std::string::npos) << json;
  EXPECT_LT(a, b);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ------------------------------- GaugeGroup -------------------------------

TEST(GaugeGroupTest, ReleasesOnDestruction) {
  TelemetryHub hub;
  {
    GaugeGroup group(&hub);
    group.Add("one", [] { return 1.0; });
    group.Add("two", [] { return 2.0; });
    EXPECT_EQ(group.size(), 2u);
    EXPECT_EQ(hub.gauge_count(), 2u);
  }
  EXPECT_EQ(hub.gauge_count(), 0u);
}

TEST(GaugeGroupTest, ExplicitReleaseIsIdempotent) {
  TelemetryHub hub;
  GaugeGroup group(&hub);
  group.Add("g", [] { return 1.0; });
  group.Release();
  group.Release();
  EXPECT_EQ(hub.gauge_count(), 0u);
}

// --------------------------- snapshotter lifecycle ---------------------------

TEST(SnapshotterTest, StartStopIdempotentAndFinalTick) {
  TelemetryHub hub;
  hub.AddGauge("x", [] { return 7.0; });
  SnapshotterOptions opts;
  opts.path = TempPath("lifecycle");
  std::remove(opts.path.c_str());
  opts.interval_ms = 1000;  // long: ticks come from Stop()'s final tick
  TelemetrySnapshotter snap(&hub, opts);
  EXPECT_FALSE(snap.running());
  ASSERT_TRUE(snap.Start().ok());
  ASSERT_TRUE(snap.Start().ok());  // second Start is a no-op
  EXPECT_TRUE(snap.running());
  snap.Stop();
  EXPECT_FALSE(snap.running());
  snap.Stop();  // idempotent
  EXPECT_GE(snap.ticks(), 1u) << "Stop must take a final tick";
  const uint64_t after_first = snap.ticks();

  // Restart appends to the same file.
  ASSERT_TRUE(snap.Start().ok());
  snap.Stop();
  EXPECT_GT(snap.ticks(), after_first);
  EXPECT_GE(ReadLines(opts.path).size(), 2u);
  std::remove(opts.path.c_str());
}

TEST(SnapshotterTest, TickNowWorksWithoutStartAndWithEmptyPath) {
  TelemetryHub hub;
  hub.AddGauge("x", [] { return 1.0; });
  TelemetrySnapshotter snap(&hub, SnapshotterOptions{});  // no output file
  snap.TickNow();
  snap.TickNow();
  EXPECT_EQ(snap.ticks(), 2u);
  EXPECT_FALSE(snap.running());
}

TEST(SnapshotterTest, JsonLinesSchemaPerTick) {
  TelemetryHub hub;
  std::atomic<double> v{1.5};
  hub.AddGauge("node0.ops_per_sec", [&] { return v.load(); });
  hub.AddGauge("wb.pending", [] { return 4.0; });
  SnapshotterOptions opts;
  opts.path = TempPath("schema");
  std::remove(opts.path.c_str());
  opts.interval_ms = 1000;
  TelemetrySnapshotter snap(&hub, opts);
  ASSERT_TRUE(snap.Start().ok());
  snap.TickNow();
  v.store(2.5);
  snap.TickNow();
  snap.Stop();

  const auto lines = ReadLines(opts.path);
  ASSERT_GE(lines.size(), 3u);  // 2 explicit ticks + final tick on Stop
  int64_t prev_tick = -1;  // tick numbering starts at 0
  for (const std::string& line : lines) {
    // Every tick is one self-contained JSON object with the fixed key
    // skeleton consumers grep for.
    ASSERT_EQ(line.rfind("{\"tick\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"gauges\":{"), std::string::npos) << line;
    EXPECT_NE(line.find("\"node0.ops_per_sec\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"wb.pending\":"), std::string::npos) << line;
    EXPECT_EQ(line.back(), '}') << line;
    // Ticks strictly increase across lines.
    const int64_t tick = std::stoll(line.substr(8));
    EXPECT_GT(tick, prev_tick) << line;
    prev_tick = tick;
  }
  std::remove(opts.path.c_str());
}

// ------------------------- concurrent sampling (TSan) -------------------------

TEST(SnapshotterTest, ConcurrentRecordingAndSampling) {
  // Two owner threads record windowed signals on their own clients while
  // the snapshotter thread samples their gauges at full speed and the main
  // thread polls the reader API — the torn-read surface TSan checks.
  TestEnv env(SmallFabric(2, 16ull << 20));
  FarClient& a = env.NewClient();
  FarClient& b = env.NewClient();
  a.EnableObs(ObsOptions::WindowedOnly());
  b.EnableObs(ObsOptions::WindowedOnly());

  TelemetryHub hub;
  GaugeGroup gauges(&hub);
  a.recorder().AddGauges(&gauges, "a", env.fabric().num_nodes());
  b.recorder().AddGauges(&gauges, "b", env.fabric().num_nodes());

  SnapshotterOptions opts;
  opts.path = TempPath("tsan");
  std::remove(opts.path.c_str());
  opts.interval_ms = 1;
  TelemetrySnapshotter snap(&hub, opts);
  ASSERT_TRUE(snap.Start().ok());

  const auto worker = [](FarClient* client) {
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(client->WriteWord(8 * (i % 512), i).ok());
      ASSERT_TRUE(client->ReadWord(8 * (i % 512)).ok());
    }
    client->recorder().windowed()->Drain();
  };
  std::thread ta(worker, &a);
  std::thread tb(worker, &b);
  for (int i = 0; i < 50; ++i) {
    (void)a.recorder().windowed()->RecentP99All();
    (void)b.recorder().windowed()->RecentOpsPerSec(0);
    (void)hub.Snapshot();
  }
  ta.join();
  tb.join();
  snap.Stop();

  EXPECT_GE(snap.ticks(), 1u);
  EXPECT_GT(a.recorder().windowed()->RecentCountAll(), 0u);
  EXPECT_EQ(a.recorder().windowed()->RecentCountAll(),
            b.recorder().windowed()->RecentCountAll());
  double node_rate_sum = 0.0;
  for (size_t n = 0; n < a.recorder().windowed()->node_count(); ++n) {
    node_rate_sum +=
        a.recorder().windowed()->RecentOpsPerSec(static_cast<NodeId>(n));
  }
  EXPECT_GT(node_rate_sum, 0.0);
  gauges.Release();
  std::remove(opts.path.c_str());
}

}  // namespace
}  // namespace fmds

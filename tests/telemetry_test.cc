// TelemetryHub / GaugeGroup / TelemetrySnapshotter tests: registry
// semantics (sorted snapshots, non-finite clamping, RAII unregistration),
// Prometheus text export, JSON escaping, the exact JSON-lines a tick writes
// (simulated-time stamps), the lifecycle (no tick on construction or
// destruction, one series per file), the empty and unopenable paths, and a
// series that repeats byte for byte for one op sequence.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
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

// ------------------------------- snapshotter -------------------------------

TEST(SnapshotterTest, TicksStampTheOwnersSimulatedTime) {
  TelemetryHub hub;
  double v = 1.5;
  hub.AddGauge("node0.ops_per_sec", [&] { return v; });
  hub.AddGauge("wb.pending", [] { return 4.0; });
  const std::string path = TempPath("ticks");
  {
    TelemetrySnapshotter snap(&hub, path);
    ASSERT_TRUE(snap.Tick(1000).ok());
    v = 2.5;
    ASSERT_TRUE(snap.Tick(250'000).ok());
    EXPECT_EQ(snap.ticks(), 2u);
    // Each line is on disk once its tick returns.
    EXPECT_EQ(ReadLines(path),
              (std::vector<std::string>{
                  "{\"tick\":0,\"sim_ns\":1000,\"gauges\":{"
                  "\"node0.ops_per_sec\":1.5,\"wb.pending\":4}}",
                  "{\"tick\":1,\"sim_ns\":250000,\"gauges\":{"
                  "\"node0.ops_per_sec\":2.5,\"wb.pending\":4}}"}));
  }
  std::remove(path.c_str());
}

TEST(SnapshotterTest, StartStopIdempotentAndFinalTick) {
  // A snapshotter's lifecycle is its constructor and destructor. Neither
  // ticks, so a file holds exactly the ticks its owner took, and a new
  // snapshotter on the same path starts a fresh file.
  TelemetryHub hub;
  hub.AddGauge("x", [] { return 7.0; });
  const std::string path = TempPath("lifecycle");
  std::remove(path.c_str());
  {
    TelemetrySnapshotter idle(&hub, path);
    EXPECT_EQ(idle.ticks(), 0u);
  }
  EXPECT_FALSE(std::ifstream(path).is_open())
      << "a snapshotter that never ticks opens no file";
  {
    TelemetrySnapshotter snap(&hub, path);
    ASSERT_TRUE(snap.Tick(5).ok());
    ASSERT_TRUE(snap.Tick(9).ok());
  }
  EXPECT_EQ(ReadLines(path).size(), 2u) << "destruction takes no final tick";
  TelemetrySnapshotter again(&hub, path);
  ASSERT_TRUE(again.Tick(7).ok());
  EXPECT_EQ(ReadLines(path),
            (std::vector<std::string>{
                "{\"tick\":0,\"sim_ns\":7,\"gauges\":{\"x\":7}}"}));
  std::remove(path.c_str());
}

TEST(SnapshotterTest, TickNowWorksWithoutStartAndWithEmptyPath) {
  // Tick needs no call before it. An empty-path snapshotter sharing a hub
  // with a file-backed one counts only its own ticks and leaves the file's
  // series alone.
  TelemetryHub hub;
  hub.AddGauge("x", [] { return 1.0; });
  const std::string path = TempPath("shared_hub");
  TelemetrySnapshotter quiet(&hub, "");
  TelemetrySnapshotter file(&hub, path);
  ASSERT_TRUE(quiet.Tick(1).ok());
  ASSERT_TRUE(file.Tick(2).ok());
  ASSERT_TRUE(quiet.Tick(3).ok());
  EXPECT_EQ(quiet.ticks(), 2u);
  EXPECT_EQ(file.ticks(), 1u);
  EXPECT_EQ(ReadLines(path),
            (std::vector<std::string>{
                "{\"tick\":0,\"sim_ns\":2,\"gauges\":{\"x\":1}}"}));
  std::remove(path.c_str());
}

TEST(SnapshotterTest, EmptyPathSamplesAndBadPathFails) {
  TelemetryHub hub;
  int samples = 0;
  hub.AddGauge("x", [&] {
    ++samples;
    return 1.0;
  });
  TelemetrySnapshotter quiet(&hub, "");
  ASSERT_TRUE(quiet.Tick(10).ok());
  ASSERT_TRUE(quiet.Tick(20).ok());
  EXPECT_EQ(quiet.ticks(), 2u);
  EXPECT_EQ(samples, 2) << "an empty path still samples every gauge";

  TelemetrySnapshotter bad(&hub,
                           testing::TempDir() + "fmds_no_such_dir/t.jsonl");
  EXPECT_EQ(bad.Tick(30).code(), StatusCode::kInternal);
  EXPECT_EQ(bad.ticks(), 0u);
}

// Runs one op sequence on a fresh fabric with the recorder's and the
// fabric's gauges armed, ticking every 1,000 ops, and returns the series.
std::string RecordSeries(const std::string& name) {
  TestEnv env(SmallFabric(2, 16ull << 20));
  FarClient& client = env.NewClient();
  client.EnableObs(ObsOptions::WindowedOnly());
  TelemetryHub hub;
  GaugeGroup gauges(&hub);
  client.recorder().AddGauges(&gauges, "client0", env.fabric().num_nodes());
  env.fabric().AddGauges(&gauges, "fabric");
  const std::string path = TempPath(name);
  TelemetrySnapshotter snap(&hub, path);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(client.WriteWord(8 * (i % 512), i).ok());
    EXPECT_TRUE(client.ReadWord(8 * (i % 512)).ok());
    if ((i + 1) % 1000 == 0) {
      EXPECT_TRUE(snap.Tick(client.clock().now_ns()).ok());
    }
  }
  EXPECT_EQ(snap.ticks(), 5u);
  WindowedSignals* w = client.recorder().windowed();
  const uint64_t recent = w->RecentCountAll();
  EXPECT_GT(recent, 0u);
  double node_rate_sum = 0.0;
  for (size_t n = 0; n < w->node_count(); ++n) {
    node_rate_sum += w->RecentOpsPerSec(static_cast<NodeId>(n));
  }
  EXPECT_GT(node_rate_sum, 0.0);
  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(lines.size(), 5u);
  // The last tick came right after the last op, so its gauge reads what
  // the owner had recorded by then.
  EXPECT_NE(lines.back().find("\"client0.ops\":" + std::to_string(recent) +
                              ","),
            std::string::npos)
      << lines.back();
  std::remove(path.c_str());
  std::string series;
  for (const std::string& line : lines) {
    series += line + "\n";
  }
  return series;
}

TEST(SnapshotterTest, SeriesRepeatsForOneSequence) {
  const std::string first = RecordSeries("repeat_a");
  const std::string second = RecordSeries("repeat_b");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace fmds

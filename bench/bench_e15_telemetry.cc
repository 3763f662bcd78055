// E15 — live windowed telemetry (src/obs/windowed.*, src/obs/telemetry.*,
// DESIGN.md §12): rolling signals over simulated time, pipeline health
// gauges, and the JSON-lines exporter. Three claims, all enforced by the
// exit code:
//
//   1. Overhead: always-on windowed signals (ObsOptions::WindowedOnly,
//      the production shape) cost < 5% thread-CPU time vs observability OFF
//      on the E3 hot path (HT-tree Get probes). Measured as the median over
//      many passes of finely interleaved off/windowed chunk pairs on ONE
//      pre-built tree (see MeasureOverhead for why every coarser design
//      fails to resolve a 5% budget). --smoke relaxes the bound to 30% (CI
//      machines are shared and noisy; the smoke gate checks wiring, the
//      committed full run checks the budget).
//   2. Tracking: after a per-node slowdown is injected
//      (MemoryNode::set_extra_service_ns), RecentP99All reflects it within
//      TWO rolling windows of simulated work — and decays back within two
//      windows of the slowdown clearing (window expiry, not Reset).
//   3. Export: a TelemetryHub wired with recorder + fabric + cache +
//      write-behind + evictor gauges, and a TelemetrySnapshotter the app
//      thread ticks every kTickEvery requests and once after its
//      FlushBarrier, stamping each JSON line with its simulated clock, so
//      the series repeats byte for byte for one run. The gate wants exactly
//      that many ticks and lines, plus Prometheus text export and the
//      Fabric::DumpHealth / DumpClientStats tables. Its cache budget is far
//      below the pipeline's resident set, so the evictor has victims to
//      pay for (evictor.bg_evictions > 0).
//
// Flags: --smoke, --json=<path>, --telemetry=<path> (JSON-lines output,
// default TELEMETRY_e15.jsonl).
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cache/bg_evictor.h"
#include "src/common/rng.h"
#include "src/core/ht_tree.h"
#include "src/obs/telemetry.h"

namespace fmds {
namespace {

struct Config {
  uint64_t keys = 20000;
  int probes = 60000;        // per overhead pass, per mode
  // Each pass yields one win/off ratio from interleaved chunk pairs; the
  // reported overhead is the median over passes, which discards the passes
  // an interference episode (scheduler, frequency scaling) still splits
  // asymmetrically.
  int passes = 25;
  double overhead_bound = 0.05;
  int pipeline_ops = 6000;
};

// ---- Claim 1: wall-clock overhead of always-on windowed signals ----

// Thread CPU time: on a shared box, wall time charges us for every
// preemption (50% pass-to-pass swings in practice); CPU time only counts
// cycles this thread actually ran, which is the quantity the overhead
// budget is about.
uint64_t ThreadCpuNowNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// One probe pass over a pre-built HT-tree; returns thread-CPU nanoseconds.
uint64_t ProbePassCpuNs(HtTree& map, uint64_t keys, int probes,
                        uint64_t seed) {
  Rng rng(seed);
  const uint64_t t0 = ThreadCpuNowNs();
  for (int i = 0; i < probes; ++i) {
    CheckOk(map.Get(rng.NextInRange(1, keys)).status(), "get");
  }
  return ThreadCpuNowNs() - t0;
}

struct OverheadResult {
  uint64_t off_cpu_ns = 0;       // median over passes
  uint64_t windowed_cpu_ns = 0;  // median over passes
  double overhead = 0.0;         // median of per-pass win/off - 1
};

OverheadResult MeasureOverhead(const Config& cfg) {
  // ONE environment; passes alternate the recorder's options between
  // obs-off and windowed-only on the same client. Building two separate
  // environments (the obvious design) measures heap/layout luck as much as
  // recording cost: two identical processes differ by several percent run
  // to run, which swamps a 5% budget. Toggling the gate on one tree keeps
  // the memory layout, cache state, and rng sequence identical across
  // modes, so the off/windowed difference isolates the recording path.
  BenchEnv env(DefaultFabric());
  FarClient& client = env.NewClient();

  HtTree::Options options;
  options.buckets_per_table = 8192;
  HtTree map =
      CheckOk(HtTree::Create(&client, &env.alloc(), options), "map");
  for (uint64_t k = 1; k <= cfg.keys; ++k) {
    CheckOk(map.Put(k, k), "put");
  }

  // ONE WindowedSignals instance for the whole measurement, toggled via
  // Pause/ResumeWindowed (a pointer move). Rebuilding it per toggle — what
  // set_options does — zeroes its ~half-MB ring allocation, which evicts
  // the tree's hot lines right before the windowed chunk runs and shows up
  // as fake recording overhead.
  client.recorder().set_options(ObsOptions::WindowedOnly());

  // Warm both paths once (page-ins, branch predictors) before timing.
  client.recorder().PauseWindowed();
  ProbePassCpuNs(map, cfg.keys, cfg.probes / 4, 7);
  client.recorder().ResumeWindowed();
  ProbePassCpuNs(map, cfg.keys, cfg.probes / 4, 7);

  // Each pass splits its probes into short alternating off/windowed CHUNKS
  // (sub-millisecond) and keeps the pass's win/off ratio over the summed
  // chunk times. Even thread-CPU time drifts by tens of percent at the
  // millisecond scale on a shared box (frequency scaling, sibling load), so
  // back-to-back whole-pass pairs still can't resolve a 5% budget;
  // fine-grained interleaving makes both modes sample nearly the same
  // machine state. The chunk order flips every pass so warm-up effects
  // cancel, and the median over passes discards the ones an interference
  // episode still splits.
  constexpr int kChunks = 24;  // per mode, per pass
  const int chunk_probes = cfg.probes / kChunks;
  std::vector<double> ratios;
  std::vector<uint64_t> off_times;
  std::vector<uint64_t> win_times;
  ratios.reserve(cfg.passes);
  for (int p = 0; p < cfg.passes; ++p) {
    uint64_t off_ns = 0;
    uint64_t win_ns = 0;
    const bool off_first = (p % 2) == 0;
    for (int c = 0; c < kChunks; ++c) {
      // The two timed modes of a chunk share a seed (identical key
      // sequence); each chunk advances, so a full pass still sweeps the
      // keyspace. An UNTIMED warm run of the same keys goes first: the
      // first replay of a fresh key sequence pays its compulsory cache
      // misses, and charging those to whichever mode happened to run first
      // would swamp the budget being measured.
      const uint64_t seed = 11 + static_cast<uint64_t>(p) * kChunks + c;
      client.recorder().PauseWindowed();
      ProbePassCpuNs(map, cfg.keys, chunk_probes, seed);
      const bool this_off_first = off_first == (c % 2 == 0);
      for (int half = 0; half < 2; ++half) {
        if (this_off_first == (half == 0)) {
          client.recorder().PauseWindowed();
          off_ns += ProbePassCpuNs(map, cfg.keys, chunk_probes, seed);
        } else {
          client.recorder().ResumeWindowed();
          win_ns += ProbePassCpuNs(map, cfg.keys, chunk_probes, seed);
        }
      }
    }
    client.recorder().ResumeWindowed();
    off_times.push_back(off_ns);
    win_times.push_back(win_ns);
    ratios.push_back(static_cast<double>(win_ns) /
                     static_cast<double>(off_ns));
  }
  auto median_u64 = [](std::vector<uint64_t>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::sort(ratios.begin(), ratios.end());
  OverheadResult r;
  r.off_cpu_ns = median_u64(off_times);
  r.windowed_cpu_ns = median_u64(win_times);
  r.overhead = ratios[ratios.size() / 2] - 1.0;
  return r;
}

// ---- Claim 2: RecentP99 tracks a node slowdown within 2 windows ----

struct TrackingResult {
  uint64_t p99_baseline = 0;
  uint64_t p99_slow = 0;       // after <= 2 windows of slowed work
  uint64_t p99_recovered = 0;  // after 2 clean windows post-clear
  double ewma_slow_node = 0.0;
  double ewma_fast_node = 0.0;
  uint64_t extra_ns = 0;
  bool detected = false;
  bool recovered = false;
};

TrackingResult MeasureTracking() {
  FabricOptions fabric_opts;
  fabric_opts.num_nodes = 4;
  fabric_opts.node_capacity = 64ull << 20;
  BenchEnv env(fabric_opts);
  FarClient& client = env.NewClient(ObsOptions::WindowedOnly());
  WindowedSignals* signals = client.recorder().windowed();

  // One word array per node: uniform reads spread evenly, and per-node
  // attribution (the load EWMAs) is exact.
  constexpr uint64_t kWordsPerNode = 16 * 1024;
  FarAddr bases[4];
  for (NodeId n = 0; n < 4; ++n) {
    bases[n] = CheckOk(
        env.alloc().Allocate(kWordsPerNode * 8, AllocHint::OnNode(n)),
        "alloc");
  }
  Rng rng(42);
  const auto op = [&] {
    const uint64_t r = rng.Next();
    const FarAddr addr = bases[r % 4] + 8 * ((r >> 2) % kWordsPerNode);
    CheckOk(client.ReadWord(addr).status(), "rd");
  };
  const auto run_for = [&](uint64_t sim_ns) {
    const uint64_t until = client.clock().now_ns() + sim_ns;
    while (client.clock().now_ns() < until) {
      op();
    }
  };
  const uint64_t window_ns = signals->options().window_ns;

  TrackingResult r;
  // Baseline: fill more than one full window of steady traffic.
  run_for(2 * window_ns);
  r.p99_baseline = signals->RecentP99All();

  // Inject: node 2 slows by ~4x a typical one-sided RTT. Charged inside
  // AccountRoundTrip, so every op touching node 2 stretches by extra_ns.
  r.extra_ns = 4000;
  const NodeId slow_node = 2;
  env.fabric().node(slow_node).set_extra_service_ns(r.extra_ns);
  // The claim: the rolling p99 reflects the shift within TWO windows of
  // simulated work (old sub-windows still hold fast samples until they
  // rotate out — two windows bounds full turnover).
  run_for(2 * window_ns);
  r.p99_slow = signals->RecentP99All();
  r.ewma_slow_node = signals->NodeLoadEwma(slow_node);
  r.ewma_fast_node = signals->NodeLoadEwma(0);
  // 1/4 of ops hit the slow node, so the 99th percentile must sit above
  // baseline + extra (minus histogram bucket slack: p99 buckets are
  // log-scaled, allow half the injected delta).
  r.detected = r.p99_slow >= r.p99_baseline + r.extra_ns / 2;

  // Clear and let the slowed samples rotate out of the window entirely.
  env.fabric().node(slow_node).set_extra_service_ns(0);
  run_for(2 * window_ns);
  r.p99_recovered = signals->RecentP99All();
  r.recovered = r.p99_recovered < r.p99_baseline + r.extra_ns / 2;
  return r;
}

// ---- Export surface: hub + snapshotter + prom text + health tables ----

// Requests between two snapshotter ticks in the pipeline.
constexpr int kTickEvery = 250;

struct PipelineResult {
  uint64_t ticks = 0;
  uint64_t gauge_count = 0;
  uint64_t telemetry_lines = 0;
  uint64_t wb_batches_flushed = 0;
  uint64_t cache_windowed_lookups = 0;
  uint64_t evictor_bg_evictions = 0;
  bool ok = false;
};

PipelineResult RunPipeline(const Config& cfg, const std::string& telemetry,
                           bool verbose) {
  FabricOptions fabric_opts;
  fabric_opts.num_nodes = 2;
  fabric_opts.node_capacity = 128ull << 20;
  BenchEnv env(fabric_opts);
  FarClient& client = env.NewClient(ObsOptions::WindowedOnly());

  HtTree::Options options;
  options.buckets_per_table = 4096;
  options.cache.budget_bytes = 4 << 10;  // below the resident set: evicts
  options.cache.admit_after = 0;
  options.cache.background_eviction = true;
  HtTree map =
      CheckOk(HtTree::Create(&client, &env.alloc(), options), "map");
  WriteBehindOptions wb;
  wb.max_batch = 64;
  wb.flush_interval_us = 50;
  CheckOk(map.EnableWriteBehind(wb), "wb");
  BackgroundEvictor evictor(&env.fabric(), /*client_id=*/4242);
  evictor.Watch(map.near_cache());

  // Every layer registers its gauges with one hub; the app thread ticks the
  // snapshotter at fixed points of its own run.
  TelemetryHub hub;
  GaugeGroup gauges(&hub);
  client.recorder().AddGauges(&gauges, "client0", env.fabric().num_nodes());
  env.fabric().AddGauges(&gauges, "fabric");
  map.near_cache()->AddGauges(&gauges, "cache");
  map.write_behind()->AddGauges(&gauges, "wb");
  evictor.AddGauges(&gauges, "evictor");

  TelemetrySnapshotter snapshotter(&hub, telemetry);

  Rng rng(99);
  const uint64_t span = 4000;
  for (int i = 0; i < cfg.pipeline_ops; ++i) {
    const uint64_t key = 1 + rng.Next() % span;
    if (i % 4 == 0) {
      CheckOk(map.Put(key, i + 1), "put");
    } else {
      (void)map.Get(key);
    }
    if ((i + 1) % kTickEvery == 0) {
      CheckOk(snapshotter.Tick(client.clock().now_ns()), "tick");
    }
  }
  CheckOk(map.FlushBarrier(), "barrier");
  CheckOk(snapshotter.Tick(client.clock().now_ns()), "tick");

  PipelineResult r;
  r.ticks = snapshotter.ticks();
  r.gauge_count = hub.gauge_count();
  for (const TelemetryHub::Sample& s : hub.Snapshot()) {
    if (s.name == "wb.batches_flushed") {
      r.wb_batches_flushed = static_cast<uint64_t>(s.value);
    } else if (s.name == "cache.windowed_lookups") {
      r.cache_windowed_lookups = static_cast<uint64_t>(s.value);
    } else if (s.name == "evictor.bg_evictions") {
      r.evictor_bg_evictions = static_cast<uint64_t>(s.value);
    }
  }
  const std::string prom = hub.ExportPromText();

  if (verbose) {
    env.fabric().DumpHealth(std::cout);
    // The app, the flusher and the evictor all step on this thread, so
    // their stats are stable to copy.
    const ClientStats fleet[] = {
        client.stats(), map.write_behind()->flusher_client()->stats(),
        evictor.stats()};
    Fabric::DumpClientStats(std::cout, fleet);
    std::cout << "\nprom export (" << r.gauge_count << " gauges, "
              << prom.size() << " bytes), telemetry: " << telemetry << "\n";
  }

  uint64_t lines = 0;
  {
    std::ifstream in(telemetry);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"tick\":", 0) == 0) {
        ++lines;
      }
    }
  }
  r.telemetry_lines = lines;

  evictor.Unwatch(map.near_cache());
  evictor.StopAndJoin();
  r.ok = r.ticks == static_cast<uint64_t>(cfg.pipeline_ops / kTickEvery) + 1 &&
         r.telemetry_lines == r.ticks &&
         r.gauge_count >= 30 && r.wb_batches_flushed > 0 &&
         r.cache_windowed_lookups > 0 && r.evictor_bg_evictions > 0 &&
         prom.find("fmds_") != std::string::npos;
  return r;
}

}  // namespace
}  // namespace fmds

int main(int argc, char** argv) {
  using namespace fmds;

  const bool smoke = FlagPresent(argc, argv, "--smoke");
  Config cfg;
  if (smoke) {
    cfg.keys = 5000;
    cfg.probes = 15000;
    cfg.passes = 7;
    cfg.overhead_bound = 0.30;
    cfg.pipeline_ops = 2000;
  }
  const std::string telemetry =
      TelemetryOutputPath(argc, argv, "TELEMETRY_e15.jsonl");

  const OverheadResult overhead = MeasureOverhead(cfg);
  const TrackingResult tracking = MeasureTracking();
  const PipelineResult pipeline = RunPipeline(cfg, telemetry, !smoke);

  Table table({"check", "value", "bound", "pass"});
  table.AddRow({"windowed overhead", Table::Cell(100.0 * overhead.overhead, 2),
                Table::Cell(100.0 * cfg.overhead_bound, 0),
                overhead.overhead < cfg.overhead_bound ? "yes" : "NO"});
  table.AddRow({"p99 shift detected (ns)",
                Table::Cell(tracking.p99_slow - std::min(tracking.p99_slow,
                                                         tracking.p99_baseline)),
                Table::Cell(tracking.extra_ns / 2),
                tracking.detected ? "yes" : "NO"});
  table.AddRow({"p99 recovered (ns)", Table::Cell(tracking.p99_recovered),
                Table::Cell(tracking.p99_baseline + tracking.extra_ns / 2),
                tracking.recovered ? "yes" : "NO"});
  table.AddRow({"export surface", Table::Cell(pipeline.ticks), "-",
                pipeline.ok ? "yes" : "NO"});
  table.Print(std::cout, "E15: live windowed telemetry gates");

  std::cout << "\nsummary: overhead = " << 100.0 * overhead.overhead
            << "% (bound " << 100.0 * cfg.overhead_bound << "%); p99 "
            << tracking.p99_baseline << " -> " << tracking.p99_slow
            << " ns under +" << tracking.extra_ns << " ns on 1/4 nodes, back "
            << "to " << tracking.p99_recovered << " ns after expiry; "
            << pipeline.ticks << " snapshotter ticks, "
            << pipeline.gauge_count << " gauges\n";

  BenchJson json;
  json.Begin("overhead");
  json.Int("probes", static_cast<uint64_t>(cfg.probes));
  json.Int("passes", static_cast<uint64_t>(cfg.passes));
  json.Int("off_cpu_ns", overhead.off_cpu_ns);
  json.Int("windowed_cpu_ns", overhead.windowed_cpu_ns);
  json.Num("overhead_frac", overhead.overhead, 4);
  json.Num("bound_frac", cfg.overhead_bound);
  json.Begin("load_shift");
  json.Int("extra_service_ns", tracking.extra_ns);
  json.Int("p99_baseline_ns", tracking.p99_baseline);
  json.Int("p99_slow_ns", tracking.p99_slow);
  json.Int("p99_recovered_ns", tracking.p99_recovered);
  json.Num("ewma_slow_node_ns", tracking.ewma_slow_node);
  json.Num("ewma_fast_node_ns", tracking.ewma_fast_node);
  json.Int("windows_to_detect", 2);
  json.Begin("export");
  json.Int("snapshotter_ticks", pipeline.ticks);
  json.Int("telemetry_lines", pipeline.telemetry_lines);
  json.Int("gauges", pipeline.gauge_count);
  json.Int("wb_batches_flushed", pipeline.wb_batches_flushed);
  json.Int("cache_windowed_lookups", pipeline.cache_windowed_lookups);
  json.Int("evictor_bg_evictions", pipeline.evictor_bg_evictions);
  json.Begin("headline");
  json.Int("overhead_ok", overhead.overhead < cfg.overhead_bound ? 1 : 0);
  json.Int("tracking_ok", tracking.detected && tracking.recovered ? 1 : 0);
  json.Int("export_ok", pipeline.ok ? 1 : 0);
  json.Write(JsonOutputPath(argc, argv, "BENCH_e15.json"));

  const bool pass = overhead.overhead < cfg.overhead_bound &&
                    tracking.detected && tracking.recovered && pipeline.ok;
  return pass ? 0 : 1;
}

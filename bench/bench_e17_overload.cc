// E17 — overload scenario suite (DESIGN.md §14, EXPERIMENTS.md E17). The
// congestion model turns each memory node's front end into a bounded
// virtual-time service queue; these scenarios drive it past the knee and
// check that every layer that claims to handle overload actually does.
// All driver code programs against the unified FarMap interface
// (bench/scenario_harness.h): the scenarios never name HtTree in their op
// loops.
//
//   overload_tails     gate (a): offered load >= 2x a node's service rate
//                      makes p99 grow >= 5x over the idle p99 (queueing is
//                      nonlinear, not additive).
//   admission_control  gate (b): a token-bucket AdmissionController fed by
//                      WindowedSignals::RecentP99 yields >= 1.5x the
//                      goodput of a naive retry storm at EQUAL offered
//                      load (rejects burn node capacity; client-side
//                      deferral is free). Shed rates reported.
//   hotspot_router     gate (c): when one node's front end degrades, the
//                      DataplaneRouter's (op, node) cost cells learn it
//                      and shift >= 20% of the op mix off the congested
//                      front end within 2 telemetry windows (window_ns =
//                      5 ms), then shift back after recovery.
//   slowdown_recovery  a transient 10x service-time excursion: tails blow
//                      up during the excursion and return to baseline
//                      after it; the queue drains to idle.
//   retry_deadline     gate (d): with jittered exponential backoff and a
//                      sufficient deadline budget, ZERO kOverloaded
//                      results leak to the application even though the
//                      node sheds continuously.
//
// Flags: --smoke (small config for CI; all gates still enforced),
// --json=<path> (default BENCH_e17.json), --telemetry=<path> (one JSON
// object of fabric gauges snapshotted at the slowdown peak — includes the
// per-node queue_depth / sheds / shed_rate gauges).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/scenario_harness.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/core/ht_tree.h"
#include "src/fabric/admission.h"
#include "src/obs/telemetry.h"
#include "src/route/router.h"
#include "src/route/rpc_dataplane.h"

namespace fmds {
namespace {

struct Config {
  bool smoke = false;
  size_t keys = 1024;
  size_t tail_workers = 16;
  size_t tail_rounds = 400;
  size_t adm_workers = 24;
  size_t adm_rounds = 500;
  size_t hot_batches_learn = 300;
  size_t hot_batches_hot = 600;
  size_t hot_batches_recover = 900;
  size_t slow_workers = 4;
  size_t slow_rounds = 300;
  size_t retry_workers = 16;
  size_t retry_rounds = 400;
};

Config SmokeConfig() {
  Config cfg;
  cfg.smoke = true;
  cfg.keys = 512;
  cfg.tail_workers = 8;
  cfg.tail_rounds = 150;
  cfg.adm_workers = 12;
  cfg.adm_rounds = 220;
  cfg.hot_batches_learn = 150;
  cfg.hot_batches_hot = 300;
  cfg.hot_batches_recover = 500;
  cfg.slow_rounds = 150;
  cfg.retry_workers = 8;
  cfg.retry_rounds = 150;
  return cfg;
}

FabricOptions ScenarioFabric(uint32_t nodes) {
  FabricOptions options;
  options.num_nodes = nodes;
  options.node_capacity = 256ull << 20;
  // Congestion starts DISABLED: populate at fixed RTT, then arm the front
  // end per node via MemoryNode::SetCongestion for the measured phases.
  return options;
}

CongestionOptions FrontEnd(uint64_t service_ns, uint64_t queue_ops,
                           uint64_t reject_ns = 150) {
  CongestionOptions options;
  options.enabled = true;
  options.service_ns = service_ns;
  options.queue_ops = queue_ops;
  options.reject_ns = reject_ns;
  return options;
}

HtTree::Options ScenarioMap() {
  HtTree::Options options;
  options.buckets_per_table = 4096;
  options.placement = AllocHint::OnNode(0);
  return options;
}

void Populate(FarMap& map, size_t keys) {
  for (uint64_t k = 1; k <= keys; ++k) {
    CheckOk(map.Put(k, k * 7), "populate");
  }
}

Status GetRandomKey(FarMap& map, Rng& rng, size_t keys) {
  return map.Get(1 + rng.NextBelow(keys)).status();
}

// ------------------------- scenario: overload_tails ------------------------

void ScenarioOverloadTails(const Config& cfg, GateSet* gates,
                           BenchJson* json) {
  std::printf("\n-- overload_tails: %zu closed-loop workers vs one node --\n",
              cfg.tail_workers);
  BenchEnv env(ScenarioFabric(1));
  RetryPolicy retry;
  retry.max_attempts = 4;  // absorb rare sheds; the queue bound is generous
  ScenarioFleet fleet(&env, cfg.tail_workers, ScenarioMap(), retry);
  Populate(fleet.map(0), cfg.keys);

  const uint64_t service_ns = 650;
  env.fabric().node(0).SetCongestion(FrontEnd(service_ns, 256));

  // Idle tail: worker 0 alone, ops spaced far apart so the queue is always
  // drained — this is the fixed-RTT baseline the congestion model must
  // recover at low load.
  Rng rng(17);
  const ClientStats before_idle = fleet.client(0).stats();
  fleet.ResetSamples();
  for (size_t i = 0; i < cfg.tail_rounds; ++i) {
    ScenarioWorker& worker = fleet.worker(0);
    const uint64_t t0 = worker.client->clock().now_ns();
    CheckOk(GetRandomKey(*worker.map, rng, cfg.keys), "idle get");
    worker.latencies.push_back(worker.client->clock().now_ns() - t0);
    worker.client->clock().Advance(50'000);  // open the loop
  }
  const std::vector<uint64_t> idle = fleet.worker(0).latencies;
  const uint64_t idle_p99 = PercentileNs(idle, 0.99);
  const double idle_get_ns = Median(std::vector<double>(idle.begin(), idle.end()));
  const double ops_per_get =
      static_cast<double>(fleet.client(0).stats().far_ops -
                          before_idle.far_ops) /
      static_cast<double>(cfg.tail_rounds);

  // Offered load of the closed-loop fleet, in front-end ops/s, against the
  // node's service rate. Demand is what the fleet WOULD issue at idle
  // latency; the gate requires >= 2x capacity.
  const double capacity_ops_per_sec = 1e9 / static_cast<double>(service_ns);
  const double offered_ops_per_sec =
      static_cast<double>(cfg.tail_workers) * ops_per_get * 1e9 / idle_get_ns;
  const double load_ratio = offered_ops_per_sec / capacity_ops_per_sec;

  // Overloaded tail: the whole fleet, closed loop from a clock barrier.
  fleet.ResetSamples();
  fleet.AlignClocks();
  fleet.RunRounds(cfg.tail_rounds,
                  [&](FarMap& map, FarClient&, size_t, size_t) {
                    return GetRandomKey(map, rng, cfg.keys);
                  });
  const std::vector<uint64_t> loaded = fleet.AllLatencies();
  const uint64_t loaded_p99 = PercentileNs(loaded, 0.99);
  const uint64_t loaded_p50 = PercentileNs(loaded, 0.50);
  const double p99_ratio =
      static_cast<double>(loaded_p99) / static_cast<double>(idle_p99);

  Table table({"metric", "value"});
  table.AddRow({Table::Cell("idle p99 (ns)"), Table::Cell(idle_p99)});
  table.AddRow({Table::Cell("loaded p50 (ns)"), Table::Cell(loaded_p50)});
  table.AddRow({Table::Cell("loaded p99 (ns)"), Table::Cell(loaded_p99)});
  table.AddRow({Table::Cell("offered/capacity"), Table::Cell(load_ratio, 3)});
  table.AddRow({Table::Cell("p99 inflation"), Table::Cell(p99_ratio, 3)});
  table.Print(std::cout, "E17: overload tails");

  gates->Check("tails_offered_load_2x", load_ratio >= 2.0,
               "offered/capacity = " + std::to_string(load_ratio));
  gates->Check("tails_p99_5x_idle", p99_ratio >= 5.0,
               "p99 inflation = " + std::to_string(p99_ratio));

  json->Begin("overload_tails");
  json->Int("workers", cfg.tail_workers);
  json->Int("service_ns", service_ns);
  json->Num("ops_per_get", ops_per_get, 4);
  json->Num("offered_over_capacity", load_ratio, 4);
  json->Int("idle_p99_ns", idle_p99);
  json->Int("loaded_p50_ns", loaded_p50);
  json->Int("loaded_p99_ns", loaded_p99);
  json->Num("p99_inflation", p99_ratio, 4);
  json->Int("sheds", env.fabric().node(0).stats().ops_shed.load());
}

// ----------------------- scenario: admission_control -----------------------

struct AdmissionArmResult {
  double goodput_ops_per_sec = 0.0;
  double shed_rate = 0.0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t deferred = 0;
};

// Both arms present the same offered load: `workers` closed-loop clients,
// `rounds` rounds each. `controller` non-null = the admission-control arm.
AdmissionArmResult RunAdmissionArm(const Config& cfg,
                                   AdmissionController* controller) {
  BenchEnv env(ScenarioFabric(1));
  RetryPolicy retry;
  if (controller == nullptr) {
    // The naive arm answers sheds with an aggressive retry storm.
    retry.max_attempts = 3;
    retry.backoff_base_ns = 400;
    retry.backoff_max_ns = 3'000;
  } else {
    retry.max_attempts = 1;  // the controller is the throttle
  }
  ObsOptions obs;
  obs.windowed = true;  // worker 0 feeds RecentP99 into the AIMD loop
  ScenarioFleet fleet(&env, cfg.adm_workers, ScenarioMap(), retry, &obs);
  Populate(fleet.map(0), cfg.keys);
  env.fabric().node(0).SetCongestion(
      FrontEnd(/*service_ns=*/650, /*queue_ops=*/12, /*reject_ns=*/600));
  fleet.AlignClocks();

  Rng rng(23);
  const uint64_t start_ns = fleet.MaxClockNs();
  fleet.RunRounds(
      cfg.adm_rounds, [&](FarMap& map, FarClient& client, size_t worker,
                          size_t round) -> Status {
        if (controller != nullptr) {
          // Client-side gate: a refused op defers (advancing only the
          // client's own clock) instead of burning node capacity.
          int spins = 0;
          while (!controller->Admit(0, client.clock().now_ns())) {
            client.clock().Advance(2'000);
            if (++spins > 100'000) {
              return Overloaded("admission spin bound");
            }
          }
          if (worker == 0 && round % 32 == 31) {
            const uint64_t p99 = client.recorder().windowed()->RecentP99All();
            if (p99 > 0) {
              controller->ReportP99(0, p99);
            }
          }
        }
        return GetRandomKey(map, rng, cfg.keys);
      });

  AdmissionArmResult result;
  result.ok = fleet.TotalOk();
  result.overloaded = fleet.TotalOverloaded();
  result.deferred = controller != nullptr ? controller->deferred() : 0;
  const uint64_t elapsed = fleet.MaxClockNs() - start_ns;
  result.goodput_ops_per_sec =
      elapsed == 0 ? 0.0 : static_cast<double>(result.ok) * 1e9 /
                               static_cast<double>(elapsed);
  const auto& node_stats = env.fabric().node(0).stats();
  const double shed = static_cast<double>(node_stats.ops_shed.load());
  const double served = static_cast<double>(node_stats.ops_serviced.load());
  result.shed_rate = shed + served == 0.0 ? 0.0 : shed / (shed + served);
  return result;
}

void ScenarioAdmissionControl(const Config& cfg, GateSet* gates,
                              BenchJson* json) {
  std::printf("\n-- admission_control: token bucket vs retry storm --\n");
  const AdmissionArmResult naive = RunAdmissionArm(cfg, nullptr);

  AdmissionOptions options;
  options.initial_rate_ops_per_sec = 1.2e6;  // above capacity: AIMD must cut
  options.min_rate_ops_per_sec = 5e4;
  options.max_rate_ops_per_sec = 1e7;
  options.burst_ops = static_cast<double>(cfg.adm_workers);
  options.p99_bound_ns = 4'000;
  options.decrease_factor = 0.7;
  options.increase_ops_per_sec = 2e4;
  AdmissionController controller(options);
  const AdmissionArmResult admitted = RunAdmissionArm(cfg, &controller);

  const double gain = naive.goodput_ops_per_sec == 0.0
                          ? 0.0
                          : admitted.goodput_ops_per_sec /
                                naive.goodput_ops_per_sec;
  Table table({"arm", "goodput ops/s", "shed rate", "ok", "overloaded",
               "deferred"});
  table.AddRow({Table::Cell("retry storm"),
             Table::Cell(naive.goodput_ops_per_sec, 6),
             Table::Cell(naive.shed_rate, 4), Table::Cell(naive.ok),
             Table::Cell(naive.overloaded), Table::Cell(uint64_t{0})});
  table.AddRow({Table::Cell("admission"),
             Table::Cell(admitted.goodput_ops_per_sec, 6),
             Table::Cell(admitted.shed_rate, 4), Table::Cell(admitted.ok),
             Table::Cell(admitted.overloaded),
             Table::Cell(admitted.deferred)});
  table.Print(std::cout, "E17: admission control");

  gates->Check("admission_goodput_1p5x", gain >= 1.5,
               "goodput gain = " + std::to_string(gain));
  gates->Check("admission_sheds_reduced",
               admitted.shed_rate < naive.shed_rate,
               "shed rate " + std::to_string(naive.shed_rate) + " -> " +
                   std::to_string(admitted.shed_rate));

  json->Begin("admission_control");
  json->Int("workers", cfg.adm_workers);
  json->Num("naive_goodput_ops_per_sec", naive.goodput_ops_per_sec, 6);
  json->Num("admission_goodput_ops_per_sec",
            admitted.goodput_ops_per_sec, 6);
  json->Num("goodput_gain", gain, 4);
  json->Num("naive_shed_rate", naive.shed_rate, 4);
  json->Num("admission_shed_rate", admitted.shed_rate, 4);
  json->Int("naive_overloaded", naive.overloaded);
  json->Int("admission_overloaded", admitted.overloaded);
  json->Int("admission_deferred", admitted.deferred);
  json->Num("admission_final_rate_ops_per_sec", controller.RateFor(0), 6);
}

// ------------------------- scenario: hotspot_router ------------------------

void ScenarioHotspotRouter(const Config& cfg, GateSet* gates,
                           BenchJson* json) {
  std::printf("\n-- hotspot_router: congested node vs adaptive routing --\n");
  BenchEnv env(ScenarioFabric(2));
  RpcDataplane dataplane(&env.fabric(), &env.alloc());
  // The agents' colocated processors are moderately occupied, so one-sided
  // is the right route while the fabric front end is healthy.
  dataplane.SetLoadFactorAll(0.75);

  ObsOptions obs;
  obs.windowed = true;  // 5 ms windows: the gate's clock
  FarClient& client = env.NewClient(obs);
  DataplaneRouterOptions router_options;
  router_options.probe_period = 32;
  DataplaneRouter router(&client, router_options);
  RpcMapPath path(&client, &dataplane);

  auto tree = std::make_unique<HtTree>(CheckOk(
      HtTree::Create(&client, &env.alloc(), ScenarioMap()), "hotspot map"));
  CheckOk(tree->EnableRouting(&router, &path), "enable routing");
  std::unique_ptr<FarMap> map = std::move(tree);
  Populate(*map, cfg.keys);

  const uint64_t window_ns =
      client.recorder().windowed()->options().window_ns;
  const CongestionOptions mild = FrontEnd(/*service_ns=*/300, 512);
  const CongestionOptions hot = FrontEnd(/*service_ns=*/2'500, 512);
  env.fabric().node(0).SetCongestion(mild);
  env.fabric().node(1).SetCongestion(mild);

  constexpr size_t kBatch = 4;
  Rng rng(29);
  auto run_batches = [&](size_t batches, uint64_t* rpc_delta,
                         uint64_t* decision_delta) {
    const uint64_t rpc0 = router.rpc_decisions();
    const uint64_t one0 = router.one_sided_decisions();
    for (size_t b = 0; b < batches; ++b) {
      std::vector<uint64_t> keys;
      keys.reserve(kBatch);
      for (size_t i = 0; i < kBatch; ++i) {
        keys.push_back(1 + rng.NextBelow(cfg.keys));
      }
      for (const Result<uint64_t>& r : map->MultiGet(keys)) {
        CheckOk(r.status(), "hotspot multiget");
      }
    }
    const uint64_t rpc = router.rpc_decisions() - rpc0;
    const uint64_t decisions =
        rpc + (router.one_sided_decisions() - one0);
    if (rpc_delta != nullptr) {
      *rpc_delta = rpc;
    }
    if (decision_delta != nullptr) {
      *decision_delta = decisions;
    }
  };

  // Phase 1: learn the healthy fabric.
  uint64_t rpc_learn = 0;
  uint64_t dec_learn = 0;
  run_batches(cfg.hot_batches_learn, &rpc_learn, &dec_learn);
  const double rpc_share_learn =
      dec_learn == 0 ? 0.0
                     : static_cast<double>(rpc_learn) /
                           static_cast<double>(dec_learn);

  // Phase 2: node 0 degrades. Track the simulated time until >= 20% of the
  // phase's decisions route around the congested front end.
  env.fabric().node(0).SetCongestion(hot);
  const uint64_t hot_start_ns = client.clock().now_ns();
  const uint64_t rpc_at_hot = router.rpc_decisions();
  const uint64_t one_at_hot = router.one_sided_decisions();
  uint64_t shift_ns = 0;
  for (size_t b = 0; b < cfg.hot_batches_hot; ++b) {
    run_batches(1, nullptr, nullptr);
    if (shift_ns == 0) {
      const uint64_t rpc = router.rpc_decisions() - rpc_at_hot;
      const uint64_t total =
          rpc + (router.one_sided_decisions() - one_at_hot);
      if (total >= 10 && rpc * 5 >= total) {  // rpc share >= 20%
        shift_ns = client.clock().now_ns() - hot_start_ns;
      }
    }
  }
  const uint64_t rpc_hot = router.rpc_decisions() - rpc_at_hot;
  const uint64_t dec_hot =
      rpc_hot + (router.one_sided_decisions() - one_at_hot);
  const double rpc_share_hot =
      dec_hot == 0 ? 0.0
                   : static_cast<double>(rpc_hot) /
                         static_cast<double>(dec_hot);
  // Front-end op mix: a one-sided MultiGet offers ~2*kBatch ops to node
  // 0's queue (bucket-head wave + item wave); an RPC batch offers one
  // request op (the agent's home-node walk bypasses the NIC front end).
  const double ops_one_sided = 2.0 * static_cast<double>(kBatch);
  const double mix_before = ops_one_sided;  // phase 1 is all one-sided
  const double mix_hot =
      (static_cast<double>(dec_hot - rpc_hot) * ops_one_sided +
       static_cast<double>(rpc_hot) * 1.0) /
      std::max<double>(1.0, static_cast<double>(dec_hot));
  const double mix_shift = 1.0 - mix_hot / mix_before;

  // Phase 3: recovery. Probing rediscovers the cheap one-sided route.
  env.fabric().node(0).SetCongestion(mild);
  run_batches(cfg.hot_batches_recover * 2 / 3, nullptr, nullptr);
  uint64_t rpc_tail = 0;
  uint64_t dec_tail = 0;
  run_batches(cfg.hot_batches_recover / 3, &rpc_tail, &dec_tail);
  const double rpc_share_recovered =
      dec_tail == 0 ? 0.0
                    : static_cast<double>(rpc_tail) /
                          static_cast<double>(dec_tail);
  const bool recovered =
      router.Preferred(RoutedOp::kMultiGet, 0) == DataplaneRoute::kOneSided;

  Table table({"phase", "rpc share", "note"});
  table.AddRow({Table::Cell("healthy"), Table::Cell(rpc_share_learn, 3),
             Table::Cell("one-sided should win")});
  table.AddRow({Table::Cell("hotspot"), Table::Cell(rpc_share_hot, 3),
             Table::Cell("shift at +" + std::to_string(shift_ns) + " ns")});
  table.AddRow({Table::Cell("recovered"), Table::Cell(rpc_share_recovered, 3),
             Table::Cell(recovered ? "one-sided again" : "still rpc")});
  table.Print(std::cout, "E17: hotspot routing");
  std::printf("front-end op mix shift off node 0: %.1f%%\n",
              mix_shift * 100.0);

  gates->Check("hotspot_shift_within_2_windows",
               shift_ns > 0 && shift_ns <= 2 * window_ns,
               "shift after " + std::to_string(shift_ns) + " ns, bound " +
                   std::to_string(2 * window_ns));
  gates->Check("hotspot_mix_shift_20pct", mix_shift >= 0.20,
               "mix shift = " + std::to_string(mix_shift));
  gates->Check("hotspot_recovers", recovered,
               "preferred(kMultiGet, node0) back to one-sided");

  json->Begin("hotspot_router");
  json->Int("batch", kBatch);
  json->Int("window_ns", window_ns);
  json->Num("rpc_share_healthy", rpc_share_learn, 4);
  json->Num("rpc_share_hot", rpc_share_hot, 4);
  json->Num("rpc_share_recovered", rpc_share_recovered, 4);
  json->Int("shift_ns", shift_ns);
  json->Num("mix_shift", mix_shift, 4);
  json->Int("recovered", recovered ? 1 : 0);
  json->Int("router_flips", router.flips());
}

// ----------------------- scenario: slowdown_recovery -----------------------

void ScenarioSlowdownRecovery(const Config& cfg, GateSet* gates,
                              BenchJson* json, const std::string& telemetry) {
  std::printf("\n-- slowdown_recovery: transient 10x service excursion --\n");
  BenchEnv env(ScenarioFabric(1));
  RetryPolicy retry;
  retry.max_attempts = 6;
  retry.backoff_base_ns = 2'000;
  ScenarioFleet fleet(&env, cfg.slow_workers, ScenarioMap(), retry);
  Populate(fleet.map(0), cfg.keys);
  MemoryNode& node = env.fabric().node(0);
  node.SetCongestion(FrontEnd(/*service_ns=*/300, 256));
  fleet.AlignClocks();

  Rng rng(31);
  auto run_phase = [&](size_t rounds) {
    fleet.ResetSamples();
    fleet.RunRounds(rounds, [&](FarMap& map, FarClient&, size_t, size_t) {
      return GetRandomKey(map, rng, cfg.keys);
    });
    return PercentileNs(fleet.AllLatencies(), 0.99);
  };

  const uint64_t p99_base = run_phase(cfg.slow_rounds);

  // Excursion: the node's controller slows 10x (e.g. thermal throttling or
  // a background scrub). Existing backlog is preserved by SetCongestion.
  node.SetCongestion(FrontEnd(/*service_ns=*/3'000, 256));
  const uint64_t p99_slow = run_phase(cfg.slow_rounds);
  const uint64_t depth_during = node.queue_depth_ops();
  const uint64_t backlog_during = node.queue_backlog_ns();

  // Snapshot the fabric gauges at the peak — the TELEMETRY schema artifact
  // (queue_depth / sheds / shed_rate per node, EXPERIMENTS.md E17).
  if (!telemetry.empty()) {
    TelemetryHub hub;
    GaugeGroup gauges(&hub);
    env.fabric().AddGauges(&gauges, "fabric");
    std::ofstream out(telemetry, std::ios::trunc);
    hub.WriteJsonObject(out);
    out << "\n";
  }
  env.fabric().DumpHealth(std::cout);

  // Recovery: restore the service rate, let the backlog drain, re-measure.
  node.SetCongestion(FrontEnd(/*service_ns=*/300, 256));
  run_phase(cfg.slow_rounds / 3);  // drain warmup, discarded
  const uint64_t p99_recovered = run_phase(cfg.slow_rounds);
  const uint64_t depth_after = node.queue_depth_ops();

  const double slow_ratio =
      static_cast<double>(p99_slow) / static_cast<double>(p99_base);
  const double recovered_ratio =
      static_cast<double>(p99_recovered) / static_cast<double>(p99_base);
  Table table({"phase", "p99 (ns)", "queue depth"});
  table.AddRow({Table::Cell("baseline"), Table::Cell(p99_base),
             Table::Cell(uint64_t{0})});
  table.AddRow({Table::Cell("slowdown"), Table::Cell(p99_slow),
             Table::Cell(depth_during)});
  table.AddRow({Table::Cell("recovered"), Table::Cell(p99_recovered),
             Table::Cell(depth_after)});
  table.Print(std::cout, "E17: slowdown and recovery");

  gates->Check("slowdown_tail_blows_up", slow_ratio >= 2.0,
               "slowdown p99 ratio = " + std::to_string(slow_ratio));
  gates->Check("slowdown_recovers", recovered_ratio <= 1.5,
               "recovered p99 ratio = " + std::to_string(recovered_ratio));

  json->Begin("slowdown_recovery");
  json->Int("workers", cfg.slow_workers);
  json->Int("p99_baseline_ns", p99_base);
  json->Int("p99_slowdown_ns", p99_slow);
  json->Int("p99_recovered_ns", p99_recovered);
  json->Num("slowdown_ratio", slow_ratio, 4);
  json->Num("recovered_ratio", recovered_ratio, 4);
  json->Int("queue_depth_during", depth_during);
  json->Int("queue_backlog_ns_during", backlog_during);
  json->Int("queue_depth_after", depth_after);
}

// ------------------------ scenario: retry_deadline -------------------------

void ScenarioRetryDeadline(const Config& cfg, GateSet* gates,
                           BenchJson* json) {
  std::printf("\n-- retry_deadline: backoff absorbs continuous sheds --\n");
  // Main arm: a queue bound far below the fleet's in-flight demand, so the
  // node sheds continuously — and a retry policy with enough attempts and
  // deadline budget that NO kOverloaded ever reaches the application.
  BenchEnv env(ScenarioFabric(1));
  RetryPolicy retry;
  retry.max_attempts = 100;
  retry.backoff_base_ns = 4'000;
  retry.backoff_max_ns = 2'000'000;
  retry.deadline_ns = 0;  // unlimited budget
  ScenarioFleet fleet(&env, cfg.retry_workers, ScenarioMap(), retry);
  Populate(fleet.map(0), cfg.keys);
  env.fabric().node(0).SetCongestion(FrontEnd(/*service_ns=*/650, 8));
  fleet.AlignClocks();

  Rng rng(37);
  fleet.RunRounds(cfg.retry_rounds,
                  [&](FarMap& map, FarClient&, size_t, size_t) {
                    return GetRandomKey(map, rng, cfg.keys);
                  });
  const ClientStats stats = fleet.SumStats();
  const uint64_t leaked = fleet.TotalOverloaded();

  // Contrast arm: same load, but a deadline far below the drain time —
  // ops give up inside their budget instead (reported, not gated).
  BenchEnv tight_env(ScenarioFabric(1));
  RetryPolicy tight = retry;
  tight.deadline_ns = 15'000;
  ScenarioFleet tight_fleet(&tight_env, cfg.retry_workers, ScenarioMap(),
                            tight);
  Populate(tight_fleet.map(0), cfg.keys);
  tight_env.fabric().node(0).SetCongestion(FrontEnd(650, 8));
  tight_fleet.AlignClocks();
  tight_fleet.RunRounds(cfg.retry_rounds,
                        [&](FarMap& map, FarClient&, size_t, size_t) {
                          return GetRandomKey(map, rng, cfg.keys);
                        });
  const uint64_t tight_leaked = tight_fleet.TotalOverloaded();

  std::printf("sheds=%llu retries=%llu leaked=%llu (tight-deadline arm "
              "leaked=%llu of %llu)\n",
              static_cast<unsigned long long>(stats.overload_sheds),
              static_cast<unsigned long long>(stats.overload_retries),
              static_cast<unsigned long long>(leaked),
              static_cast<unsigned long long>(tight_leaked),
              static_cast<unsigned long long>(tight_fleet.TotalOk() +
                                              tight_leaked));

  gates->Check("retry_pressure_real", stats.overload_sheds > 0,
               "sheds = " + std::to_string(stats.overload_sheds));
  gates->Check("retry_zero_leaks", leaked == 0,
               "kOverloaded leaked to app = " + std::to_string(leaked));

  json->Begin("retry_deadline");
  json->Int("workers", cfg.retry_workers);
  json->Int("sheds", stats.overload_sheds);
  json->Int("retries", stats.overload_retries);
  json->Int("leaked_overloaded", leaked);
  json->Int("tight_deadline_ns", tight.deadline_ns);
  json->Int("tight_leaked_overloaded", tight_leaked);
}

}  // namespace
}  // namespace fmds

int main(int argc, char** argv) {
  using namespace fmds;

  const bool smoke = FlagPresent(argc, argv, "--smoke");
  const Config cfg = smoke ? SmokeConfig() : Config{};
  const std::string telemetry = TelemetryOutputPath(argc, argv);

  BenchJson json;
  GateSet gates;
  ScenarioOverloadTails(cfg, &gates, &json);
  ScenarioAdmissionControl(cfg, &gates, &json);
  ScenarioHotspotRouter(cfg, &gates, &json);
  ScenarioSlowdownRecovery(cfg, &gates, &json, telemetry);
  ScenarioRetryDeadline(cfg, &gates, &json);

  std::printf("\n");
  gates.Report(&json);
  json.Write(JsonOutputPath(argc, argv, "BENCH_e17.json"));
  std::printf("overall: %s\n", gates.all_ok() ? "OK" : "FAIL");
  return gates.all_ok() ? 0 : 1;
}

// E16 — adaptive hybrid dataplane (src/route/, DESIGN.md §13): per-op
// one-sided vs RPC routing learned from the router's own observations and
// probes. §3.1 frames the tradeoff — k dependent far accesses cost k round
// trips but zero server CPU; shipping the op costs one round trip plus
// service at a possibly-occupied processor — and the crossover moves with
// chain depth, server occupancy, and batch size. The sweep drifts a
// workload across that crossover and runs three arms at every point:
//
//   one-sided : routing off, the pure one-sided protocol (wave engine for
//               batches)
//   rpc       : DataplaneRouter with force=kRpc — every op ships to the
//               per-node near-memory agents
//   adaptive  : one persistent DataplaneRouter carried across ALL points,
//               re-deciding per op from its live cost estimates
//
// Exit-code gates (all enforced):
//   1. At EVERY sweep point the adaptive arm achieves >= 90% of the
//      better static arm's ns/op (it may pay probing + relearning, but
//      never falls off the crossover).
//   2. At the extremes (occupied+shallow, idle+deep, busy+deep+batch32)
//      the WORSE static arm costs >= 1.5x the adaptive arm — the regimes
//      are real, and a wrong static choice is expensive while adaptive
//      tracks the winner.
//   3. The adaptive router flips its preferred route >= 2 times across
//      the sweep (route_flips proves mid-sweep switching, not a lucky
//      initial guess).
//   4. sharded_skew: with per-node occupancy skew, ONE router splits
//      per-shard — RPC to the idle node's shard, one-sided to the busy
//      node's shard, within the same MultiGets.
//
// Flags: --smoke (tiny config for CI), --json=<path>,
// --telemetry=<path> (one JSON object of the final route gauges).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/core/sharded_map.h"
#include "src/obs/telemetry.h"
#include "src/route/router.h"
#include "src/route/rpc_dataplane.h"

namespace fmds {
namespace {

struct Config {
  uint64_t buckets = 16384;  // one leaf, no splits: depth is controlled
  int gets_per_phase = 1200;
  int batches_per_phase = 400;
  int sharded_batches = 500;
};

// Key populations with exact chain depths: `count` buckets of `depth`
// colliding keys each, found by binning sequential candidates by bucket
// index. One leaf (initial_depth 0, max_chain huge) keeps them intact.
struct Population {
  std::vector<std::vector<uint64_t>> chains;  // [bucket][depth]
  std::vector<uint64_t> flat;
};

Population FindPopulation(uint64_t buckets, uint64_t first_bucket,
                          size_t count, size_t depth, uint64_t seed) {
  Population pop;
  pop.chains.resize(count);
  size_t filled = 0;
  for (uint64_t k = seed; filled < count; ++k) {
    const uint64_t bucket = Mix64(k) % buckets;
    if (bucket < first_bucket || bucket >= first_bucket + count) {
      continue;
    }
    auto& chain = pop.chains[bucket - first_bucket];
    if (chain.size() >= depth) {
      continue;
    }
    chain.push_back(k);
    pop.flat.push_back(k);
    if (chain.size() == depth) {
      ++filled;
    }
  }
  return pop;
}

HtTree::Options SweepMapOptions(const Config& cfg) {
  HtTree::Options options;
  options.buckets_per_table = cfg.buckets;
  options.max_chain = 1 << 20;  // depth stays what the population built
  options.placement = AllocHint::OnNode(0);
  return options;
}

// One sweep arm: its own client, map, and (for routed arms) router + path.
struct Arm {
  Arm(BenchEnv* env, RpcDataplane* dataplane, const Config& cfg,
      std::optional<DataplaneRoute> force, bool routed) {
    client = &env->NewClient();
    map.emplace(CheckOk(HtTree::Create(client, &env->alloc(),
                                       SweepMapOptions(cfg)),
                        "create sweep map"));
    if (routed) {
      DataplaneRouterOptions options;
      options.force = force;
      router.emplace(client, options);
      path.emplace(client, dataplane);
      CheckOk(map->EnableRouting(&*router, &*path), "enable routing");
    }
  }

  FarClient* client = nullptr;
  std::optional<HtTree> map;
  std::optional<DataplaneRouter> router;
  std::optional<RpcMapPath> path;
};

struct Phase {
  std::string name;
  double rho = 0.0;        // agent occupancy at the map's home node
  size_t depth = 1;        // chain depth of the population in play
  uint64_t batch = 1;      // 1 = point gets; >1 = MultiGet waves
  double put_frac = 0.0;   // fraction of point ops that are Puts
  bool extreme = false;    // gate 2 applies here
};

struct PhaseResult {
  double ns_per_op[3] = {0.0, 0.0, 0.0};  // one-sided, rpc, adaptive
  uint64_t adaptive_rpc_share = 0;        // rpc decisions this phase
  uint64_t adaptive_decisions = 0;
  uint64_t flips_after = 0;
};

constexpr int kOneSided = 0;
constexpr int kRpcArm = 1;
constexpr int kAdaptive = 2;

// Runs one phase's op stream against one arm; returns ns/op of the arm's
// simulated clock. The stream is identical across arms (same seed).
double RunPhaseOnArm(Arm& arm, const Phase& phase, const Population& pop,
                     const Config& cfg, uint64_t seed) {
  Rng rng(seed);
  const uint64_t t0 = arm.client->clock().now_ns();
  uint64_t ops = 0;
  if (phase.batch > 1) {
    std::vector<uint64_t> keys(phase.batch);
    for (int b = 0; b < cfg.batches_per_phase; ++b) {
      for (auto& key : keys) {
        key = pop.flat[rng.Next() % pop.flat.size()];
      }
      auto results = arm.map->MultiGet(keys);
      for (auto& r : results) {
        CheckOk(r.status(), "sweep multiget");
      }
      ops += phase.batch;
    }
  } else {
    for (int i = 0; i < cfg.gets_per_phase; ++i) {
      const uint64_t key = pop.flat[rng.Next() % pop.flat.size()];
      if (phase.put_frac > 0.0 &&
          (rng.Next() % 1000) < uint64_t(phase.put_frac * 1000)) {
        CheckOk(arm.map->Put(key, rng.Next()), "sweep put");
      } else {
        CheckOk(arm.map->Get(key).status(), "sweep get");
      }
      ++ops;
    }
  }
  return double(arm.client->clock().now_ns() - t0) / double(ops);
}

}  // namespace
}  // namespace fmds

int main(int argc, char** argv) {
  using namespace fmds;

  const bool smoke = FlagPresent(argc, argv, "--smoke");
  Config cfg;
  if (smoke) {
    cfg.gets_per_phase = 400;
    cfg.batches_per_phase = 120;
    cfg.sharded_batches = 200;
  }

  BenchEnv env([] {
    FabricOptions options;
    options.num_nodes = 2;
    options.node_capacity = 256ull << 20;
    return options;
  }());
  RpcDataplane dataplane(&env.fabric(), &env.alloc());

  // Populations with exact chain depths, disjoint bucket ranges.
  const Population pop1 = FindPopulation(cfg.buckets, 0, 256, 1, 1);
  const Population pop2 = FindPopulation(cfg.buckets, 1000, 128, 2, 1);
  const Population pop4 = FindPopulation(cfg.buckets, 3000, 64, 4, 1);
  const Population pop8 = FindPopulation(cfg.buckets, 5000, 64, 8, 1);
  auto pop_for = [&](size_t depth) -> const Population& {
    switch (depth) {
      case 1: return pop1;
      case 2: return pop2;
      case 4: return pop4;
      default: return pop8;
    }
  };

  std::vector<std::unique_ptr<Arm>> arms;
  arms.push_back(std::make_unique<Arm>(&env, &dataplane, cfg, std::nullopt,
                                       /*routed=*/false));
  arms.push_back(std::make_unique<Arm>(&env, &dataplane, cfg,
                                       DataplaneRoute::kRpc,
                                       /*routed=*/true));
  arms.push_back(std::make_unique<Arm>(&env, &dataplane, cfg, std::nullopt,
                                       /*routed=*/true));

  // All arms see the same far state: identical populations inserted into
  // each arm's own map (one-sided, so the agents start cold everywhere).
  for (const Population* pop : {&pop1, &pop2, &pop4, &pop8}) {
    for (const auto& chain : pop->chains) {
      for (uint64_t key : chain) {
        for (auto& arm : arms) {
          CheckOk(arm->map->Put(key, key * 3), "populate");
        }
      }
    }
  }

  const std::vector<Phase> phases = {
      {"occupied_headhit", 0.75, 1, 1, 0.0, true},
      {"busy_headhit", 0.50, 1, 1, 0.0, false},
      {"busy_shallow", 0.50, 2, 1, 0.0, false},
      {"idle_mid", 0.00, 4, 1, 0.0, false},
      {"idle_deep", 0.00, 8, 1, 0.0, true},
      // Not idle: wave batching amortizes one-sided RTTs so well at
      // batch=32 (~batch_op_ns per op) that the agent's amortized RTT is
      // competitive when the server is free; moderate occupancy inflates
      // the agent's service time and makes this a one-sided-wins extreme.
      {"busy_deep_batch32", 0.50, 8, 32, 0.0, true},
      {"mixed_puts", 0.30, 4, 1, 0.5, false},
  };

  BenchJson json;
  Table table({"phase", "rho", "depth", "batch", "one-sided ns/op",
               "rpc ns/op", "adaptive ns/op", "adp rpc%", "flips"});
  bool gate_track = true;
  bool gate_extremes = true;
  std::vector<PhaseResult> results;

  for (size_t p = 0; p < phases.size(); ++p) {
    const Phase& phase = phases[p];
    dataplane.SetLoadFactor(0, phase.rho);
    const Population& pop = pop_for(phase.depth);
    PhaseResult r;
    DataplaneRouter& adaptive = *arms[kAdaptive]->router;
    const uint64_t rpc0 = adaptive.rpc_decisions();
    const uint64_t dec0 = adaptive.rpc_decisions() +
                          adaptive.one_sided_decisions();
    for (int a = 0; a < 3; ++a) {
      r.ns_per_op[a] = RunPhaseOnArm(*arms[a], phase, pop, cfg, 7 + 13 * p);
    }
    r.adaptive_rpc_share = adaptive.rpc_decisions() - rpc0;
    r.adaptive_decisions =
        adaptive.rpc_decisions() + adaptive.one_sided_decisions() - dec0;
    r.flips_after = adaptive.flips();
    results.push_back(r);

    const double best_static =
        std::min(r.ns_per_op[kOneSided], r.ns_per_op[kRpcArm]);
    const double worst_static =
        std::max(r.ns_per_op[kOneSided], r.ns_per_op[kRpcArm]);
    const bool track_ok = r.ns_per_op[kAdaptive] * 0.9 <= best_static;
    const bool extreme_ok =
        !phase.extreme || worst_static >= 1.5 * r.ns_per_op[kAdaptive];
    gate_track = gate_track && track_ok;
    gate_extremes = gate_extremes && extreme_ok;

    const double rpc_pct =
        r.adaptive_decisions == 0
            ? 0.0
            : 100.0 * double(r.adaptive_rpc_share) / r.adaptive_decisions;
    table.AddRow({Table::Cell(phase.name), Table::Cell(phase.rho, 2),
                  Table::Cell(uint64_t(phase.depth)),
                  Table::Cell(phase.batch), Table::Cell(r.ns_per_op[0], 0),
                  Table::Cell(r.ns_per_op[1], 0),
                  Table::Cell(r.ns_per_op[2], 0), Table::Cell(rpc_pct, 1),
                  Table::Cell(r.flips_after)});
    json.Begin(phase.name);
    json.Num("rho", phase.rho);
    json.Int("depth", phase.depth);
    json.Int("batch", phase.batch);
    json.Num("put_frac", phase.put_frac);
    json.Num("one_sided_ns_per_op", r.ns_per_op[0], 5);
    json.Num("rpc_ns_per_op", r.ns_per_op[1], 5);
    json.Num("adaptive_ns_per_op", r.ns_per_op[2], 5);
    json.Num("adaptive_rpc_share_pct", rpc_pct, 4);
    json.Int("adaptive_flips_cum", r.flips_after);
    json.Int("extreme", phase.extreme ? 1 : 0);
    json.Int("track_gate_ok", track_ok ? 1 : 0);
    json.Int("extreme_gate_ok", extreme_ok ? 1 : 0);
  }

  const uint64_t total_flips = arms[kAdaptive]->router->flips();
  const bool gate_flips = total_flips >= 2;

  table.Print(std::cout,
              "E16: adaptive one-sided vs RPC routing across the crossover");
  std::cout << "adaptive route flips across sweep: " << total_flips << "\n";

  // ---- sharded_skew: per-node occupancy split inside one MultiGet ----
  // Fresh maps: 2 pinned shards; node 1's agent is occupied while node 0
  // idles. Shard 0 (idle node) holds 8-deep chains, shard 1 (busy node)
  // depth-1 head hits: the adaptive arm must ship shard-0 residues to the
  // idle agent while walking shard 1 one-sided past the occupied one.
  dataplane.SetLoadFactor(0, 0.0);
  dataplane.SetLoadFactor(1, 0.75);
  ShardedMap::Options shard_options;
  shard_options.num_shards = 2;
  shard_options.shard = SweepMapOptions(cfg);
  shard_options.shard.placement = AllocHint::Any();  // pin_shards decides

  struct ShardArm {
    std::optional<ShardedMap> map;
    std::optional<DataplaneRouter> router;
    std::optional<RpcMapPath> path;
    FarClient* client = nullptr;
  };
  std::vector<ShardArm> shard_arms(3);
  for (int a = 0; a < 3; ++a) {
    ShardArm& arm = shard_arms[a];
    arm.client = &env.NewClient();
    arm.map.emplace(CheckOk(
        ShardedMap::Create(arm.client, &env.alloc(), shard_options),
        "create sharded map"));
    if (a != kOneSided) {
      DataplaneRouterOptions options;
      if (a == kRpcArm) {
        options.force = DataplaneRoute::kRpc;
      }
      arm.router.emplace(arm.client, options);
      arm.path.emplace(arm.client, &dataplane);
      CheckOk(arm.map->EnableRouting(&*arm.router, &*arm.path),
              "enable sharded routing");
    }
  }

  // Asymmetric shards make the split pay in wall-clock: shard 0 (idle
  // node) gets 8-deep chains — dependent walks the agent collapses to one
  // round trip — while shard 1 (busy node) gets depth-1 buckets, where
  // one-sided head hits beat the occupancy-inflated agent. The RPC leg
  // runs before the wave loop, so the adaptive batch is a cheap agent
  // trip plus a short wave train instead of a deep joint wave train.
  std::vector<uint64_t> shard_keys[2];
  std::set<uint64_t> busy_buckets;
  for (uint64_t k = 1, have = 0; have < 2; ++k) {
    const uint64_t bucket = Mix64(k) % cfg.buckets;
    const uint32_t s = shard_arms[0].map->ShardOf(k);
    if (s == 0) {
      if (bucket >= 8 || shard_keys[0].size() >= 64) {
        continue;  // 8 bucket targets -> 8-deep chains
      }
    } else {
      if (bucket < 8 || !busy_buckets.insert(bucket).second ||
          shard_keys[1].size() >= 64) {
        continue;  // 64 distinct buckets -> depth-1 head hits
      }
    }
    shard_keys[s].push_back(k);
    if (shard_keys[s].size() == 64) {
      ++have;
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (uint64_t key : shard_keys[s]) {
      for (auto& arm : shard_arms) {
        CheckOk(arm.map->Put(key, key * 5), "populate sharded");
      }
    }
  }

  double shard_ns[3] = {0, 0, 0};
  for (int a = 0; a < 3; ++a) {
    Rng rng(99);
    ShardArm& arm = shard_arms[a];
    const uint64_t t0 = arm.client->clock().now_ns();
    uint64_t ops = 0;
    for (int b = 0; b < cfg.sharded_batches; ++b) {
      // 2 keys per shard per batch: deep chains on the idle node (agent
      // wins), head hits on the busy node (one-sided wins).
      const uint64_t batch[4] = {
          shard_keys[0][rng.Next() % shard_keys[0].size()],
          shard_keys[0][rng.Next() % shard_keys[0].size()],
          shard_keys[1][rng.Next() % shard_keys[1].size()],
          shard_keys[1][rng.Next() % shard_keys[1].size()]};
      auto got = arm.map->MultiGet(batch);
      for (auto& r : got) {
        CheckOk(r.status(), "sharded multiget");
      }
      ops += 4;
    }
    shard_ns[a] = double(arm.client->clock().now_ns() - t0) / double(ops);
  }

  DataplaneRouter& srouter = *shard_arms[kAdaptive].router;
  const NodeId idle_node = 0;
  const NodeId busy_node = 1;
  const bool gate_split =
      srouter.Preferred(RoutedOp::kMultiGet, idle_node) ==
          DataplaneRoute::kRpc &&
      srouter.Preferred(RoutedOp::kMultiGet, busy_node) ==
          DataplaneRoute::kOneSided;
  const double shard_best = std::min(shard_ns[0], shard_ns[1]);
  const bool gate_shard_track = shard_ns[kAdaptive] * 0.9 <= shard_best;
  gate_track = gate_track && gate_shard_track;

  Table stable({"phase", "one-sided ns/op", "rpc ns/op", "adaptive ns/op",
                "idle-node route", "busy-node route"});
  stable.AddRow(
      {Table::Cell("sharded_skew"), Table::Cell(shard_ns[0], 0),
       Table::Cell(shard_ns[1], 0), Table::Cell(shard_ns[2], 0),
       Table::Cell(srouter.Preferred(RoutedOp::kMultiGet, idle_node) ==
                           DataplaneRoute::kRpc
                       ? "rpc"
                       : "one-sided"),
       Table::Cell(srouter.Preferred(RoutedOp::kMultiGet, busy_node) ==
                           DataplaneRoute::kRpc
                       ? "rpc"
                       : "one-sided")});
  stable.Print(std::cout, "E16: per-shard split under node occupancy skew");

  json.Begin("sharded_skew");
  json.Num("rho_idle_node", 0.0);
  json.Num("rho_busy_node", 0.75);
  json.Int("depth_idle_shard", 8);
  json.Int("depth_busy_shard", 1);
  json.Int("batch", 4);
  json.Num("one_sided_ns_per_op", shard_ns[0], 5);
  json.Num("rpc_ns_per_op", shard_ns[1], 5);
  json.Num("adaptive_ns_per_op", shard_ns[2], 5);
  json.Str("idle_node_route",
           srouter.Preferred(RoutedOp::kMultiGet, idle_node) ==
                   DataplaneRoute::kRpc
               ? "rpc"
               : "one-sided");
  json.Str("busy_node_route",
           srouter.Preferred(RoutedOp::kMultiGet, busy_node) ==
                   DataplaneRoute::kRpc
               ? "rpc"
               : "one-sided");
  json.Int("split_gate_ok", gate_split ? 1 : 0);
  json.Int("track_gate_ok", gate_shard_track ? 1 : 0);

  json.Begin("gates");
  json.Int("smoke", smoke ? 1 : 0);
  json.Int("track_90pct_everywhere", gate_track ? 1 : 0);
  json.Int("extremes_1p5x", gate_extremes ? 1 : 0);
  json.Int("adaptive_flips", total_flips);
  json.Int("flips_gate_ok", gate_flips ? 1 : 0);
  json.Int("per_shard_split_ok", gate_split ? 1 : 0);
  json.Write(JsonOutputPath(argc, argv, "BENCH_e16.json"));

  // Final route gauges for the telemetry artifact (--telemetry=<path>).
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--telemetry=", 0) == 0) {
      TelemetryHub hub;
      GaugeGroup sweep_gauges(&hub);
      GaugeGroup shard_gauges(&hub);
      arms[kAdaptive]->router->AddGauges(&sweep_gauges, "route.sweep");
      srouter.AddGauges(&shard_gauges, "route.sharded");
      std::ofstream out(arg.substr(12), std::ios::trunc);
      hub.WriteJsonObject(out);
      out << "\n";
    }
  }

  std::cout << "\ngates: track90=" << (gate_track ? "OK" : "FAIL")
            << " extremes1.5x=" << (gate_extremes ? "OK" : "FAIL")
            << " flips(" << total_flips << ")>=2="
            << (gate_flips ? "OK" : "FAIL")
            << " per-shard-split=" << (gate_split ? "OK" : "FAIL") << "\n";
  return (gate_track && gate_extremes && gate_flips && gate_split) ? 0 : 1;
}

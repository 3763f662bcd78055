// E14 — asynchronous write-behind pipeline (src/core/write_behind.*,
// DESIGN.md §11): the app thread enqueues writes into a client-local
// pending table and the flusher's steps publish them in batched doorbell
// waves on the flusher's own client and clock, so a write-heavy workload is
// bounded by the flusher's *issue rate*, not the app's serial round-trip
// latency.
//
// Three claims, all enforced by the exit code:
//   1. Throughput: at 8 app threads (each its own client + write-behind
//      ShardedMap handle) on a Zipf(0.99) 95/5 write/read mix, simulated
//      throughput — total ops over the MAX clock advance across all app
//      AND flusher clients — is >= 2x the synchronous-Put baseline.
//   2. Combining: a single writer rewriting 64 hot keys in a loop gets
//      >= 1.5x over FIFO (combine=false) mode: same-key writes collapse
//      in the pending table, so hot keys cost one publish per drain
//      instead of one per write (ClientStats.writes_combined counts the
//      absorbed doorbells).
//   3. Hot path stays allocation/teardown-free: during a pure-write
//      window the app client pays ZERO far ops and reclaims ZERO cache
//      slots (app_cache_evictions, the owner's victims in either eviction
//      mode: a write-behind Put touches no cache; the slots the warm-up
//      reads reclaimed had their unsubscribes paid by the background
//      evictor, bg_evictions > 0), and the pipeline
//      counters prove the stages ran where they should (app
//      writes_combined > 0, flusher flush_stages > 0, app
//      flush_stages == 0).
//
// Flags: --smoke (tiny config for CI), --repeat=N (median-of-N),
// --json=<path>.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/cache/bg_evictor.h"
#include "src/common/rng.h"
#include "src/core/sharded_map.h"

namespace fmds {
namespace {

struct Config {
  uint32_t nodes = 8;
  uint32_t shards = 8;
  uint64_t keys = 20000;
  uint64_t buckets = 8192;
  uint32_t threads = 8;
  int ops_per_thread = 8000;
  int warmup_ops = 500;
  // Combining row (single thread).
  uint64_t hot_keys = 64;
  int hot_rounds = 6000;
};

FabricOptions WbFabric(uint32_t nodes) {
  FabricOptions options;
  options.num_nodes = nodes;
  options.node_capacity = 256ull << 20;
  return options;
}

ShardedMap::Options MapOptions(const Config& cfg) {
  ShardedMap::Options options;
  options.num_shards = cfg.shards;
  options.shard.buckets_per_table = cfg.buckets;
  options.shard.cache.budget_bytes = 256 << 10;
  options.shard.cache.admit_after = 0;
  return options;
}

WriteBehindOptions WbOptions() {
  WriteBehindOptions wb;
  wb.max_batch = 64;
  wb.flush_interval_us = 50;
  return wb;
}

struct RunResult {
  double ops_per_sec = 0.0;     // total ops / max simulated clock advance
  double app_far_per_op = 0.0;  // app-client far ops per operation
  uint64_t writes_combined = 0;
  uint64_t flush_stages = 0;
};

// The Zipf write/read sweep: `threads` concurrent app clients, each with
// its own handle (write-behind when `wb` is set). Simulated elapsed time
// is the max clock advance over every participating client — app AND
// flusher — so the flusher's publish work is never hidden.
RunResult RunMix(const Config& cfg, bool wb, double write_frac,
                 uint64_t seed) {
  BenchEnv env(WbFabric(cfg.nodes));
  FarClient& owner = env.NewClient();
  std::vector<FarClient*> clients;
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    clients.push_back(&env.NewClient());
  }
  ShardedMap root = CheckOk(
      ShardedMap::Create(&owner, &env.alloc(), MapOptions(cfg)), "create");
  {
    std::vector<uint64_t> keys, values;
    for (uint64_t k = 1; k <= cfg.keys; ++k) {
      keys.push_back(k);
      values.push_back(k);
      if (keys.size() == 512 || k == cfg.keys) {
        CheckOk(root.MultiPut(keys, values), "preload");
        keys.clear();
        values.clear();
      }
    }
  }

  std::vector<std::unique_ptr<ShardedMap>> maps;
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    maps.push_back(std::make_unique<ShardedMap>(
        CheckOk(ShardedMap::Attach(clients[t], &env.alloc(),
                                   root.directory(), MapOptions(cfg)),
                "attach")));
    if (wb) {
      CheckOk(maps.back()->EnableWriteBehind(WbOptions()), "enable wb");
    }
  }

  std::vector<uint64_t> app_delta(cfg.threads, 0);
  std::vector<uint64_t> flusher_delta(cfg.threads, 0);
  std::vector<uint64_t> app_far(cfg.threads, 0);
  std::vector<uint64_t> combined(cfg.threads, 0);
  std::vector<uint64_t> stages(cfg.threads, 0);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      ShardedMap& map = *maps[t];
      FarClient& client = *clients[t];
      ZipfGenerator zipf(cfg.keys, 0.99, seed + 31 * t);
      Rng rng(seed ^ (t + 1));
      const auto op = [&](uint64_t salt) {
        const uint64_t key = zipf.Next() + 1;
        if (rng.Next() % 1000 < static_cast<uint64_t>(write_frac * 1000)) {
          CheckOk(map.Put(key, key * 10 + salt), "put");
        } else {
          CheckOk(map.Get(key).status(), "get");
        }
      };
      for (int i = 0; i < cfg.warmup_ops; ++i) {
        op(0);
      }
      CheckOk(map.FlushBarrier(), "warmup barrier");
      // After a barrier nothing is staged: both clocks start the window
      // drained.
      const uint64_t app_t0 = client.clock().now_ns();
      const uint64_t flusher_t0 =
          wb ? map.write_behind()->flusher_client()->clock().now_ns() : 0;
      const ClientStats before = client.stats();
      for (int i = 0; i < cfg.ops_per_thread; ++i) {
        op(1);
      }
      CheckOk(map.FlushBarrier(), "final barrier");
      const ClientStats delta = client.stats().Delta(before);
      app_delta[t] = client.clock().now_ns() - app_t0;
      flusher_delta[t] =
          wb ? map.write_behind()->flusher_client()->clock().now_ns() -
                   flusher_t0
             : 0;
      app_far[t] = delta.far_ops;
      combined[t] = delta.writes_combined;
      stages[t] =
          wb ? map.write_behind()->flusher_client()->stats().flush_stages
             : 0;
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  uint64_t elapsed = 1;
  RunResult r;
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    elapsed = std::max({elapsed, app_delta[t], flusher_delta[t]});
    r.app_far_per_op += static_cast<double>(app_far[t]);
    r.writes_combined += combined[t];
    r.flush_stages += stages[t];
  }
  const double total_ops =
      static_cast<double>(cfg.threads) * cfg.ops_per_thread;
  r.ops_per_sec = total_ops * 1e9 / static_cast<double>(elapsed);
  r.app_far_per_op /= total_ops;
  return r;
}

// The combining row: one writer rewriting `hot_keys` keys round-robin.
// Everything stays staged until full-table/barrier drains (huge flush
// interval), so the only difference between the modes is how many records
// reach a doorbell: combine mode publishes one per key per drain, FIFO
// publishes one per WRITE.
RunResult RunHotRewrite(const Config& cfg, bool combine, uint64_t seed) {
  BenchEnv env(WbFabric(cfg.nodes));
  FarClient& client = env.NewClient();
  ShardedMap map = CheckOk(
      ShardedMap::Create(&client, &env.alloc(), MapOptions(cfg)), "create");
  WriteBehindOptions wb;
  wb.combine = combine;
  wb.max_batch = 256;
  wb.max_pending = 512;
  wb.flush_interval_us = 1000ull * 1000 * 1000;
  CheckOk(map.EnableWriteBehind(wb), "enable wb");

  Rng rng(seed);
  for (int i = 0; i < cfg.warmup_ops; ++i) {
    CheckOk(map.Put(1 + rng.Next() % cfg.hot_keys, i + 1), "warmup");
  }
  CheckOk(map.FlushBarrier(), "warmup barrier");
  const uint64_t app_t0 = client.clock().now_ns();
  const uint64_t flusher_t0 =
      map.write_behind()->flusher_client()->clock().now_ns();
  const ClientStats before = client.stats();
  for (int i = 0; i < cfg.hot_rounds; ++i) {
    CheckOk(map.Put(1 + (i % cfg.hot_keys), i + 1), "hot put");
  }
  CheckOk(map.FlushBarrier(), "final barrier");
  const ClientStats delta = client.stats().Delta(before);

  RunResult r;
  const uint64_t elapsed = std::max<uint64_t>(
      1, std::max(client.clock().now_ns() - app_t0,
                  map.write_behind()->flusher_client()->clock().now_ns() -
                      flusher_t0));
  r.ops_per_sec = cfg.hot_rounds * 1e9 / static_cast<double>(elapsed);
  r.app_far_per_op = static_cast<double>(delta.far_ops) / cfg.hot_rounds;
  r.writes_combined = delta.writes_combined;
  r.flush_stages =
      map.write_behind()->flusher_client()->stats().flush_stages;
  return r;
}

// The hot-path proof window: pure writes against a small background-mode
// cache with an active evictor. Returns through out-params because the
// claim is about exact counter values, not throughput.
struct ProofResult {
  uint64_t app_far_ops = 0;
  uint64_t app_evictions = 0;
  uint64_t bg_evictions = 0;
  uint64_t writes_combined = 0;
  uint64_t app_flush_stages = 0;
  uint64_t flusher_flush_stages = 0;
};

ProofResult RunHotPathProof(const Config& cfg, uint64_t seed) {
  BenchEnv env(WbFabric(1));
  FarClient& client = env.NewClient();
  HtTree::Options options;
  options.buckets_per_table = 4096;
  options.cache.budget_bytes = 16 << 10;  // tiny: forces reclamation
  options.cache.admit_after = 0;
  options.cache.background_eviction = true;
  HtTree map = CheckOk(HtTree::Create(&client, &env.alloc(), options),
                       "create");
  CheckOk(map.EnableWriteBehind(WbOptions()), "enable wb");
  BackgroundEvictor evictor(&env.fabric(), /*client_id=*/4242);
  evictor.Watch(map.near_cache());

  Rng rng(seed);
  const uint64_t span = cfg.keys / 4;
  // Warm the cache via reads so eviction pressure is real.
  for (uint64_t k = 1; k <= span; ++k) {
    CheckOk(map.Put(k, k), "put");
  }
  CheckOk(map.FlushBarrier(), "warm barrier");
  for (uint64_t k = 1; k <= span; ++k) {
    (void)map.Get(k);
  }

  // The owner's victims, in either mode: inline mode counts them in
  // `evictions`, background mode in `bg_evictions`.
  auto owner_victims = [&map] {
    const NearCacheStats s = map.near_cache()->stats();
    return s.evictions + s.bg_evictions;
  };
  const ClientStats before = client.stats();
  const uint64_t victims_before = owner_victims();
  for (int i = 0; i < cfg.ops_per_thread; ++i) {
    CheckOk(map.Put(1 + rng.Next() % span, i + 1), "pure write");
  }
  const ClientStats delta = client.stats().Delta(before);

  ProofResult p;
  p.app_far_ops = delta.far_ops;
  p.app_evictions = owner_victims() - victims_before;
  p.writes_combined = delta.writes_combined;
  p.app_flush_stages = delta.flush_stages;
  CheckOk(map.FlushBarrier(), "proof barrier");
  p.bg_evictions = evictor.stats().bg_evictions;
  p.flusher_flush_stages =
      map.write_behind()->flusher_client()->stats().flush_stages;
  evictor.Unwatch(map.near_cache());
  evictor.StopAndJoin();
  return p;
}

}  // namespace
}  // namespace fmds

int main(int argc, char** argv) {
  using namespace fmds;

  const bool smoke = FlagPresent(argc, argv, "--smoke");
  const int repeat = RepeatArg(argc, argv);

  Config cfg;
  if (smoke) {
    cfg.keys = 4000;
    cfg.buckets = 2048;
    cfg.ops_per_thread = 1500;
    cfg.warmup_ops = 200;
    cfg.hot_rounds = 2000;
  }

  BenchJson json;
  Table table({"mode", "write%", "threads", "Kops/s", "app far/op",
               "combined", "stages"});

  // --- Claim 1: write-behind vs synchronous Put, Zipf 95/5 and 50/50 ---
  double sync95 = 0.0, wb95 = 0.0;
  for (const double write_frac : {0.95, 0.50}) {
    for (const bool wb : {false, true}) {
      std::vector<double> samples;
      RunResult r;
      for (int rep = 0; rep < repeat; ++rep) {
        r = RunMix(cfg, wb, write_frac, 17 + 101 * rep);
        samples.push_back(r.ops_per_sec);
      }
      r.ops_per_sec = Median(samples);
      if (write_frac == 0.95) {
        (wb ? wb95 : sync95) = r.ops_per_sec;
      }
      const char* mode = wb ? "write-behind" : "sync";
      table.AddRow({Table::Cell(mode),
                    Table::Cell(100.0 * write_frac, 0),
                    Table::Cell(uint64_t(cfg.threads)),
                    Table::Cell(r.ops_per_sec / 1e3, 1),
                    Table::Cell(r.app_far_per_op, 3),
                    Table::Cell(r.writes_combined),
                    Table::Cell(r.flush_stages)});
      char name[64];
      std::snprintf(name, sizeof(name), "%s,write=%.0f%%", mode,
                    100.0 * write_frac);
      json.Begin(name);
      json.Str("mode", mode);
      json.Num("write_frac", write_frac);
      json.Int("threads", cfg.threads);
      json.Int("nodes", cfg.nodes);
      json.Int("keys", cfg.keys);
      json.Int("repeat", static_cast<uint64_t>(repeat));
      json.Num("ops_per_sec", r.ops_per_sec);
      json.Num("app_far_per_op", r.app_far_per_op, 4);
      json.Int("writes_combined", r.writes_combined);
      json.Int("flush_stages", r.flush_stages);
    }
  }

  // --- Claim 2: write combining on same-word hot keys ---
  double combine_tput = 0.0, fifo_tput = 0.0;
  for (const bool combine : {false, true}) {
    const RunResult r = RunHotRewrite(cfg, combine, 23);
    (combine ? combine_tput : fifo_tput) = r.ops_per_sec;
    const char* mode = combine ? "wb-combine" : "wb-fifo";
    table.AddRow({Table::Cell(mode), Table::Cell(100.0, 0),
                  Table::Cell(uint64_t(1)),
                  Table::Cell(r.ops_per_sec / 1e3, 1),
                  Table::Cell(r.app_far_per_op, 3),
                  Table::Cell(r.writes_combined),
                  Table::Cell(r.flush_stages)});
    json.Begin(std::string(mode) + ",hot=" + std::to_string(cfg.hot_keys));
    json.Str("mode", mode);
    json.Int("hot_keys", cfg.hot_keys);
    json.Int("rounds", static_cast<uint64_t>(cfg.hot_rounds));
    json.Num("ops_per_sec", r.ops_per_sec);
    json.Int("writes_combined", r.writes_combined);
    json.Int("flush_stages", r.flush_stages);
  }

  // --- Claim 3: the hot path is allocation- and teardown-free ---
  const ProofResult proof = RunHotPathProof(cfg, 29);
  json.Begin("hot-path-proof");
  json.Int("app_far_ops_pure_write_window", proof.app_far_ops);
  json.Int("app_cache_evictions", proof.app_evictions);
  json.Int("bg_evictions", proof.bg_evictions);
  json.Int("writes_combined", proof.writes_combined);
  json.Int("app_flush_stages", proof.app_flush_stages);
  json.Int("flusher_flush_stages", proof.flusher_flush_stages);

  table.Print(std::cout,
              "E14: asynchronous write-behind pipeline (Zipf 0.99, "
              "8-node simulated fabric)");

  const double speedup = sync95 > 0.0 ? wb95 / sync95 : 0.0;
  const double combining = fifo_tput > 0.0 ? combine_tput / fifo_tput : 0.0;
  const bool hot_path_clean =
      proof.app_far_ops == 0 && proof.app_evictions == 0 &&
      proof.bg_evictions > 0 && proof.writes_combined > 0 &&
      proof.app_flush_stages == 0 && proof.flusher_flush_stages > 0;
  std::cout << "\nsummary: write-behind/sync @95%w,8T = " << speedup
            << "x (target >= 2x); combine/fifo = " << combining
            << "x (target >= 1.5x); hot path clean = "
            << (hot_path_clean ? "yes" : "NO") << "\n";
  json.Begin("headline");
  json.Num("speedup_wb_vs_sync_95w_8t", speedup, 4);
  json.Num("speedup_target", 2.0);
  json.Num("combining_speedup", combining, 4);
  json.Num("combining_target", 1.5);
  json.Int("hot_path_clean", hot_path_clean ? 1 : 0);

  json.Write(JsonOutputPath(argc, argv, "BENCH_e14.json"));
  return (speedup >= 2.0 && combining >= 1.5 && hot_path_clean) ? 0 : 1;
}

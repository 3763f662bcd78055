// F1 — Figure 1 reproduction: every proposed hardware primitive, its
// observable semantics cost: client round trips (far_ops), fabric messages,
// payload bytes, and modelled latency. The paper's table lists semantics;
// this harness validates that each primitive completes its composite effect
// in ONE client round trip.
#include <benchmark/benchmark.h>

#include <functional>

#include "bench/bench_util.h"
#include "src/common/bytes.h"

namespace fmds {
namespace {

struct Row {
  const char* name;
  ClientStats delta;
  uint64_t sim_ns;
};

Row Measure(BenchEnv& env, FarClient& client, const char* name,
            const std::function<void(FarClient&)>& op) {
  (void)env;
  const ClientStats before = client.stats();
  const uint64_t t0 = client.clock().now_ns();
  op(client);
  Row row;
  row.name = name;
  row.delta = client.stats().Delta(before);
  row.sim_ns = client.clock().now_ns() - t0;
  return row;
}

void PrintFigure1() {
  BenchEnv env(DefaultFabric());
  auto& client = env.NewClient();
  auto& watcher = env.NewClient();

  // Layout: ptr cell at 64 -> 4096; ptr table at [64,72]; data at 4096+.
  CheckOk(client.WriteWord(64, 4096), "init");
  CheckOk(client.WriteWord(72, 8192), "init");
  CheckOk(client.WriteWord(4096, 11), "init");
  CheckOk(client.WriteWord(8192, 22), "init");

  uint64_t word = 0;
  std::vector<Row> rows;
  auto measure = [&](const char* name, std::function<void(FarClient&)> op) {
    rows.push_back(Measure(env, client, name, op));
  };

  measure("read (verb)", [&](FarClient& c) {
    CheckOk(c.Read(4096, AsBytes(word)), "read");
  });
  measure("write (verb)", [&](FarClient& c) {
    CheckOk(c.Write(4096, AsConstBytes(word)), "write");
  });
  measure("cas (verb)", [&](FarClient& c) {
    CheckOk(c.CompareSwap(4096, word, word).status(), "cas");
  });
  measure("fetch-add (verb)", [&](FarClient& c) {
    CheckOk(c.FetchAdd(4096, 0).status(), "faa");
  });
  measure("load0", [&](FarClient& c) {
    CheckOk(c.Load0(64, AsBytes(word)).status(), "load0");
  });
  measure("load1", [&](FarClient& c) {
    CheckOk(c.Load1(64, 8, AsBytes(word)).status(), "load1");
  });
  measure("load2", [&](FarClient& c) {
    CheckOk(c.Load2(64, 8, AsBytes(word)).status(), "load2");
  });
  measure("store0", [&](FarClient& c) {
    CheckOk(c.Store0(64, AsConstBytes(word)).status(), "store0");
  });
  measure("store1", [&](FarClient& c) {
    CheckOk(c.Store1(64, 8, AsConstBytes(word)).status(), "store1");
  });
  measure("store2", [&](FarClient& c) {
    CheckOk(c.Store2(64, 8, AsConstBytes(word)).status(), "store2");
  });
  CheckOk(client.WriteWord(128, 4096), "init faai cursor");
  measure("faai", [&](FarClient& c) {
    CheckOk(c.Faai(128, 8, AsBytes(word)).status(), "faai");
  });
  measure("saai", [&](FarClient& c) {
    CheckOk(c.Saai(128, 8, AsConstBytes(word)).status(), "saai");
  });
  measure("add0", [&](FarClient& c) { CheckOk(c.Add0(64, 1), "add0"); });
  measure("add1", [&](FarClient& c) { CheckOk(c.Add1(64, 1, 8), "add1"); });
  measure("add2", [&](FarClient& c) { CheckOk(c.Add2(64, 1, 8), "add2"); });

  std::byte buf_a[64];
  std::byte buf_b[64];
  LocalBuf scatter_iov[2] = {{buf_a, 64}, {buf_b, 64}};
  measure("rscatter", [&](FarClient& c) {
    CheckOk(c.RScatter(4096, scatter_iov), "rscatter");
  });
  FarSeg far_iov[2] = {{4096, 64}, {8192, 64}};
  std::byte big[128];
  measure("rgather", [&](FarClient& c) {
    CheckOk(c.RGather(far_iov, big), "rgather");
  });
  measure("wscatter", [&](FarClient& c) {
    CheckOk(c.WScatter(far_iov, big), "wscatter");
  });
  ConstLocalBuf wg_iov[2] = {{buf_a, 64}, {buf_b, 64}};
  measure("wgather", [&](FarClient& c) {
    CheckOk(c.WGather(4096, wg_iov), "wgather");
  });

  // Notifications: subscription setup + the writer-side cost of a firing
  // write (zero extra client round trips for the writer).
  NotificationInbox inbox(watcher.channel().capacity());
  NotifySpec spec;
  spec.mode = NotifyMode::kOnWrite;
  spec.addr = 4096;
  spec.len = 64;
  CheckOk(watcher.Subscribe(spec, &inbox).status(), "notify0 sub");
  measure("write w/ notify0 armed", [&](FarClient& c) {
    CheckOk(c.WriteWord(4096, 1), "write");
  });
  NotifySpec eq;
  eq.mode = NotifyMode::kOnEqual;
  eq.addr = 8192;
  eq.len = 8;
  eq.value = 0;
  CheckOk(watcher.Subscribe(eq, &inbox).status(), "notifye sub");
  measure("write w/ notifye armed", [&](FarClient& c) {
    CheckOk(c.WriteWord(8192, 0), "write");
  });

  Table table({"primitive", "round_trips", "messages", "bytes_rd",
               "bytes_wr", "sim_ns"});
  for (const Row& row : rows) {
    table.AddRow({row.name, Table::Cell(row.delta.far_ops),
                  Table::Cell(row.delta.messages),
                  Table::Cell(row.delta.bytes_read),
                  Table::Cell(row.delta.bytes_written),
                  Table::Cell(row.sim_ns)});
  }
  table.Print(std::cout,
              "F1: Figure 1 primitives — cost per operation "
              "(every primitive = 1 client round trip)");
  std::cout << "notifications delivered to watcher: "
            << watcher.channel().published() << "\n";
}

// Wall-time microbenches of representative primitives (simulator speed).
void BM_Load0(benchmark::State& state) {
  BenchEnv env(DefaultFabric());
  auto& client = env.NewClient();
  CheckOk(client.WriteWord(64, 4096), "init");
  uint64_t out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Load0(64, AsBytes(out)));
  }
}
BENCHMARK(BM_Load0);

void BM_Faai(benchmark::State& state) {
  BenchEnv env(DefaultFabric());
  auto& client = env.NewClient();
  CheckOk(client.WriteWord(64, 4096), "init");
  uint64_t out;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Faai(64, 8, AsBytes(out)));
    if (++i % 1000 == 0) {
      CheckOk(client.WriteWord(64, 4096), "reset");
    }
  }
}
BENCHMARK(BM_Faai);

void BM_RGather4(benchmark::State& state) {
  BenchEnv env(DefaultFabric());
  auto& client = env.NewClient();
  FarSeg iov[4] = {{4096, 64}, {8192, 64}, {12288, 64}, {16384, 64}};
  std::byte out[256];
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.RGather(iov, out));
  }
}
BENCHMARK(BM_RGather4);

}  // namespace
}  // namespace fmds

int main(int argc, char** argv) {
  fmds::PrintFigure1();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}

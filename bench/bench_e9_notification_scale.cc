// E9 — §7.2: notification scalability mechanisms.
//  (a) Number of subscriptions: coarsening the spatial granularity (one
//      subscription over an enclosing range instead of many fine ones)
//      trades subscription-table size for false positives.
//  (b) Network traffic: temporal coalescing merges back-to-back events.
//  (c) Overload: bounded channels drop events and surface a loss warning
//      the algorithm must handle.
//  (d) Number of subscribers: broker fan-out — 1 hardware subscriber
//      re-distributing to k software subscribers keeps hardware state O(1).
#include "bench/bench_util.h"
#include "src/common/rng.h"

namespace fmds {
namespace {

constexpr uint64_t kWords = 512;            // watched region: 4 KB page
constexpr int kWrites = 4000;

// (a) fine vs coarse subscriptions.
void GranularityTable() {
  Table table({"granularity", "subs", "events fired", "relevant",
               "false-positive frac"});
  for (uint64_t words_per_sub : {1ull, 8ull, 64ull, 512ull}) {
    BenchEnv env(DefaultFabric());
    auto& writer = env.NewClient();
    ClientOptions big;
    big.channel_capacity = 1 << 20;
    FarClient watcher(&env.fabric(), 42, big);
    NotificationInbox inbox(watcher.channel().capacity());
    const FarAddr base =
        CheckOk(env.alloc().Allocate(kWords * kWordSize, AllocHint::Any(),
                                     kPageSize),
                "region");
    // The client *cares* about every 8th word only.
    std::vector<bool> interesting(kWords, false);
    for (uint64_t w = 0; w < kWords; w += 8) {
      interesting[w] = true;
    }
    uint64_t subs = 0;
    for (uint64_t w = 0; w < kWords; w += words_per_sub) {
      // Subscribe to a coarse range only if it contains something we care
      // about (for word granularity: only the interesting words).
      bool covers = false;
      for (uint64_t i = w; i < w + words_per_sub && i < kWords; ++i) {
        covers |= interesting[i];
      }
      if (!covers) {
        continue;
      }
      NotifySpec spec;
      spec.mode = NotifyMode::kOnWrite;
      spec.addr = base + w * kWordSize;
      spec.len = std::min(words_per_sub, kWords - w) * kWordSize;
      spec.policy.coalesce = false;
      CheckOk(watcher.Subscribe(spec, &inbox).status(), "subscribe");
      ++subs;
    }
    Rng rng(7);
    for (int i = 0; i < kWrites; ++i) {
      CheckOk(writer.WriteWord(base + rng.NextBelow(kWords) * kWordSize, i),
              "write");
    }
    uint64_t fired = 0;
    uint64_t relevant = 0;
    watcher.DispatchNotifications();
    while (auto event = inbox.Pop()) {
      if (event->kind != NotifyEventKind::kChanged) {
        continue;
      }
      ++fired;
      const uint64_t word = (event->addr - base) / kWordSize;
      relevant += interesting[word] ? 1 : 0;
    }
    table.AddRow({Table::Cell(words_per_sub * kWordSize), Table::Cell(subs),
                  Table::Cell(fired), Table::Cell(relevant),
                  Table::Cell(fired == 0 ? 0.0
                                         : 1.0 - static_cast<double>(relevant) /
                                                     static_cast<double>(fired),
                              3)});
  }
  table.Print(std::cout,
              "E9a: spatial granularity — fewer subscriptions, more false "
              "positives (subscriber re-checks)");
}

// (b) temporal coalescing.
void CoalescingTable() {
  Table table({"burst", "coalesce", "published", "delivered",
               "traffic reduction"});
  for (int burst : {1, 8, 64}) {
    for (bool coalesce : {false, true}) {
      BenchEnv env(DefaultFabric());
      auto& writer = env.NewClient();
      ClientOptions big;
      big.channel_capacity = 1 << 20;
      FarClient watcher(&env.fabric(), 43, big);
      NotificationInbox inbox(watcher.channel().capacity());
      const FarAddr addr = CheckOk(env.alloc().Allocate(64), "word");
      NotifySpec spec;
      spec.mode = NotifyMode::kOnWrite;
      spec.addr = addr;
      spec.len = 64;
      spec.policy.coalesce = coalesce;
      CheckOk(watcher.Subscribe(spec, &inbox).status(), "subscribe");
      uint64_t delivered = 0;
      for (int round = 0; round < kWrites / burst; ++round) {
        for (int i = 0; i < burst; ++i) {
          CheckOk(writer.WriteWord(addr + (i % 8) * 8, i), "write");
        }
        // The subscriber drains between bursts (the paper's temporal
        // batching window).
        delivered += watcher.DispatchNotifications();
        inbox.Clear();
      }
      table.AddRow(
          {Table::Cell(static_cast<int64_t>(burst)),
           coalesce ? "on" : "off",
           Table::Cell(watcher.channel().published()),
           Table::Cell(delivered),
           Table::Cell(static_cast<double>(watcher.channel().published()) /
                           static_cast<double>(std::max<uint64_t>(delivered,
                                                                  1)),
                       1)});
    }
  }
  table.Print(std::cout,
              "E9b: temporal coalescing — events merged per delivery");
}

// (c) overload: drops + loss warnings.
void OverloadTable() {
  Table table({"channel_cap", "writes", "delivered", "lost",
               "loss warnings seen"});
  for (size_t capacity : {16ull, 256ull, 65536ull}) {
    BenchEnv env(DefaultFabric());
    auto& writer = env.NewClient();
    ClientOptions opts;
    opts.channel_capacity = capacity;
    FarClient watcher(&env.fabric(), 44, opts);
    NotificationInbox inbox(watcher.channel().capacity());
    const FarAddr addr = CheckOk(env.alloc().Allocate(8), "word");
    NotifySpec spec;
    spec.mode = NotifyMode::kOnWrite;
    spec.addr = addr;
    spec.len = 8;
    spec.policy.coalesce = false;
    CheckOk(watcher.Subscribe(spec, &inbox).status(), "subscribe");
    for (int i = 0; i < kWrites; ++i) {
      CheckOk(writer.WriteWord(addr, i), "write");
    }
    uint64_t delivered = 0;
    uint64_t warnings = 0;
    watcher.DispatchNotifications();
    while (auto event = inbox.Pop()) {
      if (event->kind == NotifyEventKind::kLossWarning) {
        ++warnings;
      } else {
        ++delivered;
      }
    }
    table.AddRow({Table::Cell(static_cast<uint64_t>(capacity)),
                  Table::Cell(static_cast<int64_t>(kWrites)),
                  Table::Cell(delivered),
                  Table::Cell(watcher.channel().overflow_lost()),
                  Table::Cell(warnings)});
  }
  table.Print(std::cout,
              "E9c: overload — bounded channels drop and surface ONE loss "
              "warning (algorithms fall back to versions/refresh)");
}

// (d) broker fan-out: hardware sees 1 subscriber; software re-distributes.
void BrokerTable() {
  Table table({"subscribers", "direct hw subs", "brokered hw subs",
               "events via broker"});
  for (int subscribers : {4, 16, 64}) {
    BenchEnv env(DefaultFabric());
    auto& writer = env.NewClient();
    ClientOptions big;
    big.channel_capacity = 1 << 20;
    FarClient broker(&env.fabric(), 45, big);
    NotificationInbox inbox(broker.channel().capacity());
    const FarAddr addr = CheckOk(env.alloc().Allocate(8), "word");
    NotifySpec spec;
    spec.mode = NotifyMode::kOnWrite;
    spec.addr = addr;
    spec.len = 8;
    spec.policy.coalesce = false;
    CheckOk(broker.Subscribe(spec, &inbox).status(), "subscribe");
    // Software subscriber queues fed by the broker.
    std::vector<uint64_t> delivered(subscribers, 0);
    for (int i = 0; i < 1000; ++i) {
      CheckOk(writer.WriteWord(addr, i), "write");
      broker.DispatchNotifications();
      while (auto event = inbox.Pop()) {
        for (int s = 0; s < subscribers; ++s) {
          ++delivered[s];  // broker re-publishes over the network
        }
      }
    }
    uint64_t total = 0;
    for (uint64_t d : delivered) {
      total += d;
    }
    table.AddRow({Table::Cell(static_cast<int64_t>(subscribers)),
                  Table::Cell(static_cast<int64_t>(subscribers)),
                  Table::Cell(uint64_t{1}), Table::Cell(total)});
  }
  table.Print(std::cout,
              "E9d: broker fan-out — hardware subscription state stays O(1) "
              "regardless of subscriber count");
}

}  // namespace
}  // namespace fmds

int main() {
  fmds::GranularityTable();
  fmds::CoalescingTable();
  fmds::OverloadTable();
  fmds::BrokerTable();
  return 0;
}

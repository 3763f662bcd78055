// E4 — §5.2's geometry claim: "An HT-tree can store 1 trillion items with a
// tree of 10M nodes (taking 100s of MB of cache space) and 10M hash tables
// of 100K elements each", with 1-far-access lookups; vs a client-cached
// B-tree, which needs O(n / fanout) cache for the same property.
//
// We measure the cache-bytes / far-accesses trade at laptop scale and then
// extrapolate the paper's trillion-item arithmetic from the same geometry.
#include <cmath>

#include "bench/bench_util.h"
#include "src/baselines/btree.h"
#include "src/common/rng.h"
#include "src/core/ht_tree.h"

namespace fmds {
namespace {

struct Measured {
  double far_per_lookup;
  uint64_t cache_bytes;
  uint64_t tables;
};

Measured MeasureHtTree(uint64_t items, uint64_t buckets_per_table) {
  BenchEnv env(DefaultFabric(2ull << 30));
  auto& client = env.NewClient();
  HtTree::Options options;
  options.buckets_per_table = buckets_per_table;
  // Pre-split so the load phase does not dominate the run.
  uint32_t depth = 0;
  while ((buckets_per_table << depth) * 2 < items) {
    ++depth;
  }
  options.initial_depth = std::min<uint32_t>(depth, 12);
  auto map = CheckOk(HtTree::Create(&client, &env.alloc(), options), "map");
  for (uint64_t k = 1; k <= items; ++k) {
    CheckOk(map.Put(k, k), "put");
  }
  Rng rng(5);
  const int probes = 2000;
  const uint64_t before = client.stats().far_ops;
  for (int i = 0; i < probes; ++i) {
    CheckOk(map.Get(rng.NextInRange(1, items)).status(), "get");
  }
  Measured m;
  m.far_per_lookup =
      static_cast<double>(client.stats().far_ops - before) / probes;
  m.cache_bytes = map.cache_bytes();
  m.tables = map.cached_tables();
  return m;
}

Measured MeasureCachedBTree(uint64_t items) {
  BenchEnv env(DefaultFabric(2ull << 30));
  auto& client = env.NewClient();
  FarBTree::Options options;
  options.fanout = 16;
  options.cache_internal = true;
  auto tree = CheckOk(FarBTree::Create(&client, &env.alloc(), options), "bt");
  for (uint64_t k = 1; k <= items; ++k) {
    CheckOk(tree.Put(k, k), "put");
  }
  Rng rng(5);
  // Warm: touch the whole key space so every internal node is cached.
  for (uint64_t k = 1; k <= items; k += 7) {
    CheckOk(tree.Get(k).status(), "warm");
  }
  const int probes = 2000;
  const uint64_t before = client.stats().far_ops;
  for (int i = 0; i < probes; ++i) {
    CheckOk(tree.Get(rng.NextInRange(1, items)).status(), "get");
  }
  Measured m;
  m.far_per_lookup =
      static_cast<double>(client.stats().far_ops - before) / probes;
  m.cache_bytes = tree.cache_bytes();
  m.tables = 0;
  return m;
}

}  // namespace
}  // namespace fmds

int main() {
  using namespace fmds;
  Table table({"items", "structure", "far/lookup", "client_cache_B",
               "cache_B/item"});
  for (uint64_t items : {20000ull, 100000ull, 400000ull}) {
    auto ht = MeasureHtTree(items, 4096);
    char n_label[32];
    std::snprintf(n_label, sizeof(n_label), "%llu",
                  static_cast<unsigned long long>(items));
    table.AddRow({n_label, "HT-tree", Table::Cell(ht.far_per_lookup, 2),
                  Table::Cell(ht.cache_bytes),
                  Table::Cell(static_cast<double>(ht.cache_bytes) /
                                  static_cast<double>(items),
                              3)});
    auto bt = MeasureCachedBTree(items);
    table.AddRow({n_label, "B-tree cached", Table::Cell(bt.far_per_lookup, 2),
                  Table::Cell(bt.cache_bytes),
                  Table::Cell(static_cast<double>(bt.cache_bytes) /
                                  static_cast<double>(items),
                              3)});
  }
  table.Print(std::cout,
              "E4a: 1-far-access lookups — what they cost in client cache");

  // The paper's arithmetic, reproduced from the structure's geometry:
  // tables of 100K elements; a mirrored trie of live nodes only, 2 × tables
  // − 1 of 32 B; and the trie directory, 4 B slots for the smallest power
  // of two >= 2 × tables. A balanced trie's leaves sit at depth
  // ceil(log2(tables)), no deeper than the directory's, so finding a key's
  // leaf costs the directory's 2 near accesses where walking the trie
  // node by node would cost depth + 1.
  Table extrapolation({"items", "tables(100K each)", "trie nodes",
                       "directory slots", "client cache", "near/descent",
                       "per-level walk", "B-tree cache (fanout 16)"});
  for (double items : {1e9, 1e12}) {
    const double tables = items / 100000.0;
    const double nodes = 2.0 * tables - 1.0;  // internal + leaf
    const double slots = std::exp2(std::ceil(std::log2(2.0 * tables)));
    const double cache_mb = (nodes * 32.0 + slots * 4.0) / 1e6;
    const double walk = std::ceil(std::log2(tables)) + 1.0;
    const double btree_cache_gb = (items / 16.0) * 32.0 / 1e9;
    char items_label[16];
    char cache_label[32];
    char btree_label[32];
    std::snprintf(items_label, sizeof(items_label), "%.0e", items);
    std::snprintf(cache_label, sizeof(cache_label), "%.0f MB", cache_mb);
    std::snprintf(btree_label, sizeof(btree_label), "%.0f GB",
                  btree_cache_gb);
    extrapolation.AddRow({items_label, Table::Cell(tables, 0),
                          Table::Cell(nodes, 0), Table::Cell(slots, 0),
                          cache_label, Table::Cell(2.0, 0),
                          Table::Cell(walk, 0), btree_label});
  }
  extrapolation.Print(
      std::cout,
      "E4b: extrapolated geometry (paper: 1T items -> ~10M tables, 100s of "
      "MB of cache; a cached B-tree would need billions of entries)");
  return 0;
}

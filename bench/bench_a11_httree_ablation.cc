// A11 — ablation of the HT-tree's hardware accelerator (DESIGN.md §4):
// indirect addressing (load0) merges the bucket dereference with the item
// read — the §4.1 hardware proposal — in a lookup and in the head read that
// starts every store. Rows show far accesses per Get and per Put with load0
// on and off, which isolates how much of the headline 1-access Get and
// 2-access Put comes from the hardware rather than the structure.
//
// §5.2's store costs two far accesses: read the bucket head, then write the
// item and CAS the bucket in one doorbell. The bench exits non-zero unless,
// with load0 on, a Put costs exactly 2.00 far accesses and a Get keeps 1.38
// (2.38 with load0 off, where the bucket word and the item are two reads).
//
// The near columns are the client-side work around those far accesses. The
// map ends with 8 tables at trie depth 3, so finding a key's leaf costs the
// two near accesses of the trie directory (the slot, then the node it
// names) where a walk down the cached trie would cost four. A Get adds one
// for the head check: 3.00. A Put adds the item-slot allocation, the head
// check, the doorbell's completion check and, for the 28% of overwrites
// whose key was not its bucket's head, the growth counter: 5.28. The bench
// exits non-zero unless both rows read exactly that.
#include <cmath>
#include <tuple>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/ht_tree.h"

namespace fmds {
namespace {

constexpr uint64_t kKeys = 50000;
constexpr int kProbes = 3000;

struct AblationRow {
  double get_far;
  double put_far;
  double get_near;
  double put_near;
};

AblationRow Run(bool use_indirect) {
  BenchEnv env(DefaultFabric());
  auto& client = env.NewClient();
  HtTree::Options options;
  options.buckets_per_table = 8192;
  options.use_indirect = use_indirect;
  auto map = CheckOk(HtTree::Create(&client, &env.alloc(), options), "map");
  for (uint64_t k = 1; k <= kKeys; ++k) {
    CheckOk(map.Put(k, k), "load");
  }
  Rng rng(17);
  // Far and near accesses per op since `before`.
  auto per_op = [&](const ClientStats& before) {
    const ClientStats delta = client.stats().Delta(before);
    return std::pair{static_cast<double>(delta.far_ops) / kProbes,
                     static_cast<double>(delta.near_ops) / kProbes};
  };
  AblationRow row;
  ClientStats before = client.stats();
  for (int i = 0; i < kProbes; ++i) {
    CheckOk(map.Get(rng.NextInRange(1, kKeys)).status(), "get");
  }
  std::tie(row.get_far, row.get_near) = per_op(before);
  before = client.stats();
  for (int i = 0; i < kProbes; ++i) {
    // Overwrites of existing keys: the paper's "store" case.
    CheckOk(map.Put(rng.NextInRange(1, kKeys), i), "put");
  }
  std::tie(row.put_far, row.put_near) = per_op(before);
  return row;
}

// The value as the table prints it, in hundredths.
long Hundredths(double value) { return std::lround(value * 100); }

}  // namespace
}  // namespace fmds

int main() {
  using namespace fmds;
  Table table({"indirect (load0)", "far/Get", "far/Put", "near/Get",
               "near/Put"});
  const AblationRow on = Run(/*use_indirect=*/true);
  const AblationRow off = Run(/*use_indirect=*/false);
  const std::pair<const char*, AblationRow> rows[] = {{"on", on},
                                                      {"off", off}};
  for (const auto& [name, row] : rows) {
    table.AddRow({name, Table::Cell(row.get_far, 2),
                  Table::Cell(row.put_far, 2), Table::Cell(row.get_near, 2),
                  Table::Cell(row.put_near, 2)});
  }
  table.Print(std::cout,
              "A11: HT-tree ablation — load0 buys the 1-access Get and the "
              "1-access head read of the 2-access Put");
  bool pass = true;
  for (const auto& [name, row] : rows) {
    if (Hundredths(row.get_near) != 300 || Hundredths(row.put_near) != 528) {
      std::cout << "FAIL: with load0 " << name << ", a Get costs "
                << row.get_near << " and a Put " << row.put_near
                << " near accesses, not the trie directory's 3.00 / 5.28\n";
      pass = false;
    }
  }
  if (on.put_far != 2.0) {
    std::cout << "FAIL: a Put with load0 costs " << on.put_far
              << " far accesses, not §5.2's 2.00\n";
    pass = false;
  }
  if (Hundredths(on.get_far) != 138 || Hundredths(off.get_far) != 238) {
    std::cout << "FAIL: a Get costs " << on.get_far << " / " << off.get_far
              << " far accesses (load0 on / off), not 1.38 / 2.38\n";
    pass = false;
  }
  std::cout << (pass ? "A11 gate: PASS" : "A11 gate: FAIL") << "\n";
  return pass ? 0 : 1;
}

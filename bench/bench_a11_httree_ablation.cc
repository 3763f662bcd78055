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
#include <cmath>

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
  AblationRow row;
  {
    const uint64_t before = client.stats().far_ops;
    for (int i = 0; i < kProbes; ++i) {
      CheckOk(map.Get(rng.NextInRange(1, kKeys)).status(), "get");
    }
    row.get_far =
        static_cast<double>(client.stats().far_ops - before) / kProbes;
  }
  {
    const uint64_t before = client.stats().far_ops;
    for (int i = 0; i < kProbes; ++i) {
      // Overwrites of existing keys: the paper's "store" case.
      CheckOk(map.Put(rng.NextInRange(1, kKeys), i), "put");
    }
    row.put_far =
        static_cast<double>(client.stats().far_ops - before) / kProbes;
  }
  return row;
}

// The value as the table prints it, in hundredths.
long Hundredths(double value) { return std::lround(value * 100); }

}  // namespace
}  // namespace fmds

int main() {
  using namespace fmds;
  Table table({"indirect (load0)", "far/Get", "far/Put"});
  const AblationRow on = Run(/*use_indirect=*/true);
  const AblationRow off = Run(/*use_indirect=*/false);
  for (const auto& [name, row] : {std::pair{"on", on}, std::pair{"off", off}}) {
    table.AddRow({name, Table::Cell(row.get_far, 2),
                  Table::Cell(row.put_far, 2)});
  }
  table.Print(std::cout,
              "A11: HT-tree ablation — load0 buys the 1-access Get and the "
              "1-access head read of the 2-access Put");
  bool pass = true;
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

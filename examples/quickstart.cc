// Quickstart: stand up a simulated far-memory fabric, use the Figure 1
// primitives directly, then the far-memory data structures built on them.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <array>
#include <cstdio>

#include "src/alloc/far_allocator.h"
#include "src/common/bytes.h"
#include "src/core/far_counter.h"
#include "src/core/far_queue.h"
#include "src/core/ht_tree.h"
#include "src/fabric/fabric.h"
#include "src/fabric/far_client.h"

int main() {
  using namespace fmds;

  // 1. A fabric: 4 memory nodes x 64 MB, one flat far address space.
  FabricOptions options;
  options.num_nodes = 4;
  options.node_capacity = 64ull << 20;
  Fabric fabric(options);
  FarAllocator alloc(&fabric);
  FarClient client(&fabric, /*client_id=*/1);

  // 2. Raw one-sided verbs + indirect addressing (Fig. 1).
  FarAddr cell = *alloc.Allocate(kWordSize);
  FarAddr target = *alloc.Allocate(kWordSize);
  (void)client.WriteWord(target, 42);
  (void)client.WriteWord(cell, target);  // cell points at target
  uint64_t value = 0;
  (void)client.Load0(cell, AsBytes(value));  // one far access: *(*cell)
  std::printf("load0 through a far pointer -> %llu (one round trip)\n",
              static_cast<unsigned long long>(value));

  // 3. A far-memory counter (§5.1).
  auto counter = FarCounter::Create(client, alloc, 0);
  (void)counter->Add(client, 7);
  std::printf("counter = %llu\n",
              static_cast<unsigned long long>(*counter->Get(client)));

  // 4. The HT-tree map (§5.2): 1 far access per lookup, 2 per store. A
  // store reads its bucket head, then writes the item and CASes the bucket
  // in one doorbell, which needs both on one node: pin the map to one.
  HtTree::Options map_options;
  map_options.buckets_per_table = 4096;  // low load factor: no chains
  map_options.placement = AllocHint::OnNode(0);
  auto map = HtTree::Create(&client, &alloc, map_options);
  for (uint64_t k = 1; k <= 1000; ++k) {
    (void)map->Put(k, k * k);
  }
  const uint64_t ops_before = client.stats().far_ops;
  uint64_t squared = *map->Get(321);
  std::printf("map[321] = %llu in %llu far access(es)\n",
              static_cast<unsigned long long>(squared),
              static_cast<unsigned long long>(client.stats().far_ops -
                                              ops_before));

  // 5. The far-memory queue (§5.3): 1 far access per op via faai/saai.
  auto queue = FarQueue::Create(&client, &alloc);
  (void)queue->Enqueue(ops_before);
  std::printf("queue round trip -> %llu\n",
              static_cast<unsigned long long>(*queue->Dequeue()));

  // 6. The async pipeline: independent ops share one doorbell round trip.
  std::vector<uint64_t> keys{11, 222, 333, 444, 555, 666, 777, 888};
  const uint64_t batch_ops_before = client.stats().far_ops;
  const uint64_t batch_t0 = client.clock().now_ns();
  auto values = map->MultiGet(keys);  // all probes ride one doorbell
  std::printf("MultiGet(%zu keys) -> %llu waited round trip(s), %.1f us "
              "(vs ~%zu round trips sync)\n",
              keys.size(),
              static_cast<unsigned long long>(client.stats().far_ops -
                                              batch_ops_before),
              static_cast<double>(client.clock().now_ns() - batch_t0) /
                  1000.0,
              keys.size());
  (void)values;
  // The same machinery is available raw: Post*()s, then one WaitAll()
  // doorbell that completes op i into done[i].
  client.PostWriteWord(cell, 1);
  client.PostWriteWord(target, 2);
  std::array<FarClient::Completion, 2> done;
  (void)client.WaitAll(done);

  // 7. The metric that matters (§3.1): far accesses, not wall time.
  std::printf("\nclient totals: %s\n", client.stats().ToString().c_str());
  std::printf("simulated time: %.1f us\n",
              static_cast<double>(client.clock().now_ns()) / 1000.0);
  return 0;
}

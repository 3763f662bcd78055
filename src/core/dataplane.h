// Adaptive hybrid dataplane interfaces (DESIGN.md §13).
//
// §3.1 presents two ways to operate on a far structure: one-sided access
// (k dependent accesses = k round trips, zero server CPU) and shipping the
// operation to a processor near the memory (1 round trip + service time, and
// the chain walk happens at memory-local cost). Brock et al. (PAPERS.md)
// show the winner flips with op complexity and server occupancy — so the
// choice belongs to a per-operation router, not to the structure.
//
// These are the two seams HtTree/ShardedMap route through. Both are
// implemented by src/route/ (DataplaneRouter, RpcMapPath); src/core only
// depends on the abstract shape, keeping the core -> route dependency
// inverted (route links core, not vice versa).
#ifndef FMDS_SRC_CORE_DATAPLANE_H_
#define FMDS_SRC_CORE_DATAPLANE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/fabric/fabric.h"

namespace fmds {

// Operation classes the router prices separately: their one-sided cost
// scales differently with structure state (chain depth, CAS contention,
// batch size), so each keeps its own per-node estimates.
enum class RoutedOp : uint8_t { kGet = 0, kPut = 1, kRemove = 2, kMultiGet = 3 };
inline constexpr size_t kRoutedOpCount = 4;

enum class DataplaneRoute : uint8_t { kOneSided = 0, kRpc = 1 };

// Where one store landed, whichever path published it (HtTree::MultiWrite
// per key, a routed write's reply): the bucket its CAS swung and the new
// head word there, the key's item slot. `refillable` marks a landed Put —
// not a tombstone, not a key that failed — whose writer may refill its
// NearCache entry under `head` (the landed-store exit, DESIGN.md §11).
struct WriteOutcome {
  FarAddr bucket = kNullFarAddr;
  FarAddr head = kNullFarAddr;
  bool refillable = false;
};

// Per-operation route decision + measurement feedback. One decider serves
// every handle bound to one FarClient (single application thread); state is
// keyed by (op kind, memory node), so ShardedMap shards pinned to different
// nodes are priced independently.
class RouteDecider {
 public:
  virtual ~RouteDecider() = default;
  // `units` is the caller's estimate of serial one-sided round trips for ONE
  // op of this kind (1 + expected chain hops for a lookup, 2 + expected CAS
  // retries for a store) — the complexity signal that moves the §3.1
  // crossover. `batch` is the number of keys the decision covers (MultiGet);
  // 1 for point ops.
  virtual DataplaneRoute Decide(RoutedOp op, NodeId node, double units,
                                uint64_t batch) = 0;
  // Measured client-clock cost of an op executed down `route`, with the
  // same units/batch the decision saw. Callers observe the path actually
  // taken (a failed RPC that fell back one-sided observes one-sided).
  virtual void Observe(RoutedOp op, NodeId node, DataplaneRoute route,
                       uint64_t latency_ns, double units, uint64_t batch) = 0;
};

// The two-sided executor: ships a map operation to the near-memory agent of
// the node owning `header`'s map, which runs it through a server-side handle
// on the SAME far structure. Semantic equivalence contract: mutations
// publish through the normal bucket-head CAS protocol (notifications fire,
// Txn validation words swing), and responses carry the publish location so
// the CALLER maintains its NearCache exactly like the one-sided path does.
class RemoteMapPath {
 public:
  virtual ~RemoteMapPath() = default;

  struct ReadView {
    bool found = false;
    // True when the server resolved a clean, version-checked head: `bucket`
    // and `head_word` are then admissible as a caller-side NearCache entry
    // (read-and-arm subscription closes the admission race as usual).
    bool cacheable = false;
    uint64_t value = 0;
    FarAddr bucket = kNullFarAddr;
    uint64_t head_word = 0;
    // Chain positions the server walked — complexity feedback that keeps
    // the caller's units estimate fresh even while RPC-routed.
    uint32_t chain_hops = 0;
  };

  virtual Result<ReadView> Get(FarAddr header, uint64_t key) = 0;
  virtual Result<WriteOutcome> Put(FarAddr header, uint64_t key,
                                   uint64_t value) = 0;
  virtual Result<WriteOutcome> Remove(FarAddr header, uint64_t key) = 0;
  // All keys in one request; `views` is resized to keys.size() in input
  // order. Fails as a whole (caller falls back one-sided) if any key's
  // server-side read fails.
  virtual Status MultiGet(FarAddr header, std::span<const uint64_t> keys,
                          std::vector<ReadView>* views) = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_DATAPLANE_H_

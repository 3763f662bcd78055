// Far-memory allocator (§7.1): hands out global far addresses with optional
// (anti-)locality hints so data structures can control placement across
// memory nodes — e.g. keep a hash-bucket chain on one node (indirection stays
// local) or spread independent hash tables across nodes (parallelism).
//
// Design: one region allocator per memory node, operating on that node's
// slice of the global address space (whole partition, or its stripe
// sequence). Allocations of size <= stripe never straddle nodes. Freed
// blocks go to exact-size free lists (the workloads allocate a small set of
// fixed-size objects: items, buckets, tree nodes, tables).
//
// Reclamation safety: Free() never recycles memory immediately; blocks sit
// in a quarantine until the owner calls AdvanceEpoch() twice, giving
// HT-tree-style readers with stale caches time to notice retirement markers
// before addresses are reused (epoch-based reclamation).
#ifndef FMDS_SRC_ALLOC_FAR_ALLOCATOR_H_
#define FMDS_SRC_ALLOC_FAR_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/fabric/fabric.h"

namespace fmds {

enum class Placement : uint8_t {
  kAny = 0,     // round-robin across nodes (default: spread for parallelism)
  kOnNode,      // on a specific node
  kNearAddr,    // on the same node as a given address (locality hint)
  kContiguous,  // globally contiguous range (spans nodes when striped)
};

struct AllocHint {
  Placement placement = Placement::kAny;
  NodeId node = 0;
  FarAddr near = kNullFarAddr;

  static AllocHint Any() { return {}; }
  static AllocHint OnNode(NodeId n) {
    return AllocHint{Placement::kOnNode, n, kNullFarAddr};
  }
  static AllocHint Near(FarAddr addr) {
    return AllocHint{Placement::kNearAddr, 0, addr};
  }
  static AllocHint Contiguous() {
    return AllocHint{Placement::kContiguous, 0, kNullFarAddr};
  }
};

class FarAllocator {
 public:
  explicit FarAllocator(Fabric* fabric);

  // Returns a far address of `size` bytes (rounded up to a multiple of 8),
  // aligned to `alignment` (a power of two; notification-heavy layouts pass
  // kPageSize so ranges never straddle pages). kResourceExhausted when the
  // placement target is full.
  Result<FarAddr> Allocate(uint64_t size, AllocHint hint = AllocHint::Any(),
                           uint64_t alignment = kWordSize);

  // Returns the block to the quarantine; recycled two epochs later.
  Status Free(FarAddr addr, uint64_t size);

  // Moves quarantined blocks one epoch closer to reuse.
  void AdvanceEpoch();

  uint64_t allocated_bytes() const;
  uint64_t freed_bytes() const;

 private:
  struct NodeArena {
    // Next unused chunk index and offset within the node's chunk sequence.
    uint64_t next_chunk = 0;
    uint64_t chunk_used = 0;
    // Exact (rounded) size -> reusable global addresses.
    std::map<uint64_t, std::vector<FarAddr>> free_lists;
  };

  struct QuarantinedBlock {
    FarAddr addr;
    uint64_t size;
    NodeId node;
  };

  // Global address of byte `offset` within `node`'s chunk number `chunk`.
  FarAddr ChunkAddr(NodeId node, uint64_t chunk, uint64_t offset) const;
  Result<FarAddr> AllocateOnNodeLocked(NodeId node, uint64_t size,
                                       uint64_t alignment);

  Fabric* fabric_;
  uint64_t chunk_size_;   // stripe size, or the whole partition
  uint64_t chunks_per_node_;
  mutable std::mutex mu_;
  std::vector<NodeArena> arenas_;
  NodeId round_robin_ = 0;
  FarAddr contiguous_bump_;  // high end of the address space, grows down
  std::vector<QuarantinedBlock> quarantine_[2];
  uint64_t allocated_bytes_ = 0;
  uint64_t freed_bytes_ = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_ALLOC_FAR_ALLOCATOR_H_

#include "src/alloc/far_allocator.h"

#include <cassert>

namespace fmds {

namespace {
// First 64 bytes of every node stay unused so global address 0 is never
// handed out (null pointer) and node headers have scratch space.
constexpr uint64_t kArenaBase = 64;

uint64_t RoundUpWords(uint64_t size) {
  return (size + kWordSize - 1) & ~(kWordSize - 1);
}
}  // namespace

FarAllocator::FarAllocator(Fabric* fabric) : fabric_(fabric) {
  const auto& opt = fabric_->options();
  chunk_size_ = opt.stripe_bytes == 0 ? opt.node_capacity : opt.stripe_bytes;
  chunks_per_node_ = opt.node_capacity / chunk_size_;
  arenas_.resize(opt.num_nodes);
  for (auto& arena : arenas_) {
    arena.chunk_used = kArenaBase;
  }
  contiguous_bump_ = fabric_->total_capacity();
}

FarAddr FarAllocator::ChunkAddr(NodeId node, uint64_t chunk,
                                uint64_t offset) const {
  const auto& opt = fabric_->options();
  if (opt.stripe_bytes == 0 || opt.num_nodes == 1) {
    return static_cast<FarAddr>(node) * opt.node_capacity +
           chunk * chunk_size_ + offset;
  }
  const uint64_t stripe_index = chunk * opt.num_nodes + node;
  return stripe_index * chunk_size_ + offset;
}

Result<FarAddr> FarAllocator::AllocateOnNodeLocked(NodeId node,
                                                   uint64_t size,
                                                   uint64_t alignment) {
  NodeArena& arena = arenas_[node];
  auto it = arena.free_lists.find(size);
  if (it != arena.free_lists.end() && !it->second.empty() &&
      it->second.back() % alignment == 0) {
    const FarAddr addr = it->second.back();
    it->second.pop_back();
    allocated_bytes_ += size;
    return addr;
  }
  if (size > chunk_size_) {
    return Status(StatusCode::kInvalidArgument,
                  "single-node allocation larger than node chunk");
  }
  // Chunk bases are page-aligned in the global space (capacities and
  // stripes are page multiples), so aligning the in-chunk offset aligns the
  // global address.
  uint64_t aligned = (arena.chunk_used + alignment - 1) & ~(alignment - 1);
  if (aligned + size > chunk_size_) {
    // Advance to the next chunk of this node's sequence.
    ++arena.next_chunk;
    arena.chunk_used = 0;
    aligned = 0;
  }
  if (arena.next_chunk >= chunks_per_node_) {
    return Status(StatusCode::kResourceExhausted, "memory node full");
  }
  const FarAddr addr = ChunkAddr(node, arena.next_chunk, aligned);
  arena.chunk_used = aligned + size;
  allocated_bytes_ += size;
  return addr;
}

Result<FarAddr> FarAllocator::Allocate(uint64_t size, AllocHint hint,
                                       uint64_t alignment) {
  if (size == 0 || alignment == 0 || (alignment & (alignment - 1)) != 0) {
    return Status(StatusCode::kInvalidArgument, "zero-size allocation");
  }
  size = RoundUpWords(size);
  std::lock_guard<std::mutex> lock(mu_);
  switch (hint.placement) {
    case Placement::kAny: {
      // Round-robin across nodes for parallelism; fall through full nodes.
      const uint32_t n = fabric_->num_nodes();
      for (uint32_t attempt = 0; attempt < n; ++attempt) {
        const NodeId node = (round_robin_ + attempt) % n;
        auto r = AllocateOnNodeLocked(node, size, alignment);
        if (r.ok()) {
          round_robin_ = (node + 1) % n;
          return r;
        }
        if (r.status().code() != StatusCode::kResourceExhausted) {
          return r;
        }
      }
      return Status(StatusCode::kResourceExhausted, "all nodes full");
    }
    case Placement::kOnNode:
      if (hint.node >= fabric_->num_nodes()) {
        return Status(StatusCode::kInvalidArgument, "bad node id");
      }
      return AllocateOnNodeLocked(hint.node, size, alignment);
    case Placement::kNearAddr: {
      auto loc = fabric_->Translate(hint.near);
      if (!loc.ok()) {
        return loc.status();
      }
      return AllocateOnNodeLocked(loc->node, size, alignment);
    }
    case Placement::kContiguous: {
      if (size > contiguous_bump_) {
        return Status(StatusCode::kResourceExhausted,
                      "contiguous region exhausted");
      }
      const FarAddr candidate = (contiguous_bump_ - size) & ~(alignment - 1);
      // Refuse if the range would collide with any node's bump frontier.
      std::vector<Fabric::Segment> segs;
      FMDS_RETURN_IF_ERROR(fabric_->Segments(candidate, size, segs));
      for (const auto& seg : segs) {
        const NodeArena& arena = arenas_[seg.node];
        const uint64_t used =
            arena.next_chunk * chunk_size_ + arena.chunk_used;
        if (seg.offset < used) {
          return Status(StatusCode::kResourceExhausted,
                        "contiguous region collides with node arenas");
        }
      }
      contiguous_bump_ = candidate;
      allocated_bytes_ += size;
      return candidate;
    }
  }
  return Status(StatusCode::kInternal, "bad placement");
}

Status FarAllocator::Free(FarAddr addr, uint64_t size) {
  if (addr == kNullFarAddr) {
    return InvalidArgument("freeing null far address");
  }
  size = RoundUpWords(size);
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(addr));
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_[0].push_back(QuarantinedBlock{addr, size, loc.node});
  freed_bytes_ += size;
  return OkStatus();
}

void FarAllocator::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  // Blocks that already waited one epoch become reusable.
  for (const auto& block : quarantine_[1]) {
    arenas_[block.node].free_lists[block.size].push_back(block.addr);
  }
  quarantine_[1] = std::move(quarantine_[0]);
  quarantine_[0].clear();
}

uint64_t FarAllocator::allocated_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocated_bytes_;
}

uint64_t FarAllocator::freed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return freed_bytes_;
}

}  // namespace fmds

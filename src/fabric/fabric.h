// The far-memory fabric: a pool of MemoryNodes behind one flat address
// space, plus the routing logic for the paper's memory-side primitives.
//
// Address distribution (§7.1): either contiguous partitions (node i owns one
// capacity-sized slice) or block-cyclic striping with a configurable stripe
// size (a multiple of the page size, so pages — and hence notification
// subscriptions — never straddle nodes).
//
// Memory-side indirection that dereferences a pointer living on a *different*
// node is resolved per IndirectionPolicy: kForward relays the request between
// memory nodes (extra hop, still one client round trip), kError bounces the
// pointer back so the client completes the indirection itself (second round
// trip) — exactly the two alternatives §7.1 describes.
#ifndef FMDS_SRC_FABRIC_FABRIC_H_
#define FMDS_SRC_FABRIC_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/fabric/far_addr.h"
#include "src/fabric/memory_node.h"
#include "src/sim/latency_model.h"

namespace fmds {

class GaugeGroup;

enum class IndirectionPolicy : uint8_t {
  kForward = 0,  // memory node forwards to the target node
  kError = 1,    // request fails; client issues the second access itself
};

struct FabricOptions {
  uint32_t num_nodes = 1;
  uint64_t node_capacity = 64ull << 20;  // bytes per node
  uint64_t stripe_bytes = 0;             // 0 => contiguous partitions
  IndirectionPolicy indirection = IndirectionPolicy::kForward;
  LatencyModel latency;
  // Per-node congestion front end (DESIGN.md §14): bounded service queue
  // with a configurable per-op service rate and shed bound. Off by default
  // — the fabric then behaves bit-identically to the fixed-RTT model. Every
  // node starts with this config; per-node runtime changes go through
  // MemoryNode::SetCongestion.
  CongestionOptions congestion;
};

class Fabric {
 public:
  explicit Fabric(FabricOptions options);

  struct Location {
    NodeId node;
    uint64_t offset;
  };

  // One per-node contiguous piece of a global range.
  struct Segment {
    NodeId node;
    uint64_t offset;  // node-local
    uint64_t len;
    FarAddr addr;     // global address of the segment start
  };

  const FabricOptions& options() const { return options_; }
  uint64_t total_capacity() const { return total_capacity_; }
  uint32_t num_nodes() const { return options_.num_nodes; }
  MemoryNode& node(NodeId id) { return *nodes_[id]; }

  // Maps a global address; status is kOutOfRange for bad addresses.
  Result<Location> Translate(FarAddr addr) const;

  // Splits [addr, addr+len) into per-node contiguous segments, in address
  // order, appended to `out` (never merged with segments already there).
  // Returns kOutOfRange if the range exceeds the address space.
  Status Segments(FarAddr addr, uint64_t len, std::vector<Segment>& out) const;

  SubId NextSubId() { return next_sub_id_.fetch_add(1) + 1; }

  // Client-side fleet table: one row per ClientStats with a column per
  // FMDS_CLIENT_STATS counter, plus a totals row. Pass each thread's
  // client->stats() snapshot (taken quiesced: ClientStats are single-owner
  // and must not be read while the owner runs).
  static void DumpClientStats(std::ostream& os,
                              std::span<const ClientStats> clients);

  // Live per-node health table, the memory-side companion to the
  // client-side flight recorder: service counters plus active
  // subscriptions, the injected per-op slowdown (set_extra_service_ns), and
  // the congestion front end's queue depth and cumulative sheds. Safe to
  // call while clients run (all atomics).
  void DumpHealth(std::ostream& os) const;

  // Registers per-node traffic gauges (`prefix.node<i>.{ops,bytes_in,
  // bytes_out,notifications,subs,extra_service_ns,queue_depth,sheds,
  // shed_rate}`) with a TelemetryHub. Atomic reads only; safe while
  // clients run. The group must not outlive the fabric.
  void AddGauges(GaugeGroup* group, const std::string& prefix) const;

 private:
  FabricOptions options_;
  uint64_t total_capacity_;
  std::vector<std::unique_ptr<MemoryNode>> nodes_;
  std::atomic<SubId> next_sub_id_{0};
};

}  // namespace fmds

#endif  // FMDS_SRC_FABRIC_FABRIC_H_

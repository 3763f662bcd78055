#include "src/fabric/fabric.h"

#include <cassert>
#include <ostream>
#include <string>

#include "src/common/table.h"
#include "src/obs/telemetry.h"

namespace fmds {

Fabric::Fabric(FabricOptions options) : options_(options) {
  assert(options_.num_nodes >= 1);
  assert(options_.node_capacity % kPageSize == 0);
  if (options_.stripe_bytes != 0) {
    assert(options_.stripe_bytes % kPageSize == 0);
    assert(options_.node_capacity % options_.stripe_bytes == 0);
  }
  total_capacity_ =
      static_cast<uint64_t>(options_.num_nodes) * options_.node_capacity;
  nodes_.reserve(options_.num_nodes);
  for (NodeId i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<MemoryNode>(i, options_.node_capacity,
                                                  options_.congestion));
  }
}

Result<Fabric::Location> Fabric::Translate(FarAddr addr) const {
  if (addr >= total_capacity_) {
    return Status(StatusCode::kOutOfRange, "far address beyond fabric");
  }
  if (options_.stripe_bytes == 0 || options_.num_nodes == 1) {
    const NodeId node = static_cast<NodeId>(addr / options_.node_capacity);
    return Location{node, addr % options_.node_capacity};
  }
  const uint64_t stripe = options_.stripe_bytes;
  const uint64_t stripe_index = addr / stripe;
  const NodeId node = static_cast<NodeId>(stripe_index % options_.num_nodes);
  const uint64_t local_stripe = stripe_index / options_.num_nodes;
  return Location{node, local_stripe * stripe + addr % stripe};
}

Status Fabric::Segments(FarAddr addr, uint64_t len,
                        std::vector<Segment>& out) const {
  if (len == 0) {
    return OkStatus();
  }
  if (addr + len > total_capacity_ || addr + len < addr) {
    return OutOfRange("far range beyond fabric");
  }
  const uint64_t chunk =
      (options_.stripe_bytes == 0 || options_.num_nodes == 1)
          ? options_.node_capacity
          : options_.stripe_bytes;
  const size_t first = out.size();
  FarAddr cursor = addr;
  uint64_t remaining = len;
  while (remaining > 0) {
    const uint64_t chunk_end = (cursor / chunk + 1) * chunk;
    const uint64_t take = std::min<uint64_t>(remaining, chunk_end - cursor);
    const Location loc = Translate(cursor).value();
    // Merge with the previous segment of this range when contiguous on the
    // same node (always true in partitioned mode within one node).
    if (out.size() > first && out.back().node == loc.node &&
        out.back().offset + out.back().len == loc.offset &&
        out.back().addr + out.back().len == cursor) {
      out.back().len += take;
    } else {
      out.push_back(Segment{loc.node, loc.offset, take, cursor});
    }
    cursor += take;
    remaining -= take;
  }
  return OkStatus();
}

void Fabric::DumpClientStats(std::ostream& os,
                             std::span<const ClientStats> clients) {
  // One column per FMDS_CLIENT_STATS field, named as ToString names it.
  std::vector<std::string> headers{"client"};
#define FMDS_STATS_HEADER(name) headers.push_back(#name);
  FMDS_CLIENT_STATS(FMDS_STATS_HEADER)
#undef FMDS_STATS_HEADER
  Table table(std::move(headers));
  auto row = [&table](std::string label, const ClientStats& s) {
    std::vector<std::string> cells{std::move(label)};
#define FMDS_STATS_CELL(name) cells.push_back(Table::Cell(s.name));
    FMDS_CLIENT_STATS(FMDS_STATS_CELL)
#undef FMDS_STATS_CELL
    table.AddRow(std::move(cells));
  };
  ClientStats totals;
  for (size_t i = 0; i < clients.size(); ++i) {
    totals.Add(clients[i]);
    row(Table::Cell(static_cast<uint64_t>(i)), clients[i]);
  }
  row("(all)", totals);
  table.Print(os, "clients: per-client counters");
}

void Fabric::DumpHealth(std::ostream& os) const {
  Table table({"node", "ops", "bytes_in", "bytes_out", "notif_fired",
               "notif_dropped", "subs", "extra_service_ns", "queue_depth",
               "sheds"});
  uint64_t totals[9] = {};
  for (NodeId i = 0; i < options_.num_nodes; ++i) {
    const MemoryNode& n = *nodes_[i];
    const NodeStats& s = nodes_[i]->stats();
    const uint64_t row[9] = {
        s.ops_serviced.load(std::memory_order_relaxed),
        s.bytes_in.load(std::memory_order_relaxed),
        s.bytes_out.load(std::memory_order_relaxed),
        s.notifications_fired.load(std::memory_order_relaxed),
        s.notifications_dropped.load(std::memory_order_relaxed),
        n.subscription_count(), n.extra_service_ns(), n.queue_depth_ops(),
        s.ops_shed.load(std::memory_order_relaxed)};
    std::vector<std::string> cells{Table::Cell(static_cast<uint64_t>(i))};
    for (size_t c = 0; c < 9; ++c) {
      cells.push_back(Table::Cell(row[c]));
      totals[c] += row[c];
    }
    table.AddRow(std::move(cells));
  }
  std::vector<std::string> total_cells{"(all)"};
  for (size_t c = 0; c < 9; ++c) {
    total_cells.push_back(Table::Cell(totals[c]));
  }
  table.AddRow(std::move(total_cells));
  table.Print(os, "fabric: per-node health");
}

void Fabric::AddGauges(GaugeGroup* group, const std::string& prefix) const {
  for (NodeId i = 0; i < options_.num_nodes; ++i) {
    MemoryNode* n = nodes_[i].get();
    const std::string node_prefix = prefix + ".node" + std::to_string(i);
    group->Add(node_prefix + ".ops", [n] {
      return static_cast<double>(
          n->stats().ops_serviced.load(std::memory_order_relaxed));
    });
    group->Add(node_prefix + ".bytes_in", [n] {
      return static_cast<double>(
          n->stats().bytes_in.load(std::memory_order_relaxed));
    });
    group->Add(node_prefix + ".bytes_out", [n] {
      return static_cast<double>(
          n->stats().bytes_out.load(std::memory_order_relaxed));
    });
    group->Add(node_prefix + ".notifications", [n] {
      return static_cast<double>(
          n->stats().notifications_fired.load(std::memory_order_relaxed));
    });
    group->Add(node_prefix + ".subs", [n] {
      return static_cast<double>(n->subscription_count());
    });
    group->Add(node_prefix + ".extra_service_ns", [n] {
      return static_cast<double>(n->extra_service_ns());
    });
    // Congestion front end (DESIGN.md §14): live queue depth, cumulative
    // sheds, and the shed fraction of offered load. All zero while
    // congestion is disabled.
    group->Add(node_prefix + ".queue_depth", [n] {
      return static_cast<double>(n->queue_depth_ops());
    });
    group->Add(node_prefix + ".sheds", [n] {
      return static_cast<double>(
          n->stats().ops_shed.load(std::memory_order_relaxed));
    });
    group->Add(node_prefix + ".shed_rate", [n] {
      const double shed = static_cast<double>(
          n->stats().ops_shed.load(std::memory_order_relaxed));
      const double serviced = static_cast<double>(
          n->stats().ops_serviced.load(std::memory_order_relaxed));
      return shed + serviced > 0.0 ? shed / (shed + serviced) : 0.0;
    });
  }
}

}  // namespace fmds

#include "src/route/router.h"

#include <algorithm>

#include "src/obs/telemetry.h"

namespace fmds {

namespace {

constexpr DataplaneRoute Other(DataplaneRoute route) {
  return route == DataplaneRoute::kOneSided ? DataplaneRoute::kRpc
                                            : DataplaneRoute::kOneSided;
}

constexpr size_t Idx(DataplaneRoute route) {
  return static_cast<size_t>(route);
}

}  // namespace

DataplaneRouter::DataplaneRouter(FarClient* client,
                                 DataplaneRouterOptions options)
    : client_(client), options_(options) {}

void DataplaneRouter::CountDecision(DataplaneRoute route, bool probe) {
  auto& stats = client_->mutable_stats();
  if (route == DataplaneRoute::kOneSided) {
    one_sided_.fetch_add(1, std::memory_order_relaxed);
    ++stats.route_one_sided;
  } else {
    rpc_.fetch_add(1, std::memory_order_relaxed);
    ++stats.route_rpc;
  }
  if (probe) {
    probes_.fetch_add(1, std::memory_order_relaxed);
    ++stats.route_probes;
  }
}

DataplaneRoute DataplaneRouter::Decide(RoutedOp op, NodeId node, double units,
                                       uint64_t batch) {
  (void)batch;  // priced per key; the normalized estimates carry the rest
  if (options_.force.has_value()) {
    CountDecision(*options_.force, /*probe=*/false);
    return *options_.force;
  }
  CellState& cell = Cell(op, node);
  ++cell.decisions;
  RouteEstimate& os = cell.est[Idx(DataplaneRoute::kOneSided)];
  RouteEstimate& rpc = cell.est[Idx(DataplaneRoute::kRpc)];
  if (os.samples < kMinSamples || rpc.samples < kMinSamples) {
    // Cold start: alternate so both routes earn real estimates before the
    // hysteresis loop starts defending an incumbent.
    const DataplaneRoute choice = os.samples <= rpc.samples
                                      ? DataplaneRoute::kOneSided
                                      : DataplaneRoute::kRpc;
    CountDecision(choice, /*probe=*/false);
    return choice;
  }
  const double os_cost = os.norm_ns * std::max(units, 1.0);
  const double rpc_cost = rpc.norm_ns;
  const DataplaneRoute challenger = Other(cell.preferred);
  const double incumbent_cost =
      cell.preferred == DataplaneRoute::kOneSided ? os_cost : rpc_cost;
  const double challenger_cost =
      cell.preferred == DataplaneRoute::kOneSided ? rpc_cost : os_cost;
  if (challenger_cost * kHysteresis < incumbent_cost) {
    cell.preferred = challenger;
    flips_.fetch_add(1, std::memory_order_relaxed);
    ++client_->mutable_stats().route_flips;
  }
  DataplaneRoute choice = cell.preferred;
  bool probe = false;
  if (options_.probe_period > 0 &&
      cell.decisions % options_.probe_period == 0) {
    // Exploration tick: ride the losing route once so its estimate stays
    // live (a regime change on the loser is otherwise invisible).
    choice = Other(cell.preferred);
    probe = true;
  }
  CountDecision(choice, probe);
  return choice;
}

void DataplaneRouter::Observe(RoutedOp op, NodeId node, DataplaneRoute route,
                              uint64_t latency_ns, double units,
                              uint64_t batch) {
  if (options_.force.has_value()) {
    return;  // static arms keep their estimates frozen
  }
  CellState& cell = Cell(op, node);
  RouteEstimate& est = cell.est[Idx(route)];
  const double keys = static_cast<double>(std::max<uint64_t>(batch, 1));
  double denom = keys;
  if (route == DataplaneRoute::kOneSided) {
    denom *= std::max(units, 1e-9);
  }
  const double norm = static_cast<double>(latency_ns) / denom;
  est.norm_ns = est.samples == 0
                    ? norm
                    : est.norm_ns + kEwmaAlpha * (norm - est.norm_ns);
  ++est.samples;
}

const DataplaneRouter::CellState* DataplaneRouter::CellIfPresent(
    RoutedOp op, NodeId node) const {
  const auto& per_node = states_[static_cast<size_t>(op)];
  const auto it = per_node.find(node);
  return it == per_node.end() ? nullptr : &it->second;
}

double DataplaneRouter::EstimateNs(RoutedOp op, NodeId node,
                                   DataplaneRoute route) const {
  const CellState* cell = CellIfPresent(op, node);
  return cell == nullptr ? 0.0 : cell->est[Idx(route)].norm_ns;
}

DataplaneRoute DataplaneRouter::Preferred(RoutedOp op, NodeId node) const {
  const CellState* cell = CellIfPresent(op, node);
  return cell == nullptr ? DataplaneRoute::kOneSided : cell->preferred;
}

void DataplaneRouter::AddGauges(GaugeGroup* group, const std::string& prefix) {
  group->Add(prefix + ".one_sided",
             [this] { return static_cast<double>(one_sided_decisions()); });
  group->Add(prefix + ".rpc",
             [this] { return static_cast<double>(rpc_decisions()); });
  group->Add(prefix + ".probes",
             [this] { return static_cast<double>(probes()); });
  group->Add(prefix + ".flips",
             [this] { return static_cast<double>(flips()); });
}

}  // namespace fmds

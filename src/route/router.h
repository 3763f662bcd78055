// DataplaneRouter: the adaptive per-op one-sided vs RPC policy (DESIGN.md
// §13). §3.1 frames the choice — k dependent far accesses cost k round
// trips but no server CPU; shipping the op costs one round trip plus
// service time at a possibly-busy processor — and Brock et al. (PAPERS.md)
// show the winner flips with op complexity and server occupancy. Neither
// signal is static (chains grow, occupancy swings), so the router learns
// both routes' costs online, from its own observations and probes, and
// re-decides per operation.
//
// Policy, per (op kind, memory node):
//   - EWMA cost estimates (weight kEwmaAlpha), normalized so decisions
//     extrapolate: the one-sided estimate is ns per key per complexity unit
//     (a chain twice as deep prices twice as high), the RPC estimate is ns
//     per key (the agent walks chains at memory-local cost, so depth barely
//     moves it).
//   - Cold start alternates routes until both have kMinSamples estimates.
//   - Hysteresis: the incumbent route keeps the traffic until the other is
//     better by more than kHysteresis — no flapping at the crossover.
//   - Epsilon probing: every probe_period-th decision rides the losing
//     route so its estimate tracks regime changes the winner cannot see.
#ifndef FMDS_SRC_ROUTE_ROUTER_H_
#define FMDS_SRC_ROUTE_ROUTER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/core/dataplane.h"
#include "src/fabric/far_client.h"

namespace fmds {

class GaugeGroup;

struct DataplaneRouterOptions {
  // Every Nth decision per (op, node) explores the losing route; 0 turns
  // probing off (the losing route's estimate then stays frozen).
  uint32_t probe_period = 64;
  // Static override: every decision returns this route (the bench's
  // one-sided-only / rpc-only arms). Probing and learning are bypassed.
  std::optional<DataplaneRoute> force;
};

class DataplaneRouter : public RouteDecider {
 public:
  // Smoothing weight of the per-route cost EWMAs.
  static constexpr double kEwmaAlpha = 0.2;
  // The non-incumbent route must be better by this factor to take over.
  static constexpr double kHysteresis = 1.15;
  // Observations per route before its estimate is trusted; until then the
  // cold-start alternation feeds both routes.
  static constexpr uint64_t kMinSamples = 3;

  // One router per FarClient (single application thread); `client`
  // receives the route_* ClientStats bumps.
  explicit DataplaneRouter(FarClient* client,
                           DataplaneRouterOptions options = {});

  DataplaneRoute Decide(RoutedOp op, NodeId node, double units,
                        uint64_t batch) override;
  void Observe(RoutedOp op, NodeId node, DataplaneRoute route,
               uint64_t latency_ns, double units, uint64_t batch) override;

  // Decision counters (readable from the telemetry thread).
  uint64_t one_sided_decisions() const {
    return one_sided_.load(std::memory_order_relaxed);
  }
  uint64_t rpc_decisions() const {
    return rpc_.load(std::memory_order_relaxed);
  }
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t flips() const { return flips_.load(std::memory_order_relaxed); }

  // Current normalized cost estimate (ns) for one route of one (op, node)
  // cell; 0 before any observation. Test/bench introspection.
  double EstimateNs(RoutedOp op, NodeId node, DataplaneRoute route) const;
  // The incumbent route for a cell (what Decide returns absent probes).
  DataplaneRoute Preferred(RoutedOp op, NodeId node) const;

  // Registers <prefix>.one_sided / .rpc / .probes / .flips gauges.
  void AddGauges(GaugeGroup* group, const std::string& prefix);

  const DataplaneRouterOptions& options() const { return options_; }

 private:
  struct RouteEstimate {
    double norm_ns = 0.0;  // EWMA, per key (×per unit for one-sided)
    uint64_t samples = 0;
  };
  struct CellState {
    std::array<RouteEstimate, 2> est;  // indexed by DataplaneRoute
    DataplaneRoute preferred = DataplaneRoute::kOneSided;
    uint64_t decisions = 0;
  };

  CellState& Cell(RoutedOp op, NodeId node) {
    return states_[static_cast<size_t>(op)][node];
  }
  const CellState* CellIfPresent(RoutedOp op, NodeId node) const;
  void CountDecision(DataplaneRoute route, bool probe);

  FarClient* client_;
  DataplaneRouterOptions options_;
  // Owner-thread state; the atomics below are the only cross-thread reads.
  std::array<std::unordered_map<NodeId, CellState>, kRoutedOpCount> states_;
  std::atomic<uint64_t> one_sided_{0};
  std::atomic<uint64_t> rpc_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> flips_{0};
};

}  // namespace fmds

#endif  // FMDS_SRC_ROUTE_ROUTER_H_

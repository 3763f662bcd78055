// Per-node congestion model (DESIGN.md §14). The base LatencyModel charges a
// fixed round trip regardless of offered load — fine for a single client, but
// a memory node serving many clients has a finite front end: its controller
// admits ops at a bounded service rate. ServiceQueue models that front end as
// a virtual-time work-conserving FIFO priced per operation (payload bytes
// are the base model's wire term, not front-end work):
//
//   - every admitted op occupies the front end for service_ns (the service
//     *rate*, NOT an added latency: an op arriving at an idle node waits
//     zero extra time, so the fixed-RTT behaviour of the base model is
//     recovered exactly at low load — the drain-to-idle invariant the unit
//     tests pin down);
//   - an op arriving while earlier arrivals still hold the front end waits
//     behind them; that waiting time is the queueing delay the client adds
//     to the modelled round trip, and it grows without bound as offered
//     load crosses the service rate (the nonlinear tail the overload
//     scenarios measure);
//   - at most queue_ops operations may be waiting; an arrival beyond that
//     is shed. The bounce itself costs the front end reject_ns (declining
//     work is not free), which is why a client-side admission controller
//     that avoids sending doomed ops yields strictly more goodput than a
//     retry storm.
//
// Time base: clients carry private SimClocks, so "now" differs per caller.
// The queue keeps its own virtual clock — the max arrival time it has seen —
// and services work in that frame. Clocks of concurrently running closed-loop
// clients advance at similar rates, so the max is a faithful fabric-side
// notion of "the present".
#ifndef FMDS_SRC_SIM_CONGESTION_H_
#define FMDS_SRC_SIM_CONGESTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>

namespace fmds {

struct CongestionOptions {
  // Master switch. Off (the default) bypasses the queue entirely: no lock,
  // no state, bit-identical latencies to the pre-congestion fabric.
  bool enabled = false;
  // Front-end occupancy per admitted operation: the node's peak service
  // rate is 1e9 / service_ns ops per second.
  uint64_t service_ns = 300;
  // Hard bound on operations waiting for service; arrivals beyond it are
  // shed with kOverloaded.
  uint64_t queue_ops = 256;
  // Front-end time consumed by bouncing one shed operation.
  uint64_t reject_ns = 150;
};

// Outcome of offering work to a node's congestion front end.
struct AdmissionOutcome {
  bool admitted = false;
  // Queueing delay: how long the work waited behind earlier arrivals
  // before its service began. Zero at an idle node.
  uint64_t queue_ns = 0;
};

class ServiceQueue {
 public:
  explicit ServiceQueue(const CongestionOptions& options);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Reconfigure at runtime (scenario phase changes: slowdown, recovery).
  // Existing backlog is preserved; new work is priced with the new rates.
  void SetOptions(const CongestionOptions& options);
  CongestionOptions GetOptions() const;

  // Offers `ops` operations arriving at `now_ns` (the caller's simulated
  // clock). All-or-nothing for the batch.
  AdmissionOutcome Offer(uint64_t now_ns, uint64_t ops);

  // Operations still waiting for service at the queue's virtual present.
  // Telemetry-thread safe; a disabled queue reports 0.
  uint64_t DepthOps() const;
  // Pending work in ns at the virtual present (the backlog a new arrival
  // would wait behind).
  uint64_t BacklogNs() const;
  // Operations shed since construction.
  uint64_t Sheds() const { return sheds_.load(std::memory_order_relaxed); }

 private:
  // Drops completed work up to virtual time `now_v` (mu_ held).
  void DrainLocked(uint64_t now_v);

  mutable std::mutex mu_;
  CongestionOptions options_;       // guarded by mu_
  std::atomic<bool> enabled_{false};
  uint64_t virtual_now_ = 0;        // max arrival time observed
  uint64_t busy_until_ = 0;         // front end free again at this time
  std::deque<uint64_t> in_service_; // per-op completion times (FIFO)
  std::atomic<uint64_t> sheds_{0};
};

}  // namespace fmds

#endif  // FMDS_SRC_SIM_CONGESTION_H_

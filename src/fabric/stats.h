// Operation accounting. §3.1: "the key performance metric for far memory
// data structures is far memory accesses" — these counters are the
// experiment's ground truth, independent of wall-clock noise.
#ifndef FMDS_SRC_FABRIC_STATS_H_
#define FMDS_SRC_FABRIC_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace fmds {

// Every per-client counter, declared once; ClientStats' fields, Delta, Add
// and ToString (`name=value` per field) are all generated from this list.
//   far_ops .. background_ops: one-sided round trips issued, fabric
//     messages (segments, forward hops), payload bytes moved far -> client
//     and client -> far, local (client cache) accesses accounted, two-sided
//     calls (baselines), notification events consumed, data-structure
//     slow-path entries, far ops posted off the critical path.
//   batches .. overlapped_rtts_saved: the async pipeline (doorbell
//     batching). far_ops counts round-trip latencies the client serially
//     waited for, so a flushed batch of k independent ops bumps far_ops
//     once and these record the pipelining: WaitAll() doorbells issued, ops
//     carried inside them, round trips overlapped vs the sync path.
//   fanout_batches, cross_node_rtts_saved: cross-node fan-out (§7
//     scale-out). A flushed batch whose ops span several memory nodes
//     issues the per-node sub-batches concurrently and waits for the
//     slowest node, not the sum: flushes that spanned > 1 node, and node
//     doorbells overlapped vs one-node-at-a-time issue (G-1 each).
//   cache_*: NearCache (src/cache/). A hit replaces a far round trip with
//     a near access; an invalidation is a notification-driven entry kill.
//   txn_*: optimistic multi-key transactions (src/core/txn.*): commit and
//     abort outcomes, and why a commit attempt died (read-set word changed
//     under the txn / write-set bucket CAS mispredicted). abort rate =
//     txn_aborts / (txn_commits + txn_aborts).
//   writes_combined, flush_stages, bg_evictions: write-behind dataplane
//     (src/core/write_behind.*). The app thread enqueues; the flusher's
//     steps publish on their own client. Pending writes absorbed by a newer write to the same key
//     before any doorbell (app client); pipeline stage executions by the
//     flusher (coalesce / publish / refill passes, flusher client); cache
//     entries reclaimed off the hot path by a background evictor (evictor
//     client).
//   route_*: adaptive dataplane routing (src/route/), per-op decisions
//     between the one-sided fabric path and shipping the op to the node's
//     near-memory RPC agent. Probes are decisions deliberately sent down
//     the currently non-preferred path to keep its estimate fresh; flips
//     count changes of the preferred path (a crossover crossing that beat
//     the hysteresis band).
//   overload_*: congestion control (DESIGN.md §14). Sheds counts
//     kOverloaded bounces this client observed (each one a completed,
//     failed round trip); retries counts backoff re-offers the retry
//     policy took; failures counts operations that surfaced kOverloaded to
//     the caller after the policy gave up.
#define FMDS_CLIENT_STATS(X) \
  X(far_ops)                 \
  X(messages)                \
  X(bytes_read)              \
  X(bytes_written)           \
  X(near_ops)                \
  X(rpc_calls)               \
  X(notifications)           \
  X(slow_path_ops)           \
  X(background_ops)          \
  X(batches)                 \
  X(batched_ops)             \
  X(overlapped_rtts_saved)   \
  X(fanout_batches)          \
  X(cross_node_rtts_saved)   \
  X(cache_hits)              \
  X(cache_misses)            \
  X(cache_invalidations)     \
  X(txn_commits)             \
  X(txn_aborts)              \
  X(txn_validate_fails)      \
  X(txn_prepare_fails)       \
  X(writes_combined)         \
  X(flush_stages)            \
  X(bg_evictions)            \
  X(route_one_sided)         \
  X(route_rpc)               \
  X(route_probes)            \
  X(route_flips)             \
  X(overload_sheds)          \
  X(overload_retries)        \
  X(overload_failures)

// Per-client counters. A FarClient is owned by one application thread, so
// these are plain integers (no synchronization cost on the hot path).
struct ClientStats {
#define FMDS_STATS_FIELD(name) uint64_t name = 0;
  FMDS_CLIENT_STATS(FMDS_STATS_FIELD)
#undef FMDS_STATS_FIELD

  ClientStats Delta(const ClientStats& earlier) const {
    ClientStats d;
#define FMDS_STATS_DELTA(name) d.name = name - earlier.name;
    FMDS_CLIENT_STATS(FMDS_STATS_DELTA)
#undef FMDS_STATS_DELTA
    return d;
  }

  void Add(const ClientStats& other) {
#define FMDS_STATS_ADD(name) name += other.name;
    FMDS_CLIENT_STATS(FMDS_STATS_ADD)
#undef FMDS_STATS_ADD
  }

  std::string ToString() const;
};

// Per-memory-node counters; shared across clients, hence atomics.
struct NodeStats {
  std::atomic<uint64_t> ops_serviced{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> indirections{0};        // memory-side derefs executed
  std::atomic<uint64_t> forwards{0};            // cross-node forwarded derefs
  std::atomic<uint64_t> notifications_fired{0};
  std::atomic<uint64_t> notifications_dropped{0};
  std::atomic<uint64_t> notifications_coalesced{0};
  // Operations bounced by the congestion front end (DESIGN.md §14).
  std::atomic<uint64_t> ops_shed{0};
};

}  // namespace fmds

#endif  // FMDS_SRC_FABRIC_STATS_H_

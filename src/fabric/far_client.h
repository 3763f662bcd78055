// FarClient: the client-side fabric interface (one per application thread).
//
// Exposes the base one-sided verbs (read/write/CAS/fetch-add, as RDMA and
// Gen-Z already provide) and every extension of the paper's Figure 1:
// indirect addressing (load0..2 / store0..2 / faai / saai / add0..2),
// scatter-gather (rscatter / rgather / wscatter / wgather), and
// notifications (notify0 / notifye / notify0d).
//
// Accounting: each operation advances the client's private SimClock by the
// modelled latency and bumps ClientStats — far_ops counts client round
// trips, messages counts node visits (segments + forward hops). §3.1 makes
// far accesses the metric; these counters are what the benchmarks report.
//
// Deviation from Figure 1, documented in DESIGN.md §1: faai/saai return the
// *old pointer value* in addition to their effect. The memory node reads the
// pointer word anyway, so this costs no extra access, and the far-memory
// queue needs it to detect slack-region entry without additional round trips.
#ifndef FMDS_SRC_FABRIC_FAR_CLIENT_H_
#define FMDS_SRC_FABRIC_FAR_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_map.h"
#include "src/common/status.h"
#include "src/fabric/fabric.h"
#include "src/fabric/notification.h"
#include "src/fabric/stats.h"
#include "src/obs/recorder.h"
#include "src/sim/sim_clock.h"

namespace fmds {

// A far-memory buffer descriptor for gather/scatter lists.
struct FarSeg {
  FarAddr addr;
  uint64_t len;
};

// Retry policy for kOverloaded bounces from a congested node's service
// queue (DESIGN.md §14). The default (max_attempts = 1) retries nothing:
// every shed surfaces to the caller. With retries enabled, each bounce
// backs the client off for a jittered, exponentially growing interval of
// *simulated* time — which lets the congested node drain — before the op
// is re-offered. The jitter (uniform in [b/2, b) for backoff b)
// decorrelates the retry storms synchronized sheds would otherwise
// produce. A per-op deadline bounds the total simulated time spent.
struct RetryPolicy {
  // Admission attempts per operation, counting the first (1 = no retry).
  uint32_t max_attempts = 1;
  // First backoff; doubles per failed attempt up to backoff_max_ns.
  uint64_t backoff_base_ns = 2'000;
  uint64_t backoff_max_ns = 500'000;
  // Per-op budget in simulated ns, measured from the op's first admission
  // attempt; 0 = unlimited. A backoff that would cross the deadline fails
  // the op immediately (kOverloaded) instead of sleeping past it.
  uint64_t deadline_ns = 0;
};

// What a client fixes at construction. Its two policies have one setter
// each: set_retry_policy (default: no retry) and EnableObs (default: the
// flight recorder fully off, so the accounting hot path stays a branch +
// counter increments).
struct ClientOptions {
  size_t channel_capacity = 4096;
  // Near-memory agent mode (§3.1): this client's compute sits next to
  // `home_node`'s memory — the shape of the RPC dataplane's per-node agents
  // (src/route/). Round trips serviced by the home node are charged
  // LocalAgentLatency() (memory-controller access) instead of fabric RTTs;
  // accesses to every other node still pay the full fabric model, and a
  // node's injected extra_service_ns applies on both (it models the
  // memory/controller side, which an on-node agent crosses too).
  std::optional<NodeId> home_node;
};

class FarClient {
 public:
  FarClient(Fabric* fabric, uint64_t client_id, ClientOptions options = {});
  FarClient(const FarClient&) = delete;
  FarClient& operator=(const FarClient&) = delete;

  uint64_t id() const { return client_id_; }
  Fabric* fabric() { return fabric_; }

  // ------------------------- Base verbs (§2) -------------------------
  Status Read(FarAddr addr, std::span<std::byte> out);
  Status Write(FarAddr addr, std::span<const std::byte> data);
  Result<uint64_t> ReadWord(FarAddr addr);
  Status WriteWord(FarAddr addr, uint64_t value);
  // Returns the value observed before the operation.
  Result<uint64_t> CompareSwap(FarAddr addr, uint64_t expected,
                               uint64_t desired);
  Result<uint64_t> FetchAdd(FarAddr addr, uint64_t delta);

  // ------------------ Indirect addressing (§4.1, Fig. 1) ------------------
  // load0: tmp = *ad; read `out.size()` bytes at tmp. Returns tmp.
  Result<FarAddr> Load0(FarAddr ad, std::span<std::byte> out);
  // load1: tmp = *(ad + i); read at tmp.
  Result<FarAddr> Load1(FarAddr ad, uint64_t i, std::span<std::byte> out);
  // load2: tmp = *ad + i; read at tmp.
  Result<FarAddr> Load2(FarAddr ad, uint64_t i, std::span<std::byte> out);
  // store0: tmp = *ad; write value at tmp. Returns tmp.
  Result<FarAddr> Store0(FarAddr ad, std::span<const std::byte> value);
  // store1: tmp = *(ad + i); write at tmp.
  Result<FarAddr> Store1(FarAddr ad, uint64_t i,
                         std::span<const std::byte> value);
  // store2: tmp = *ad + i; write at tmp.
  Result<FarAddr> Store2(FarAddr ad, uint64_t i,
                         std::span<const std::byte> value);
  // faai: old = *ad; *ad += delta; read out.size() bytes at old. Returns old.
  Result<FarAddr> Faai(FarAddr ad, int64_t delta, std::span<std::byte> out);
  // saai: old = *ad; *ad += delta; write value at old. Returns old.
  Result<FarAddr> Saai(FarAddr ad, int64_t delta,
                       std::span<const std::byte> value);
  // add0: tmp = *ad; word at tmp += v.
  Status Add0(FarAddr ad, uint64_t v);
  // add1: tmp = *(ad + i); word at tmp += v.
  Status Add1(FarAddr ad, uint64_t v, uint64_t i);
  // add2: tmp = *ad + i; word at tmp += v.
  Status Add2(FarAddr ad, uint64_t v, uint64_t i);

  // --------------------- Scatter-gather (§4.2, Fig. 1) ---------------------
  // rscatter: read far range [ad, ad + sum(iov)) into local iovec buffers.
  Status RScatter(FarAddr ad, std::span<const LocalBuf> iov);
  // rgather: read far iovec into the contiguous local range `out`.
  Status RGather(std::span<const FarSeg> iov, std::span<std::byte> out);
  // wscatter: write far iovec from the contiguous local range `src`.
  Status WScatter(std::span<const FarSeg> iov, std::span<const std::byte> src);
  // wgather: write far range [ad, ad + sum(iov)) from local iovec buffers.
  Status WGather(FarAddr ad, std::span<const ConstLocalBuf> iov);

  // Batched compare-and-swap: N independent word CASes issued in one
  // doorbell (one client round trip, N fabric messages). Each CAS is
  // individually atomic; there is NO atomicity across entries. This is the
  // scatter-gather idea (§4.2) applied to atomics — and standard RDMA
  // doorbell batching achieves the same pipelining today. `observed`
  // receives each word's pre-CAS value (== expected on success).
  struct CasTarget {
    FarAddr addr;
    uint64_t expected;
    uint64_t desired;
  };
  Status CasBatch(std::span<const CasTarget> targets,
                  std::span<uint64_t> observed);

  // ------------------ Async batched pipeline (§3.1, §4.2) ------------------
  // The paper's round-trip argument cuts both ways: dependent accesses cost
  // one RTT each, but *independent* accesses can be overlapped. Post*
  // enqueues an operation into the client's issue queue without touching the
  // fabric; WaitAll() is the doorbell that submits the whole batch. The
  // latency model charges a batch of k independent ops to the same memory
  // node one base round trip plus per-op wire/occupancy cost (not k RTTs);
  // ops bound for different nodes overlap, so the client waits for the
  // slowest node group. Each Post* returns its op's index in the coming
  // doorbell: op i's completion lands in the caller's slot i and carries a
  // per-op Status plus the word result (read value / pre-op value /
  // indirect pointer).
  //
  // Lifetime: read output spans must stay valid until the batch runs; write
  // payloads are copied at Post time. A FarClient is owned by one
  // application thread, so the issue queue needs no locking.
  struct Completion {
    Status status;
    // ReadWord value, CAS/fetch-add pre-op value, or indirect pointer.
    uint64_t word = 0;
  };
  // An index that names no posted op; as a CAS guard, no guard.
  static constexpr size_t kNoOp = SIZE_MAX;

  size_t PostRead(FarAddr addr, std::span<std::byte> out);
  size_t PostWrite(FarAddr addr, std::span<const std::byte> data);
  size_t PostReadWord(FarAddr addr);
  size_t PostWriteWord(FarAddr addr, uint64_t value);
  // With `guard` set to the index of an op posted earlier in the same
  // batch, the CAS runs only if every op from `guard` up to it succeeded;
  // otherwise it completes with that failure and no memory effect. A CAS
  // that links items written in the same doorbell must never publish a
  // slot whose write failed.
  size_t PostCompareSwap(FarAddr addr, uint64_t expected, uint64_t desired,
                         size_t guard = kNoOp);
  size_t PostFetchAdd(FarAddr addr, uint64_t delta);
  // Indirect read (Fig. 1 load0): tmp = *ad, read out.size() bytes at tmp.
  size_t PostLoad0(FarAddr ad, std::span<std::byte> out);
  // Scatter-gather read of a far iovec into the contiguous `out`.
  size_t PostRGather(std::vector<FarSeg> iov, std::span<std::byte> out);

  size_t pending_ops() const { return issued_; }

  // The doorbell: submits every posted op in post order, writing op i's
  // completion to done[i], which must hold exactly pending_ops() slots.
  // Advances the clock by the modelled batch latency, then by one round
  // trip per dependent kError access, then by one near access for the
  // completion check (charged even with nothing posted). Returns the
  // status of the first op that failed, OK when none did.
  Status WaitAll(std::span<Completion> done);
  // The serial alternative to a doorbell: executes every posted op as the
  // sync verb it stands for (one round trip each, same accounting, same
  // CAS guard rule), in post order, writing op i's completion to done[i].
  // `done` must hold exactly pending_ops() slots. Charges no completion
  // check: the caller waited on each verb.
  void ExecuteSerially(std::span<Completion> done);

  // ----------------------- Notifications (§4.3) -----------------------
  // Registers a subscription whose events DispatchNotifications() routes to
  // `sink` (1-RTT registration; a null sink is kInvalidArgument), which
  // must outlive the subscription: a structure holds its sink in an
  // OwnedSink (below), a NotificationInbox if it consumes events in order.
  // Read-and-arm: if `snapshot` is non-null it receives the watched range's
  // first word, read atomically with the registration on the memory node.
  // A caller that validated data *before* subscribing compares the snapshot
  // against the word it read: a mismatch means a write raced the
  // registration window and the data must not be trusted.
  Result<SubId> Subscribe(const NotifySpec& spec, NotificationSink* sink,
                          uint64_t* snapshot = nullptr);
  Status Unsubscribe(SubId id);
  // Unsubscribes every subscription delivering to `sink`, in subscription
  // order (one round trip each).
  void UnsubscribeSink(NotificationSink* sink);
  // Node-side unsubscribe by explicit watch address: pays the 1-RTT
  // teardown on the node owning `watch_addr` without consulting this
  // client's subscription maps. Built for background cache evictors: the
  // owner forgets the id (ForgetSubscription), and the evictor's own
  // client tears down that subscription, which a *different* client
  // registered.
  Status UnsubscribeAt(FarAddr watch_addr, SubId id);
  // Owner-side bookkeeping drop for a subscription whose node-side half is
  // left to an UnsubscribeAt (typically another client's). No round trip.
  // Events for the id that arrive until then find no sink and are dropped.
  void ForgetSubscription(SubId id);
  // Counters only: DispatchNotifications() is the channel's one reader.
  const NotificationChannel& channel() const { return channel_; }
  // Yields (real time, for threaded waits such as FarMutex's notify lock)
  // until the channel holds an event or ~timeout_ms elapses, then charges
  // one notify_delay_ns and dispatches. OkStatus() or kUnavailable.
  Status WaitNotification(uint64_t timeout_ms = 2000);
  // Drains the channel and routes each event to the sink registered for its
  // subscription; an event whose subscription has no sink (unsubscribed or
  // retired) is dropped. Loss warnings (which carry no sub_id) fan out to
  // every distinct sink. Returns the number of events routed. Accounting:
  // checking an empty channel is free (the local queue head is near state
  // the client touches anyway); a non-empty drain charges one near access,
  // and each event delivered to a sink bumps the notification stat once and
  // records one kNotification op. Loss warnings are not counted.
  size_t DispatchNotifications();

  // -------------------------- Accounting hooks --------------------------
  // Data-structure code calls this when it touches its *local* cache, so the
  // near/far cost split in the experiments is explicit.
  void AccountNear(uint64_t accesses = 1);
  // Far write issued off the critical path (e.g. queue slot re-initialization
  // §5.3): counted as traffic, does not advance the client clock.
  Status PostWriteBackground(FarAddr addr, std::span<const std::byte> data);
  Status PostWriteWordBackground(FarAddr addr, uint64_t value);
  // Background compare-and-swap (e.g. clearing a consumed queue slot only
  // while it still holds the consumed value, §5.3).
  Status CompareSwapBackground(FarAddr addr, uint64_t expected,
                               uint64_t desired);
  // Far read issued off the critical path (e.g. queue occupancy estimate
  // refresh, §5.3): counted as traffic, does not advance the client clock.
  Result<uint64_t> ReadWordBackground(FarAddr addr);

  // ---------------------- Congestion admission (§14) ----------------------
  // Offers `ops` operations to `node`'s congestion front end, running the
  // client's RetryPolicy on sheds (each bounce is a completed, failed round
  // trip; each retry advances the clock by the jittered backoff). Returns
  // the queueing delay to fold into the round trip, or kOverloaded once the
  // policy gives up. No-op (returns 0) for
  // kObsNoNode, for the agent's own home node (an on-node agent crosses the
  // memory controller, not the NIC front end), and while congestion is off.
  // Sync verbs, doorbell ops and RpcClient::Call all come through here —
  // admission happens BEFORE memory effects everywhere.
  Result<uint64_t> AdmitCongestion(FarOpKind kind, NodeId node, FarAddr addr,
                                   uint64_t ops);
  // What to do when a congested node sheds this client's op; see
  // RetryPolicy. Ignored while the fabric's congestion model is off.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  SimClock& clock() { return clock_; }
  const ClientStats& stats() const { return stats_; }
  ClientStats& mutable_stats() { return stats_; }

  // ------------------------- Flight recorder -------------------------
  // Per-client observability: op-kind/label latency histograms, node
  // traffic row, bounded trace ring (see src/obs/). ScopedOpLabel and the
  // benches go through these; recording is a no-op until enabled.
  OpRecorder& recorder() { return obs_; }
  const OpRecorder& recorder() const { return obs_; }
  void EnableObs(const ObsOptions& options) { obs_.set_options(options); }

 private:
  // Direction of a range, gather or indirect access.
  enum class Access : uint8_t { kRead, kWrite, kAdd };
  // Pointer-selection variants of Fig. 1:
  //   kPlain:      tmp = *ad
  //   kIndexedPtr: tmp = *(ad + i)       (load1/store1/add1)
  //   kIndexedTgt: tmp = *ad + i         (load2/store2/add2)
  enum class IndexMode : uint8_t { kPlain, kIndexedPtr, kIndexedTgt };

  // One far op as the executor runs it: built on the stack by a sync verb,
  // kept in its issue-queue slot by a posted one. The spans point at the
  // caller's buffers or at the slot's own copies, so a sync write copies no
  // payload.
  struct FarOp {
    // kRead/kWrite (byte range), the four word kinds, kIndirect (Fig. 1
    // load/store/add/faai/saai) or kScatterGather (rgather/wscatter).
    FarOpKind kind = FarOpKind::kRead;
    Access access = Access::kRead;       // ranges, gathers, indirections
    IndexMode mode = IndexMode::kPlain;  // indirections
    bool dependent = false;  // the second round trip of a kError bounce
    FarAddr addr = kNullFarAddr;
    uint64_t value = 0;    // word written, CAS expected, fetch-add/add delta
    uint64_t desired = 0;  // CAS desired
    uint64_t index = 0;    // load1/2, store1/2, add1/2
    std::optional<int64_t> bump = {};  // faai/saai: pointer word += *bump
    std::span<std::byte> out = {};       // read destination
    std::span<const std::byte> in = {};  // write source
    std::span<const FarSeg> iov = {};    // gather/scatter far list
  };

  // How an executed op's cost reaches the client (DESIGN.md §5).
  enum class ChargeRule : uint8_t {
    // Sync verbs and ExecuteSerially: each round trip is one
    // AccountRoundTrip.
    kSerial,
    // WaitAll: each op joins its memory-node group, and the doorbell waits
    // for the slowest group.
    kDoorbell,
    // Off the critical path: no admission; traffic counts, the clock stays.
    kBackground,
  };

  // What one round trip cost, as the executor reports it to a charge rule.
  struct RoundTripCost {
    FarOpKind kind = FarOpKind::kRead;
    NodeId node = kObsNoNode;  // primary node serviced; none for empty ops
    FarAddr addr = kNullFarAddr;
    uint64_t bytes = 0;     // payload moved
    uint64_t messages = 0;  // node visits (segments + forward hops)
    uint64_t hops = 0;      // forward hops between memory nodes
    uint64_t queue_ns = 0;  // congestion queueing delay
    bool ok = true;
    bool dependent = false;
    // A range op's per-node pieces, for the doorbell's node groups; empty
    // when the whole cost lands on `node`.
    std::span<const Fabric::Segment> pieces = {};
  };

  // The executor, the one body of every data verb (all but CasBatch and
  // the notification verbs): checks `op`'s arguments, offers it to
  // congestion admission, applies its memory-node effect and charges each
  // of its round trips by `rule`. On success `word` (if set) receives the
  // read value, pre-op value or indirect pointer. `cost` (if set) receives
  // the report of the op's first round trip; an op that fails before its
  // round trip leaves only its kind and address there.
  Status Execute(const FarOp& op, ChargeRule rule, uint64_t* word = nullptr,
                 RoundTripCost* cost = nullptr);
  // Execute, keeping only the op's word.
  Result<uint64_t> Run(const FarOp& op,
                       ChargeRule rule = ChargeRule::kSerial);
  // Applies `op`'s access to every segment in segs_, in order: reads fill
  // op.out, writes drain op.in, adds bump each word by op.value.
  void Apply(const FarOp& op);
  // Admission under `rule`: AdmitCongestion (serial and doorbell alike) or
  // none (background).
  Result<uint64_t> Admit(ChargeRule rule, FarOpKind kind, NodeId node,
                         FarAddr addr, uint64_t ops);
  void Charge(ChargeRule rule, const RoundTripCost& cost);
  // Charges the doorbell of `batch_size` ops RunIssued just executed: the
  // wait for its slowest node group, its stats and its recorder span, then
  // its dependent accesses.
  void ChargeDoorbell(size_t batch_size);
  // Runs the issued ops in post order under `rule`, op i completing into
  // done[i] (exactly pending_ops() slots), then empties the issue queue. A
  // CAS whose guard range saw a failure completes with that failure and no
  // memory effect.
  void RunIssued(ChargeRule rule, std::span<Completion> done);

  // Charges one client round trip: bumps ClientStats, advances the clock
  // by the modelled latency plus any congestion queueing delay, and (when
  // enabled) feeds the flight recorder with the op kind, the primary
  // memory node serviced (kObsNoNode when none applies), and the far
  // address touched.
  void AccountRoundTrip(FarOpKind kind, NodeId node, FarAddr addr,
                        uint64_t payload_bytes, uint64_t messages,
                        uint64_t extra_hops, bool ok = true,
                        uint64_t queue_ns = 0);

  // ---- Async pipeline internals ----
  // A posted op: its descriptor plus the buffers the slot owns for it.
  struct PendingOp {
    size_t guard = kNoOp;  // CAS: first op whose failure cancels it
    FarOp op;        // op.in / op.iov point into the vectors below
    std::vector<std::byte> payload;  // write data (copied at Post time)
    std::vector<FarSeg> iov;         // rgather source list
  };

  // Per-node accumulator for one doorbell: cost_n = far_base + wire_ns +
  // (contribs-1)*batch_op_ns + hops*node_hop_ns; the clock advances by the
  // max over nodes.
  struct BatchGroup {
    uint64_t contribs = 0;
    double wire_ns = 0.0;
    uint64_t hops = 0;
    // Max congestion queueing delay over the group's admitted ops: the
    // sub-batch completes when its most-delayed op does.
    uint64_t queue_ns = 0;
  };

  // The doorbell WaitAll is submitting: what the kDoorbell rule charged.
  struct Doorbell {
    std::vector<BatchGroup> groups;  // indexed by node
    uint64_t messages = 0;
    uint64_t rtts = 0;  // round trips the serial rule would have charged
    // Per-op reports for the flight recorder (only while recording).
    std::vector<RoundTripCost> obs;
    // Dependent accesses (kError bounces): serial round trips that start
    // when the doorbell's reply arrives.
    std::vector<RoundTripCost> deferred;
  };

  // Appends `op` in a slot of the issue queue, reusing one an earlier batch
  // left (and its buffers' capacity); returns the slot's index.
  size_t Post(const FarOp& op);

  // Latency model for round trips serviced by `node` — the local model when
  // this client is a near-memory agent on that node, the fabric model
  // otherwise (kObsNoNode always resolves to the fabric model).
  const LatencyModel& ModelFor(NodeId node) const {
    return (home_node_.has_value() && node == *home_node_) ? local_latency_
                                                           : latency_;
  }

  // `node` when an op to it queues at its congestion front end; nullptr
  // for kObsNoNode, for the agent's own home node and while congestion is
  // off (admission is then free).
  MemoryNode* FrontEnd(NodeId node) const;
  // Deterministic per-client jitter source (xorshift).
  uint64_t NextJitter();

  Fabric* fabric_;
  uint64_t client_id_;
  LatencyModel latency_;
  RetryPolicy retry_;
  uint64_t jitter_state_;
  std::optional<NodeId> home_node_;
  LatencyModel local_latency_ = LocalAgentLatency();
  SimClock clock_;
  ClientStats stats_;
  OpRecorder obs_;
  NotificationChannel channel_;
  // This client's live subscriptions: the node holding each one and the
  // sink its events are dispatched to.
  struct Registration {
    NodeId node = 0;
    NotificationSink* sink = nullptr;
  };
  FlatMap<Registration> subs_;  // SubId -> registration

  // Segments of the op being executed (reused across ops).
  std::vector<Fabric::Segment> segs_;
  // Slots of posted ops: the first issued_ are this batch, in post order;
  // the rest are spares kept from larger batches.
  std::vector<PendingOp> issue_queue_;
  size_t issued_ = 0;
  Doorbell doorbell_;
};

// Owning pointer to a structure's sink. Destroying or replacing it first
// unsubscribes every subscription that delivers to the sink, so a
// structure that dies before its client leaves no freed sink registered.
// The client must outlive it. Heap-held, so moves keep the sink's address.
struct SinkUnsubscriber {
  FarClient* client = nullptr;
  void operator()(NotificationSink* sink) const {
    client->UnsubscribeSink(sink);
    delete sink;
  }
};
template <typename Sink>
using OwnedSink = std::unique_ptr<Sink, SinkUnsubscriber>;
template <typename Sink, typename... Args>
OwnedSink<Sink> MakeOwnedSink(FarClient* client, Args&&... args) {
  return OwnedSink<Sink>(new Sink(std::forward<Args>(args)...),
                         SinkUnsubscriber{client});
}

}  // namespace fmds

#endif  // FMDS_SRC_FABRIC_FAR_CLIENT_H_

// Rolling (windowed) telemetry primitives over SIMULATED time.
//
// The flight recorder (recorder.h) accumulates since-start histograms that
// are read once at report time — the right shape for experiment tables, the
// wrong shape for *decisions*. The §3.1 crossover and the §7.1 migration
// trade-offs are decided by current conditions: recent tail latency, recent
// per-node load. These primitives answer from the last W nanoseconds of
// simulated time instead of since boot:
//
//   WindowedHistogram  ring of N sub-window LogHistograms rotated by epoch
//                      (epoch = now / slot_ns). Rotation is O(1) amortized:
//                      a slot is cleared lazily the first time its epoch is
//                      re-entered; reads merge the live slots (MergeFrom).
//   WindowedRate       the same ring over plain counters — rolling ops/sec
//                      and bytes/sec without histogram weight.
//   Ewma               irregular-interval exponentially weighted moving
//                      average (alpha = 1 - exp(-dt/tau)) — the smoothed
//                      per-node load gauge.
//   WindowedSignals    the recorder-side bundle: per-op-kind windowed
//                      histograms, per-node rates + load EWMAs, and windowed
//                      txn outcome rates, fed through run-length
//                      accumulators so the record hot path is a packed-key
//                      compare + two counter increments on always-hot lines
//                      (the <5% always-on budget, E15).
//
// Time base: the owning client's SimClock. Simulated time only advances
// when the client executes operations, so windows never decay while a
// client idles — "the last W ms" means the last W ms of *work*.
//
// Threading: none of these is synchronized. A WindowedSignals belongs to
// its client's thread, which records into it and reads it (directly, or
// through the gauges its owner samples).
#ifndef FMDS_SRC_OBS_WINDOWED_H_
#define FMDS_SRC_OBS_WINDOWED_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/fabric/far_addr.h"
#include "src/obs/op_kind.h"
#include "src/obs/trace_ring.h"

namespace fmds {

// Ring of `slots` sub-window LogHistograms covering the last
// slots * slot_ns nanoseconds.
class WindowedHistogram {
 public:
  // `window_ns` is the full rolling window W; it is split into `slots`
  // equal sub-windows (the rotation grain — recency is resolved to
  // W / slots). The sub-window span is rounded UP to a power of two so the
  // per-record epoch computation is a shift, not a division — the effective
  // window is therefore slots * bit_ceil(ceil(window_ns / slots)) >= W.
  WindowedHistogram(uint64_t window_ns, size_t slots, int sub_bits);

  void Record(uint64_t now_ns, uint64_t value);

  // Lazily clears and claims the sub-window for `epoch`, returning its
  // histogram. Batch recorders (WindowedSignals::Drain) resolve the
  // slot once per same-epoch batch and Record into it directly.
  LogHistogram& ClaimSlot(uint64_t epoch);

  // Merge of every sub-window still inside [now - W, now]. A sub-window
  // whose epoch fell out of the range no longer contributes — this is what
  // makes the signals *recent* instead of since-start.
  LogHistogram MergedRecent(uint64_t now_ns) const;
  // Same merge, folded into an existing accumulator (cross-kind roll-ups).
  void MergeRecentInto(uint64_t now_ns, LogHistogram* out) const;

  uint64_t RecentCount(uint64_t now_ns) const;
  uint64_t RecentPercentile(uint64_t now_ns, double q) const;
  // RecentCount over the window span, in events per simulated second. Uses
  // the full window span, so a cold (partially filled) window reads low.
  double RecentRatePerSec(uint64_t now_ns) const;

  uint64_t window_ns() const { return slot_ns_ * ring_.size(); }
  uint64_t slot_ns() const { return slot_ns_; }
  // log2(slot_ns): epoch = now_ns >> slot_shift().
  int slot_shift() const { return slot_shift_; }

 private:
  struct Slot {
    uint64_t epoch = kNoEpoch;
    LogHistogram hist;
  };
  static constexpr uint64_t kNoEpoch = UINT64_MAX;

  uint64_t EpochOf(uint64_t now_ns) const { return now_ns >> slot_shift_; }
  bool SlotLive(const Slot& slot, uint64_t epoch_now) const {
    return slot.epoch != kNoEpoch && slot.epoch + ring_.size() > epoch_now &&
           slot.epoch <= epoch_now;
  }

  uint64_t slot_ns_;
  int slot_shift_;
  int sub_bits_;
  std::vector<Slot> ring_;
};

// The same epoch ring over plain uint64 counters: rolling event and byte
// rates without per-record histogram cost.
class WindowedRate {
 public:
  WindowedRate(uint64_t window_ns, size_t slots);

  void Add(uint64_t now_ns, uint64_t n);
  // Pre-resolved-epoch variant for batch recorders. The epoch MUST come
  // from the same window geometry (same window_ns / slots rounding).
  void AddAtEpoch(uint64_t epoch, uint64_t n);
  uint64_t RecentCount(uint64_t now_ns) const;
  double RecentRatePerSec(uint64_t now_ns) const;
  uint64_t window_ns() const { return slot_ns_ * counts_.size(); }
  int slot_shift() const { return slot_shift_; }

 private:
  static constexpr uint64_t kNoEpoch = UINT64_MAX;
  uint64_t slot_ns_;
  int slot_shift_;
  std::vector<uint64_t> epochs_;
  std::vector<uint64_t> counts_;
};

// Irregular-interval EWMA: Update decays the running value toward the
// sample with alpha = 1 - exp(-dt / tau), so the smoothing is a property
// of elapsed simulated time, not of the sample rate. The first sample
// initializes the value.
class Ewma {
 public:
  explicit Ewma(uint64_t tau_ns) : tau_ns_(tau_ns == 0 ? 1 : tau_ns) {}

  void Update(uint64_t now_ns, double sample) { UpdateMany(now_ns, sample, 1); }
  // Folds `n` samples with mean `sample` (one drain batch's worth) into a
  // single decay step — one exp() per batch instead of per sample. The
  // smoothing grain becomes the drain cadence; tau still governs how fast
  // the value tracks, in elapsed simulated time.
  void UpdateMany(uint64_t now_ns, double sample, uint64_t n);

  double value() const { return value_; }
  uint64_t count() const { return count_; }
  uint64_t last_update_ns() const { return last_ns_; }

 private:
  uint64_t tau_ns_;
  double value_ = 0.0;
  uint64_t count_ = 0;
  uint64_t last_ns_ = 0;
};

struct WindowedOptions {
  // The rolling window W of simulated time the Recent* signals answer from.
  uint64_t window_ns = 5'000'000;  // 5 ms of simulated work (~5k far ops)
  // Sub-windows per window: recency grain W / slots; rotation clears one
  // sub-window LogHistogram per grain.
  size_t slots = 8;
  // LogHistogram resolution for the sub-windows (coarser than the
  // since-start histograms: windows trade resolution for rotation cost).
  int sub_bits = 3;
  // Time constant of the per-node load EWMAs.
  uint64_t ewma_tau_ns = 1'000'000;
  // Staging-array capacity, in RUNS (maximal same-(latency, kind) record
  // groups): records accumulate in run accumulators and are folded into the
  // window structures when the sub-window epoch advances, when a reader
  // reads, or (rarely) when this array fills with distinct runs.
  size_t staging = 256;
};

// The per-client windowed signal bundle (hung off OpRecorder).
class WindowedSignals {
 public:
  explicit WindowedSignals(const WindowedOptions& options);

  // ---- Write side ----
  // One executed far op. `now_ns` is the op's completion time on the
  // owner's SimClock. Folds the op into run accumulators; the batch moves
  // into the window structures when `now_ns` crosses a sub-window boundary,
  // when a reader reads, or (rarely) when the run array fills.
  // Inline: this runs once per far op in always-on mode (the E15 budget).
  // Two design rules keep the in-situ cost near the microbenchmark number
  // even when the app's working set is hundreds of times the cache:
  //   1. Touch only ALWAYS-HOT lines. Everything written here — the run
  //      header and the few-entry per-node table — is re-touched every
  //      record, so it lives in L1 no matter what the app evicts. (An
  //      earlier version aggregated per-kind summaries into cold per-kind
  //      arrays; those read-modify-writes missed to L2/L3 on every record,
  //      tripling the in-situ cost over the same code in a tight loop.)
  //   2. Collapse before storing. Modelled latencies are deterministic, so
  //      traffic is runs of a few distinct (latency, kind) values — e.g.
  //      probe streams alternate bucket-read / value-read latencies. TWO
  //      pending run slots (current + previous key) absorb exactly that
  //      alternation: each record is a packed-u64 key compare plus a count
  //      increment, and the staging array is only written when a THIRD
  //      distinct key appears within one sub-window.
  void RecordOp(FarOpKind kind, NodeId node, uint64_t bytes, uint64_t now_ns,
                uint64_t latency_ns) {
    const uint64_t epoch = now_ns >> slot_shift_;
    if (epoch != staged_epoch_) {
      if (pend_[0].count != 0) {
        Drain();
      }
      staged_epoch_ = epoch;
    }
    if (now_ns > staged_last_now_) {
      staged_last_now_ = now_ns;
    }
    const uint64_t lat = latency_ns > UINT32_MAX ? UINT32_MAX : latency_ns;
    // The batch span rolls up ops attributed individually, and an op with
    // no memory node (a delivered notification, an empty range) has no row.
    if (kind != FarOpKind::kBatch && node != kObsNoNode) {
      if (node >= node_hot_cap_) {
        GrowNodeHot(node);
      }
      NodeAgg& a = node_hot_data_[node];
      ++a.ops;
      a.bytes += bytes;
      a.latency_sum += lat;
    }
    const uint64_t key = (lat << 8) | static_cast<uint8_t>(kind);
    if (key == pend_[0].key) {
      ++pend_[0].count;
      return;
    }
    if (key == pend_[1].key) {
      ++pend_[1].count;
      return;
    }
    BreakRun(key);
  }
  // One transaction outcome (commit or abort; validate_fail marks aborts
  // whose read set failed validation). Rare relative to ops: folds the
  // staged runs and records directly.
  void RecordTxn(uint64_t now_ns, bool committed, bool validate_fail);

  // ---- Read side ----
  // Every reader first folds the staged runs, so it answers from every op
  // recorded so far. Windows are evaluated at the newest recorded
  // completion time.
  uint64_t RecentPercentile(FarOpKind kind, double q);
  uint64_t RecentP99(FarOpKind kind) { return RecentPercentile(kind, 0.99); }
  // Across ALL op kinds (excluding the kBatch roll-up span).
  uint64_t RecentPercentileAll(double q);
  uint64_t RecentP99All() { return RecentPercentileAll(0.99); }
  uint64_t RecentCount(FarOpKind kind);
  uint64_t RecentCountAll();
  double RecentOpsPerSec(NodeId node);
  double RecentBytesPerSec(NodeId node);
  // Smoothed per-op modelled latency to `node` (ns) — the load proxy an
  // adaptive one-sided/RPC router consumes: a saturated or slowed node
  // shows up here within ~tau of simulated time. 0 for never-touched nodes.
  double NodeLoadEwma(NodeId node);
  // Number of node slots with any recorded traffic (index bound for the
  // per-node getters).
  size_t node_count();
  // Windowed txn outcome rates over commits+aborts in the window (0 when
  // the window holds no outcomes).
  double RecentTxnAbortRate();
  double RecentTxnValidateFailRate();
  uint64_t RecentTxnCommits();
  uint64_t RecentTxnAborts();
  // Newest recorded simulated timestamp.
  uint64_t last_now_ns();

  const WindowedOptions& options() const { return options_; }

 private:
  // A real key is (latency<<8 | kind) with latency clamped to 32 bits
  // (a 4-second modelled op saturates — far beyond anything the fabric
  // models), so it fits 40 bits; UINT64_MAX can never collide with one and
  // marks an empty run slot.
  static constexpr uint64_t kEmptyKey = UINT64_MAX;

  // One run of consecutive (not necessarily adjacent — the two pending
  // slots absorb a 2-way interleave) records sharing a (latency, kind) key
  // within one sub-window epoch.
  struct PendingRun {
    uint64_t key = kEmptyKey;
    uint64_t count = 0;
  };
  // Per-node accumulator (node_hot_, indexed by node id). Updated inline by
  // RecordOp — the table is a few nodes x 24 bytes and touched every
  // record, so it stays L1-resident — and folded into the per-node rings /
  // EWMAs once per drain.
  struct NodeAgg {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    uint64_t latency_sum = 0;
  };

  // Folds the pending runs, the staging array and the per-node table into
  // the window structures.
  void Drain();
  // Third-distinct-key path of RecordOp: evict the older pending run to the
  // staging array (draining first if it is full) and open a run for `key`.
  // Out of line — it runs once per key change, not once per record.
  void BreakRun(uint64_t key);
  // Out-of-line growth path for the per-node table (first record ever seen
  // for a node id).
  void GrowNodeHot(size_t node);
  void EnsureNode(size_t node);

  // Hot header fields, kept adjacent so the RecordOp read-modify-write
  // traffic stays within one or two cache lines.
  int slot_shift_;  // cached from kind_hist_ (all rings share geometry)
  PendingRun pend_[2];  // [0] = current run, [1] = previous (still open) run
  size_t staged_total_ = 0;
  uint64_t staged_epoch_ = UINT64_MAX;
  uint64_t staged_last_now_ = 0;  // newest completion time in the batch
  // Raw pointer/bound of node_hot_, cached so the per-record accumulation
  // avoids the vector's size() recomputation.
  NodeAgg* node_hot_data_ = nullptr;
  size_t node_hot_cap_ = 0;
  // Raw pointer/capacity of staging_, cached for the same reason.
  PendingRun* staging_data_ = nullptr;
  size_t staging_cap_ = 0;
  // Closed runs, appended by BreakRun and folded by Drain. Every staged run
  // shares one sub-window epoch — RecordOp drains BEFORE admitting a record
  // from a new sub-window.
  std::vector<PendingRun> staging_;  // capacity = options_.staging
  // Per-node sums since the last drain (see NodeAgg).
  std::vector<NodeAgg> node_hot_;

  WindowedOptions options_;

  // Per-kind rolling histograms only; the all-kinds view (RecentP99All) is
  // merged from them at read time, so the drain loop appends each record to
  // ONE histogram instead of two.
  std::vector<WindowedHistogram> kind_hist_;  // size kFarOpKindCount
  std::vector<WindowedRate> node_ops_;        // NodeId -> rolling op count
  std::vector<WindowedRate> node_bytes_;      // NodeId -> rolling bytes
  std::vector<Ewma> node_load_;               // NodeId -> latency EWMA
  WindowedRate txn_commits_;
  WindowedRate txn_aborts_;
  WindowedRate txn_vfails_;
  uint64_t last_now_ns_ = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_OBS_WINDOWED_H_

// Per-client flight recorder: latency histograms per op kind and per
// scoped op-label, a per-node traffic row (the client's slice of the
// fleet heatmap), and a bounded TraceRing of executed ops.
//
// Threading: one OpRecorder per FarClient, owned by the client's thread —
// no synchronization, same model as ClientStats. Aggregation across
// clients happens at report time through MetricsRegistry.
//
// Overhead: compiled in always. With ObsOptions disabled (the default),
// every hook is one `enabled()` branch; histograms, label interning and
// the ring are only touched when enabled.
#ifndef FMDS_SRC_OBS_RECORDER_H_
#define FMDS_SRC_OBS_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/op_kind.h"
#include "src/obs/trace_ring.h"
#include "src/obs/windowed.h"

namespace fmds {

class GaugeGroup;

// Runtime gate for the observability layer. Everything defaults OFF so the
// fabric hot path stays a branch + the existing counter increments.
struct ObsOptions {
  bool latency_histograms = false;  // per-kind + per-label LogHistograms
  bool trace = false;               // record ops into the TraceRing
  // Rolling signals (WindowedSignals: p99, ops/s, node load EWMA) over the
  // last windowed_opts.window_ns of simulated time. Independent of the
  // since-start machinery above: windowed-only mode keeps `enabled()` false,
  // so labels, label interning and the trace ring stay untouched — this is
  // the always-on configuration the E15 <5% overhead bound covers.
  bool windowed = false;
  WindowedOptions windowed_opts;

  static ObsOptions All() {
    ObsOptions o;
    o.latency_histograms = true;
    o.trace = true;
    o.windowed = true;
    return o;
  }
  static ObsOptions HistogramsOnly() {
    ObsOptions o;
    o.latency_histograms = true;
    return o;
  }
  // The always-on production shape: rolling signals, nothing since-start.
  static ObsOptions WindowedOnly() {
    ObsOptions o;
    o.windowed = true;
    return o;
  }
};

class OpRecorder {
 public:
  struct Traffic {
    uint64_t ops = 0;
    uint64_t bytes = 0;
  };

  // Per-label NearCache activity (hit/miss attributed to the label of the
  // data-structure op that consulted the cache).
  struct CacheCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
  };

  explicit OpRecorder(uint64_t client_id);

  void set_options(const ObsOptions& options);
  const ObsOptions& options() const { return options_; }
  bool histograms_enabled() const { return options_.latency_histograms; }
  bool trace_enabled() const { return options_.trace; }
  // True when the since-start machinery (labels, histograms, trace) is on.
  // Windowed-only mode leaves this false so ScopedOpLabel and the label
  // tables stay off the hot path.
  bool enabled() const { return enabled_; }
  // True when ANY recording is on — the gate RecordOp callers must use.
  bool recording() const { return enabled_ || windowed_ != nullptr; }
  bool windowed_enabled() const { return windowed_ != nullptr; }
  uint64_t client_id() const { return client_id_; }

  // ---- Scoped op-label stack (see ScopedOpLabel) ----
  // Labels tag fabric traffic with the data-structure code path that issued
  // it ("httree.get", "sharded.multiget", ...). The innermost label wins
  // attribution; nesting is preserved for tests and future path joins.
  void PushLabel(std::string_view label);
  void PopLabel();
  size_t label_depth() const { return label_stack_.size(); }
  std::string_view current_label() const;
  const std::string& label_name(uint32_t id) const { return label_names_[id]; }

  // ---- Recording hooks (called by FarClient / RpcClient) ----
  // One executed far operation: attributed to `kind`, the current label,
  // and `node`'s traffic row; appended to the trace ring. `latency_ns` is
  // the modelled duration charged to the client clock (0 for background
  // ops), `start_ns` the simulated issue time. `batch_id` groups ops
  // flushed in one doorbell (0 = synchronous).
  void RecordOp(FarOpKind kind, NodeId node, FarAddr addr, uint64_t bytes,
                uint64_t start_ns, uint64_t latency_ns, bool ok,
                uint64_t batch_id = 0) {
    if (windowed_ != nullptr) {
      // Attribute to the op's completion time: windows answer "what happened
      // in the last W ns", and an op belongs to the instant it finished.
      windowed_->RecordOp(kind, node, bytes, start_ns + latency_ns,
                          latency_ns);
    }
    if (enabled_) {
      RecordOpSinceStart(kind, node, addr, bytes, start_ns, latency_ns, ok,
                         batch_id);
    }
  }

  // Monotonic id for one WaitAll() doorbell (its span + its ops).
  uint64_t NextBatchId() { return ++batch_seq_; }

  // Pause / resume the windowed signals WITHOUT destroying window state:
  // parking moves the instance aside, so recording() and the RecordOp gate
  // see exactly the windowed-off shape (a null pointer), and resuming moves
  // it back — one pointer swap either way, no allocation, no zeroing.
  // Registered gauges keep working while parked (they hold the instance
  // pointer, which parking does not invalidate). set_options() drops a
  // parked instance just as it would a live one. The E15 overhead bench
  // toggles modes at sub-millisecond grain through this: rebuilding the
  // ~half-MB ring allocation per toggle would trash the cache and charge
  // the windowed mode for the refill.
  void PauseWindowed() {
    if (windowed_ != nullptr) {
      parked_windowed_ = std::move(windowed_);
    }
  }
  void ResumeWindowed() {
    if (parked_windowed_ != nullptr) {
      windowed_ = std::move(parked_windowed_);
    }
  }

  // NearCache hooks: attribute a cache event to the current label so the
  // hit-ratio column in MetricsRegistry breaks down by code path.
  void RecordCacheHit();
  void RecordCacheMiss();
  void RecordCacheInvalidation();

  // Transaction outcome hook (called by Txn at commit/abort) — feeds the
  // windowed abort / validate-fail rate gauges. No-op unless windowed.
  void RecordTxnOutcome(uint64_t now_ns, bool committed, bool validate_fail);

  // ---- Read side ----
  const LogHistogram& kind_histogram(FarOpKind kind) const {
    return kind_hists_[static_cast<size_t>(kind)];
  }
  // Label id -> histogram of that label's far-op latencies. Index 0 is the
  // unlabeled bucket. Parallel to label_name(id).
  const std::vector<LogHistogram>& label_histograms() const {
    return label_hists_;
  }
  const std::vector<Traffic>& label_traffic() const { return label_traffic_; }
  // Label id -> cache hit/miss/invalidation counts, parallel to label_name.
  const std::vector<CacheCounts>& label_cache() const { return label_cache_; }
  size_t label_count() const { return label_names_.size(); }
  // Per-node traffic row; index = NodeId (grown on demand).
  const std::vector<Traffic>& node_traffic() const { return node_traffic_; }
  const TraceRing& trace() const { return trace_; }

  // ---- Rolling signals (nullptr unless options.windowed) ----
  // Read on the owning client's thread, like everything else here.
  WindowedSignals* windowed() { return windowed_.get(); }

  // Registers the rolling signals with a TelemetryHub under `prefix`:
  // p99/count per op kind and overall, txn rates, and — for nodes
  // [0, num_nodes) — per-node ops/s, bytes/s, and load EWMA. No-op unless
  // windowed signals are on. The gauges capture the current WindowedSignals,
  // which set_options() and Reset() replace: release the group before
  // either, and never let it outlive this recorder.
  void AddGauges(GaugeGroup* group, const std::string& prefix,
                 uint32_t num_nodes);

  void Reset();

 private:
  uint32_t InternLabel(std::string_view label);
  // Since-start attribution (labels, traffic rows, histograms, trace ring).
  // Out of line so the inline RecordOp head stays small; only reached when
  // `enabled_` is true.
  void RecordOpSinceStart(FarOpKind kind, NodeId node, FarAddr addr,
                          uint64_t bytes, uint64_t start_ns,
                          uint64_t latency_ns, bool ok, uint64_t batch_id);

  // Resolution of the since-start LogHistograms.
  static constexpr int kHistogramSubBits = 3;
  // TraceRing slots while tracing (the flight-recorder window).
  static constexpr size_t kTraceCapacity = 65536;

  uint64_t client_id_;
  ObsOptions options_;
  bool enabled_ = false;

  std::vector<LogHistogram> kind_hists_;   // size kFarOpKindCount
  std::vector<uint32_t> label_stack_;      // interned ids, innermost last
  std::vector<std::string> label_names_;   // id -> name; [0] = ""
  std::unordered_map<std::string, uint32_t> label_ids_;
  std::vector<LogHistogram> label_hists_;  // id -> latency histogram
  std::vector<Traffic> label_traffic_;     // id -> ops/bytes
  std::vector<CacheCounts> label_cache_;   // id -> cache hit/miss/inval
  std::vector<Traffic> node_traffic_;      // NodeId -> ops/bytes
  TraceRing trace_;
  uint64_t batch_seq_ = 0;
  std::unique_ptr<WindowedSignals> windowed_;  // set iff options_.windowed
  std::unique_ptr<WindowedSignals> parked_windowed_;  // see PauseWindowed()
};

// RAII op label. Construct on entry to a data-structure operation; every
// far op the client executes in the scope is attributed to the label.
// Captures the recorder's enabled state at construction, so toggling
// ObsOptions mid-scope affects only later scopes (keeps push/pop paired).
class ScopedOpLabel {
 public:
  ScopedOpLabel(OpRecorder* recorder, std::string_view label)
      : recorder_(recorder->enabled() ? recorder : nullptr) {
    if (recorder_ != nullptr) {
      recorder_->PushLabel(label);
    }
  }
  ScopedOpLabel(const ScopedOpLabel&) = delete;
  ScopedOpLabel& operator=(const ScopedOpLabel&) = delete;
  ~ScopedOpLabel() {
    if (recorder_ != nullptr) {
      recorder_->PopLabel();
    }
  }

 private:
  OpRecorder* recorder_;
};

}  // namespace fmds

#endif  // FMDS_SRC_OBS_RECORDER_H_

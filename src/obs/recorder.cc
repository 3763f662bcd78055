#include "src/obs/recorder.h"

#include "src/obs/telemetry.h"

namespace fmds {

OpRecorder::OpRecorder(uint64_t client_id) : client_id_(client_id) {
  // Label id 0 is the unlabeled bucket, always present so attribution never
  // needs a lookup miss path.
  label_names_.push_back("");
  label_ids_.emplace("", 0);
  label_hists_.emplace_back(kHistogramSubBits);
  label_traffic_.emplace_back();
  label_cache_.emplace_back();
  kind_hists_.reserve(kFarOpKindCount);
  for (size_t i = 0; i < kFarOpKindCount; ++i) {
    kind_hists_.emplace_back(kHistogramSubBits);
  }
}

void OpRecorder::set_options(const ObsOptions& options) {
  options_ = options;
  enabled_ = options_.latency_histograms || options_.trace;
  // A parked instance never survives an options change (its geometry may
  // no longer match).
  parked_windowed_.reset();
  if (options_.windowed) {
    // Rebuild rather than carry over: window geometry may have changed.
    windowed_ = std::make_unique<WindowedSignals>(options_.windowed_opts);
  } else {
    windowed_.reset();
  }
  const size_t capacity = options_.trace ? kTraceCapacity : 0;
  if (trace_.capacity() != capacity) {
    trace_.set_capacity(capacity);
  }
}

uint32_t OpRecorder::InternLabel(std::string_view label) {
  auto it = label_ids_.find(std::string(label));
  if (it != label_ids_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(label_names_.size());
  label_names_.emplace_back(label);
  label_ids_.emplace(label_names_.back(), id);
  label_hists_.emplace_back(kHistogramSubBits);
  label_traffic_.emplace_back();
  label_cache_.emplace_back();
  return id;
}

void OpRecorder::PushLabel(std::string_view label) {
  label_stack_.push_back(InternLabel(label));
}

void OpRecorder::PopLabel() {
  if (!label_stack_.empty()) {
    label_stack_.pop_back();
  }
}

std::string_view OpRecorder::current_label() const {
  return label_stack_.empty() ? std::string_view()
                              : label_names_[label_stack_.back()];
}

void OpRecorder::RecordOpSinceStart(FarOpKind kind, NodeId node, FarAddr addr,
                                    uint64_t bytes, uint64_t start_ns,
                                    uint64_t latency_ns, bool ok,
                                    uint64_t batch_id) {
  const uint32_t label =
      label_stack_.empty() ? 0 : label_stack_.back();
  // The batch span is a roll-up over ops attributed individually; keep it
  // out of the label/node tables so breakdowns don't double count.
  if (kind != FarOpKind::kBatch) {
    label_traffic_[label].ops += 1;
    label_traffic_[label].bytes += bytes;
    if (node != kObsNoNode) {
      if (node_traffic_.size() <= node) {
        node_traffic_.resize(node + 1);
      }
      node_traffic_[node].ops += 1;
      node_traffic_[node].bytes += bytes;
    }
  }
  if (options_.latency_histograms) {
    kind_hists_[static_cast<size_t>(kind)].Record(latency_ns);
    if (kind != FarOpKind::kBatch) {
      label_hists_[label].Record(latency_ns);
    }
  }
  if (options_.trace) {
    TraceEvent event;
    event.start_ns = start_ns;
    event.latency_ns = latency_ns;
    event.addr = addr;
    event.bytes = bytes;
    event.batch_id = batch_id;
    event.node = node;
    event.label_id = label;
    event.kind = kind;
    event.ok = ok;
    trace_.Push(event);
  }
}

void OpRecorder::RecordTxnOutcome(uint64_t now_ns, bool committed,
                                  bool validate_fail) {
  if (windowed_ != nullptr) {
    windowed_->RecordTxn(now_ns, committed, validate_fail);
  }
}

void OpRecorder::RecordCacheHit() {
  if (enabled_) {
    ++label_cache_[label_stack_.empty() ? 0 : label_stack_.back()].hits;
  }
}

void OpRecorder::RecordCacheMiss() {
  if (enabled_) {
    ++label_cache_[label_stack_.empty() ? 0 : label_stack_.back()].misses;
  }
}

void OpRecorder::RecordCacheInvalidation() {
  if (enabled_) {
    ++label_cache_[label_stack_.empty() ? 0 : label_stack_.back()]
          .invalidations;
  }
}

void OpRecorder::AddGauges(GaugeGroup* group, const std::string& prefix,
                           uint32_t num_nodes) const {
  const WindowedSignals* w = windowed_.get();
  if (w == nullptr) {
    return;
  }
  group->Add(prefix + ".p99_ns", [w] {
    return static_cast<double>(w->RecentP99All());
  });
  group->Add(prefix + ".ops", [w] {
    return static_cast<double>(w->RecentCountAll());
  });
  for (size_t i = 0; i < kFarOpKindCount; ++i) {
    const FarOpKind kind = static_cast<FarOpKind>(i);
    group->Add(prefix + ".p99_ns." + FarOpKindName(kind), [w, kind] {
      return static_cast<double>(w->RecentP99(kind));
    });
  }
  group->Add(prefix + ".txn_abort_rate",
             [w] { return w->RecentTxnAbortRate(); });
  group->Add(prefix + ".txn_validate_fail_rate",
             [w] { return w->RecentTxnValidateFailRate(); });
  for (uint32_t node = 0; node < num_nodes; ++node) {
    const std::string node_prefix =
        prefix + ".node" + std::to_string(node);
    group->Add(node_prefix + ".ops_per_sec",
               [w, node] { return w->RecentOpsPerSec(node); });
    group->Add(node_prefix + ".bytes_per_sec",
               [w, node] { return w->RecentBytesPerSec(node); });
    group->Add(node_prefix + ".load_ewma",
               [w, node] { return w->NodeLoadEwma(node); });
  }
}

void OpRecorder::Reset() {
  for (auto& hist : kind_hists_) {
    hist.Reset();
  }
  for (auto& hist : label_hists_) {
    hist.Reset();
  }
  for (auto& traffic : label_traffic_) {
    traffic = Traffic();
  }
  for (auto& cache : label_cache_) {
    cache = CacheCounts();
  }
  node_traffic_.clear();
  trace_.Clear();
  parked_windowed_.reset();
  if (windowed_ != nullptr) {
    windowed_ = std::make_unique<WindowedSignals>(options_.windowed_opts);
  }
}

}  // namespace fmds

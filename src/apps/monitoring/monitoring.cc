#include "src/apps/monitoring/monitoring.h"

#include <algorithm>
#include <cmath>

#include "src/common/bytes.h"
#include "src/obs/recorder.h"

namespace fmds {

// ------------------------------ MonitorStore ------------------------------

Result<MonitorStore> MonitorStore::Create(FarClient* client,
                                          FarAllocator* alloc,
                                          MonitorConfig config) {
  if (config.num_bins == 0 || config.num_windows == 0 ||
      config.num_bins * kWordSize > kPageSize) {
    return Status(StatusCode::kInvalidArgument,
                  "bins must fit one page for notification ranges");
  }
  if (!(config.warn_bin <= config.critical_bin &&
        config.critical_bin <= config.failure_bin &&
        config.failure_bin < config.num_bins)) {
    return Status(StatusCode::kInvalidArgument, "bad alarm thresholds");
  }
  const uint64_t header_bytes = (8 + config.num_windows) * kWordSize;
  FMDS_ASSIGN_OR_RETURN(FarAddr header, alloc->Allocate(header_bytes));
  MonitorStore store(client, header);
  store.config_ = config;
  std::vector<uint64_t> hdr(8 + config.num_windows, 0);
  for (uint64_t w = 0; w < config.num_windows; ++w) {
    // Page-aligned so each window's alarm range is one valid subscription.
    FMDS_ASSIGN_OR_RETURN(
        FarAddr base, alloc->Allocate(config.num_bins * kWordSize,
                                      AllocHint::Any(), kPageSize));
    std::vector<uint64_t> zeros(config.num_bins, 0);
    FMDS_RETURN_IF_ERROR(client->Write(
        base, std::as_bytes(std::span<const uint64_t>(zeros))));
    store.windows_.push_back(base);
    hdr[8 + w] = base;
  }
  hdr[0] = store.windows_[0];
  hdr[1] = 0;
  hdr[2] = config.num_bins;
  hdr[3] = config.num_windows;
  hdr[4] = config.warn_bin;
  hdr[5] = config.critical_bin;
  hdr[6] = config.failure_bin;
  hdr[7] = config.alarm_duration;
  FMDS_RETURN_IF_ERROR(client->Write(
      header, std::as_bytes(std::span<const uint64_t>(hdr))));
  return store;
}

Result<MonitorStore> MonitorStore::Attach(FarClient* client, FarAddr header) {
  uint64_t fixed[8];
  FMDS_RETURN_IF_ERROR(client->Read(
      header, std::as_writable_bytes(std::span<uint64_t>(fixed))));
  MonitorStore store(client, header);
  store.config_.num_bins = fixed[2];
  store.config_.num_windows = fixed[3];
  store.config_.warn_bin = fixed[4];
  store.config_.critical_bin = fixed[5];
  store.config_.failure_bin = fixed[6];
  store.config_.alarm_duration = fixed[7];
  std::vector<uint64_t> table(store.config_.num_windows);
  FMDS_RETURN_IF_ERROR(client->Read(
      header + 8 * kWordSize,
      std::as_writable_bytes(std::span<uint64_t>(table))));
  store.windows_.assign(table.begin(), table.end());
  return store;
}

// ----------------------------- MetricProducer -----------------------------

uint64_t MetricProducer::BinOf(double sample) const {
  const MonitorConfig& cfg = store_->config();
  const double span = cfg.max_value - cfg.min_value;
  double norm = (sample - cfg.min_value) / span;
  norm = std::clamp(norm, 0.0, 1.0);
  uint64_t bin = static_cast<uint64_t>(norm * static_cast<double>(cfg.num_bins));
  return std::min(bin, cfg.num_bins - 1);
}

Status MetricProducer::Record(double sample) {
  ScopedOpLabel label(&client_->recorder(), "monitor.record");
  // The whole fast path: one indexed indirect atomic add through the
  // current-window base pointer.
  client_->AccountNear(1);  // local binning
  return client_->Add2(store_->current_ptr_addr(), 1,
                       BinOf(sample) * kWordSize);
}

Status MetricProducer::RotateWindow() {
  const MonitorConfig& cfg = store_->config();
  const uint64_t next = (rotations_ + 1) % cfg.num_windows;
  // Zero the window being reused off the critical path (its previous-lap
  // content has been consumed cfg.num_windows rotations ago).
  std::vector<uint64_t> zeros(cfg.num_bins, 0);
  FMDS_RETURN_IF_ERROR(client_->PostWriteBackground(
      store_->window_base(next),
      std::as_bytes(std::span<const uint64_t>(zeros))));
  // Swing the base pointer; consumers subscribed to this word get notified.
  FMDS_RETURN_IF_ERROR(
      client_->WriteWord(store_->current_ptr_addr(),
                         store_->window_base(next)));
  FMDS_RETURN_IF_ERROR(client_->FetchAdd(store_->seq_addr(), 1).status());
  ++rotations_;
  return OkStatus();
}

// ----------------------------- MetricConsumer -----------------------------

uint64_t MetricConsumer::first_subscribed_bin() const {
  const MonitorConfig& cfg = store_->config();
  switch (min_severity_) {
    case AlarmSeverity::kWarning:
      return cfg.warn_bin;
    case AlarmSeverity::kCritical:
      return cfg.critical_bin;
    case AlarmSeverity::kFailure:
      return cfg.failure_bin;
  }
  return cfg.warn_bin;
}

AlarmSeverity MetricConsumer::SeverityOf(uint64_t bin) const {
  const MonitorConfig& cfg = store_->config();
  if (bin >= cfg.failure_bin) {
    return AlarmSeverity::kFailure;
  }
  if (bin >= cfg.critical_bin) {
    return AlarmSeverity::kCritical;
  }
  return AlarmSeverity::kWarning;
}

Status MetricConsumer::Subscribe() {
  const MonitorConfig& cfg = store_->config();
  const uint64_t first = first_subscribed_bin();
  for (uint64_t w = 0; w < store_->num_windows(); ++w) {
    NotifySpec spec;
    spec.mode = NotifyMode::kOnWriteData;  // notify0d: counts travel along
    spec.addr = store_->window_base(w) + first * kWordSize;
    spec.len = (cfg.num_bins - first) * kWordSize;
    spec.policy = policy_;
    FMDS_RETURN_IF_ERROR(client_->Subscribe(spec, inbox_.get()).status());
  }
  NotifySpec rotation;
  rotation.mode = NotifyMode::kOnWrite;  // notify0 on the base pointer word
  rotation.addr = store_->current_ptr_addr();
  rotation.len = kWordSize;
  rotation.policy = DeliveryPolicy::Reliable();
  FMDS_ASSIGN_OR_RETURN(rotation_sub_,
                        client_->Subscribe(rotation, inbox_.get()));
  raised_counts_.assign(cfg.num_bins, 0);
  return OkStatus();
}

Result<std::vector<Alarm>> MetricConsumer::Poll() {
  ScopedOpLabel label(&client_->recorder(), "monitor.poll");
  const MonitorConfig& cfg = store_->config();
  std::vector<Alarm> alarms;
  (void)client_->DispatchNotifications();
  while (auto event = inbox_->Pop()) {
    if (event->kind == NotifyEventKind::kLossWarning) {
      // Degraded delivery: resynchronize by snapshotting the alarm range.
      auto snapshot = CopyAlarmRange();
      if (!snapshot.ok()) {
        return snapshot.status();
      }
      const uint64_t first = first_subscribed_bin();
      for (uint64_t i = 0; i < snapshot->size(); ++i) {
        const uint64_t bin = first + i;
        const uint64_t count = (*snapshot)[i];
        if (count >= cfg.alarm_duration && raised_counts_[bin] < count) {
          alarms.push_back(Alarm{SeverityOf(bin), current_seq_, bin, count});
          raised_counts_[bin] = count;
        }
      }
      continue;
    }
    if (event->sub_id == rotation_sub_) {
      ++rotations_seen_;
      ++current_seq_;
      std::fill(raised_counts_.begin(), raised_counts_.end(), 0);
      continue;
    }
    // Histogram data event: the payload carries the changed bin counts.
    ++data_events_;
    // Which window's alarm range did this land in?
    uint64_t window = store_->num_windows();
    for (uint64_t w = 0; w < store_->num_windows(); ++w) {
      const FarAddr base = store_->window_base(w);
      if (event->addr >= base && event->addr < base + cfg.num_bins * kWordSize) {
        window = w;
        break;
      }
    }
    if (window == store_->num_windows() || event->data.size() < kWordSize) {
      continue;
    }
    const FarAddr base = store_->window_base(window);
    const uint64_t first_bin = (event->addr - base) / kWordSize;
    const uint64_t words = event->data.size() / kWordSize;
    for (uint64_t i = 0; i < words; ++i) {
      const uint64_t bin = first_bin + i;
      const uint64_t count =
          LoadAs<uint64_t>(std::span<const std::byte>(event->data),
                           i * kWordSize);
      if (count >= cfg.alarm_duration && raised_counts_[bin] < count) {
        alarms.push_back(Alarm{SeverityOf(bin), current_seq_, bin, count});
        raised_counts_[bin] = count;
      }
    }
  }
  return alarms;
}

Result<std::vector<uint64_t>> MetricConsumer::CopyAlarmRange() {
  const MonitorConfig& cfg = store_->config();
  const uint64_t first = first_subscribed_bin();
  std::vector<uint64_t> out(cfg.num_bins - first);
  // One extra far access: load1-style read through the current pointer
  // would need the offset; read via the cached window of the current seq.
  const FarAddr base =
      store_->window_base(current_seq_ % store_->num_windows());
  FMDS_RETURN_IF_ERROR(client_->Read(
      base + first * kWordSize,
      std::as_writable_bytes(std::span<uint64_t>(out))));
  return out;
}

Result<std::vector<std::vector<uint64_t>>>
MetricConsumer::SnapshotAllWindows() {
  const MonitorConfig& cfg = store_->config();
  const uint64_t first = first_subscribed_bin();
  const uint64_t range_words = cfg.num_bins - first;
  std::vector<FarSeg> iov;
  iov.reserve(store_->num_windows());
  for (uint64_t w = 0; w < store_->num_windows(); ++w) {
    iov.push_back(FarSeg{store_->window_base(w) + first * kWordSize,
                         range_words * kWordSize});
  }
  std::vector<uint64_t> flat(range_words * store_->num_windows());
  FMDS_RETURN_IF_ERROR(client_->RGather(
      iov, std::as_writable_bytes(std::span<uint64_t>(flat))));
  std::vector<std::vector<uint64_t>> out(store_->num_windows());
  for (uint64_t w = 0; w < store_->num_windows(); ++w) {
    out[w].assign(flat.begin() + w * range_words,
                  flat.begin() + (w + 1) * range_words);
  }
  return out;
}

Result<double> MetricConsumer::WindowDrift() {
  FMDS_ASSIGN_OR_RETURN(auto windows, SnapshotAllWindows());
  const uint64_t count = store_->num_windows();
  const uint64_t current = current_seq_ % count;
  const uint64_t previous = (current_seq_ + count - 1) % count;
  const auto& a = windows[current];
  const auto& b = windows[previous];
  uint64_t l1 = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    l1 += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    total += a[i] + b[i];
  }
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(l1) / static_cast<double>(total);
}

// ------------------------------ NaiveMonitor ------------------------------

Result<NaiveMonitor> NaiveMonitor::Create(FarClient* client,
                                          FarAllocator* alloc,
                                          uint64_t log_capacity) {
  FMDS_ASSIGN_OR_RETURN(FarAddr header, alloc->Allocate(3 * kWordSize));
  FMDS_ASSIGN_OR_RETURN(FarAddr log,
                        alloc->Allocate(log_capacity * kWordSize));
  const uint64_t hdr[3] = {0, log, log_capacity};
  FMDS_RETURN_IF_ERROR(client->Write(
      header, std::as_bytes(std::span<const uint64_t>(hdr))));
  NaiveMonitor monitor(header);
  monitor.log_ = log;
  monitor.capacity_ = log_capacity;
  return monitor;
}

Result<NaiveMonitor> NaiveMonitor::Attach(FarClient* client, FarAddr header) {
  uint64_t hdr[3];
  FMDS_RETURN_IF_ERROR(client->Read(
      header, std::as_writable_bytes(std::span<uint64_t>(hdr))));
  NaiveMonitor monitor(header);
  monitor.log_ = hdr[1];
  monitor.capacity_ = hdr[2];
  return monitor;
}

Status NaiveMonitor::Record(FarClient* client, double sample) {
  ScopedOpLabel label(&client->recorder(), "naive.record");
  const uint64_t index = producer_cursor_;
  if (index >= capacity_) {
    return ResourceExhausted("sample log full");
  }
  ++producer_cursor_;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(sample));
  std::memcpy(&bits, &sample, sizeof(bits));
  // One far op ships the sample and the bumped index together (wscatter).
  const uint64_t payload[2] = {bits, index + 1};
  const FarSeg iov[2] = {FarSeg{log_ + index * kWordSize, kWordSize},
                         FarSeg{header_, kWordSize}};
  return client->WScatter(iov,
                          std::as_bytes(std::span<const uint64_t>(payload)));
}

Result<uint64_t> NaiveMonitor::PollSamples(FarClient* client,
                                           uint64_t* consumer_cursor,
                                           std::vector<double>* out) {
  ScopedOpLabel label(&client->recorder(), "naive.poll");
  FMDS_ASSIGN_OR_RETURN(uint64_t produced, client->ReadWord(header_));
  uint64_t consumed = 0;
  while (*consumer_cursor < produced) {
    // One far access per sample — this is the (k+1)N cost the histogram
    // design eliminates.
    FMDS_ASSIGN_OR_RETURN(
        uint64_t bits,
        client->ReadWord(log_ + *consumer_cursor * kWordSize));
    double sample;
    std::memcpy(&sample, &bits, sizeof(sample));
    if (out != nullptr) {
      out->push_back(sample);
    }
    ++*consumer_cursor;
    ++consumed;
  }
  return consumed;
}

}  // namespace fmds

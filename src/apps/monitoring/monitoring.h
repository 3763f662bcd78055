// §6 case study: monitoring a sampled metric through far memory.
//
// "Rather than storing samples, far memory keeps a vector with a histogram
//  of the samples. The producer treats a sample as an offset into the vector,
//  and increments the location using one far memory access with indexed
//  indirect addressing. Each consumer uses notifications to get changes in
//  the histogram vector at offsets corresponding to the alarm ranges."
//
// Far layout:
//   store header: current-window base pointer (the add2 anchor), window
//                 sequence number, config, per-window base table
//   windows:      num_windows page-aligned histogram vectors (num_bins words)
//
// Producer: Record(sample) = ONE far access (add2 through the current-window
// pointer); RotateWindow() swings the base pointer (readers follow via the
// pointer-word notification) and zeroes the reused window off the critical
// path.
//
// Consumer: subscribes notify0d to the alarm range [warn_bin, num_bins) of
// every window; normal-range samples cause NO traffic to consumers. Raises
// Warning/Critical/Failure alarms when a bin's count reaches the configured
// duration within a window.
//
// NaiveMonitor is the §6 strawman: the producer logs raw samples, every
// consumer reads every sample — (k+1)·N far transfers for k consumers.
#ifndef FMDS_SRC_APPS_MONITORING_MONITORING_H_
#define FMDS_SRC_APPS_MONITORING_MONITORING_H_

#include <cstdint>
#include <vector>

#include "src/alloc/far_allocator.h"
#include "src/fabric/far_client.h"

namespace fmds {

struct MonitorConfig {
  uint64_t num_bins = 64;
  double min_value = 0.0;
  double max_value = 100.0;     // samples clamp into [min, max)
  uint64_t num_windows = 4;     // circular buffer of histogram windows
  uint64_t warn_bin = 48;       // alarm range starts here
  uint64_t critical_bin = 56;
  uint64_t failure_bin = 62;
  uint64_t alarm_duration = 3;  // exceedances within a window to alarm
};

enum class AlarmSeverity : uint8_t { kWarning = 0, kCritical = 1, kFailure = 2 };

struct Alarm {
  AlarmSeverity severity;
  uint64_t window_seq;
  uint64_t bin;
  uint64_t count;
};

// Far-memory layout owner; producer and consumers attach to its header.
class MonitorStore {
 public:
  static Result<MonitorStore> Create(FarClient* client, FarAllocator* alloc,
                                     MonitorConfig config);
  static Result<MonitorStore> Attach(FarClient* client, FarAddr header);

  FarAddr header() const { return header_; }
  const MonitorConfig& config() const { return config_; }
  FarAddr current_ptr_addr() const { return header_; }
  FarAddr seq_addr() const { return header_ + kWordSize; }
  FarAddr window_base(uint64_t w) const { return windows_[w]; }
  uint64_t num_windows() const { return windows_.size(); }

 private:
  // Header words: [0] current window base, [1] window seq, [2] num_bins,
  // [3] num_windows, [4] warn, [5] critical, [6] failure, [7] duration,
  // [8..] window base table.
  MonitorStore(FarClient* client, FarAddr header)
      : client_(client), header_(header) {}

  FarClient* client_;
  FarAddr header_;
  MonitorConfig config_;
  std::vector<FarAddr> windows_;
};

class MetricProducer {
 public:
  MetricProducer(MonitorStore* store, FarClient* client)
      : store_(store), client_(client) {}

  // ONE far access: add2 increments histogram[bin] through the
  // current-window base pointer.
  Status Record(double sample);

  // Advances to the next window: zeroes it (background), swings the base
  // pointer (notify0 subscribers on the pointer word fire), bumps the seq.
  Status RotateWindow();

  uint64_t windows_produced() const { return rotations_; }

 private:
  uint64_t BinOf(double sample) const;

  MonitorStore* store_;
  FarClient* client_;
  uint64_t rotations_ = 0;
};

class MetricConsumer {
 public:
  // `min_severity` filters which alarm ranges this consumer subscribes to —
  // "different consumers can be notified of different thresholds".
  MetricConsumer(MonitorStore* store, FarClient* client,
                 AlarmSeverity min_severity,
                 DeliveryPolicy policy = DeliveryPolicy::Reliable())
      : store_(store), client_(client), min_severity_(min_severity),
        policy_(policy),
        inbox_(MakeOwnedSink<NotificationInbox>(
            client, client->channel().capacity())) {}

  // Arms notify0d on the alarm bins of every window + notify0 on the
  // current-window pointer (rotation tracking).
  Status Subscribe();

  // Dispatches the client's notifications, then consumes this consumer's
  // own events; returns alarms crossing thresholds.
  Result<std::vector<Alarm>> Poll();

  // Optional extra far access: snapshot the alarm range of the current
  // window for aggregation ("consumers optionally copy the histogram
  // values in the prescribed range").
  Result<std::vector<uint64_t>> CopyAlarmRange();

  // §6: "since consumers can access the distribution over a number of
  // windows, they can also correlate the histograms to detect variations
  // in the metric over multiple windows". One rgather (ONE far access)
  // returns the alarm range of every window.
  Result<std::vector<std::vector<uint64_t>>> SnapshotAllWindows();
  // Normalized L1 distance between the two most recent windows' alarm
  // histograms — a cheap drift detector built on SnapshotAllWindows.
  Result<double> WindowDrift();

  uint64_t rotations_seen() const { return rotations_seen_; }
  uint64_t data_events() const { return data_events_; }

 private:
  uint64_t first_subscribed_bin() const;
  AlarmSeverity SeverityOf(uint64_t bin) const;

  MonitorStore* store_;
  FarClient* client_;
  AlarmSeverity min_severity_;
  DeliveryPolicy policy_;
  // Sink of every subscription this consumer makes.
  OwnedSink<NotificationInbox> inbox_;
  SubId rotation_sub_ = kInvalidSubId;
  uint64_t current_seq_ = 0;
  uint64_t rotations_seen_ = 0;
  uint64_t data_events_ = 0;
  // Last alarm level already raised per bin in the current window, to avoid
  // re-raising on every increment.
  std::vector<uint64_t> raised_counts_;
};

// §6 strawman: raw sample log. Producer appends samples; each consumer
// reads every sample — (k+1)N transfers for N samples, k consumers.
class NaiveMonitor {
 public:
  static Result<NaiveMonitor> Create(FarClient* client, FarAllocator* alloc,
                                     uint64_t log_capacity);
  static Result<NaiveMonitor> Attach(FarClient* client, FarAddr header);

  FarAddr header() const { return header_; }

  // Producer: one far op per sample (sample + index via wscatter).
  Status Record(FarClient* client, double sample);

  // Consumer: reads samples it has not seen; one far access per sample
  // (plus an index poll per batch). Returns how many it consumed.
  Result<uint64_t> PollSamples(FarClient* client, uint64_t* consumer_cursor,
                               std::vector<double>* out);

 private:
  // Header: [0] next index, [1] log base, [2] capacity.
  NaiveMonitor(FarAddr header) : header_(header) {}

  FarAddr header_;
  FarAddr log_ = kNullFarAddr;
  uint64_t capacity_ = 0;
  uint64_t producer_cursor_ = 0;  // single-producer append position
};

}  // namespace fmds

#endif  // FMDS_SRC_APPS_MONITORING_MONITORING_H_

// Live telemetry: a gauge registry (TelemetryHub), RAII registration
// (GaugeGroup), and a JSON-lines exporter (TelemetrySnapshotter).
//
// The flight recorder answers "what happened" after a run; the hub answers
// "what is happening" during one. Components expose their health as named
// gauges — cheap double-valued callbacks registered with a hub — and the
// snapshotter samples every gauge whenever its owner ticks it, at fixed
// points of the owner's own steps, into a JSON-lines time series (one
// object per tick) stamped with the owner's simulated time, the format
// `bench_util --telemetry=<path>` selects. `ExportPromText()` renders the
// same snapshot once in Prometheus text exposition format.
//
// Threading: none of these classes starts a thread or takes a lock. The
// thread that owns the components a hub samples registers, samples and
// ticks; a gauge callback may therefore read single-owner state directly.
// Callbacks must not call back into the hub.
//
// Lifetime: a GaugeGroup unregisters its gauges on destruction. Destroy the
// group (or the hub) BEFORE the component its callbacks capture.
#ifndef FMDS_SRC_OBS_TELEMETRY_H_
#define FMDS_SRC_OBS_TELEMETRY_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace fmds {

class TelemetryHub {
 public:
  using GaugeFn = std::function<double()>;

  struct Sample {
    std::string name;
    double value = 0.0;
  };

  // Registers (or replaces) the gauge `name`. Names are dotted paths
  // ("wb.pending_entries", "node0.ops_per_sec"); exporters rely on the
  // map's sorted iteration for deterministic output.
  void AddGauge(const std::string& name, GaugeFn fn);
  void RemoveGauge(const std::string& name);
  size_t gauge_count() const;

  // Evaluates every gauge; sorted by name. Non-finite values are clamped
  // to 0 (JSON has no NaN/Inf).
  std::vector<Sample> Snapshot() const;

  // One-shot Prometheus text exposition: names are sanitized to the metric
  // charset ([a-zA-Z0-9_:]) and prefixed "fmds_".
  std::string ExportPromText() const;

  // Writes `{"name":value,...}` (sorted, escaped) — the "gauges" object of
  // one snapshotter tick.
  void WriteJsonObject(std::ostream& os) const;

 private:
  std::map<std::string, GaugeFn> gauges_;
};

// RAII batch of gauge registrations: everything Add()ed through the group
// is removed from the hub when the group dies. Components provide
// `AddGauges(GaugeGroup*, prefix)` helpers; the code wiring a scenario owns
// the groups and drops them before the components they sample.
class GaugeGroup {
 public:
  GaugeGroup() = default;
  explicit GaugeGroup(TelemetryHub* hub) : hub_(hub) {}
  GaugeGroup(const GaugeGroup&) = delete;
  GaugeGroup& operator=(const GaugeGroup&) = delete;
  GaugeGroup(GaugeGroup&& other) noexcept
      : hub_(other.hub_), names_(std::move(other.names_)) {
    other.hub_ = nullptr;
    other.names_.clear();
  }
  ~GaugeGroup() { Release(); }

  void Add(std::string name, TelemetryHub::GaugeFn fn);
  // Unregisters everything now (idempotent; also run by the destructor).
  void Release();

  TelemetryHub* hub() const { return hub_; }
  size_t size() const { return names_.size(); }

 private:
  TelemetryHub* hub_ = nullptr;
  std::vector<std::string> names_;
};

// Exporter: each Tick evaluates the hub and writes one JSON object line,
// {"tick":N,"sim_ns":T,"gauges":{...}}, where N counts ticks from 0 and T is
// the simulated time the owner passes. The owner ticks at fixed points of
// its own steps, so a run's series repeats for one sequence of steps; there
// is no implicit final tick, so the owner ticks after its last step.
class TelemetrySnapshotter {
 public:
  // An empty `path` samples the hub on every tick and writes nothing.
  TelemetrySnapshotter(TelemetryHub* hub, std::string path);

  // Samples the hub and writes (and flushes) one line. The first tick
  // opens `path` and truncates it, so a file holds one snapshotter's
  // series. Fails with kInternal, writing nothing, when `path` cannot be
  // opened.
  Status Tick(uint64_t sim_ns);

  uint64_t ticks() const { return ticks_; }

 private:
  TelemetryHub* hub_;
  std::string path_;
  std::ofstream out_;
  uint64_t ticks_ = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_OBS_TELEMETRY_H_

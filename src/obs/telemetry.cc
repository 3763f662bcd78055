#include "src/obs/telemetry.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "src/obs/json.h"

namespace fmds {

namespace {

double Sanitize(double v) { return std::isfinite(v) ? v : 0.0; }

// Shortest round-trippable double rendering that is still JSON-valid.
std::string NumberToJson(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

std::string PromName(const std::string& name) {
  std::string out = "fmds_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// TelemetryHub

void TelemetryHub::AddGauge(const std::string& name, GaugeFn fn) {
  gauges_[name] = std::move(fn);
}

void TelemetryHub::RemoveGauge(const std::string& name) {
  gauges_.erase(name);
}

size_t TelemetryHub::gauge_count() const { return gauges_.size(); }

std::vector<TelemetryHub::Sample> TelemetryHub::Snapshot() const {
  std::vector<Sample> out;
  out.reserve(gauges_.size());
  for (const auto& [name, fn] : gauges_) {
    out.push_back(Sample{name, Sanitize(fn())});
  }
  return out;
}

std::string TelemetryHub::ExportPromText() const {
  std::string out;
  for (const Sample& s : Snapshot()) {
    const std::string metric = PromName(s.name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + NumberToJson(s.value) + "\n";
  }
  return out;
}

void TelemetryHub::WriteJsonObject(std::ostream& os) const {
  os << '{';
  bool first = true;
  for (const Sample& s : Snapshot()) {
    if (!first) {
      os << ',';
    }
    first = false;
    os << '"' << JsonEscape(s.name) << "\":" << NumberToJson(s.value);
  }
  os << '}';
}

// ---------------------------------------------------------------------------
// GaugeGroup

void GaugeGroup::Add(std::string name, TelemetryHub::GaugeFn fn) {
  if (hub_ == nullptr) {
    return;
  }
  hub_->AddGauge(name, std::move(fn));
  names_.push_back(std::move(name));
}

void GaugeGroup::Release() {
  if (hub_ != nullptr) {
    for (const std::string& name : names_) {
      hub_->RemoveGauge(name);
    }
  }
  names_.clear();
}

// ---------------------------------------------------------------------------
// TelemetrySnapshotter

TelemetrySnapshotter::TelemetrySnapshotter(TelemetryHub* hub,
                                           std::string path)
    : hub_(hub), path_(std::move(path)) {}

Status TelemetrySnapshotter::Tick(uint64_t sim_ns) {
  if (path_.empty()) {
    (void)hub_->Snapshot();
    ++ticks_;
    return OkStatus();
  }
  if (!out_.is_open()) {
    out_.open(path_, std::ios::out | std::ios::trunc);
    if (!out_.is_open()) {
      return Status(StatusCode::kInternal,
                    "telemetry: cannot open output path");
    }
  }
  out_ << "{\"tick\":" << ticks_++ << ",\"sim_ns\":" << sim_ns
       << ",\"gauges\":";
  hub_->WriteJsonObject(out_);
  out_ << "}\n";
  out_.flush();
  return OkStatus();
}

}  // namespace fmds

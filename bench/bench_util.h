// Shared helpers for the experiment harness. Every bench binary prints
// paper-shaped tables (fmds::Table) built from exact ClientStats counters
// and the simulated clock; google-benchmark provides wall-time microbenches
// where those add signal (F1/E1).
#ifndef FMDS_BENCH_BENCH_UTIL_H_
#define FMDS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/alloc/far_allocator.h"
#include "src/common/table.h"
#include "src/fabric/fabric.h"
#include "src/fabric/far_client.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace_export.h"

namespace fmds {

class BenchEnv {
 public:
  explicit BenchEnv(FabricOptions options = FabricOptions())
      : fabric_(options), alloc_(&fabric_) {}

  Fabric& fabric() { return fabric_; }
  FarAllocator& alloc() { return alloc_; }
  FarClient& NewClient() {
    clients_.push_back(
        std::make_unique<FarClient>(&fabric_, clients_.size() + 1));
    return *clients_.back();
  }
  // Client with the flight recorder armed (histograms and/or tracing).
  FarClient& NewClient(const ObsOptions& obs) {
    FarClient& client = NewClient();
    client.EnableObs(obs);
    return client;
  }
  // Absorb every client's recorder into one registry for fleet-wide
  // tables / JSON / trace export.
  MetricsRegistry CollectMetrics() const {
    MetricsRegistry registry;
    for (const auto& client : clients_) {
      registry.Absorb(client->recorder());
    }
    return registry;
  }

 private:
  Fabric fabric_;
  FarAllocator alloc_;
  std::vector<std::unique_ptr<FarClient>> clients_;
};

inline FabricOptions DefaultFabric(uint64_t capacity = 512ull << 20) {
  FabricOptions options;
  options.num_nodes = 1;
  options.node_capacity = capacity;
  return options;
}

// Aborts the bench with a message if a Status is not OK — experiment code
// treats any infrastructure failure as fatal.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

// Machine-readable results alongside the stdout tables: each bench writes a
// JSON array of {"name": ..., <config and metric fields>} objects so runs
// are diffable across commits and scripts can track headline numbers.
// The default output path is per-bench (BENCH_<id>.json in the working
// directory, BENCH_<id>_smoke.json under --smoke); `--json=<path>`
// overrides it.
class BenchJson {
 public:
  // Starts a new result entry; subsequent Num/Int/Str calls attach to it.
  void Begin(const std::string& name) {
    entries_.push_back(Entry{name, {}});
  }
  void Num(const std::string& key, double value, int significant = 6) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", significant, value);
    entries_.back().fields.emplace_back(key, std::string(buf));
  }
  void Int(const std::string& key, uint64_t value) {
    entries_.back().fields.emplace_back(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    entries_.back().fields.emplace_back(key, Quote(value));
  }
  // Attach a pre-rendered JSON value (object/array) verbatim — used for
  // the observability sub-documents (op_latency, node_heatmap).
  void Raw(const std::string& key, const std::string& rendered_json) {
    entries_.back().fields.emplace_back(key, rendered_json);
  }

  // Writes the array; aborts the bench on I/O failure (results files are
  // part of the experiment output, losing one silently would be worse).
  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "[\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& entry = entries_[i];
      out << "  {\"name\": " << Quote(entry.name);
      for (const auto& [key, rendered] : entry.fields) {
        out << ", " << Quote(key) << ": " << rendered;
      }
      out << (i + 1 < entries_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
      std::abort();
    }
  }

 private:
  struct Entry {
    std::string name;
    // Field values pre-rendered as JSON tokens, in insertion order.
    std::vector<std::pair<std::string, std::string>> fields;
  };

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    out += '"';
    return out;
  }

  std::vector<Entry> entries_;
};

// True when `flag` (e.g. "--smoke") appears verbatim on the command line.
inline bool FlagPresent(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      return true;
    }
  }
  return false;
}

// The --json=<path> argument, or `default_path` when absent. Under --smoke
// the default gains a `_smoke` suffix (BENCH_e16.json becomes
// BENCH_e16_smoke.json), so a smoke run never overwrites the committed
// results of a full run.
inline std::string JsonOutputPath(int argc, char** argv,
                                  const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      return arg.substr(7);
    }
  }
  const size_t ext = default_path.rfind(".json");
  if (FlagPresent(argc, argv, "--smoke") && ext != std::string::npos) {
    return default_path.substr(0, ext) + "_smoke.json";
  }
  return default_path;
}

// The --repeat=N argument, or 1 when absent. Benches that honor it run each
// configuration N times (distinct seeds) and report the median, shrinking
// run-to-run noise in the committed BENCH_*.json numbers. The simulated
// clock is deterministic per seed, so N=1 stays reproducible; --repeat
// matters when a bench mixes in wall-clock measurements or randomized
// workloads whose seed varies per repeat.
inline int RepeatArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      const int n = std::atoi(arg.c_str() + 9);
      return n > 0 ? n : 1;
    }
  }
  return 1;
}

// Median of the samples (mean of the middle pair for even counts). Used
// with RepeatArg for median-of-N reporting; mutates its copy by sorting.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) {
    return samples[mid];
  }
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

// The --telemetry=<path> argument (JSON-lines gauge snapshots written by a
// TelemetrySnapshotter while the bench runs), or `default_path` when absent.
// Pass "" as the default for benches where continuous export is opt-in.
inline std::string TelemetryOutputPath(int argc, char** argv,
                                       const std::string& default_path = "") {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--telemetry=", 0) == 0) {
      return arg.substr(12);
    }
  }
  return default_path;
}

// The --trace=<path> argument (Chrome trace-event JSON output), or "" when
// tracing was not requested.
inline std::string TraceOutputPath(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      return arg.substr(8);
    }
  }
  return "";
}

// Writes the Chrome trace if `path` is non-empty; fatal on I/O failure,
// same policy as BenchJson::Write.
inline void MaybeWriteTrace(const MetricsRegistry& registry,
                            const std::string& path) {
  if (path.empty()) {
    return;
  }
  CheckOk(WriteChromeTraceFile(path, registry), "trace export");
  std::fprintf(stderr, "trace written to %s\n", path.c_str());
}

}  // namespace fmds

#endif  // FMDS_BENCH_BENCH_UTIL_H_

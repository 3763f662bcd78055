// Fleet-wide aggregation of per-client OpRecorders: merged per-op-kind and
// per-label latency histograms, the (client x node) traffic matrix behind
// the node heatmap, and the trace rings for export. Built at report time
// (single-threaded), so absorption is plain merging.
#ifndef FMDS_SRC_OBS_METRICS_REGISTRY_H_
#define FMDS_SRC_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/recorder.h"

namespace fmds {

class MetricsRegistry {
 public:
  struct Traffic {
    uint64_t ops = 0;
    uint64_t bytes = 0;
  };

  MetricsRegistry();

  // Merges one client's recorder into the fleet view and remembers its
  // trace ring for export. The recorder must outlive the registry (benches
  // and tests keep clients alive through reporting).
  void Absorb(const OpRecorder& recorder);

  // ---- Merged views ----
  const LogHistogram& kind_histogram(FarOpKind kind) const {
    return kind_hists_[static_cast<size_t>(kind)];
  }
  struct LabelRow {
    LogHistogram hist;
    uint64_t ops = 0;
    uint64_t bytes = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_invalidations = 0;
  };
  const std::map<std::string, LabelRow>& labels() const { return labels_; }

  // (client, node) -> traffic; the heatmap's cells.
  const std::map<std::pair<uint64_t, NodeId>, Traffic>& traffic() const {
    return traffic_;
  }
  // Per-node totals across clients (heatmap row sums), index = NodeId.
  std::vector<Traffic> NodeTotals() const;

  struct TraceSource {
    uint64_t client_id = 0;
    const OpRecorder* recorder = nullptr;
  };
  const std::vector<TraceSource>& trace_sources() const { return sources_; }

  // ---- Report output ----
  // Per-op-kind latency table: kind, count, mean, p50, p99, max.
  void PrintOpKindTable(std::ostream& os, const std::string& title) const;
  // Paper-style per-structure breakdown: label, far ops, bytes, p50, p99.
  void PrintLabelTable(std::ostream& os, const std::string& title) const;
  // Client x node ops matrix plus per-node byte totals.
  void PrintHeatmap(std::ostream& os, const std::string& title) const;

  // ---- JSON fragments (for BenchJson::Raw) ----
  // Both object fragments emit keys in stable sorted order and JSON-escape
  // key strings, so the output is valid JSON byte-stable across runs.
  // {"read": {"count":N,"p50_ns":..,"p99_ns":..,"max_ns":..,"mean_ns":..},..}
  std::string OpLatencyJsonObject() const;
  // [{"node":0,"ops":N,"bytes":B}, ...] summed over clients.
  std::string NodeHeatmapJsonArray() const;
  // {"hits":N,"misses":N,"hit_ratio":R,"invalidations":N} summed over all
  // labels — the bench-level cache summary fragment.
  std::string CacheJsonObject() const;

 private:
  std::vector<LogHistogram> kind_hists_;
  std::map<std::string, LabelRow> labels_;
  std::map<std::pair<uint64_t, NodeId>, Traffic> traffic_;
  std::vector<TraceSource> sources_;
};

}  // namespace fmds

#endif  // FMDS_SRC_OBS_METRICS_REGISTRY_H_

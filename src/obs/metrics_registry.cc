#include "src/obs/metrics_registry.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "src/common/table.h"
#include "src/obs/json.h"

namespace fmds {

MetricsRegistry::MetricsRegistry() {
  kind_hists_.reserve(kFarOpKindCount);
  for (size_t i = 0; i < kFarOpKindCount; ++i) {
    kind_hists_.emplace_back();
  }
}

void MetricsRegistry::Absorb(const OpRecorder& recorder) {
  for (size_t i = 0; i < kFarOpKindCount; ++i) {
    kind_hists_[i].Merge(recorder.kind_histogram(static_cast<FarOpKind>(i)));
  }
  for (size_t id = 0; id < recorder.label_count(); ++id) {
    const OpRecorder::Traffic& traffic = recorder.label_traffic()[id];
    const LogHistogram& hist = recorder.label_histograms()[id];
    const OpRecorder::CacheCounts& cache = recorder.label_cache()[id];
    if (traffic.ops == 0 && hist.count() == 0 && cache.hits == 0 &&
        cache.misses == 0 && cache.invalidations == 0) {
      continue;
    }
    LabelRow& row = labels_[recorder.label_name(id)];
    row.hist.Merge(hist);
    row.ops += traffic.ops;
    row.bytes += traffic.bytes;
    row.cache_hits += cache.hits;
    row.cache_misses += cache.misses;
    row.cache_invalidations += cache.invalidations;
  }
  for (NodeId node = 0; node < recorder.node_traffic().size(); ++node) {
    const OpRecorder::Traffic& cell = recorder.node_traffic()[node];
    if (cell.ops == 0 && cell.bytes == 0) {
      continue;
    }
    Traffic& merged = traffic_[{recorder.client_id(), node}];
    merged.ops += cell.ops;
    merged.bytes += cell.bytes;
  }
  sources_.push_back(TraceSource{recorder.client_id(), &recorder});
}

std::vector<MetricsRegistry::Traffic> MetricsRegistry::NodeTotals() const {
  std::vector<Traffic> totals;
  for (const auto& [key, cell] : traffic_) {
    const NodeId node = key.second;
    if (totals.size() <= node) {
      totals.resize(node + 1);
    }
    totals[node].ops += cell.ops;
    totals[node].bytes += cell.bytes;
  }
  return totals;
}

void MetricsRegistry::PrintOpKindTable(std::ostream& os,
                                       const std::string& title) const {
  Table table({"op kind", "count", "mean_ns", "p50_ns", "p99_ns", "max_ns"});
  for (size_t i = 0; i < kFarOpKindCount; ++i) {
    const LogHistogram& hist = kind_hists_[i];
    if (hist.count() == 0) {
      continue;
    }
    table.AddRow({FarOpKindName(static_cast<FarOpKind>(i)),
                  Table::Cell(hist.count()), Table::Cell(hist.mean(), 1),
                  Table::Cell(hist.Percentile(0.50)),
                  Table::Cell(hist.Percentile(0.99)),
                  Table::Cell(hist.max())});
  }
  table.Print(os, title);
}

void MetricsRegistry::PrintLabelTable(std::ostream& os,
                                      const std::string& title) const {
  Table table({"op label", "far_ops", "bytes", "mean_ns", "p50_ns", "p99_ns",
               "hit%"});
  for (const auto& [name, row] : labels_) {
    const uint64_t lookups = row.cache_hits + row.cache_misses;
    std::string hit_pct = "-";
    if (lookups > 0) {
      hit_pct = Table::Cell(
          100.0 * static_cast<double>(row.cache_hits) / lookups, 1);
    }
    table.AddRow({name.empty() ? "(unlabeled)" : name, Table::Cell(row.ops),
                  Table::Cell(row.bytes), Table::Cell(row.hist.mean(), 1),
                  Table::Cell(row.hist.Percentile(0.50)),
                  Table::Cell(row.hist.Percentile(0.99)), hit_pct});
  }
  table.Print(os, title);
}

void MetricsRegistry::PrintHeatmap(std::ostream& os,
                                   const std::string& title) const {
  const std::vector<Traffic> totals = NodeTotals();
  Table table({"client", "node", "ops", "bytes"});
  for (const auto& [key, cell] : traffic_) {
    table.AddRow({Table::Cell(key.first),
                  Table::Cell(static_cast<uint64_t>(key.second)),
                  Table::Cell(cell.ops), Table::Cell(cell.bytes)});
  }
  for (NodeId node = 0; node < totals.size(); ++node) {
    table.AddRow({"(all)", Table::Cell(static_cast<uint64_t>(node)),
                  Table::Cell(totals[node].ops),
                  Table::Cell(totals[node].bytes)});
  }
  table.Print(os, title);
}

namespace {

std::string HistStatsJson(const LogHistogram& hist) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"count\": %llu, \"mean_ns\": %.1f, \"p50_ns\": %llu, "
                "\"p99_ns\": %llu, \"max_ns\": %llu",
                static_cast<unsigned long long>(hist.count()), hist.mean(),
                static_cast<unsigned long long>(hist.Percentile(0.50)),
                static_cast<unsigned long long>(hist.Percentile(0.99)),
                static_cast<unsigned long long>(hist.max()));
  return buf;
}

}  // namespace

std::string MetricsRegistry::OpLatencyJsonObject() const {
  // Keys come out sorted by name (not enum order) so the fragment is byte-
  // stable across runs and diffs cleanly between bench JSON files.
  std::vector<std::pair<std::string, size_t>> kinds;
  for (size_t i = 0; i < kFarOpKindCount; ++i) {
    if (kind_hists_[i].count() != 0) {
      kinds.emplace_back(FarOpKindName(static_cast<FarOpKind>(i)), i);
    }
  }
  std::sort(kinds.begin(), kinds.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [name, i] : kinds) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "\"";
    out += JsonEscape(name);
    out += "\": {";
    out += HistStatsJson(kind_hists_[i]);
    out += "}";
  }
  out += "}";
  return out;
}

std::string MetricsRegistry::NodeHeatmapJsonArray() const {
  const std::vector<Traffic> totals = NodeTotals();
  std::string out = "[";
  for (NodeId node = 0; node < totals.size(); ++node) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"node\": %u, \"ops\": %llu, \"bytes\": %llu}",
                  node == 0 ? "" : ", ", node,
                  static_cast<unsigned long long>(totals[node].ops),
                  static_cast<unsigned long long>(totals[node].bytes));
    out += buf;
  }
  out += "]";
  return out;
}

std::string MetricsRegistry::CacheJsonObject() const {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  for (const auto& [name, row] : labels_) {
    hits += row.cache_hits;
    misses += row.cache_misses;
    invalidations += row.cache_invalidations;
  }
  const uint64_t lookups = hits + misses;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"hits\": %llu, \"misses\": %llu, \"hit_ratio\": %.4f, "
                "\"invalidations\": %llu}",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups,
                static_cast<unsigned long long>(invalidations));
  return buf;
}

}  // namespace fmds

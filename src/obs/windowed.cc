#include "src/obs/windowed.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fmds {

// ---------------------------------------------------------------------------
// WindowedHistogram

namespace {

// Smallest power of two >= ceil(window_ns / slots), plus its log2. The
// power-of-two span turns every epoch computation — one per recorded op on
// the hot path — into a shift.
std::pair<uint64_t, int> SlotSpanOf(uint64_t window_ns, size_t slots) {
  const uint64_t target =
      std::max<uint64_t>(1, (window_ns + slots - 1) / slots);
  const uint64_t span = std::bit_ceil(target);
  return {span, std::countr_zero(span)};
}

}  // namespace

WindowedHistogram::WindowedHistogram(uint64_t window_ns, size_t slots,
                                     int sub_bits)
    : sub_bits_(sub_bits) {
  if (slots == 0) {
    slots = 1;
  }
  const auto [span, shift] = SlotSpanOf(window_ns, slots);
  slot_ns_ = span;
  slot_shift_ = shift;
  ring_.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    ring_.push_back(Slot{kNoEpoch, LogHistogram(sub_bits)});
  }
}

LogHistogram& WindowedHistogram::ClaimSlot(uint64_t epoch) {
  Slot& slot = ring_[epoch % ring_.size()];
  if (slot.epoch != epoch) {
    // Lazy rotation: the slot last held an epoch that is now >= one full
    // window old — clear in place (no reallocation) and claim it.
    slot.hist.Clear();
    slot.epoch = epoch;
  }
  return slot.hist;
}

void WindowedHistogram::Record(uint64_t now_ns, uint64_t value) {
  ClaimSlot(EpochOf(now_ns)).Record(value);
}

LogHistogram WindowedHistogram::MergedRecent(uint64_t now_ns) const {
  LogHistogram merged(sub_bits_);
  MergeRecentInto(now_ns, &merged);
  return merged;
}

void WindowedHistogram::MergeRecentInto(uint64_t now_ns,
                                        LogHistogram* out) const {
  const uint64_t epoch_now = EpochOf(now_ns);
  for (const Slot& slot : ring_) {
    if (SlotLive(slot, epoch_now)) {
      out->MergeFrom(slot.hist);
    }
  }
}

uint64_t WindowedHistogram::RecentCount(uint64_t now_ns) const {
  const uint64_t epoch_now = EpochOf(now_ns);
  uint64_t total = 0;
  for (const Slot& slot : ring_) {
    if (SlotLive(slot, epoch_now)) {
      total += slot.hist.count();
    }
  }
  return total;
}

uint64_t WindowedHistogram::RecentPercentile(uint64_t now_ns, double q) const {
  return MergedRecent(now_ns).Percentile(q);
}

double WindowedHistogram::RecentRatePerSec(uint64_t now_ns) const {
  const double span_sec = static_cast<double>(window_ns()) * 1e-9;
  return static_cast<double>(RecentCount(now_ns)) / span_sec;
}

// ---------------------------------------------------------------------------
// WindowedRate

WindowedRate::WindowedRate(uint64_t window_ns, size_t slots) {
  if (slots == 0) {
    slots = 1;
  }
  const auto [span, shift] = SlotSpanOf(window_ns, slots);
  slot_ns_ = span;
  slot_shift_ = shift;
  epochs_.assign(slots, kNoEpoch);
  counts_.assign(slots, 0);
}

void WindowedRate::Add(uint64_t now_ns, uint64_t n) {
  AddAtEpoch(now_ns >> slot_shift_, n);
}

void WindowedRate::AddAtEpoch(uint64_t epoch, uint64_t n) {
  const size_t i = epoch % epochs_.size();
  if (epochs_[i] != epoch) {
    epochs_[i] = epoch;
    counts_[i] = 0;
  }
  counts_[i] += n;
}

uint64_t WindowedRate::RecentCount(uint64_t now_ns) const {
  const uint64_t epoch_now = now_ns >> slot_shift_;
  uint64_t total = 0;
  for (size_t i = 0; i < epochs_.size(); ++i) {
    const uint64_t e = epochs_[i];
    if (e != kNoEpoch && e <= epoch_now && e + epochs_.size() > epoch_now) {
      total += counts_[i];
    }
  }
  return total;
}

double WindowedRate::RecentRatePerSec(uint64_t now_ns) const {
  const double span_sec = static_cast<double>(window_ns()) * 1e-9;
  return static_cast<double>(RecentCount(now_ns)) / span_sec;
}

// ---------------------------------------------------------------------------
// Ewma

void Ewma::UpdateMany(uint64_t now_ns, double sample, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (count_ == 0) {
    value_ = sample;
  } else {
    const uint64_t dt = now_ns > last_ns_ ? now_ns - last_ns_ : 0;
    const double alpha =
        1.0 - std::exp(-static_cast<double>(dt) / static_cast<double>(tau_ns_));
    // dt == 0 (several ops completing at the same simulated instant) gives
    // alpha == 0; average those samples in with a small floor instead of
    // dropping them entirely.
    const double a = std::max(alpha, 1e-3);
    value_ += a * (sample - value_);
  }
  count_ += n;
  last_ns_ = std::max(last_ns_, now_ns);
}

// ---------------------------------------------------------------------------
// WindowedSignals

WindowedSignals::WindowedSignals(const WindowedOptions& options)
    : options_(options),
      txn_commits_(options.window_ns, options.slots),
      txn_aborts_(options.window_ns, options.slots),
      txn_vfails_(options.window_ns, options.slots) {
  if (options_.staging == 0) {
    options_.staging = 1;
  }
  kind_hist_.reserve(kFarOpKindCount);
  for (size_t k = 0; k < kFarOpKindCount; ++k) {
    kind_hist_.emplace_back(options_.window_ns, options_.slots,
                            options_.sub_bits);
  }
  slot_shift_ = kind_hist_[0].slot_shift();
  // +2 headroom: Drain flushes both pending run slots into the tail,
  // and BreakRun only guarantees staged_total_ <= staging_cap_ on entry.
  staging_.resize(options_.staging + 2);
  staging_data_ = staging_.data();
  staging_cap_ = options_.staging;
}

void WindowedSignals::BreakRun(uint64_t key) {
  if (pend_[1].count != 0) {
    if (staged_total_ == staging_cap_) {
      // Rare: more distinct runs than staging slots within one sub-window.
      // Drain flushes both pending slots too, so fall through with them
      // empty.
      Drain();
    }
    if (pend_[1].count != 0) {
      staging_data_[staged_total_++] = pend_[1];
    }
  }
  pend_[1] = pend_[0];
  pend_[0] = PendingRun{key, 1};
}

void WindowedSignals::GrowNodeHot(size_t node) {
  node_hot_.resize(node + 1);
  node_hot_data_ = node_hot_.data();
  node_hot_cap_ = node_hot_.size();
}

void WindowedSignals::RecordTxn(uint64_t now_ns, bool committed,
                                bool validate_fail) {
  Drain();
  if (committed) {
    txn_commits_.Add(now_ns, 1);
  } else {
    txn_aborts_.Add(now_ns, 1);
    if (validate_fail) {
      txn_vfails_.Add(now_ns, 1);
    }
  }
  last_now_ns_ = std::max(last_now_ns_, now_ns);
}

void WindowedSignals::Drain() {
  for (PendingRun& p : pend_) {
    if (p.count != 0) {
      staging_data_[staged_total_++] = p;
    }
    p = PendingRun{};
  }
  if (staged_total_ == 0) {
    return;
  }
  // Every staged run shares one sub-window epoch — RecordOp drains BEFORE
  // admitting a record from a new sub-window — so each kind's ring slot is
  // claimed once per batch and runs replay straight into it: one bucket
  // delta and one summary fold per run, not per record. With the two
  // pending slots absorbing the dominant latency alternation, a typical
  // batch is a handful of runs covering a whole sub-window of records.
  const uint64_t epoch = staged_epoch_;
  const uint64_t newest = std::max(last_now_ns_, staged_last_now_);
  LogHistogram* slot[kFarOpKindCount] = {};
  for (size_t i = 0; i < staged_total_; ++i) {
    const PendingRun& r = staging_data_[i];
    const uint64_t lat = r.key >> 8;
    const size_t kind = static_cast<size_t>(r.key & 0xff);
    LogHistogram*& s = slot[kind];
    if (s == nullptr) {
      s = &kind_hist_[kind].ClaimSlot(epoch);
    }
    s->AddBucketCount(
        LogHistogram::BucketIndexFor(lat, options_.sub_bits, s->bucket_count()),
        r.count);
    s->ApplyBatchSummary(r.count, r.count * lat, lat, lat);
  }
  // Fold the per-node table: the expensive per-node work (two ring bumps +
  // one exp() for the load EWMA, see Ewma::UpdateMany) runs once per
  // touched node per drain, not once per record.
  for (size_t n = 0; n < node_hot_.size(); ++n) {
    NodeAgg& a = node_hot_[n];
    if (a.ops == 0) {
      continue;
    }
    EnsureNode(n);
    node_ops_[n].AddAtEpoch(epoch, a.ops);
    node_bytes_[n].AddAtEpoch(epoch, a.bytes);
    node_load_[n].UpdateMany(
        newest, static_cast<double>(a.latency_sum) / static_cast<double>(a.ops),
        a.ops);
    a = NodeAgg{};
  }
  last_now_ns_ = newest;
  staged_total_ = 0;
}

void WindowedSignals::EnsureNode(size_t node) {
  while (node_ops_.size() <= node) {
    node_ops_.emplace_back(options_.window_ns, options_.slots);
    node_bytes_.emplace_back(options_.window_ns, options_.slots);
    node_load_.emplace_back(options_.ewma_tau_ns);
  }
}

uint64_t WindowedSignals::RecentPercentile(FarOpKind kind, double q) {
  Drain();
  return kind_hist_[static_cast<size_t>(kind)].RecentPercentile(last_now_ns_,
                                                                q);
}

uint64_t WindowedSignals::RecentPercentileAll(double q) {
  Drain();
  // The all-kinds view is a read-time merge over the per-kind windows
  // (excluding the kBatch roll-up span) — read-side work so the drain loop
  // appends each record once.
  LogHistogram merged(options_.sub_bits);
  for (size_t k = 0; k < kFarOpKindCount; ++k) {
    if (k == static_cast<size_t>(FarOpKind::kBatch)) {
      continue;
    }
    kind_hist_[k].MergeRecentInto(last_now_ns_, &merged);
  }
  return merged.Percentile(q);
}

uint64_t WindowedSignals::RecentCount(FarOpKind kind) {
  Drain();
  return kind_hist_[static_cast<size_t>(kind)].RecentCount(last_now_ns_);
}

uint64_t WindowedSignals::RecentCountAll() {
  Drain();
  uint64_t total = 0;
  for (size_t k = 0; k < kFarOpKindCount; ++k) {
    if (k == static_cast<size_t>(FarOpKind::kBatch)) {
      continue;
    }
    total += kind_hist_[k].RecentCount(last_now_ns_);
  }
  return total;
}

double WindowedSignals::RecentOpsPerSec(NodeId node) {
  Drain();
  if (node >= node_ops_.size()) {
    return 0.0;
  }
  return node_ops_[node].RecentRatePerSec(last_now_ns_);
}

double WindowedSignals::RecentBytesPerSec(NodeId node) {
  Drain();
  if (node >= node_bytes_.size()) {
    return 0.0;
  }
  return node_bytes_[node].RecentRatePerSec(last_now_ns_);
}

double WindowedSignals::NodeLoadEwma(NodeId node) {
  Drain();
  if (node >= node_load_.size()) {
    return 0.0;
  }
  return node_load_[node].value();
}

size_t WindowedSignals::node_count() {
  Drain();
  return node_ops_.size();
}

double WindowedSignals::RecentTxnAbortRate() {
  Drain();
  const uint64_t commits = txn_commits_.RecentCount(last_now_ns_);
  const uint64_t aborts = txn_aborts_.RecentCount(last_now_ns_);
  const uint64_t total = commits + aborts;
  return total == 0 ? 0.0
                    : static_cast<double>(aborts) / static_cast<double>(total);
}

double WindowedSignals::RecentTxnValidateFailRate() {
  Drain();
  const uint64_t commits = txn_commits_.RecentCount(last_now_ns_);
  const uint64_t aborts = txn_aborts_.RecentCount(last_now_ns_);
  const uint64_t vfails = txn_vfails_.RecentCount(last_now_ns_);
  const uint64_t total = commits + aborts;
  return total == 0 ? 0.0
                    : static_cast<double>(vfails) / static_cast<double>(total);
}

uint64_t WindowedSignals::RecentTxnCommits() {
  Drain();
  return txn_commits_.RecentCount(last_now_ns_);
}

uint64_t WindowedSignals::RecentTxnAborts() {
  Drain();
  return txn_aborts_.RecentCount(last_now_ns_);
}

uint64_t WindowedSignals::last_now_ns() {
  Drain();
  return last_now_ns_;
}

}  // namespace fmds

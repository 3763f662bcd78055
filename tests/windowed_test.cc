// Windowed-telemetry primitive tests (src/obs/windowed.*): LogHistogram
// window-rotation support (Clear / MergeFrom and the dirty-range reuse they
// rely on), WindowedHistogram epoch rotation and expiry, WindowedRate,
// irregular-interval Ewma, and the WindowedSignals run-collapse write path —
// counts must stay EXACT through every staging shape (repeats, 2-way
// alternation, third-key eviction, staging overflow, epoch crossings) —
// plus the OpRecorder pause/park semantics the E15 bench toggles through.
#include <cstdint>

#include <gtest/gtest.h>

#include "src/common/histogram.h"
#include "src/obs/recorder.h"
#include "src/obs/windowed.h"

namespace fmds {
namespace {

// Small, power-of-two-friendly geometry: slot span bit_ceil(1024) = 1024 ns,
// 8 slots, effective window 8192 ns.
WindowedOptions TinyWindow() {
  WindowedOptions o;
  o.window_ns = 8 * 1024;
  o.slots = 8;
  o.sub_bits = 3;
  o.ewma_tau_ns = 1024;
  return o;
}

// ------------------- LogHistogram window-rotation support -------------------

TEST(LogHistogramWindowTest, ClearThenRecord) {
  LogHistogram h(3);
  h.Record(100);
  h.Record(100000);
  ASSERT_EQ(h.count(), 2u);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  // The cleared instance records correctly again (dirty-span reset must not
  // leave stale buckets behind).
  h.Record(500);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 500u);
  EXPECT_EQ(h.max(), 500u);
  EXPECT_EQ(h.Percentile(0.5), 500u);
}

TEST(LogHistogramWindowTest, MergeFromIntoEmpty) {
  LogHistogram src(3);
  for (uint64_t v : {10u, 20u, 20u, 4000u}) {
    src.Record(v);
  }
  LogHistogram dst(3);
  ASSERT_TRUE(dst.MergeFrom(src));
  EXPECT_EQ(dst.count(), src.count());
  EXPECT_EQ(dst.sum(), src.sum());
  EXPECT_EQ(dst.min(), src.min());
  EXPECT_EQ(dst.max(), src.max());
  EXPECT_EQ(dst.Percentile(0.5), src.Percentile(0.5));
}

TEST(LogHistogramWindowTest, MergeFromEmptySourceIsNoOp) {
  LogHistogram dst(3);
  dst.Record(77);
  LogHistogram empty(3);
  ASSERT_TRUE(dst.MergeFrom(empty));
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), 77u);
  EXPECT_EQ(dst.max(), 77u);
}

TEST(LogHistogramWindowTest, MergeFromCrossSubBitsRejected) {
  LogHistogram coarse(3);
  LogHistogram fine(5);
  fine.Record(123);
  ASSERT_FALSE(coarse.MergeFrom(fine));
  // Target untouched by the rejected merge.
  EXPECT_EQ(coarse.count(), 0u);
  EXPECT_EQ(coarse.Percentile(0.99), 0u);
  // Merge() still accepts cross-resolution sources (degrades to bucket
  // lower bounds) — only the in-place window path rejects.
  coarse.Merge(fine);
  EXPECT_EQ(coarse.count(), 1u);
}

TEST(LogHistogramWindowTest, ClearedSourceMergesAsEmpty) {
  LogHistogram src(3);
  src.Record(1000);
  src.Clear();
  LogHistogram dst(3);
  dst.Record(5);
  ASSERT_TRUE(dst.MergeFrom(src));
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.max(), 5u);
}

TEST(LogHistogramWindowTest, RepeatedClearRecordCycles) {
  // The window ring clears and refills the same instance every rotation;
  // statistics must be identical cycle after cycle.
  LogHistogram h(3);
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (uint64_t v = 1; v <= 100; ++v) {
      h.Record(v * 7);
    }
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.min(), 7u);
    EXPECT_EQ(h.max(), 700u);
    h.Clear();
  }
  EXPECT_EQ(h.count(), 0u);
}

// --------------------------- WindowedHistogram ---------------------------

TEST(WindowedHistogramTest, SlotSpanIsPowerOfTwoCoveringWindow) {
  WindowedHistogram w(5'000'000, 8, 3);
  const uint64_t span = w.slot_ns();
  EXPECT_EQ(span & (span - 1), 0u) << "slot span must be a power of two";
  EXPECT_GE(span * 8, 5'000'000u);
  EXPECT_EQ(w.window_ns(), span * 8);
  EXPECT_EQ(uint64_t{1} << w.slot_shift(), span);
}

TEST(WindowedHistogramTest, RecentExcludesExpiredSubWindows) {
  WindowedHistogram w(8 * 1024, 8, 3);
  const uint64_t slot = w.slot_ns();
  w.Record(0, 100);
  w.Record(slot, 200);
  EXPECT_EQ(w.RecentCount(slot), 2u);
  // Advance so the epoch-0 sub-window falls out of [now - W, now]: at
  // now = 8 * slot the live epochs are 1..8.
  EXPECT_EQ(w.RecentCount(8 * slot), 1u);
  EXPECT_EQ(w.MergedRecent(8 * slot).max(), 200u);
  // Far future: everything expired.
  EXPECT_EQ(w.RecentCount(100 * slot), 0u);
  EXPECT_EQ(w.RecentPercentile(100 * slot, 0.99), 0u);
}

TEST(WindowedHistogramTest, RingSlotReuseReplacesOldEpoch) {
  WindowedHistogram w(8 * 1024, 8, 3);
  const uint64_t slot = w.slot_ns();
  w.Record(0, 111);  // epoch 0
  // Epoch 8 maps to the same ring slot as epoch 0; the lazy clear must
  // drop the old contents, not merge into them.
  w.Record(8 * slot, 222);
  const LogHistogram merged = w.MergedRecent(8 * slot);
  EXPECT_EQ(merged.count(), 1u);
  EXPECT_EQ(merged.min(), 222u);
}

// ------------------------------ WindowedRate ------------------------------

TEST(WindowedRateTest, CountsAndExpires) {
  WindowedRate rate(8 * 1024, 8);
  const uint64_t slot = uint64_t{1} << rate.slot_shift();
  rate.Add(0, 5);
  rate.Add(slot, 7);
  EXPECT_EQ(rate.RecentCount(slot), 12u);
  EXPECT_EQ(rate.RecentCount(8 * slot), 7u);
  EXPECT_EQ(rate.RecentCount(100 * slot), 0u);
  const double span_sec = static_cast<double>(rate.window_ns()) * 1e-9;
  EXPECT_DOUBLE_EQ(rate.RecentRatePerSec(slot), 12.0 / span_sec);
}

// ---------------------------------- Ewma ----------------------------------

TEST(EwmaTest, FirstSampleInitializesThenDecays) {
  Ewma e(1000);
  e.Update(0, 100.0);
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
  // dt = 10 tau: alpha ~ 1, value lands (almost) on the sample.
  e.Update(10'000, 200.0);
  EXPECT_GT(e.value(), 195.0);
  EXPECT_LE(e.value(), 200.0);
  // dt = 0 uses the small floor instead of ignoring the sample.
  const double before = e.value();
  e.Update(10'000, 1000.0);
  EXPECT_GT(e.value(), before);
  EXPECT_EQ(e.count(), 3u);
}

TEST(EwmaTest, UpdateManyCountsBatch) {
  Ewma e(1000);
  e.UpdateMany(0, 50.0, 10);
  EXPECT_EQ(e.count(), 10u);
  EXPECT_DOUBLE_EQ(e.value(), 50.0);
  e.UpdateMany(500, 60.0, 0);  // n = 0 is a no-op
  EXPECT_EQ(e.count(), 10u);
  EXPECT_DOUBLE_EQ(e.value(), 50.0);
}

// ------------------------- WindowedSignals write path -------------------------
// The hot path collapses records into (latency, kind) runs held in two
// pending slots before anything reaches the staging array; every shape of
// that machinery must preserve exact counts.

TEST(WindowedSignalsTest, RepeatRunCountsExact) {
  WindowedSignals s(TinyWindow());
  for (int i = 0; i < 1000; ++i) {
    s.RecordOp(FarOpKind::kRead, 0, 64, 100, 900);
  }
  EXPECT_EQ(s.RecentCount(FarOpKind::kRead), 1000u);
  EXPECT_EQ(s.RecentCountAll(), 1000u);
  EXPECT_EQ(s.RecentPercentile(FarOpKind::kRead, 1.0), 900u);
}

TEST(WindowedSignalsTest, TwoWayAlternationCountsExact) {
  // A-B-A-B latencies: the two pending slots must absorb the alternation
  // (this is the dominant real traffic shape — alternating bucket-read /
  // value-read latencies).
  WindowedSignals s(TinyWindow());
  for (int i = 0; i < 501; ++i) {  // odd total: ends mid-alternation
    s.RecordOp(FarOpKind::kRead, 0, 64, 50, i % 2 == 0 ? 700 : 1300);
  }
  EXPECT_EQ(s.RecentCount(FarOpKind::kRead), 501u);
  EXPECT_EQ(s.RecentPercentile(FarOpKind::kRead, 0.0), 700u);
  EXPECT_EQ(s.RecentPercentile(FarOpKind::kRead, 1.0), 1300u);
}

TEST(WindowedSignalsTest, SameLatencyDifferentKindSplitsRuns) {
  WindowedSignals s(TinyWindow());
  for (int i = 0; i < 10; ++i) {
    s.RecordOp(FarOpKind::kRead, 0, 64, 10, 500);
    s.RecordOp(FarOpKind::kWrite, 0, 64, 10, 500);
  }
  EXPECT_EQ(s.RecentCount(FarOpKind::kRead), 10u);
  EXPECT_EQ(s.RecentCount(FarOpKind::kWrite), 10u);
}

TEST(WindowedSignalsTest, ThirdKeyEvictsToStaging) {
  // Three interleaved latencies exceed the two pending slots, forcing the
  // BreakRun eviction path on every third record.
  WindowedSignals s(TinyWindow());
  const uint64_t lats[3] = {400, 800, 1600};
  for (int i = 0; i < 300; ++i) {
    s.RecordOp(FarOpKind::kRead, 0, 64, 20, lats[i % 3]);
  }
  EXPECT_EQ(s.RecentCount(FarOpKind::kRead), 300u);
  EXPECT_EQ(s.RecentPercentile(FarOpKind::kRead, 0.0), 400u);
  EXPECT_EQ(s.RecentPercentile(FarOpKind::kRead, 1.0), 1600u);
}

TEST(WindowedSignalsTest, StagingOverflowDrainsMidEpoch) {
  // More distinct runs than staging slots within one sub-window: BreakRun
  // must drain in place and keep counting exactly.
  WindowedOptions o = TinyWindow();
  o.staging = 4;
  WindowedSignals s(o);
  for (uint64_t i = 0; i < 100; ++i) {
    s.RecordOp(FarOpKind::kRead, 0, 64, 30, 100 + i * 8);
  }
  EXPECT_EQ(s.RecentCount(FarOpKind::kRead), 100u);
}

TEST(WindowedSignalsTest, EpochCrossingsPreserveCountsAndExpire) {
  WindowedSignals s(TinyWindow());
  const uint64_t slot = uint64_t{1} << 10;  // bit_ceil(8192 / 8)
  // One op per sub-window for two full windows of simulated time.
  for (uint64_t e = 0; e < 16; ++e) {
    s.RecordOp(FarOpKind::kRead, 0, 64, e * slot + 1, 600);
  }
  // At now = 15 * slot + 1 the live epochs are 8..15: exactly 8 survive.
  EXPECT_EQ(s.RecentCount(FarOpKind::kRead), 8u);
}

TEST(WindowedSignalsTest, LatencyClampsTo32Bits) {
  WindowedSignals s(TinyWindow());
  s.RecordOp(FarOpKind::kRead, 0, 64, 40, uint64_t{1} << 40);
  EXPECT_EQ(s.RecentCount(FarOpKind::kRead), 1u);
  EXPECT_EQ(s.RecentPercentile(FarOpKind::kRead, 1.0), uint64_t{UINT32_MAX});
}

TEST(WindowedSignalsTest, PerNodeAttribution) {
  WindowedSignals s(TinyWindow());
  for (int i = 0; i < 30; ++i) {
    s.RecordOp(FarOpKind::kRead, 0, 100, 50, 500);
  }
  for (int i = 0; i < 10; ++i) {
    s.RecordOp(FarOpKind::kRead, 2, 300, 50, 2000);
  }
  // An op no memory node serviced (a delivered notification) counts for
  // its kind but owns no per-node row.
  s.RecordOp(FarOpKind::kNotification, kObsNoNode, 8, 50, 0);
  ASSERT_GE(s.node_count(), 3u);
  EXPECT_EQ(s.node_count(), 3u);
  EXPECT_EQ(s.RecentCount(FarOpKind::kNotification), 1u);
  EXPECT_DOUBLE_EQ(s.RecentOpsPerSec(0) / s.RecentOpsPerSec(2), 3.0);
  // bytes: node0 30*100, node2 10*300 — equal rolling byte rates.
  EXPECT_DOUBLE_EQ(s.RecentBytesPerSec(0), s.RecentBytesPerSec(2));
  EXPECT_GT(s.NodeLoadEwma(2), s.NodeLoadEwma(0));
  // Node 1 never saw traffic.
  EXPECT_EQ(s.RecentOpsPerSec(1), 0.0);
  EXPECT_EQ(s.NodeLoadEwma(1), 0.0);
  // Out-of-range node ids answer 0, never grow state.
  EXPECT_EQ(s.RecentOpsPerSec(57), 0.0);
}

TEST(WindowedSignalsTest, BatchKindExcludedFromAllAndNodes) {
  WindowedSignals s(TinyWindow());
  s.RecordOp(FarOpKind::kRead, 0, 64, 60, 500);
  // kBatch is a span over its member ops: tracked per kind, excluded from
  // the all-kinds roll-up and from per-node attribution.
  s.RecordOp(FarOpKind::kBatch, 0, 256, 60, 9000);
  EXPECT_EQ(s.RecentCount(FarOpKind::kBatch), 1u);
  EXPECT_EQ(s.RecentCountAll(), 1u);
  EXPECT_EQ(s.RecentPercentileAll(1.0), 500u);
  const double span_sec =
      static_cast<double>(8 * (uint64_t{1} << 10)) * 1e-9;
  EXPECT_DOUBLE_EQ(s.RecentOpsPerSec(0), 1.0 / span_sec);
}

TEST(WindowedSignalsTest, TxnOutcomeRates) {
  WindowedSignals s(TinyWindow());
  for (int i = 0; i < 6; ++i) {
    s.RecordTxn(100, /*committed=*/true, false);
  }
  s.RecordTxn(100, /*committed=*/false, /*validate_fail=*/true);
  s.RecordTxn(100, /*committed=*/false, /*validate_fail=*/false);
  EXPECT_EQ(s.RecentTxnCommits(), 6u);
  EXPECT_EQ(s.RecentTxnAborts(), 2u);
  EXPECT_DOUBLE_EQ(s.RecentTxnAbortRate(), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.RecentTxnValidateFailRate(), 1.0 / 8.0);
}

TEST(WindowedSignalsTest, ReadersSeeTheOpenSubWindow) {
  // The owner reads its own signals, so every reader folds the runs still
  // staged in the current sub-window first: no op recorded so far is
  // missing from the answer.
  WindowedSignals s(TinyWindow());
  for (uint64_t i = 0; i < 100; ++i) {
    s.RecordOp(FarOpKind::kRead, 0, 64, 100 + i, i % 3 == 0 ? 700 : 900);
  }
  EXPECT_EQ(s.RecentCountAll(), 100u);
  s.RecordOp(FarOpKind::kWrite, 1, 64, 300, 500);
  EXPECT_EQ(s.RecentCountAll(), 101u);
  EXPECT_EQ(s.RecentPercentileAll(0.0), 500u);
  EXPECT_EQ(s.node_count(), 2u);
}

TEST(WindowedSignalsTest, TxnDrainsPendingOps) {
  // RecordTxn folds any staged ops first, so a read right after a txn
  // outcome sees both.
  WindowedSignals s(TinyWindow());
  s.RecordOp(FarOpKind::kRead, 0, 64, 70, 500);
  s.RecordTxn(70, true, false);
  EXPECT_EQ(s.RecentCountAll(), 1u);
}

// ----------------------- OpRecorder pause / park API -----------------------

TEST(RecorderWindowedTest, OffByDefault) {
  OpRecorder recorder(1);
  EXPECT_EQ(recorder.windowed(), nullptr);
  EXPECT_FALSE(recorder.recording());
}

TEST(RecorderWindowedTest, PauseDropsRecordsResumeKeepsState) {
  OpRecorder recorder(1);
  ObsOptions opts = ObsOptions::WindowedOnly();
  opts.windowed_opts = TinyWindow();
  recorder.set_options(opts);
  ASSERT_TRUE(recorder.windowed_enabled());

  recorder.RecordOp(FarOpKind::kRead, 0, 0, 64, 100, 500, true);
  EXPECT_EQ(recorder.windowed()->RecentCountAll(), 1u);

  recorder.PauseWindowed();
  EXPECT_EQ(recorder.windowed(), nullptr);
  EXPECT_FALSE(recorder.recording());
  // Dropped while parked — by the recording() gate callers use, and by the
  // null windowed_ inside RecordOp itself.
  recorder.RecordOp(FarOpKind::kRead, 0, 0, 64, 200, 500, true);
  recorder.PauseWindowed();  // idempotent

  recorder.ResumeWindowed();
  ASSERT_TRUE(recorder.windowed_enabled());
  recorder.ResumeWindowed();  // idempotent
  recorder.RecordOp(FarOpKind::kRead, 0, 0, 64, 300, 500, true);
  // The parked window state survived: 1 (before) + 1 (after), not 3.
  EXPECT_EQ(recorder.windowed()->RecentCountAll(), 2u);
}

TEST(RecorderWindowedTest, SetOptionsDropsParkedInstance) {
  OpRecorder recorder(1);
  ObsOptions opts = ObsOptions::WindowedOnly();
  opts.windowed_opts = TinyWindow();
  recorder.set_options(opts);
  recorder.RecordOp(FarOpKind::kRead, 0, 0, 64, 100, 500, true);
  recorder.PauseWindowed();
  recorder.set_options(opts);  // rebuilds windowed_, discards parked
  ASSERT_TRUE(recorder.windowed_enabled());
  EXPECT_EQ(recorder.windowed()->RecentCountAll(), 0u);
  // Resume after the rebuild must not revive the stale instance.
  recorder.ResumeWindowed();
  EXPECT_EQ(recorder.windowed()->RecentCountAll(), 0u);
}

}  // namespace
}  // namespace fmds

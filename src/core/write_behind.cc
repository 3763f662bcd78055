#include "src/core/write_behind.h"

#include <chrono>
#include <utility>

#include "src/obs/recorder.h"

namespace fmds {

WriteBehindEngine::WriteBehindEngine(FarClient* app_client,
                                     std::unique_ptr<Publisher> publisher,
                                     WriteBehindOptions options)
    : app_client_(app_client),
      publisher_(std::move(publisher)),
      options_(options) {
  if (options_.max_batch == 0) {
    options_.max_batch = 1;
  }
  if (options_.max_pending < options_.max_batch) {
    options_.max_pending = options_.max_batch;
  }
  flusher_ = std::thread([this] { FlusherMain(); });
}

WriteBehindEngine::~WriteBehindEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    work_cv_.notify_all();
  }
  // FlusherMain drains every staged record before honoring stop_.
  flusher_.join();
}

void WriteBehindEngine::Put(uint64_t key, uint64_t value) {
  Enqueue(key, value, /*tombstone=*/false);
}

void WriteBehindEngine::Remove(uint64_t key) {
  Enqueue(key, /*value=*/0, /*tombstone=*/true);
}

void WriteBehindEngine::Enqueue(uint64_t key, uint64_t value, bool tombstone) {
  // App thread: the clock read anchors the staged record's age gauge.
  const uint64_t now_ns = app_client_->clock().now_ns();
  std::unique_lock<std::mutex> lock(mu_);
  if (StagedLocked() >= options_.max_pending) {
    work_cv_.notify_one();
    drain_cv_.wait(lock,
                   [&] { return StagedLocked() < options_.max_pending; });
  }
  last_app_now_ns_ = std::max(last_app_now_ns_, now_ns);
  const uint64_t seq = next_seq_++;
  if (options_.combine) {
    if (staged_keys_.insert(key).second) {
      order_.push_back(key);
      latest_[key] = Rec{value, tombstone, seq, now_ns};
      unpublished_.fetch_add(1, std::memory_order_release);
    } else {
      // Overwrote a staged record in place: the superseded write will never
      // cost a doorbell. Charged to the app client — combining happens on
      // the hot path. The staging timestamp survives the overwrite so the
      // age gauge reports how long the key has waited, not its last touch.
      Rec& rec = latest_[key];
      const uint64_t staged_ns = rec.enqueue_ns;
      rec = Rec{value, tombstone, seq, staged_ns};
      ++app_client_->mutable_stats().writes_combined;
    }
  } else {
    latest_[key] = Rec{value, tombstone, seq, now_ns};
    fifo_.push_back(FifoRec{key, value, tombstone, seq, now_ns});
    unpublished_.fetch_add(1, std::memory_order_release);
  }
  if (StagedLocked() >= options_.max_batch) {
    work_cv_.notify_one();
  }
}

std::optional<Result<uint64_t>> WriteBehindEngine::Lookup(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = latest_.find(key);
  if (it == latest_.end()) {
    return std::nullopt;
  }
  if (it->second.tombstone) {
    return Result<uint64_t>(NotFound("key removed"));
  }
  return Result<uint64_t>(it->second.value);
}

Status WriteBehindEngine::FlushBarrier() {
  std::unique_lock<std::mutex> lock(mu_);
  ++barrier_waiters_;
  work_cv_.notify_all();
  drain_cv_.wait(lock, [&] { return StagedLocked() == 0 && !in_flight_; });
  --barrier_waiters_;
  Status s = first_error_;
  first_error_ = OkStatus();
  return s;
}

WriteBehindEngine::Batch WriteBehindEngine::TakeBatchLocked(
    std::vector<uint64_t>* seqs) {
  Batch batch;
  if (options_.combine) {
    const size_t n = std::min(order_.size(), options_.max_batch);
    batch.keys.reserve(n);
    batch.values.reserve(n);
    batch.tombstones.reserve(n);
    seqs->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = order_.front();
      order_.pop_front();
      staged_keys_.erase(key);
      const Rec& rec = latest_[key];
      batch.keys.push_back(key);
      batch.values.push_back(rec.value);
      batch.tombstones.push_back(rec.tombstone ? 1 : 0);
      seqs->push_back(rec.seq);
    }
  } else {
    // Stop at the first same-key duplicate: two writes to one key must not
    // ride one MultiWrite, whose same-batch duplicate order is unspecified.
    std::unordered_set<uint64_t> in_batch;
    while (!fifo_.empty() && batch.keys.size() < options_.max_batch) {
      const FifoRec& rec = fifo_.front();
      if (!in_batch.insert(rec.key).second) {
        break;
      }
      batch.keys.push_back(rec.key);
      batch.values.push_back(rec.value);
      batch.tombstones.push_back(rec.tombstone ? 1 : 0);
      seqs->push_back(rec.seq);
      fifo_.pop_front();
    }
  }
  return batch;
}

void WriteBehindEngine::FlusherMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait_for(
        lock, std::chrono::microseconds(options_.flush_interval_us), [&] {
          return stop_ || StagedLocked() >= options_.max_batch ||
                 (barrier_waiters_ > 0 && StagedLocked() > 0);
        });
    if (StagedLocked() == 0) {
      if (stop_) {
        break;
      }
      drain_cv_.notify_all();
      continue;
    }
    std::vector<uint64_t> seqs;
    Batch batch = TakeBatchLocked(&seqs);
    in_flight_ = true;
    drain_cv_.notify_all();  // staging space freed
    lock.unlock();

    FarClient* fc = publisher_->client();
    const uint64_t stage0_ns = fc->clock().now_ns();
    {
      // Stage 1 (coalesce): the merge itself happened at enqueue time under
      // mu_; this accounts the near-side work of materializing the batch.
      ScopedOpLabel label(&fc->recorder(), "wb.coalesce");
      fc->AccountNear(batch.keys.size());
      ++fc->mutable_stats().flush_stages;
    }
    const uint64_t stage1_ns = fc->clock().now_ns();
    Status s;
    {
      // Stages 2+3 (CAS-issue + completion-absorb): one counter bump per
      // stage, one doorbell wave each inside the structure's batch engine.
      ScopedOpLabel label(&fc->recorder(), "wb.flush");
      fc->mutable_stats().flush_stages += 2;
      s = publisher_->Publish(batch);
    }
    const uint64_t stage2_ns = fc->clock().now_ns();
    if (s.ok()) {
      // Stage 4 (writer-side cache refill): push published values into the
      // app handle's near cache so the writer's next read hits near memory.
      ScopedOpLabel label(&fc->recorder(), "wb.flush");
      ++fc->mutable_stats().flush_stages;
      publisher_->RefillCaches(batch);
    }
    const uint64_t stage3_ns = fc->clock().now_ns();

    lock.lock();
    // Drain-lag attribution on the flusher's clock, per pipeline stage.
    stage_coalesce_ns_ += stage1_ns - stage0_ns;
    stage_publish_ns_ += stage2_ns - stage1_ns;
    stage_refill_ns_ += stage3_ns - stage2_ns;
    ++batches_flushed_;
    if (s.ok()) {
      records_published_ += batch.keys.size();
    } else {
      ++deferred_errors_;
    }
    // Erase AFTER publish (and refill): a pending-table miss therefore
    // implies the far write — and the writer-side cache update — already
    // happened, which is what makes the Get-side
    // pending -> dispatch -> cache consult order read-your-writes safe.
    for (size_t i = 0; i < batch.keys.size(); ++i) {
      auto it = latest_.find(batch.keys[i]);
      if (it != latest_.end() && it->second.seq == seqs[i]) {
        latest_.erase(it);
      }
    }
    unpublished_.fetch_sub(batch.keys.size(), std::memory_order_release);
    in_flight_ = false;
    if (!s.ok() && first_error_.ok()) {
      first_error_ = s;
    }
    drain_cv_.notify_all();
  }
  drain_cv_.notify_all();
}

WriteBehindEngine::Health WriteBehindEngine::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  Health h;
  h.pending_entries = unpublished_.load(std::memory_order_acquire);
  h.staged_entries = StagedLocked();
  // Logical payload: 8-byte key + 8-byte value per unpublished record.
  h.pending_bytes = h.pending_entries * 16;
  uint64_t oldest_ns = 0;
  bool have_oldest = false;
  if (options_.combine) {
    if (!order_.empty()) {
      const auto it = latest_.find(order_.front());
      if (it != latest_.end()) {
        oldest_ns = it->second.enqueue_ns;
        have_oldest = true;
      }
    }
  } else if (!fifo_.empty()) {
    oldest_ns = fifo_.front().enqueue_ns;
    have_oldest = true;
  }
  if (have_oldest && last_app_now_ns_ > oldest_ns) {
    h.oldest_staged_age_ns = last_app_now_ns_ - oldest_ns;
  }
  h.in_flight = in_flight_;
  h.batches_flushed = batches_flushed_;
  h.records_published = records_published_;
  h.deferred_errors = deferred_errors_;
  h.stage_coalesce_ns = stage_coalesce_ns_;
  h.stage_publish_ns = stage_publish_ns_;
  h.stage_refill_ns = stage_refill_ns_;
  return h;
}

void WriteBehindEngine::AddGauges(GaugeGroup* group,
                                  const std::string& prefix) {
  group->Add(prefix + ".pending_entries", [this] {
    return static_cast<double>(health().pending_entries);
  });
  group->Add(prefix + ".pending_bytes", [this] {
    return static_cast<double>(health().pending_bytes);
  });
  group->Add(prefix + ".oldest_staged_age_ns", [this] {
    return static_cast<double>(health().oldest_staged_age_ns);
  });
  group->Add(prefix + ".in_flight",
             [this] { return health().in_flight ? 1.0 : 0.0; });
  group->Add(prefix + ".batches_flushed", [this] {
    return static_cast<double>(health().batches_flushed);
  });
  group->Add(prefix + ".records_published", [this] {
    return static_cast<double>(health().records_published);
  });
  group->Add(prefix + ".deferred_errors", [this] {
    return static_cast<double>(health().deferred_errors);
  });
  group->Add(prefix + ".stage_coalesce_ns", [this] {
    return static_cast<double>(health().stage_coalesce_ns);
  });
  group->Add(prefix + ".stage_publish_ns", [this] {
    return static_cast<double>(health().stage_publish_ns);
  });
  group->Add(prefix + ".stage_refill_ns", [this] {
    return static_cast<double>(health().stage_refill_ns);
  });
}

}  // namespace fmds

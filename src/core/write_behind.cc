#include "src/core/write_behind.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/obs/recorder.h"

namespace fmds {

WriteBehindEngine::WriteBehindEngine(FarClient* app_client,
                                     std::unique_ptr<Publisher> publisher,
                                     WriteBehindOptions options)
    : app_client_(app_client),
      publisher_(std::move(publisher)),
      options_(options),
      last_flush_ns_(app_client->clock().now_ns()) {
  if (options_.max_batch == 0) {
    options_.max_batch = 1;
  }
  if (options_.max_pending < options_.max_batch) {
    options_.max_pending = options_.max_batch;
  }
}

WriteBehindEngine::~WriteBehindEngine() { (void)FlushBarrier(); }

void WriteBehindEngine::Put(uint64_t key, uint64_t value) {
  Enqueue(key, value, /*tombstone=*/false);
}

void WriteBehindEngine::Remove(uint64_t key) {
  Enqueue(key, /*value=*/0, /*tombstone=*/true);
}

void WriteBehindEngine::Enqueue(uint64_t key, uint64_t value, bool tombstone) {
  // The owner's clock anchors the staged record's age gauge and the
  // interval trigger.
  const uint64_t now_ns = app_client_->clock().now_ns();
  size_t staged = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_app_now_ns_ = std::max(last_app_now_ns_, now_ns);
    const uint64_t seq = next_seq_++;
    if (options_.combine) {
      const auto [it, fresh] = latest_.try_emplace(key);
      if (fresh) {
        order_.push_back(key);
        it->second = Rec{value, tombstone, seq, now_ns};
      } else {
        // Overwrote a staged record in place: the superseded write will
        // never cost a doorbell. Charged to the app client — combining
        // happens on the hot path. The staging timestamp survives the
        // overwrite so the age gauge reports how long the key has waited,
        // not its last touch.
        it->second = Rec{value, tombstone, seq, it->second.enqueue_ns};
        ++app_client_->mutable_stats().writes_combined;
      }
    } else {
      latest_[key] = Rec{value, tombstone, seq, now_ns};
      fifo_.push_back(FifoRec{key, value, tombstone, seq, now_ns});
    }
    staged = StagedLocked();
  }
  if (staged >= options_.max_pending ||
      now_ns >= last_flush_ns_ + options_.flush_interval_us * 1000) {
    FlushOne();
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

bool WriteBehindEngine::Empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StagedLocked() == 0;
}

Status WriteBehindEngine::FlushBarrier() {
  while (!Empty()) {
    FlushOne();
  }
  std::lock_guard<std::mutex> lock(mu_);
  Status s = first_error_;
  first_error_ = OkStatus();
  return s;
}

WriteBehindEngine::Batch WriteBehindEngine::PeekBatchLocked(
    std::vector<uint64_t>* seqs) const {
  Batch batch;
  if (options_.combine) {
    const size_t n = std::min(order_.size(), options_.max_batch);
    batch.keys.reserve(n);
    batch.values.reserve(n);
    batch.tombstones.reserve(n);
    seqs->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = order_[i];
      const Rec& rec = latest_.at(key);
      batch.keys.push_back(key);
      batch.values.push_back(rec.value);
      batch.tombstones.push_back(rec.tombstone ? 1 : 0);
      seqs->push_back(rec.seq);
    }
  } else {
    // Stop at the first same-key duplicate: two writes to one key must not
    // ride one MultiWrite, whose same-batch duplicate order is unspecified.
    std::unordered_set<uint64_t> in_batch;
    for (const FifoRec& rec : fifo_) {
      if (batch.keys.size() == options_.max_batch ||
          !in_batch.insert(rec.key).second) {
        break;
      }
      batch.keys.push_back(rec.key);
      batch.values.push_back(rec.value);
      batch.tombstones.push_back(rec.tombstone ? 1 : 0);
      seqs->push_back(rec.seq);
    }
  }
  return batch;
}

void WriteBehindEngine::FlushOne() {
  std::vector<uint64_t> seqs;
  Batch batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch = PeekBatchLocked(&seqs);
  }
  last_flush_ns_ = app_client_->clock().now_ns();

  FarClient* fc = publisher_->client();
  const uint64_t stage0_ns = fc->clock().now_ns();
  {
    // Stage 1 (coalesce): the merge itself happened at enqueue time; this
    // accounts the near-side work of materializing the batch.
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
    // It runs before the owner can dispatch any later event, so an entry
    // it refills is killed by every write newer than its own.
    ScopedOpLabel label(&fc->recorder(), "wb.flush");
    ++fc->mutable_stats().flush_stages;
    publisher_->RefillCaches(batch);
  }
  const uint64_t stage3_ns = fc->clock().now_ns();

  std::lock_guard<std::mutex> lock(mu_);
  // Drain-lag attribution on the flusher's clock, per pipeline stage.
  stage_coalesce_ns_ += stage1_ns - stage0_ns;
  stage_publish_ns_ += stage2_ns - stage1_ns;
  stage_refill_ns_ += stage3_ns - stage2_ns;
  ++batches_flushed_;
  if (s.ok()) {
    records_published_ += batch.keys.size();
  } else {
    ++deferred_errors_;
    if (first_error_.ok()) {
      first_error_ = s;
    }
  }
  // Drop the batch AFTER publish (and refill): a pending-table miss
  // therefore implies the far write — and the writer-side cache update —
  // already happened, which is what makes the Get-side
  // pending -> dispatch -> cache consult order read-your-writes safe.
  for (size_t i = 0; i < batch.keys.size(); ++i) {
    if (options_.combine) {
      order_.pop_front();
    } else {
      fifo_.pop_front();
    }
    auto it = latest_.find(batch.keys[i]);
    if (it != latest_.end() && it->second.seq == seqs[i]) {
      latest_.erase(it);
    }
  }
}

WriteBehindEngine::Health WriteBehindEngine::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  Health h;
  h.pending_entries = StagedLocked();
  // Logical payload: 8-byte key + 8-byte value per staged record.
  h.pending_bytes = h.pending_entries * 16;
  if (h.pending_entries > 0) {
    // last_app_now_ns_ is the newest enqueue time, so never older.
    const uint64_t oldest_ns = options_.combine
                                   ? latest_.at(order_.front()).enqueue_ns
                                   : fifo_.front().enqueue_ns;
    h.oldest_staged_age_ns = last_app_now_ns_ - oldest_ns;
  }
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

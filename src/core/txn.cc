#include "src/core/txn.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/obs/recorder.h"

namespace fmds {

namespace {
uint64_t VersionBits(uint64_t version) { return version & 0xffffffffull; }
}  // namespace

Status Txn::Abort(const char* why) {
  if (!aborted_) {
    aborted_ = true;
    FarClient* c = client();
    ++c->mutable_stats().txn_aborts;
    c->recorder().RecordTxnOutcome(c->clock().now_ns(), /*committed=*/false,
                                   validate_failed_);
  }
  return Aborted(why);
}

Status Txn::RecordView(uint64_t key, uint32_t shard_idx,
                       const HtTree::TxnReadView& view, bool record_key) {
  auto [it, inserted] = buckets_.try_emplace(
      view.bucket,
      BucketView{view.head_word, view.version, view.versioned, shard_idx});
  if (!inserted) {
    if (it->second.word != view.head_word) {
      // Two reads of the same bucket saw different words: a writer landed
      // between them, so no single snapshot contains both observations.
      return Abort("txn read set is not a snapshot");
    }
    if (view.versioned && !it->second.versioned) {
      it->second.version = view.version;
      it->second.versioned = true;
    }
  }
  if (record_key) {
    reads_.emplace(key, ReadRec{view.found, view.value, view.bucket});
  }
  return OkStatus();
}

Result<uint64_t> Txn::Get(uint64_t key) {
  if (aborted_ || committed_) {
    return Aborted("txn handle is dead");
  }
  // Write-behind interop: a staged-but-unpublished write is invisible to
  // TxnRead's bucket probe, so drain the pending table first (no-op when
  // write-behind is off or idle).
  FMDS_RETURN_IF_ERROR(map_->DrainWriteBehind());
  if (auto w = writes_.find(key); w != writes_.end()) {
    // Read-your-writes from the buffer.
    if (w->second.tombstone) {
      return NotFound("txn: key removed by this txn");
    }
    return w->second.value;
  }
  if (auto r = reads_.find(key); r != reads_.end()) {
    // Repeatable read from the memo.
    if (!r->second.found) {
      return NotFound("txn: key absent");
    }
    return r->second.value;
  }
  const uint32_t shard_idx = map_->ShardOf(key);
  auto view = map_->shard(shard_idx).TxnRead(key, /*allow_cache=*/true);
  if (!view.ok()) {
    if (view.status().code() == StatusCode::kAborted) {
      return Abort("txn read outwaited a pending bucket");
    }
    return view.status();
  }
  FMDS_RETURN_IF_ERROR(RecordView(key, shard_idx, *view, /*record_key=*/true));
  if (!view->found) {
    return NotFound("txn: key absent");
  }
  return view->value;
}

std::vector<Result<uint64_t>> Txn::MultiGet(std::span<const uint64_t> keys) {
  std::vector<Result<uint64_t>> results(
      keys.size(), Status(StatusCode::kInternal, "txn multiget unresolved"));
  if (aborted_ || committed_) {
    for (auto& r : results) {
      r = Aborted("txn handle is dead");
    }
    return results;
  }
  if (const Status drained = map_->DrainWriteBehind(); !drained.ok()) {
    for (auto& r : results) {
      r = drained;
    }
    return results;
  }
  FarClient* c = client();
  ScopedOpLabel label(&c->recorder(), "txn.read");
  (void)c->DispatchNotifications();

  // Resolve what never needs the fabric: write buffer, read memo, caches.
  const size_t num_shards = map_->num_shards();
  std::vector<std::vector<uint64_t>> shard_keys(num_shards);
  std::vector<std::vector<size_t>> shard_pos(num_shards);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t key = keys[i];
    if (auto w = writes_.find(key); w != writes_.end()) {
      results[i] = w->second.tombstone
                       ? Result<uint64_t>(NotFound("txn: key removed"))
                       : Result<uint64_t>(w->second.value);
      continue;
    }
    if (auto r = reads_.find(key); r != reads_.end()) {
      results[i] = r->second.found
                       ? Result<uint64_t>(r->second.value)
                       : Result<uint64_t>(NotFound("txn: key absent"));
      continue;
    }
    const uint32_t shard_idx = map_->ShardOf(key);
    if (std::optional<HtTree::TxnReadView> view =
            map_->shard(shard_idx).CachedTxnView(key)) {
      Status rec = RecordView(key, shard_idx, *view, true);
      results[i] =
          rec.ok() ? Result<uint64_t>(view->value) : Result<uint64_t>(rec);
      continue;
    }
    shard_keys[shard_idx].push_back(key);
    shard_pos[shard_idx].push_back(i);
  }
  if (aborted_) {
    for (auto& r : results) {
      if (!r.ok() && r.status().code() == StatusCode::kInternal) {
        r = Aborted("txn aborted during multiget");
      }
    }
    return results;
  }

  // Batched chain walks: one txn-mode engine per shard, every wave flushed
  // through a single doorbell across ALL shards (the §7 fan-out). A read
  // set over depth-d chains costs O(d) doorbells total instead of
  // O(keys × d) sequential round trips; the engines wait out pending heads
  // and refresh stale tries themselves.
  std::vector<HtTree::BatchGet> engines;
  std::vector<uint32_t> engine_shard;
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (shard_keys[s].empty()) {
      continue;
    }
    engines.emplace_back(&map_->shard(s),
                         std::span<const uint64_t>(shard_keys[s]),
                         /*txn_mode=*/true);
    engine_shard.push_back(s);
  }
  HtTree::RunWaves(c, std::span(engines));
  for (size_t e = 0; e < engines.size(); ++e) {
    const uint32_t s = engine_shard[e];
    for (size_t j = 0; j < shard_keys[s].size(); ++j) {
      const size_t idx = shard_pos[s][j];
      if (aborted_) {
        results[idx] = Aborted("txn aborted during multiget");
        continue;
      }
      const Result<HtTree::TxnReadView> view = engines[e].TakeView(j);
      if (!view.ok()) {
        results[idx] = view.status().code() == StatusCode::kAborted
                           ? Abort("txn read outwaited a pending bucket")
                           : view.status();
        continue;
      }
      Status rec = RecordView(shard_keys[s][j], s, *view, true);
      if (!rec.ok()) {
        results[idx] = rec;
        continue;
      }
      results[idx] = view->found
                         ? Result<uint64_t>(view->value)
                         : Result<uint64_t>(NotFound("txn: key absent"));
    }
  }
  return results;
}

Result<FarAddr> Txn::EnsureWritableBucket(uint64_t key) {
  if (auto w = writes_.find(key); w != writes_.end()) {
    return w->second.bucket;  // pinned by the earlier write
  }
  if (auto r = reads_.find(key); r != reads_.end()) {
    const auto bv = buckets_.find(r->second.bucket);
    if (bv != buckets_.end() && bv->second.versioned) {
      return r->second.bucket;
    }
  }
  // Pin with a far-validated read: commit needs the table version for item
  // images, and the cache stores only words. An earlier cache-served read
  // of this bucket is cross-checked by RecordView (word mismatch aborts).
  const uint32_t shard_idx = map_->ShardOf(key);
  auto view = map_->shard(shard_idx).TxnRead(key, /*allow_cache=*/false);
  if (!view.ok()) {
    if (view.status().code() == StatusCode::kAborted) {
      return Abort("txn write outwaited a pending bucket");
    }
    return view.status();
  }
  FMDS_RETURN_IF_ERROR(
      RecordView(key, shard_idx, *view, !reads_.contains(key)));
  return view->bucket;
}

Status Txn::BufferWrite(uint64_t key, uint64_t value, bool tombstone) {
  if (aborted_ || committed_) {
    return Aborted("txn handle is dead");
  }
  // A staged async write to this key must publish before the txn pins the
  // bucket, or the flusher's CAS could land between pin and commit.
  FMDS_RETURN_IF_ERROR(map_->DrainWriteBehind());
  FMDS_ASSIGN_OR_RETURN(FarAddr bucket, EnsureWritableBucket(key));
  writes_[key] = WriteRec{value, tombstone, bucket};
  return OkStatus();
}

Status Txn::Put(uint64_t key, uint64_t value) {
  return BufferWrite(key, value, /*tombstone=*/false);
}

Status Txn::Remove(uint64_t key) {
  return BufferWrite(key, 0, /*tombstone=*/true);
}

Status Txn::BuildCommits(std::vector<BucketCommit>* commits) {
  std::unordered_map<FarAddr, size_t> index;
  for (const auto& [key, w] : writes_) {
    const auto bv = buckets_.find(w.bucket);
    if (bv == buckets_.end() || !bv->second.versioned) {
      return Internal("txn write bucket was never pinned");
    }
    const auto [it, inserted] = index.try_emplace(w.bucket, commits->size());
    if (inserted) {
      BucketCommit bc;
      bc.bucket = w.bucket;
      bc.shard = &map_->shard(bv->second.shard);
      bc.expected = bv->second.word;
      commits->push_back(std::move(bc));
    }
    (*commits)[it->second].writes.emplace_back(key, w);
  }
  for (BucketCommit& bc : *commits) {
    const uint64_t ver = VersionBits(buckets_[bc.bucket].version);
    // Chainlet: f_m -> ... -> f_0 -> pre-txn head. Later entries shadow
    // earlier ones, matching insert-at-head semantics.
    FarAddr prev = bc.expected;
    bc.items.reserve(bc.writes.size());
    for (const auto& [key, w] : bc.writes) {
      FMDS_ASSIGN_OR_RETURN(FarAddr slot, bc.shard->AllocItemSlot());
      bc.items.emplace_back(
          slot, HtTree::Item{key, w.value,
                             ver | (w.tombstone ? HtTree::kFlagTombstone : 0),
                             prev});
      prev = slot;
    }
    bc.final_head = prev;
    // Lock record: key/value are meaningless (readers skip on the flag
    // before any key comparison); `next` preserves the pre-txn view.
    FMDS_ASSIGN_OR_RETURN(FarAddr pending, bc.shard->AllocItemSlot());
    bc.pending = pending;
    bc.pending_item =
        HtTree::Item{0, 0, ver | HtTree::kFlagPending, bc.expected};
  }
  return OkStatus();
}

Status Txn::RollbackPrepared(std::span<BucketCommit* const> prepared) {
  if (prepared.empty()) {
    return OkStatus();
  }
  FarClient* c = client();
  ScopedOpLabel label(&c->recorder(), "txn.abort");
  std::vector<FarClient::CasTarget> targets;
  std::vector<uint64_t> observed(prepared.size());
  targets.reserve(prepared.size());
  for (const BucketCommit* bc : prepared) {
    targets.push_back(
        FarClient::CasTarget{bc->bucket, bc->pending, bc->expected});
  }
  FMDS_RETURN_IF_ERROR(c->CasBatch(targets, observed));
  for (size_t i = 0; i < prepared.size(); ++i) {
    if (observed[i] != prepared[i]->pending) {
      // Owner-only invariant broken: nobody else may touch a pending word.
      return Internal("txn rollback CAS lost a pending bucket");
    }
  }
  return OkStatus();
}

void Txn::FinalizeBucket(const BucketCommit& bc) {
  HtTree* shard = bc.shard;
  if (shard->options_.use_head_hints) {
    shard->head_hints_.Upsert(bc.bucket, bc.final_head);
  }
  if (shard->near_cache_ == nullptr) {
    return;
  }
  for (const auto& [key, w] : bc.writes) {
    if (w.tombstone) {
      shard->near_cache_->Invalidate(key);
    } else {
      // Writer-side refill under the committed head word — same zero-RTT
      // path as HtTree::Put's exit.
      shard->near_cache_->Refill(key, AsConstBytes(w.value), bc.bucket,
                                 kWordSize, bc.final_head);
    }
  }
}

Status Txn::Commit() {
  if (aborted_) {
    return Aborted("txn already aborted");
  }
  if (committed_) {
    return FailedPrecondition("txn already committed");
  }
  committed_ = true;
  // Publish any staged async writes before validation reads the bucket
  // words the commit round will certify.
  FMDS_RETURN_IF_ERROR(map_->DrainWriteBehind());
  FarClient* c = client();
  ScopedOpLabel label(&c->recorder(), "txn.commit");

  // Read-only: one validation doorbell re-reading every recorded bucket
  // word. All read intervals share [last read, first validation read], so
  // unchanged words certify a consistent snapshot.
  if (writes_.empty()) {
    if (!buckets_.empty()) {
      ScopedOpLabel vlabel(&c->recorder(), "txn.validate");
      std::vector<uint64_t> expected;
      expected.reserve(buckets_.size());
      for (const auto& [bucket, bv] : buckets_) {
        expected.push_back(bv.word);
        (void)c->PostReadWord(bucket);
      }
      std::vector<FarClient::Completion> done;
      FMDS_RETURN_IF_ERROR(c->WaitAll(&done));
      for (size_t i = 0; i < expected.size(); ++i) {
        if (done[i].word != expected[i]) {
          ++c->mutable_stats().txn_validate_fails;
          validate_failed_ = true;
          return Abort("txn validation failed");
        }
      }
    }
    ++c->mutable_stats().txn_commits;
    c->recorder().RecordTxnOutcome(c->clock().now_ns(), /*committed=*/true,
                                   false);
    return OkStatus();
  }

  std::vector<BucketCommit> commits;
  FMDS_RETURN_IF_ERROR(BuildCommits(&commits));

  // Fast path: a single write bucket and no other read buckets means the
  // prepare CAS IS the whole transaction — publish the chainlet directly,
  // no lock record, one doorbell (bodies + CAS; per-node post order makes
  // the items visible before the CAS links them).
  if (commits.size() == 1 && buckets_.size() == 1) {
    BucketCommit& bc = commits.front();
    FarClient::OpId first_write = 0;
    for (const auto& [slot, img] : bc.items) {
      const FarClient::OpId id = c->PostWrite(slot, AsConstBytes(img));
      if (first_write == 0) {
        first_write = id;
      }
    }
    // The CAS runs only if every chainlet body landed.
    bc.cas_op = c->PostCompareSwap(bc.bucket, bc.expected, bc.final_head,
                                   first_write);
    std::vector<FarClient::Completion> done;
    FMDS_RETURN_IF_ERROR(c->WaitAll(&done));
    const FarClient::Completion* cas =
        FarClient::FindCompletion(done, bc.cas_op);
    if (cas == nullptr) {
      return Internal("txn commit CAS completion lost");
    }
    if (cas->word != bc.expected) {
      ++c->mutable_stats().txn_prepare_fails;
      return Abort("txn commit CAS lost the bucket");
    }
    FinalizeBucket(bc);
    ++c->mutable_stats().txn_commits;
    c->recorder().RecordTxnOutcome(c->clock().now_ns(), /*committed=*/true,
                                   false);
    return OkStatus();
  }

  // Round P — prepare: per write bucket, publish items + lock record and
  // CAS the bucket word recorded-head -> lock record, all in one flush.
  // NOTE: with shard pinning, a bucket's items and its bucket word live on
  // the same node, so the doorbell's per-node post order guarantees the
  // bodies land first (the same contract MultiPut relies on).
  // Each lock-record CAS runs only if its bucket's bodies landed; a bucket
  // whose CAS failed or was cancelled joins the rollback path below.
  for (BucketCommit& bc : commits) {
    FarClient::OpId first_write = 0;
    for (const auto& [slot, img] : bc.items) {
      const FarClient::OpId id = c->PostWrite(slot, AsConstBytes(img));
      if (first_write == 0) {
        first_write = id;
      }
    }
    (void)c->PostWrite(bc.pending, AsConstBytes(bc.pending_item));
    bc.cas_op = c->PostCompareSwap(bc.bucket, bc.expected, bc.pending,
                                   first_write);
  }
  std::vector<FarClient::Completion> done;
  (void)c->WaitAll(&done);
  std::vector<BucketCommit*> prepared;
  bool prepare_failed = false;
  for (BucketCommit& bc : commits) {
    const FarClient::Completion* cas =
        FarClient::FindCompletion(done, bc.cas_op);
    if (cas == nullptr || !cas->status.ok()) {
      prepare_failed = true;
      continue;
    }
    if (cas->word == bc.expected) {
      prepared.push_back(&bc);
    } else {
      prepare_failed = true;
    }
  }
  if (prepare_failed) {
    FMDS_RETURN_IF_ERROR(RollbackPrepared(prepared));
    ++c->mutable_stats().txn_prepare_fails;
    return Abort("txn prepare lost a bucket");
  }

  // Round V — validate the read-set buckets the prepare didn't already
  // cover (its CAS validated every write bucket's word).
  std::vector<std::pair<FarAddr, uint64_t>> checks;
  for (const auto& [bucket, bv] : buckets_) {
    if (std::any_of(
            commits.begin(), commits.end(),
            [&](const BucketCommit& bc) { return bc.bucket == bucket; })) {
      continue;
    }
    checks.emplace_back(bucket, bv.word);
  }
  if (!checks.empty()) {
    ScopedOpLabel vlabel(&c->recorder(), "txn.validate");
    for (const auto& [bucket, word] : checks) {
      (void)word;
      (void)c->PostReadWord(bucket);
    }
    std::vector<FarClient::Completion> vdone;
    FMDS_RETURN_IF_ERROR(c->WaitAll(&vdone));
    for (size_t i = 0; i < checks.size(); ++i) {
      if (vdone[i].word != checks[i].second) {
        FMDS_RETURN_IF_ERROR(RollbackPrepared(prepared));
        ++c->mutable_stats().txn_validate_fails;
        validate_failed_ = true;
        return Abort("txn validation failed");
      }
    }
  }

  // Round C — commit: swing every locked bucket lock record -> new chain
  // head in one CasBatch. Must succeed: pending words are owner-only.
  std::vector<FarClient::CasTarget> targets;
  std::vector<uint64_t> observed(commits.size());
  targets.reserve(commits.size());
  for (const BucketCommit& bc : commits) {
    targets.push_back(
        FarClient::CasTarget{bc.bucket, bc.pending, bc.final_head});
  }
  FMDS_RETURN_IF_ERROR(c->CasBatch(targets, observed));
  for (size_t i = 0; i < commits.size(); ++i) {
    if (observed[i] != commits[i].pending) {
      return Internal("txn commit CAS lost a pending bucket");
    }
  }
  for (const BucketCommit& bc : commits) {
    FinalizeBucket(bc);
  }
  ++c->mutable_stats().txn_commits;
  c->recorder().RecordTxnOutcome(c->clock().now_ns(), /*committed=*/true,
                                 false);
  return OkStatus();
}

Status RunTxn(ShardedMap* map, const TxnOptions& options,
              const std::function<Status(Txn&)>& body) {
  Rng jitter(options.seed);
  Status last = Aborted("txn: no attempts made");
  const int attempts = std::max(1, options.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Txn txn(map);
    Status s = body(txn);
    if (s.ok()) {
      s = txn.Commit();
    }
    if (s.ok()) {
      return s;
    }
    if (s.code() != StatusCode::kAborted) {
      return s;  // real failure — retrying would repeat it
    }
    last = s;
    if (options.backoff_base_us > 0 && attempt + 1 < attempts) {
      // Jittered exponential backoff, capped: contending txns decorrelate
      // instead of re-colliding in lockstep.
      const uint64_t ceiling = options.backoff_base_us
                               << std::min(attempt, 6);
      const uint64_t us = 1 + jitter.NextBelow(ceiling);
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  }
  return last;
}

}  // namespace fmds

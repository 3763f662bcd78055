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

std::optional<Result<uint64_t>> Txn::Buffered(uint64_t key) const {
  if (auto w = writes_.find(key); w != writes_.end()) {
    return w->second.tombstone ? Result<uint64_t>(NotFound("txn: key removed"))
                               : Result<uint64_t>(w->second.value);
  }
  if (auto r = reads_.find(key); r != reads_.end()) {
    return r->second.found ? Result<uint64_t>(r->second.value)
                           : Result<uint64_t>(NotFound("txn: key absent"));
  }
  return std::nullopt;
}

Result<uint64_t> Txn::Observe(uint64_t key, uint32_t shard_idx,
                              const Result<HtTree::TxnReadView>& view) {
  if (!view.ok()) {
    return view.status().code() == StatusCode::kAborted
               ? Abort("txn read outwaited a pending bucket")
               : view.status();
  }
  FMDS_RETURN_IF_ERROR(RecordView(key, shard_idx, *view, /*record_key=*/true));
  if (!view->found) {
    return NotFound("txn: key absent");
  }
  return view->value;
}

Result<uint64_t> Txn::Get(uint64_t key) {
  if (aborted_ || committed_) {
    return Aborted("txn handle is dead");
  }
  // Write-behind interop: a staged-but-unpublished write is invisible to
  // TxnRead's bucket probe, so drain the pending table first (no-op when
  // write-behind is off or idle).
  FMDS_RETURN_IF_ERROR(map_->DrainWriteBehind());
  if (std::optional<Result<uint64_t>> buffered = Buffered(key)) {
    return *std::move(buffered);
  }
  const uint32_t shard_idx = map_->ShardOf(key);
  return Observe(key, shard_idx,
                 map_->shard(shard_idx).TxnRead(key, /*allow_cache=*/true));
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
    if (std::optional<Result<uint64_t>> buffered = Buffered(key)) {
      results[i] = *std::move(buffered);
      continue;
    }
    const uint32_t shard_idx = map_->ShardOf(key);
    if (std::optional<HtTree::TxnReadView> view =
            map_->shard(shard_idx).CachedTxnView(key)) {
      results[i] = Observe(key, shard_idx, *view);
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
      results[idx] = Observe(shard_keys[s][j], s, engines[e].TakeView(j));
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

Status Txn::Prepare(std::span<BucketCommit> commits, bool lock,
                    std::vector<BucketCommit*>* prepared) {
  if (commits.empty()) {
    return OkStatus();
  }
  // NOTE: with shard pinning, a bucket's items and its bucket word live on
  // the same node, so the doorbell's per-node post order guarantees the
  // bodies land first (the same contract MultiPut relies on).
  FarClient* c = client();
  for (BucketCommit& bc : commits) {
    size_t first_write = FarClient::kNoOp;
    for (const auto& [slot, img] : bc.items) {
      const size_t i = c->PostWrite(slot, AsConstBytes(img));
      if (first_write == FarClient::kNoOp) {
        first_write = i;
      }
    }
    if (lock) {
      (void)c->PostWrite(bc.pending, AsConstBytes(bc.pending_item));
    }
    // The CAS runs only if every body of its bucket landed.
    bc.cas_op = c->PostCompareSwap(bc.bucket, bc.expected,
                                   lock ? bc.pending : bc.final_head,
                                   first_write);
  }
  std::vector<FarClient::Completion> done(c->pending_ops());
  const Status flushed = c->WaitAll(done);
  if (!lock) {
    // A direct commit locked nothing: a fabric error is its answer as is
    // (RunTxn does not retry it), where round P reads it as a lost bucket.
    FMDS_RETURN_IF_ERROR(flushed);
  }
  for (BucketCommit& bc : commits) {
    const FarClient::Completion& cas = done[bc.cas_op];
    if (cas.status.ok() && cas.word == bc.expected) {
      prepared->push_back(&bc);
    }
  }
  if (prepared->size() < commits.size()) {
    ++c->mutable_stats().txn_prepare_fails;
    return Aborted(lock ? "txn prepare lost a bucket"
                        : "txn commit CAS lost the bucket");
  }
  if (lock) {
    // Every write bucket is locked, and from here on only this txn can
    // change those words: the channel's only events for them are round P's
    // own echoes, carrying the lock word. Route them now, or the next
    // dispatch would kill the entries the commit refills under the final
    // head (round C's echo confirms those).
    (void)c->DispatchNotifications();
  }
  return OkStatus();
}

Status Txn::Validate(std::span<const BucketCommit> commits) {
  // One doorbell re-reads every recorded bucket word no write bucket
  // covers (each prepare CAS validated its own bucket's word). All read
  // intervals share [last read, first validation read], so unchanged words
  // certify a consistent snapshot.
  std::vector<std::pair<FarAddr, uint64_t>> checks;
  for (const auto& [bucket, bv] : buckets_) {
    if (std::none_of(
            commits.begin(), commits.end(),
            [&](const BucketCommit& bc) { return bc.bucket == bucket; })) {
      checks.emplace_back(bucket, bv.word);
    }
  }
  if (checks.empty()) {
    return OkStatus();
  }
  FarClient* c = client();
  ScopedOpLabel label(&c->recorder(), "txn.validate");
  for (const auto& check : checks) {
    (void)c->PostReadWord(check.first);
  }
  std::vector<FarClient::Completion> done(c->pending_ops());
  FMDS_RETURN_IF_ERROR(c->WaitAll(done));
  for (size_t i = 0; i < checks.size(); ++i) {
    if (done[i].word != checks[i].second) {
      ++c->mutable_stats().txn_validate_fails;
      validate_failed_ = true;
      return Aborted("txn validation failed");
    }
  }
  return OkStatus();
}

Status Txn::SwingPrepared(std::span<BucketCommit* const> prepared,
                          bool commit) {
  if (prepared.empty()) {
    return OkStatus();
  }
  std::vector<FarClient::CasTarget> targets;
  std::vector<uint64_t> observed(prepared.size());
  targets.reserve(prepared.size());
  for (const BucketCommit* bc : prepared) {
    targets.push_back(FarClient::CasTarget{
        bc->bucket, bc->pending, commit ? bc->final_head : bc->expected});
  }
  FMDS_RETURN_IF_ERROR(client()->CasBatch(targets, observed));
  for (size_t i = 0; i < prepared.size(); ++i) {
    if (observed[i] != prepared[i]->pending) {
      // Owner-only invariant broken: nobody else may touch a pending word.
      return Internal(commit ? "txn commit CAS lost a pending bucket"
                             : "txn rollback CAS lost a pending bucket");
    }
  }
  return OkStatus();
}

Status Txn::RollbackPrepared(std::span<BucketCommit* const> prepared,
                             const Status& failure) {
  if (!prepared.empty()) {
    ScopedOpLabel label(&client()->recorder(), "txn.abort");
    FMDS_RETURN_IF_ERROR(SwingPrepared(prepared, /*commit=*/false));
  }
  if (failure.code() != StatusCode::kAborted) {
    return failure;
  }
  return Abort(failure.message().c_str());
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
  std::vector<BucketCommit> commits;
  FMDS_RETURN_IF_ERROR(BuildCommits(&commits));

  // A single write bucket and no other read bucket: the prepare CAS IS the
  // whole transaction, so round P swings the bucket straight to its
  // chainlet, with no lock record and no round V or C. A read-only txn
  // runs round V alone.
  const bool direct = commits.size() == 1 && buckets_.size() == 1;
  std::vector<BucketCommit*> prepared;
  Status status = Prepare(commits, /*lock=*/!direct, &prepared);
  if (status.ok() && !direct) {
    status = Validate(commits);
  }
  if (status.ok() && !direct) {
    status = SwingPrepared(prepared, /*commit=*/true);  // round C
  }
  if (!status.ok()) {
    return RollbackPrepared(prepared, status);
  }
  for (const BucketCommit& bc : commits) {
    for (const auto& [key, w] : bc.writes) {
      bc.shard->ApplyLandedStore(
          key, w.value, WriteOutcome{bc.bucket, bc.final_head, !w.tombstone});
    }
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

// Optimistic multi-key transactions over ShardedMap (Storm's "fast
// transactional dataplane" claim, built from this repo's one-sided verbs).
//
// A Txn buffers reads and writes client-side. Every read records the
// bucket word it was resolved under — the same no-ABA word the NearCache
// watches, so a snapshot read and a coherence watch are one primitive:
// bucket words only ever swing to freshly allocated, never-reused
// addresses (item slots are not recycled; freed tables are quarantined),
// so word equality at commit time proves the bucket's chain is unchanged
// since the read.
//
// Commit runs backward-validation OCC in up to three doorbells:
//   P (prepare)   per write bucket: the new items, a PENDING lock record
//                 whose `next` is the pre-txn head, and a CAS swinging the
//                 bucket word recorded-head -> lock record — all in ONE
//                 flush (the doorbell's per-node post order makes bodies
//                 visible before the CAS publishes them). A mispredicted
//                 CAS means the bucket changed since the read: roll back
//                 and abort.
//   V (validate)  one flush of word reads over the read-set buckets not in
//                 the write set (prepare already validated those). Any
//                 mismatch: roll back, abort. A read-only txn runs V alone.
//   C (commit)    CasBatch swinging every locked bucket lock -> new chain
//                 head. Must succeed: only the owner may change a pending
//                 bucket's word (readers skip it, writers and splits wait).
// Single-bucket write sets with no extra read buckets skip the lock
// entirely: one direct CAS recorded-head -> new head commits the txn.
// Every failure after round P — a lost bucket, a moved word, a shed
// doorbell — leaves through one exit that first rolls back every bucket
// P locked, so no failed commit leaves a bucket pending.
//
// Aborts surface as StatusCode::kAborted; RunTxn() wraps body + Commit in
// a bounded jittered-backoff retry loop.
#ifndef FMDS_SRC_CORE_TXN_H_
#define FMDS_SRC_CORE_TXN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/sharded_map.h"

namespace fmds {

struct TxnOptions {
  // RunTxn: attempts before giving up with the last abort status.
  int max_attempts = 16;
  // RunTxn: jittered exponential backoff between attempts; attempt k sleeps
  // uniform(1 .. base << min(k, 6)) microseconds (0 disables sleeping).
  uint64_t backoff_base_us = 50;
  // Jitter seed, so contention experiments replay exactly.
  uint64_t seed = 0x7e57c0de;
};

// One transaction attempt. Single-shot: after Commit() (either outcome) or
// an abort the handle only returns errors — RunTxn builds a fresh Txn per
// attempt. Owned by one thread, like the FarClient underneath.
class Txn {
 public:
  explicit Txn(ShardedMap* map) : map_(map) {}
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  // Reads `key` under the txn: write buffer first (read-your-writes), then
  // the read-set memo (repeatable reads), then the shard's NearCache or far
  // memory. kNotFound for absent keys is a *recorded* observation — the
  // commit validates negative reads too. kAborted means the txn is dead
  // (inconsistent views or a pending bucket outwaited) and must be retried.
  Result<uint64_t> Get(uint64_t key);

  // Batched Get: unresolved keys' bucket probes ride one doorbell across
  // all shards, and chain walks, stale-trie refreshes and pending waits
  // proceed in later waves. Per-key results match Get.
  std::vector<Result<uint64_t>> MultiGet(std::span<const uint64_t> keys);

  // Buffers a write; nothing reaches far memory until Commit. The key's
  // bucket is pinned (one validated far read, unless the txn already read
  // it) so prepare has an expected word and a table version to build items
  // against.
  Status Put(uint64_t key, uint64_t value);
  // Buffers a tombstone write; same pinning as Put.
  Status Remove(uint64_t key);

  // Validates the read set and publishes the write set (see file comment).
  // OK: every read word still current, all writes applied atomically with
  // respect to other transactions. kAborted: a conflict was detected and
  // nothing was published (prepared locks rolled back).
  Status Commit();

  bool aborted() const { return aborted_; }
  size_t read_set_size() const { return reads_.size(); }

 private:
  struct ReadRec {
    bool found = false;
    uint64_t value = 0;
    FarAddr bucket = kNullFarAddr;
  };
  struct WriteRec {
    uint64_t value = 0;
    bool tombstone = false;
    FarAddr bucket = kNullFarAddr;
  };
  // Per-bucket validation state. `word` is the clean head recorded by the
  // first read touching the bucket; any later read of the same bucket must
  // observe the same word or the views are inconsistent (early abort).
  struct BucketView {
    uint64_t word = 0;
    uint64_t version = 0;
    bool versioned = false;  // false while only cache-served reads saw it
    uint32_t shard = 0;
  };
  // A write bucket's prepared commit image: the new items chained
  // final_head -> ... -> expected, plus the lock record.
  struct BucketCommit {
    FarAddr bucket = kNullFarAddr;
    HtTree* shard = nullptr;
    uint64_t expected = 0;        // recorded clean head word
    FarAddr final_head = kNullFarAddr;
    FarAddr pending = kNullFarAddr;
    size_t cas_op = FarClient::kNoOp;  // doorbell index of the prepare CAS
    std::vector<std::pair<uint64_t, WriteRec>> writes;
    std::vector<std::pair<FarAddr, HtTree::Item>> items;
    HtTree::Item pending_item{};
  };

  FarClient* client() { return map_->shard(0).client(); }
  // Marks the txn dead, bumps the abort counter once, returns kAborted.
  Status Abort(const char* why);
  // Merges a validated view into reads_/buckets_; kAborted when the bucket
  // was already recorded under a different word.
  Status RecordView(uint64_t key, uint32_t shard_idx,
                    const HtTree::TxnReadView& view, bool record_key);
  // The answer the txn already holds for `key`: its buffered write
  // (read-your-writes), else its recorded read (repeatable reads).
  std::optional<Result<uint64_t>> Buffered(uint64_t key) const;
  // Records a shard read of `key` and answers it: the value, kNotFound for
  // a recorded miss, or kAborted (the txn dies) when the read outwaited a
  // pending bucket or breaks the snapshot.
  Result<uint64_t> Observe(uint64_t key, uint32_t shard_idx,
                           const Result<HtTree::TxnReadView>& view);
  // Pins `key`'s bucket with a far-validated (word, version) pair; returns
  // the bucket address.
  Result<FarAddr> EnsureWritableBucket(uint64_t key);
  Status BufferWrite(uint64_t key, uint64_t value, bool tombstone);
  // Builds item chainlets + lock records for every write bucket.
  Status BuildCommits(std::vector<BucketCommit>* commits);
  // Round P: one doorbell posts every write bucket's chainlet bodies and
  // the guarded CAS that swings the bucket from its recorded head to its
  // lock record (`lock`) or, on a direct commit, straight to the chainlet.
  // Collects the buckets whose CAS landed into `prepared`; kAborted when
  // one did not.
  Status Prepare(std::span<BucketCommit> commits, bool lock,
                 std::vector<BucketCommit*>* prepared);
  // Round V: re-reads the recorded word of every bucket no write bucket
  // in `commits` covers; kAborted when one moved.
  Status Validate(std::span<const BucketCommit> commits);
  // The owner-only swing: one CasBatch moving every bucket in `prepared`
  // from its lock record to its chainlet (`commit`, round C) or back to
  // its recorded head. Must succeed; Internal if the fabric disagrees.
  Status SwingPrepared(std::span<BucketCommit* const> prepared, bool commit);
  // The one failure exit once round P has run: rolls every bucket in
  // `prepared` back, then returns `failure` — a conflict (kAborted) ends
  // the txn only after the rollback landed.
  Status RollbackPrepared(std::span<BucketCommit* const> prepared,
                          const Status& failure);

  ShardedMap* map_;
  std::unordered_map<uint64_t, ReadRec> reads_;
  std::unordered_map<uint64_t, WriteRec> writes_;
  std::unordered_map<FarAddr, BucketView> buckets_;
  bool committed_ = false;
  bool aborted_ = false;
  bool validate_failed_ = false;  // read-set validation lost (for telemetry)
};

// Retry loop: runs `body` against a fresh Txn, commits, and on kAborted
// backs off (jittered exponential, bounded) and retries up to
// options.max_attempts. Non-abort errors and body errors return
// immediately; a body that fails with kAborted (e.g. from a dead txn
// handle) retries like a failed commit.
Status RunTxn(ShardedMap* map, const TxnOptions& options,
              const std::function<Status(Txn&)>& body);

}  // namespace fmds

#endif  // FMDS_SRC_CORE_TXN_H_

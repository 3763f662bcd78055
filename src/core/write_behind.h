// Write-behind dataplane (§3.1, DESIGN.md §11): the application thread
// enqueues Put/Remove into a client-local pending-write table and returns
// without a round trip; a flusher drains the table in pipelined stages
// (coalesce -> CAS-issue -> completion-absorb -> writer-side cache refill).
// Storm's observation (PAPERS.md) is that issue *rate*, not single-op
// latency, bounds a loaded dataplane — decoupling the app's clock from the
// publish round trips is what lifts the synchronous-Put ceiling.
//
// The flusher is a dedicated clock, not a thread: each flush step runs on
// the owner's thread, at a fixed point of a write or a barrier (the flush
// rule on WriteBehindOptions), and charges its round trips to the
// flusher's own FarClient and SimClock. What a run simulates therefore
// repeats exactly for one sequence of calls.
//
// Write combining: in combine mode (default) the pending table holds at
// most one record per key — a newer Put/Remove to a staged key overwrites
// it in place (ClientStats.writes_combined on the app client) and the
// superseded value never costs a doorbell. A hot key being rewritten in a
// loop costs one publish per flush, not one per write.
//
// Ordering guarantees (per key, last-writer-wins):
//   - Read-your-writes: Lookup() consults the pending table, so the owning
//     thread always observes its latest write. Structure integration checks
//     the table BEFORE its near cache.
//   - Per-key order: combine mode trivially (one record); FIFO mode stops
//     a batch at the first same-key duplicate, so two writes to one key
//     never ride one MultiWrite (whose same-batch duplicate order is
//     unspecified).
//   - NO cross-key ordering: writes to different keys may publish in any
//     order. A reader needing a consistent multi-key cut must use
//     FlushBarrier() or a transaction (Txn entry points drain the table).
//   - FlushBarrier() publishes every staged write, and returns the first
//     publish error since the last barrier (a failed batch's records are
//     dropped, not retried).
//
// Threading: Put/Remove/Lookup/FlushBarrier, and so every flush step, run
// on the single owning application thread, as do health() and the gauges,
// which its owner samples; nothing is locked. A map arms the engine
// through its one EnableWriteBehind(options) call. The flusher
// publishes through a Publisher the structure supplies — it owns a
// SEPARATE FarClient (default ClientOptions) and structure handle, so
// round trips, stats (flush_stages) and labels ("wb.coalesce"/"wb.flush")
// land on the flusher's clock, keeping the app client's counters an honest
// record of hot-path work (the proof the hot path is allocation- and
// reclamation-free).
#ifndef FMDS_SRC_CORE_WRITE_BEHIND_H_
#define FMDS_SRC_CORE_WRITE_BEHIND_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/fabric/far_client.h"
#include "src/obs/telemetry.h"

namespace fmds {

// The flush rule. A write that brings the table to max_pending records
// publishes its oldest max_batch; a write that arrives once the owner's
// simulated clock has passed the last flush by flush_interval_us publishes
// one batch; FlushBarrier() and the destructor publish everything. A full
// batch alone triggers nothing: the table fills to max_pending, which is
// what lets a hot key's rewrites combine.
struct WriteBehindOptions {
  // Combine same-key writes in the pending table before the doorbell.
  bool combine = true;
  // Records one flush step publishes (one MultiWrite doorbell wave).
  size_t max_batch = 256;
  // Staging bound: the write that brings the table to this many records
  // flushes a batch.
  size_t max_pending = 4096;
  // Simulated µs on the owner's clock after which the next write flushes a
  // batch. Large intervals maximize combining; small ones minimize publish
  // lag.
  uint64_t flush_interval_us = 200;
};

class WriteBehindEngine {
 public:
  // One drained batch, in pending-table order.
  struct Batch {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> values;
    std::vector<uint8_t> tombstones;  // 1 = Remove
  };

  // The structure-side publish target, owned by the engine and driven only
  // by its flush steps. Its one implementation (HtTree::WbPublisher, for an
  // HtTree or a ShardedMap) holds a flusher-owned FarClient plus an
  // Attach'd handle to the same far map.
  class Publisher {
   public:
    virtual ~Publisher() = default;
    // The flusher's client: stage stats and labels are charged here.
    virtual FarClient* client() = 0;
    // CAS-issue + completion-absorb: publish the whole batch far-side
    // (one doorbell wave per stage via the structure's batch engine).
    virtual Status Publish(const Batch& batch) = 0;
    // Writer-side cache refill: the flusher-side landed-store exit for each
    // published key, on the application handle's NearCache (External
    // variants — no owner-client accounting). Called only after a
    // successful Publish.
    virtual void RefillCaches(const Batch& batch) = 0;
  };

  WriteBehindEngine(FarClient* app_client,
                    std::unique_ptr<Publisher> publisher,
                    WriteBehindOptions options);
  WriteBehindEngine(const WriteBehindEngine&) = delete;
  WriteBehindEngine& operator=(const WriteBehindEngine&) = delete;
  // Publishes every staged write.
  ~WriteBehindEngine();

  // Stages a write (no round trip on the app client); may run one flush
  // step. Errors surface at FlushBarrier().
  void Put(uint64_t key, uint64_t value);
  void Remove(uint64_t key);

  // Read-your-writes probe: when `key` has a staged write, the answer a
  // lookup gives — its value, or kNotFound for a pending Remove; nullopt
  // otherwise.
  std::optional<Result<uint64_t>> Lookup(uint64_t key) const;

  // True when nothing is staged.
  bool Empty() const { return Staged() == 0; }

  // Publishes every staged write; returns (and clears) the first publish
  // error since the last barrier.
  Status FlushBarrier();

  // Live pipeline health. Ages are in the APP client's simulated time,
  // measured against the newest enqueue the engine has seen; stage times
  // are cumulative FLUSHER-clock ns per pipeline stage, so their ratios
  // expose where drain time goes.
  struct Health {
    uint64_t pending_entries = 0;  // staged (unpublished) records
    uint64_t pending_bytes = 0;    // logical payload (key+value per record)
    uint64_t oldest_staged_age_ns = 0;
    uint64_t batches_flushed = 0;
    uint64_t records_published = 0;
    uint64_t deferred_errors = 0;  // failed publishes since construction
    uint64_t stage_coalesce_ns = 0;
    uint64_t stage_publish_ns = 0;
    uint64_t stage_refill_ns = 0;
  };
  Health health() const;

  // Registers pipeline gauges under `prefix` (e.g. "wb"). The group must
  // not outlive the engine.
  void AddGauges(GaugeGroup* group, const std::string& prefix);
  // The flusher's client (its stats carry flush_stages; its clock carries
  // the publish latency). Owner thread only.
  FarClient* flusher_client() { return publisher_->client(); }

 private:
  struct Rec {
    uint64_t value = 0;
    bool tombstone = false;
    uint64_t seq = 0;
    // App-clock time the currently staged record FIRST entered the table
    // (preserved across combine overwrites — age measures how long the key
    // has been waiting, not how recently it was rewritten).
    uint64_t enqueue_ns = 0;
  };
  struct FifoRec {
    uint64_t key = 0;
    uint64_t value = 0;
    bool tombstone = false;
    uint64_t seq = 0;
    uint64_t enqueue_ns = 0;
  };

  void Enqueue(uint64_t key, uint64_t value, bool tombstone);
  size_t Staged() const {
    return options_.combine ? order_.size() : fifo_.size();
  }
  // The oldest staged records, up to max_batch, left in the table; `seqs`
  // receives each record's sequence number.
  Batch PeekBatch(std::vector<uint64_t>* seqs) const;
  // One flush step, with at least one record staged: publishes the oldest
  // batch on the flusher's client and clock, then drops it from the table
  // (failed or not).
  void FlushOne();

  FarClient* app_client_;
  std::unique_ptr<Publisher> publisher_;
  WriteBehindOptions options_;
  // Owner clock at the last flush step: the interval trigger's origin.
  uint64_t last_flush_ns_ = 0;

  // Combine mode: at most one staged record per key, FIFO by first
  // enqueue; the record body lives in latest_.
  std::deque<uint64_t> order_;
  // FIFO mode: every record staged in program order.
  std::deque<FifoRec> fifo_;
  // Read-your-writes view: key -> newest staged record. Erased when that
  // record publishes (a newer FIFO record keeps the entry alive).
  std::unordered_map<uint64_t, Rec> latest_;
  uint64_t next_seq_ = 1;
  Status first_error_;
  // Health counters. last_app_now_ns_ is the newest app-clock timestamp
  // observed at Enqueue — the reference point for staged ages.
  uint64_t last_app_now_ns_ = 0;
  uint64_t batches_flushed_ = 0;
  uint64_t records_published_ = 0;
  uint64_t deferred_errors_ = 0;
  uint64_t stage_coalesce_ns_ = 0;
  uint64_t stage_publish_ns_ = 0;
  uint64_t stage_refill_ns_ = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_WRITE_BEHIND_H_

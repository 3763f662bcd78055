// NearCache: a byte-budgeted client-side cache of far-memory regions with
// CLOCK eviction, a k-hit admission filter, and notification-driven
// coherence (§4.3).
//
// The paper's premise (§3.1) is the ~10x near/far gap: every avoided round
// trip is the biggest lever there is. The HT-tree already caches its *trie*
// client-side; NearCache extends that to the hot data itself — bucket
// heads, items, blob chunks — so a skewed read mix runs near-only.
//
// Coherence: on admission the cache subscribes (kOnWrite) to the watched
// far range; any writer touching it triggers a notification that the
// owning client routes here via FarClient::DispatchNotifications(), which
// marks the entry invalid. The subscribe is a *read-and-arm*: the node
// returns a snapshot of the watched word taken atomically with the
// registration, and Admit compares it against the word the caller observed
// during its validated read. A mismatch means a writer raced the window
// between that read and the registration — the entry is then admitted
// invalid (the subscription is live; the next miss refills it under it)
// instead of pinning a possibly stale value. Subscriptions are always
// Reliable: publication is synchronous and dispatch runs at operation
// entry, so hits are linearizable. The one loss left is a channel
// overflow, whose loss warning invalidates the whole cache (DESIGN.md §9).
//
// An invalidated entry keeps its slot and its subscription: a miss whose
// refill watches the *same* range refills in place without paying the
// subscribe round trip again, and without re-running the admission filter
// (the key already proved hot). A refill whose watched range *moved* —
// e.g. an HtTree split migrated the key to a bucket in a new table, and
// the old table was retired and freed — rewatches: the stale subscription
// is released and a fresh read-and-arm subscribe covers the new range.
// Keeping the old subscription would leave the entry watching dead memory,
// blind to every future write.
//
// Eviction: one rule in both modes. Whenever an admission or a rewatch
// takes the cache over its budget, the owner reclaims the CLOCK victim at
// once, and releases its subscription the way a rewatch releases its old
// one, at that moment. background_eviction decides only whose client pays
// that unsubscribe round trip: the owner's (inline mode), or the client of
// the BackgroundEvictor watching the cache (background mode; a
// background-mode cache no evictor watches pays on its owner's client).
//
// Accounting rules (DESIGN.md §9): Lookup charges exactly one near access,
// hit or miss — on a hit that is the *entire* cost of the probe;
// admission, rewatch, and eviction charge their subscribe/unsubscribe
// round trips under the "cache.admit"/"cache.rewatch"/"cache.evict"
// labels (an unsubscribe the evictor pays lands on its client under
// "cache.bg_evict"/"cache.rewatch"); dispatching an empty notification
// channel is free.
//
// Threading (§11, write-behind): every method runs on the thread that owns
// the cache's client, including the write-behind flusher's refills
// (RefillExternal/InvalidateExternal — no owner-client accounting; a
// refill never resizes an entry, so it never evicts) and the evictor's
// unsubscribes, which are steps of that thread on their own clients. The
// internal mutex exists for health() readers (gauges) on other threads.
#ifndef FMDS_SRC_CACHE_NEAR_CACHE_H_
#define FMDS_SRC_CACHE_NEAR_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/cache/clock_ring.h"
#include "src/common/flat_map.h"
#include "src/fabric/far_client.h"
#include "src/fabric/notification.h"
#include "src/obs/telemetry.h"
#include "src/obs/windowed.h"

namespace fmds {

struct NearCacheOptions {
  // Total bytes of cached payload + per-entry overhead. 0 disables the
  // cache entirely (every Lookup misses without charging anything).
  uint64_t budget_bytes = 0;
  // k-hit admission: a key enters the cache on its k-th miss. 1 admits on
  // first touch; 2 (default) keeps one-shot keys from churning the budget.
  uint32_t admit_after = 2;
  // Mage-style background eviction: the owner's client never pays an
  // unsubscribe round trip. The owner still reclaims every victim the
  // moment the budget is passed (so hits, admissions and victims match
  // inline mode), but the watching BackgroundEvictor's client pays the
  // released subscription's node-side unsubscribe, at release. Without an
  // evictor watching, the cache behaves as in inline mode.
  bool background_eviction = false;
};

struct NearCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  // notification- or writer-driven entry kills
  uint64_t admissions = 0;     // new entries (paid a subscribe RTT)
  uint64_t refills = 0;        // in-place refills of resident entries
  uint64_t evictions = 0;      // budget/capacity victims whose unsubscribe
                               // the owner paid (inline mode, or no
                               // evictor watching)
  uint64_t loss_resets = 0;    // whole-cache invalidations on loss warning
  uint64_t rewatches = 0;      // refills whose watched range moved (paid
                               // a subscribe RTT; the old subscription is
                               // released as an evicted one is)
  uint64_t raced_admits = 0;   // admissions whose arm-time snapshot differed
                               // from the validated read (entered invalid)
  uint64_t writer_refills = 0; // Refill() fills from a writer's own value
                               // (zero far round trips)
  uint64_t word_confirms = 0;  // notifications whose word matched the
                               // entry's fill word (entry kept valid)
  uint64_t bg_evictions = 0;   // budget/capacity victims whose unsubscribe
                               // the watching evictor paid (background mode)

  void Add(const NearCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    invalidations += other.invalidations;
    admissions += other.admissions;
    refills += other.refills;
    evictions += other.evictions;
    loss_resets += other.loss_resets;
    rewatches += other.rewatches;
    raced_admits += other.raced_admits;
    writer_refills += other.writer_refills;
    word_confirms += other.word_confirms;
    bg_evictions += other.bg_evictions;
  }
  double HitRatio() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

class NearCache : public NotificationSink {
 public:
  // Charged per entry on top of the payload: slot + index + subscription
  // bookkeeping on both sides of the fabric.
  static constexpr uint64_t kEntryOverhead = 64;
  // Capacity of the admission filter's own CLOCK ring (miss counters).
  static constexpr size_t kFilterSlots = 4096;

  // `word_versioned` is a property of what the owner watches: every state
  // of a watched range maps to a distinct first-word value that is never
  // reused (HT-tree bucket heads qualify: item slots are never recycled and
  // freed tables are quarantined). Then a notification whose
  // state-at-publish word equals the word an entry was filled under
  // CONFIRMS the entry instead of killing it — which is what lets a writer
  // refill its own entry at Put exit and survive the echo of its own CAS.
  // Pass false for ranges whose words can repeat (e.g. blob length words).
  NearCache(FarClient* client, NearCacheOptions options, bool word_versioned);
  NearCache(const NearCache&) = delete;
  NearCache& operator=(const NearCache&) = delete;
  ~NearCache() override;

  bool enabled() const { return options_.budget_bytes > 0; }

  // Probes the cache for `key`. A hit requires a valid entry whose payload
  // size equals out.size(); the payload is copied into `out`. Charges one
  // near access (the full cost of a hit); bumps hit/miss counters in
  // NearCacheStats, ClientStats, and the flight recorder's current label.
  bool Lookup(uint64_t key, std::span<std::byte> out);

  // Lookup variant for transactional reads: a hit additionally reports the
  // watched far range's first word address and the word value the entry was
  // filled under, so the caller can record a validatable (address, word)
  // pair in its read set. A txn that validates against this word detects
  // every concurrent write — even one whose invalidation notification is
  // still queued — because any such write changed the watched word.
  // Accounting matches Lookup (one near access, hit/miss counters).
  bool LookupWatch(uint64_t key, std::span<std::byte> out, FarAddr* watch,
                   uint64_t* watch_word);

  // Offers freshly validated far data for caching. `watch` is the far
  // range whose writes must invalidate this entry ([watch, watch+watch_len),
  // word-aligned, single page); `expected_watch_word` is the value of the
  // range's first word as the caller observed it during the read that
  // validated `payload` — every write that can change the key's value must
  // change that word (bucket heads and blob length words satisfy this).
  // Resident entries whose watch is unchanged refill in place (no new
  // subscription); a resident entry whose watch moved rewatches (release +
  // re-arm). New keys pass the k-hit filter, then pay one read-and-arm
  // subscribe round trip; if the arm-time snapshot differs from
  // `expected_watch_word`, a writer raced the admission and the entry
  // enters invalid rather than serving a possibly stale value. Call only
  // with data the caller has just validated — caching an unvalidated value
  // would make a stale read sticky.
  void Admit(uint64_t key, std::span<const std::byte> payload, FarAddr watch,
             uint64_t watch_len, uint64_t expected_watch_word);

  // Writer-side local invalidation: a client that just mutated the watched
  // range kills its own entry immediately, so read-your-writes holds even
  // under lossy delivery policies.
  void Invalidate(uint64_t key);

  // Writer-side refill: a client that just installed `payload` under a
  // successful CAS that left the watched word equal to `watch_word` re-fills
  // its own resident entry in place — zero far round trips, versus the read
  // RTT a miss-then-refill would pay. Only meaningful when word-versioned
  // (the echo of the writer's own CAS then *confirms* the entry instead of
  // killing it; without word versioning the refill would die on its own
  // notification). Resident same-watch entries of the same payload size
  // refill; a resident entry whose watch moved or whose size differs is
  // invalidated (rewatching would cost round trips, and growing could
  // evict, neither of which the write path may do); absent keys are
  // ignored (admission stays a read-path, filter-gated decision).
  void Refill(uint64_t key, std::span<const std::byte> payload, FarAddr watch,
              uint64_t watch_len, uint64_t watch_word);

  // Variants for the write-behind flusher (§11): same refill / invalidate
  // semantics, but NO owner-client stats, recorder, or near-op accounting —
  // the flusher charges its own client. The flusher's step runs on the
  // owner's thread and refills before the owner can dispatch any later
  // event, so every write newer than the refilled one still kills it.
  void RefillExternal(uint64_t key, std::span<const std::byte> payload,
                      FarAddr watch, uint64_t watch_len, uint64_t watch_word);
  void InvalidateExternal(uint64_t key);

  // Marks every entry invalid (subscriptions and slots survive for refill).
  void InvalidateAll();

  // NotificationSink: invalidate the entry watching the changed range; a
  // loss warning invalidates everything (unknown events were dropped).
  void OnNotify(const NotifyEvent& event) override;

  // Drops every entry and unsubscribes every one, on the owner's client.
  void Clear();

  // Attaches (or, with nullptr, detaches) the client a BackgroundEvictor
  // pays this cache's released subscriptions with, in background mode. An
  // evicted entry's unsubscribe is labelled "cache.bg_evict" there and
  // counts in that client's ClientStats.bg_evictions; a rewatch's old
  // subscription is labelled "cache.rewatch". BackgroundEvictor::Watch and
  // Unwatch call it; the client must outlive the attachment.
  void SetEvictor(FarClient* evictor_client);

  uint64_t bytes_used() const;
  size_t entries() const;
  NearCacheStats stats() const;

  // Live health snapshot (any thread). windowed_hit_ratio covers only the
  // last window of the owner's simulated time, unlike
  // NearCacheStats::HitRatio() which is since-start — a cache that went
  // cold after a working-set shift shows up here first.
  struct Health {
    uint64_t bytes_used = 0;
    uint64_t entries = 0;
    uint64_t budget_limit = 0;
    double windowed_hit_ratio = 0.0;
    uint64_t windowed_lookups = 0;
  };
  Health health() const;

  // Registers this cache's health gauges under `prefix` (e.g. "cache").
  // The group must not outlive the cache.
  void AddGauges(GaugeGroup* group, const std::string& prefix);

 private:
  struct Entry {
    std::vector<std::byte> payload;
    SubId sub = kInvalidSubId;
    // The subscribed range — kept so a refill can detect that the key's
    // watch moved (bucket migrated by a split) and rewatch instead of
    // staying subscribed to retired memory.
    FarAddr watch = kNullFarAddr;
    uint64_t watch_len = 0;
    // Value of the watched range's first word at the time the payload was
    // validated — the entry's version under word-versioned coherence, and
    // the word LookupWatch hands to transactional readers.
    uint64_t watch_word = 0;
    bool valid = false;
  };

  uint64_t EntryCost(const Entry& e) const {
    return e.payload.size() + kEntryOverhead;
  }
  // Read-and-arm subscribe on [watch, watch+watch_len): fills e.sub/e.watch,
  // registers sub_to_key_, and sets e.valid from the snapshot comparison.
  // Returns false (entry untouched beyond payload) if the range is
  // unsubscribable.
  bool ArmWatchLocked(Entry& e, uint64_t key, FarAddr watch,
                      uint64_t watch_len, uint64_t expected_watch_word,
                      const char* label_name);
  // Releases `entry`'s subscription: an evicted entry's, or a rewatched
  // entry's old one. Inline mode unsubscribes on the owner's client
  // ("cache.evict" / "cache.rewatch"); background mode with an evictor
  // attached forgets the id on the owner's client and unsubscribes it on
  // the evictor's ("cache.bg_evict" / "cache.rewatch"). An eviction counts
  // in `evictions` or `bg_evictions` accordingly.
  void ReleaseEntryLocked(const Entry& entry, bool evicted);
  // Marks one entry invalid. `account_client` gates the owner-client
  // ClientStats/recorder bumps (false on the flusher's path).
  void InvalidateLocked(uint64_t key, bool account_client);
  void InvalidateAllLocked();
  // `account_client` is false exactly on the flusher's path.
  void RefillLocked(uint64_t key, std::span<const std::byte> payload,
                    FarAddr watch, uint64_t watch_len, uint64_t watch_word,
                    bool account_client);
  // Reclaims CLOCK victims until the cache fits its budget. Runs after
  // every admission and rewatch.
  void EvictToBudgetLocked();

  FarClient* client_;
  NearCacheOptions options_;
  bool word_versioned_;
  // Guards every member below. See the threading note at the top.
  mutable std::mutex mu_;
  // Pays released subscriptions in background mode (null: the owner does).
  FarClient* evictor_ = nullptr;
  ClockRing<Entry> ring_;
  ClockRing<uint32_t> filter_;  // key -> miss count (admission filter)
  FlatMap<uint64_t> sub_to_key_;  // SubId -> key
  uint64_t bytes_used_ = 0;
  NearCacheStats stats_;
  // Rolling hit ratio over the owner client's simulated time (timestamps
  // are taken in Lookup on the owner thread; readers go through health()).
  WindowedRate win_hits_;
  WindowedRate win_lookups_;
  uint64_t win_now_ns_ = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_CACHE_NEAR_CACHE_H_

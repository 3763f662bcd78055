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
// one. background_eviction decides only who pays that unsubscribe round
// trip: the owner, now (inline mode), or a BackgroundEvictor's next pass
// (background mode, where the owner forgets the id and retires it).
//
// Accounting rules (DESIGN.md §9): Lookup charges exactly one near access,
// hit or miss — on a hit that is the *entire* cost of the probe;
// admission, rewatch, and eviction charge their subscribe/unsubscribe
// round trips under the "cache.admit"/"cache.rewatch"/"cache.evict"
// labels (a retired unsubscribe lands on the evictor's client instead);
// dispatching an empty notification channel is free.
//
// Threading (§11, write-behind): the cache is *owned* by one client
// thread — Lookup/Admit/OnNotify/Clear run there — but two kinds of helper
// threads may touch it, so every method takes an internal mutex:
//   - a write-behind flusher refills/invalidates entries after publishing
//     (RefillExternal/InvalidateExternal — no owner-client accounting; a
//     refill never resizes an entry, so it never evicts);
//   - a background evictor pays the retired subscriptions' unsubscribe
//     round trips on its own client (BackgroundSweep).
// The mutex guards cache state only. The owner holds it across its own
// subscribe and unsubscribe round trips; the evictor never does.
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
  // Mage-style background eviction: the owner never pays an unsubscribe
  // round trip. It still reclaims every victim the moment the budget is
  // passed (so hits, admissions and victims match inline mode), but it only
  // forgets a released subscription's id and retires it; a
  // BackgroundEvictor thread pays the node-side unsubscribes. Retired
  // subscriptions wait for an evictor pass or for Clear(), so a cache in
  // this mode needs a BackgroundEvictor watching it.
  bool background_eviction = false;
};

struct NearCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  // notification- or writer-driven entry kills
  uint64_t admissions = 0;     // new entries (paid a subscribe RTT)
  uint64_t refills = 0;        // in-place refills of resident entries
  uint64_t evictions = 0;      // budget/capacity victims whose unsubscribe
                               // the owner paid (inline mode)
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
                               // was handed to the evictor (background mode)

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

  // Cross-thread variants for the write-behind flusher (§11): same refill /
  // invalidate semantics, but NO owner-client stats, recorder, or near-op
  // accounting — the flusher charges its own client. Safe to call from a
  // non-owner thread. The flusher refills only after its whole batch
  // published, so the owner may already have dispatched a later writer's
  // event for the key: RefillExternal therefore lands only on a still-valid
  // entry, or on one whose last dispatched event (since its fill, and with
  // no loss warning since) carried `watch_word` itself. Otherwise the entry
  // stays invalid and the next read refills it.
  void RefillExternal(uint64_t key, std::span<const std::byte> payload,
                      FarAddr watch, uint64_t watch_len, uint64_t watch_word);
  void InvalidateExternal(uint64_t key);

  // Marks every entry invalid (subscriptions and slots survive for refill).
  void InvalidateAll();

  // NotificationSink: invalidate the entry watching the changed range; a
  // loss warning invalidates everything (unknown events were dropped).
  void OnNotify(const NotifyEvent& event) override;

  // Drops every entry and unsubscribes, on the owner's client, every
  // subscription the cache still holds node-side, retired ones included.
  void Clear();

  // True while released subscriptions await their node-side unsubscribe
  // (background mode): the evictor's trigger. Cheap enough to poll.
  bool SweepNeeded() const;

  // Background mode: unsubscribes every subscription the owner retired
  // since the last sweep. The retired list is taken under the cache mutex;
  // the round trips are then paid OUTSIDE it by `evictor_client`, so the
  // owner thread never blocks behind fabric teardown. An evicted entry's
  // unsubscribe is labelled "cache.bg_evict" and counts in the evictor
  // client's ClientStats.bg_evictions; a rewatch's old subscription is
  // labelled "cache.rewatch". Caller (the BackgroundEvictor) must stop
  // sweeping before the cache dies.
  void BackgroundSweep(FarClient* evictor_client);

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
    bool sweep_needed = false;  // SweepNeeded()
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
    // Word carried by the last event dispatched to this entry since its
    // fill (word-versioned caches; cleared by a loss warning): the guard
    // of RefillExternal.
    std::optional<uint64_t> event_word;
    bool valid = false;
  };

  uint64_t EntryCost(const Entry& e) const {
    return e.payload.size() + kEntryOverhead;
  }
  // A subscription the owner released in background mode (already
  // forgotten on its client), awaiting the node-side unsubscribe.
  struct RetiredWatch {
    SubId sub;
    FarAddr watch;
    bool evicted;  // an evicted entry's, not a rewatch's old one
  };
  // Read-and-arm subscribe on [watch, watch+watch_len): fills e.sub/e.watch,
  // registers sub_to_key_, and sets e.valid from the snapshot comparison.
  // Returns false (entry untouched beyond payload) if the range is
  // unsubscribable.
  bool ArmWatchLocked(Entry& e, uint64_t key, FarAddr watch,
                      uint64_t watch_len, uint64_t expected_watch_word,
                      const char* label_name);
  // Releases `entry`'s subscription: an evicted entry's, or a rewatched
  // entry's old one. Inline mode unsubscribes now ("cache.evict" /
  // "cache.rewatch"); background mode forgets the id on the owner's client
  // and retires it for the evictor. An eviction counts in `evictions` or
  // `bg_evictions` accordingly. Owner thread only.
  void ReleaseEntryLocked(const Entry& entry, bool evicted);
  // Marks one entry invalid. `account_client` gates the owner-client
  // ClientStats/recorder bumps (false on cross-thread paths).
  void InvalidateLocked(uint64_t key, bool account_client);
  void InvalidateAllLocked(bool account_client);
  // `account_client` is false exactly on the flusher's cross-thread path,
  // which also applies RefillExternal's event-word guard.
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
  ClockRing<Entry> ring_;
  ClockRing<uint32_t> filter_;  // key -> miss count (admission filter)
  FlatMap<uint64_t> sub_to_key_;  // SubId -> key
  // Background mode: released subscriptions awaiting the evictor.
  std::vector<RetiredWatch> retired_;
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

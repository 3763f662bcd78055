#include "src/cache/near_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace fmds {

namespace {
// Ring capacity bound: every entry costs at least kEntryOverhead, so the
// budget can never hold more than this many entries.
size_t MaxEntries(uint64_t budget_bytes) {
  return std::max<uint64_t>(1, budget_bytes / NearCache::kEntryOverhead);
}
}  // namespace

NearCache::NearCache(FarClient* client, NearCacheOptions options,
                     bool word_versioned)
    : client_(client),
      options_(options),
      word_versioned_(word_versioned),
      ring_(MaxEntries(options.budget_bytes)),
      filter_(kFilterSlots),
      win_hits_(WindowedOptions{}.window_ns, WindowedOptions{}.slots),
      win_lookups_(WindowedOptions{}.window_ns, WindowedOptions{}.slots) {}

NearCache::~NearCache() { Clear(); }

bool NearCache::Lookup(uint64_t key, std::span<std::byte> out) {
  return LookupWatch(key, out, nullptr, nullptr);
}

bool NearCache::LookupWatch(uint64_t key, std::span<std::byte> out,
                            FarAddr* watch, uint64_t* watch_word) {
  if (!enabled()) {
    return false;
  }
  // One near access covers the whole probe — on a hit this is the entire
  // cost of the operation (that asymmetry is the point of the cache).
  client_->AccountNear(1);
  // The owner's clock stamps the rolling hit-ratio gauge.
  const uint64_t now_ns = client_->clock().now_ns();
  win_now_ns_ = std::max(win_now_ns_, now_ns);
  win_lookups_.Add(now_ns, 1);
  const size_t slot = ring_.Find(key);
  if (slot != ClockRing<Entry>::npos) {
    Entry& e = ring_.value(slot);
    if (e.valid && e.payload.size() == out.size()) {
      ring_.Touch(slot);
      std::memcpy(out.data(), e.payload.data(), out.size());
      if (watch != nullptr) {
        *watch = e.watch;
      }
      if (watch_word != nullptr) {
        *watch_word = e.watch_word;
      }
      ++stats_.hits;
      win_hits_.Add(now_ns, 1);
      ++client_->mutable_stats().cache_hits;
      client_->recorder().RecordCacheHit();
      return true;
    }
  }
  ++stats_.misses;
  ++client_->mutable_stats().cache_misses;
  client_->recorder().RecordCacheMiss();
  return false;
}

bool NearCache::ArmWatch(Entry& e, uint64_t key, FarAddr watch,
                         uint64_t watch_len, uint64_t expected_watch_word,
                         const char* label_name) {
  NotifySpec spec;
  spec.mode = NotifyMode::kOnWrite;
  spec.addr = watch;
  spec.len = watch_len;
  uint64_t snapshot = 0;
  {
    ScopedOpLabel label(&client_->recorder(), label_name);
    auto result = client_->Subscribe(spec, this, &snapshot);
    if (!result.ok()) {
      return false;  // unsubscribable range: serve it uncached
    }
    e.sub = *result;
  }
  e.watch = watch;
  e.watch_len = watch_len;
  e.watch_word = snapshot;
  sub_to_key_[e.sub] = key;
  // Read-and-arm check: the payload was read *before* the subscription
  // existed. If the watched word moved in that window, a writer raced the
  // admission and its notification went to nobody — the payload cannot be
  // trusted. The subscription is live either way, so the entry enters
  // invalid and the next miss refills it under coverage.
  if (snapshot != expected_watch_word) {
    e.valid = false;
    ++stats_.raced_admits;
  } else {
    e.valid = true;
  }
  return true;
}

void NearCache::Admit(uint64_t key, std::span<const std::byte> payload,
                      FarAddr watch, uint64_t watch_len,
                      uint64_t expected_watch_word) {
  if (!enabled()) {
    return;
  }
  const uint64_t cost = payload.size() + kEntryOverhead;
  if (cost > options_.budget_bytes) {
    return;  // would never fit, even alone
  }
  const size_t slot = ring_.Find(key);
  if (slot != ClockRing<Entry>::npos) {
    // Resident (possibly invalidated) entry.
    Entry& e = ring_.value(slot);
    bytes_used_ -= EntryCost(e);
    e.payload.assign(payload.begin(), payload.end());
    if (e.watch == watch && e.watch_len == watch_len) {
      // Same watch: refill in place. The live subscription covered the
      // caller's read, so the payload is admissible as-is and no round
      // trip is paid — this is what makes invalidation cheap to recover
      // from. (A write racing the refill has already published into our
      // channel; the next dispatch kills the entry again.)
      e.watch_word = expected_watch_word;
      e.valid = true;
      ++stats_.refills;
    } else {
      // The key's watched range moved (e.g. a split migrated it to a new
      // table and retired — possibly freed — the old one). The old
      // subscription now watches dead memory and would never see another
      // relevant write, so release it and read-and-arm the new range.
      ReleaseEntry(e, /*evicted=*/false);
      ++stats_.rewatches;
      if (!ArmWatch(e, key, watch, watch_len, expected_watch_word,
                    "cache.rewatch")) {
        // New range unsubscribable: the entry can't stay coherent. Drop it.
        ring_.Erase(key);
        return;
      }
    }
    bytes_used_ += EntryCost(e);
    ring_.Touch(slot);
    EvictToBudget();
    return;
  }
  if (options_.admit_after > 1) {
    // k-hit filter: count misses per key in a small CLOCK ring; only a key
    // seen admit_after times earns the subscribe round trip and budget.
    const size_t fslot = filter_.Find(key);
    uint32_t seen = 1;
    if (fslot != ClockRing<uint32_t>::npos) {
      seen = ++filter_.value(fslot);
      filter_.Touch(fslot);
    } else {
      filter_.Insert(key, 1);
    }
    if (seen < options_.admit_after) {
      return;
    }
    filter_.Erase(key);
  }

  Entry e;
  e.payload.assign(payload.begin(), payload.end());
  if (!ArmWatch(e, key, watch, watch_len, expected_watch_word,
                "cache.admit")) {
    return;
  }
  bytes_used_ += EntryCost(e);
  std::optional<std::pair<uint64_t, Entry>> evicted;
  ring_.Insert(key, std::move(e), &evicted);
  if (evicted.has_value()) {
    bytes_used_ -= EntryCost(evicted->second);
    ReleaseEntry(evicted->second, /*evicted=*/true);
  }
  ++stats_.admissions;
  EvictToBudget();
}

void NearCache::InvalidateEntry(uint64_t key, bool account_client) {
  const size_t slot = ring_.Find(key);
  if (slot == ClockRing<Entry>::npos) {
    return;
  }
  Entry& e = ring_.value(slot);
  if (!e.valid) {
    return;
  }
  e.valid = false;
  // First in line for eviction: an invalid entry is only worth keeping for
  // its subscription, not its budget share.
  ring_.Unref(slot);
  ++stats_.invalidations;
  if (account_client) {
    ++client_->mutable_stats().cache_invalidations;
    client_->recorder().RecordCacheInvalidation();
  }
}

void NearCache::Invalidate(uint64_t key) {
  InvalidateEntry(key, /*account_client=*/true);
}

void NearCache::InvalidateExternal(uint64_t key) {
  InvalidateEntry(key, /*account_client=*/false);
}

void NearCache::RefillEntry(uint64_t key, std::span<const std::byte> payload,
                            FarAddr watch, uint64_t watch_len,
                            uint64_t watch_word, bool account_client) {
  const size_t slot = ring_.Find(key);
  if (slot == ClockRing<Entry>::npos) {
    return;  // not resident: admission stays a read-path decision
  }
  Entry& e = ring_.value(slot);
  if (e.watch != watch || e.watch_len != watch_len ||
      e.payload.size() != payload.size()) {
    // The key's watched range moved under this entry (split migration), or
    // its value changed size. Rewatching costs round trips and growing
    // could evict, neither of which the write path (possibly the flusher's
    // step) may do — kill the entry and let a read re-admit.
    InvalidateEntry(key, account_client);
    return;
  }
  if (!word_versioned_) {
    // Without word versioning the echo of the writer's own CAS would kill
    // this refill at the next dispatch; keeping the entry valid until then
    // would serve hits that die unpredictably. Degrade to invalidation.
    InvalidateEntry(key, account_client);
    return;
  }
  e.payload.assign(payload.begin(), payload.end());
  e.watch_word = watch_word;
  e.valid = true;
  ring_.Touch(slot);
  ++stats_.writer_refills;
}

void NearCache::Refill(uint64_t key, std::span<const std::byte> payload,
                       FarAddr watch, uint64_t watch_len,
                       uint64_t watch_word) {
  if (!enabled()) {
    return;
  }
  RefillEntry(key, payload, watch, watch_len, watch_word,
              /*account_client=*/true);
}

void NearCache::RefillExternal(uint64_t key, std::span<const std::byte> payload,
                               FarAddr watch, uint64_t watch_len,
                               uint64_t watch_word) {
  if (!enabled()) {
    return;
  }
  RefillEntry(key, payload, watch, watch_len, watch_word,
              /*account_client=*/false);
}

void NearCache::InvalidateAll() {
  ring_.ForEach([this](uint64_t, Entry& e) {
    if (e.valid) {
      e.valid = false;
      ++stats_.invalidations;
      ++client_->mutable_stats().cache_invalidations;
      client_->recorder().RecordCacheInvalidation();
    }
  });
}

void NearCache::OnNotify(const NotifyEvent& event) {
  if (event.kind == NotifyEventKind::kLossWarning) {
    // An unknown number of events, for unknown subscriptions, were lost:
    // the only safe response is to distrust everything cached.
    ++stats_.loss_resets;
    InvalidateAll();
    return;
  }
  const uint64_t* key = sub_to_key_.Find(event.sub_id);
  if (key == nullptr) {
    return;
  }
  if (word_versioned_) {
    // The event carries the watched word's state-at-publish value. If it
    // equals the word this entry was filled under, the write the event
    // reports *is* the write that produced the cached value (typically our
    // own refilled Put) — the entry is current, keep it. Coalesced events
    // carry the latest word, and an event stream always ends with the
    // current value, so a kept-stale window closes at the final event.
    const size_t slot = ring_.Find(*key);
    if (slot != ClockRing<Entry>::npos) {
      const Entry& e = ring_.value(slot);
      if (e.valid && e.watch == event.addr && e.watch_word == event.word) {
        ++stats_.word_confirms;
        return;
      }
    }
  }
  InvalidateEntry(*key, /*account_client=*/true);
}

void NearCache::ReleaseEntry(const Entry& entry, bool evicted) {
  // Every resident entry holds a live subscription (an unsubscribable
  // range is never admitted, and a failed rewatch drops its entry).
  sub_to_key_.Erase(entry.sub);
  if (options_.background_eviction && evictor_ != nullptr) {
    // The owner pays no round trip: it forgets the id, and the evictor's
    // client tears the subscription down node-side on its own clock.
    client_->ForgetSubscription(entry.sub);
    ScopedOpLabel label(&evictor_->recorder(),
                        evicted ? "cache.bg_evict" : "cache.rewatch");
    (void)evictor_->UnsubscribeAt(entry.watch, entry.sub);
    if (evicted) {
      ++evictor_->mutable_stats().bg_evictions;
      ++stats_.bg_evictions;
    }
    return;
  }
  ScopedOpLabel label(&client_->recorder(),
                      evicted ? "cache.evict" : "cache.rewatch");
  (void)client_->Unsubscribe(entry.sub);
  if (evicted) {
    ++stats_.evictions;
  }
}

void NearCache::EvictToBudget() {
  while (bytes_used_ > options_.budget_bytes) {
    auto victim = ring_.EvictOne();
    if (!victim.has_value()) {
      break;
    }
    bytes_used_ -= EntryCost(victim->second);
    ReleaseEntry(victim->second, /*evicted=*/true);
  }
}

void NearCache::Clear() {
  ring_.ForEach([this](uint64_t, Entry& e) {
    ScopedOpLabel label(&client_->recorder(), "cache.evict");
    (void)client_->Unsubscribe(e.sub);
  });
  ring_.Clear();
  filter_.Clear();
  sub_to_key_.Clear();
  bytes_used_ = 0;
}

NearCache::Health NearCache::health() const {
  Health h;
  h.bytes_used = bytes_used_;
  h.entries = ring_.size();
  h.budget_limit = options_.budget_bytes;
  const uint64_t lookups = win_lookups_.RecentCount(win_now_ns_);
  const uint64_t hits = win_hits_.RecentCount(win_now_ns_);
  h.windowed_lookups = lookups;
  h.windowed_hit_ratio =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  return h;
}

void NearCache::AddGauges(GaugeGroup* group, const std::string& prefix) {
  group->Add(prefix + ".bytes_used", [this] {
    return static_cast<double>(health().bytes_used);
  });
  group->Add(prefix + ".entries",
             [this] { return static_cast<double>(health().entries); });
  group->Add(prefix + ".budget_headroom_bytes", [this] {
    const Health h = health();
    return static_cast<double>(h.budget_limit - h.bytes_used);
  });
  group->Add(prefix + ".windowed_hit_ratio",
             [this] { return health().windowed_hit_ratio; });
  group->Add(prefix + ".windowed_lookups", [this] {
    return static_cast<double>(health().windowed_lookups);
  });
}

}  // namespace fmds

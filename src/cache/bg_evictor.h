// BackgroundEvictor: a dedicated thread that pays NearCache subscription
// teardowns off the owner's hot path (Mage-style, ROADMAP "asynchronous
// eviction/write-behind pipeline").
//
// With NearCacheOptions::background_eviction set, a cache's owner evicts
// exactly as it would inline — it reclaims the CLOCK victim as soon as an
// admission or a rewatch passes the budget — but never pays the released
// subscription's unsubscribe round trip: it forgets the id and retires it,
// which marks the cache due (NearCache::SweepNeeded()). This thread's next
// periodic pass pays every retired unsubscribe via
// NearCache::BackgroundSweep(). The evictor owns its own FarClient, so the
// teardown round trips land on its clock and stats (bg_evictions, label
// "cache.bg_evict"; a rewatch's old subscription under "cache.rewatch"),
// keeping the application thread's counters an honest record of hot-path
// work. Retired subscriptions wait for a pass, so every background-mode
// cache needs an evictor watching it.
//
// Lifetime contract: Unwatch() (or StopAndJoin()) every cache before it is
// destroyed — the evictor holds raw NearCache pointers.
#ifndef FMDS_SRC_CACHE_BG_EVICTOR_H_
#define FMDS_SRC_CACHE_BG_EVICTOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/cache/near_cache.h"
#include "src/fabric/far_client.h"

namespace fmds {

struct BackgroundEvictorOptions {
  // Real-time cadence between sweep passes. Each pass checks
  // NearCache::SweepNeeded() per cache (cheap) and only sweeps caches whose
  // owner retired a subscription (an eviction or a rewatch) since their
  // last sweep.
  uint64_t poll_interval_us = 100;
};

class BackgroundEvictor {
 public:
  BackgroundEvictor(Fabric* fabric, uint64_t client_id,
                    BackgroundEvictorOptions options = {});
  BackgroundEvictor(const BackgroundEvictor&) = delete;
  BackgroundEvictor& operator=(const BackgroundEvictor&) = delete;
  ~BackgroundEvictor();

  void Watch(NearCache* cache);
  // Removes the cache and blocks until any in-flight pass is done touching
  // it. Required before the cache is destroyed.
  void Unwatch(NearCache* cache);

  // Wakes the thread and blocks until a full pass requested at or after
  // this call completes (deterministic draining for tests/benches).
  void SweepNow();

  void StopAndJoin();

  // Snapshot of the evictor client's stats as of the last completed pass.
  ClientStats stats() const;
  uint64_t passes() const;

  // Live sweep health (any thread; locks). bytes_used / budget_headroom
  // sum over every watched cache; a cache's headroom is its budget minus
  // its used bytes. Do not destroy a watched cache while health readers
  // (gauges) are live — Unwatch only fences the sweep pass.
  struct Health {
    uint64_t passes = 0;
    uint64_t bg_evictions = 0;  // as of the last completed pass
    uint64_t watched_caches = 0;
    uint64_t bytes_used = 0;
    uint64_t budget_headroom = 0;
  };
  Health health() const;

  // Registers sweep gauges under `prefix` (e.g. "evictor"). The group must
  // not outlive the evictor.
  void AddGauges(GaugeGroup* group, const std::string& prefix);

 private:
  void Main();

  FarClient client_;
  BackgroundEvictorOptions options_;
  mutable std::mutex mu_;
  std::condition_variable wake_cv_;  // app -> thread
  std::condition_variable pass_cv_;  // thread -> app (pass completed)
  std::vector<NearCache*> caches_;
  uint64_t wake_requests_ = 0;       // SweepNow tickets issued
  uint64_t completed_requests_ = 0;  // tickets covered by a finished pass
  uint64_t passes_ = 0;
  bool in_pass_ = false;
  bool stop_ = false;
  ClientStats stats_snapshot_;
  std::thread thread_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CACHE_BG_EVICTOR_H_

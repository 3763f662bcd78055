// BackgroundEvictor: a dedicated clock that pays NearCache subscription
// teardowns off the owner's hot path (Mage-style, ROADMAP "asynchronous
// eviction/write-behind pipeline").
//
// With NearCacheOptions::background_eviction set, a cache's owner evicts
// exactly as it would inline — it reclaims the CLOCK victim as soon as an
// admission or a rewatch passes the budget — but never pays the released
// subscription's unsubscribe round trip on its own client: the cache pays
// it at release, on the client of the evictor watching it (Watch attaches
// it). The evictor owns that FarClient, so the teardown round trips land
// on its clock and stats (bg_evictions, label "cache.bg_evict"; a
// rewatch's old subscription under "cache.rewatch"), keeping the
// application thread's counters an honest record of hot-path work. The
// work runs on the caches' owner thread, as a step of it: a dedicated core
// becomes a dedicated clock, not a host thread.
//
// Threading: watch the caches of one owner thread only, and call every
// method there, the gauges included. Unwatch a cache before it is
// destroyed — the evictor holds raw NearCache pointers.
#ifndef FMDS_SRC_CACHE_BG_EVICTOR_H_
#define FMDS_SRC_CACHE_BG_EVICTOR_H_

#include <cstdint>
#include <vector>

#include "src/cache/near_cache.h"
#include "src/fabric/far_client.h"

namespace fmds {

// No knobs: the evictor runs when a watched cache releases a subscription.
struct BackgroundEvictorOptions {};

class BackgroundEvictor {
 public:
  BackgroundEvictor(Fabric* fabric, uint64_t client_id,
                    BackgroundEvictorOptions options = {});
  BackgroundEvictor(const BackgroundEvictor&) = delete;
  BackgroundEvictor& operator=(const BackgroundEvictor&) = delete;
  // Unwatches every cache.
  ~BackgroundEvictor();

  // Attaches this evictor's client to `cache` (NearCache::SetEvictor).
  void Watch(NearCache* cache);
  // Detaches it: the cache's owner pays its unsubscribes again.
  void Unwatch(NearCache* cache);
  // Unwatches every cache.
  void StopAndJoin();

  // The evictor's client: its stats carry bg_evictions, its clock the
  // teardown round trips.
  FarClient* client() { return &client_; }
  ClientStats stats() const { return client_.stats(); }

  // Live health. Each sums over every watched cache: its
  // NearCacheStats::bg_evictions, its used bytes, and its headroom (budget
  // minus used bytes).
  struct Health {
    uint64_t bg_evictions = 0;
    uint64_t watched_caches = 0;
    uint64_t bytes_used = 0;
    uint64_t budget_headroom = 0;
  };
  Health health() const;

  // Registers health gauges under `prefix` (e.g. "evictor"). The group must
  // not outlive the evictor.
  void AddGauges(GaugeGroup* group, const std::string& prefix);

 private:
  FarClient client_;
  std::vector<NearCache*> caches_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CACHE_BG_EVICTOR_H_

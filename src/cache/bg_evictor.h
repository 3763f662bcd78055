// BackgroundEvictor: a dedicated reclamation thread for NearCache rings
// (Mage-style, ROADMAP "asynchronous eviction/write-behind pipeline").
//
// With NearCacheOptions::background_eviction set, the owning thread's hot
// path never runs a CLOCK sweep and never pays an eviction's or a rewatch's
// unsubscribe round trip: admissions simply stop above the high watermark,
// each refusal (or rewatch) marks the cache due (NearCache::SweepNeeded()),
// and this thread's next periodic pass drains every due cache back to the
// low watermark via NearCache::BackgroundSweep(). The evictor owns its own
// FarClient, so the teardown round trips land on its clock and stats
// (bg_evictions, label "cache.bg_evict"), keeping the application thread's
// counters an honest record of hot-path work.
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
  // NearCache::SweepNeeded() per cache (cheap) and only sweeps rings that
  // refused an admission or rewatched an entry since their last sweep.
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
  // sum over every watched cache; headroom is distance below the high
  // watermark (0 when a sweep is due). Do not destroy a watched cache while
  // health readers (gauges) are live — Unwatch only fences the sweep pass.
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

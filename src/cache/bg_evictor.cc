#include "src/cache/bg_evictor.h"

#include <algorithm>

namespace fmds {

BackgroundEvictor::BackgroundEvictor(Fabric* fabric, uint64_t client_id,
                                     BackgroundEvictorOptions /*options*/)
    : client_(fabric, client_id) {}

BackgroundEvictor::~BackgroundEvictor() { StopAndJoin(); }

void BackgroundEvictor::Watch(NearCache* cache) {
  cache->SetEvictor(&client_);
  caches_.push_back(cache);
}

void BackgroundEvictor::Unwatch(NearCache* cache) {
  cache->SetEvictor(nullptr);
  caches_.erase(std::remove(caches_.begin(), caches_.end(), cache),
                caches_.end());
}

void BackgroundEvictor::StopAndJoin() {
  for (NearCache* cache : caches_) {
    cache->SetEvictor(nullptr);
  }
  caches_.clear();
}

BackgroundEvictor::Health BackgroundEvictor::health() const {
  Health h;
  h.watched_caches = caches_.size();
  for (const NearCache* cache : caches_) {
    const NearCache::Health ch = cache->health();
    h.bg_evictions += cache->stats().bg_evictions;
    h.bytes_used += ch.bytes_used;
    h.budget_headroom += ch.budget_limit - ch.bytes_used;
  }
  return h;
}

void BackgroundEvictor::AddGauges(GaugeGroup* group,
                                  const std::string& prefix) {
  group->Add(prefix + ".bg_evictions",
             [this] { return static_cast<double>(health().bg_evictions); });
  group->Add(prefix + ".watched_caches", [this] {
    return static_cast<double>(health().watched_caches);
  });
  group->Add(prefix + ".bytes_used",
             [this] { return static_cast<double>(health().bytes_used); });
  group->Add(prefix + ".budget_headroom", [this] {
    return static_cast<double>(health().budget_headroom);
  });
}

}  // namespace fmds

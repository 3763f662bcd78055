#include "src/cache/bg_evictor.h"

#include <algorithm>
#include <chrono>

namespace fmds {

BackgroundEvictor::BackgroundEvictor(Fabric* fabric, uint64_t client_id,
                                     BackgroundEvictorOptions options)
    : client_(fabric, client_id), options_(options) {
  thread_ = std::thread([this] { Main(); });
}

BackgroundEvictor::~BackgroundEvictor() { StopAndJoin(); }

void BackgroundEvictor::Watch(NearCache* cache) {
  std::lock_guard<std::mutex> lock(mu_);
  caches_.push_back(cache);
}

void BackgroundEvictor::Unwatch(NearCache* cache) {
  std::unique_lock<std::mutex> lock(mu_);
  caches_.erase(std::remove(caches_.begin(), caches_.end(), cache),
                caches_.end());
  // A pass snapshot taken before the erase may still hold the pointer;
  // wait it out so the caller can safely destroy the cache.
  pass_cv_.wait(lock, [this] { return !in_pass_; });
}

void BackgroundEvictor::SweepNow() {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return;
  }
  const uint64_t ticket = ++wake_requests_;
  wake_cv_.notify_all();
  pass_cv_.wait(lock,
                [&] { return completed_requests_ >= ticket || stop_; });
}

void BackgroundEvictor::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (thread_.joinable()) {
        thread_.join();
      }
      return;
    }
    stop_ = true;
    wake_cv_.notify_all();
    pass_cv_.notify_all();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

ClientStats BackgroundEvictor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_snapshot_;
}

uint64_t BackgroundEvictor::passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return passes_;
}

BackgroundEvictor::Health BackgroundEvictor::health() const {
  std::vector<NearCache*> caches;
  Health h;
  {
    std::lock_guard<std::mutex> lock(mu_);
    h.passes = passes_;
    h.bg_evictions = stats_snapshot_.bg_evictions;
    caches = caches_;
  }
  // Cache locks are taken OUTSIDE mu_ (the sweep path locks them with mu_
  // released too, so no ordering is established either way — don't start).
  h.watched_caches = caches.size();
  for (const NearCache* cache : caches) {
    const NearCache::Health ch = cache->health();
    h.bytes_used += ch.bytes_used;
    h.budget_headroom += ch.budget_limit - ch.bytes_used;
  }
  return h;
}

void BackgroundEvictor::AddGauges(GaugeGroup* group,
                                  const std::string& prefix) {
  group->Add(prefix + ".passes",
             [this] { return static_cast<double>(health().passes); });
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

void BackgroundEvictor::Main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    wake_cv_.wait_for(
        lock, std::chrono::microseconds(options_.poll_interval_us),
        [this] { return stop_ || wake_requests_ > completed_requests_; });
    if (stop_) {
      break;
    }
    const uint64_t claimed = wake_requests_;
    const bool forced = claimed > completed_requests_;
    std::vector<NearCache*> caches = caches_;
    in_pass_ = true;
    lock.unlock();
    for (NearCache* cache : caches) {
      if (forced || cache->SweepNeeded()) {
        cache->BackgroundSweep(&client_);
      }
    }
    lock.lock();
    in_pass_ = false;
    completed_requests_ = claimed;
    ++passes_;
    stats_snapshot_ = client_.stats();
    pass_cv_.notify_all();
  }
  in_pass_ = false;
  pass_cv_.notify_all();
}

}  // namespace fmds

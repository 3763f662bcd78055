#include "src/sim/congestion.h"

#include <algorithm>

namespace fmds {

ServiceQueue::ServiceQueue(const CongestionOptions& options)
    : options_(options) {
  enabled_.store(options.enabled, std::memory_order_relaxed);
}

void ServiceQueue::SetOptions(const CongestionOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  enabled_.store(options.enabled, std::memory_order_relaxed);
  if (!options.enabled) {
    // A disabled front end services nothing and owes nothing: forget the
    // backlog so re-enabling starts from idle.
    in_service_.clear();
    busy_until_ = virtual_now_;
  }
}

CongestionOptions ServiceQueue::GetOptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

void ServiceQueue::DrainLocked(uint64_t now_v) {
  while (!in_service_.empty() && in_service_.front() <= now_v) {
    in_service_.pop_front();
  }
  if (busy_until_ < now_v) {
    busy_until_ = now_v;  // idle gap: the front end was free meanwhile
  }
}

AdmissionOutcome ServiceQueue::Offer(uint64_t now_ns, uint64_t ops) {
  if (!enabled()) {
    return {true, 0};
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) {
    return {true, 0};
  }
  virtual_now_ = std::max(virtual_now_, now_ns);
  DrainLocked(virtual_now_);
  if (in_service_.size() + ops > options_.queue_ops) {
    // Shed. The bounce still occupies the front end: a node drowning in
    // doomed arrivals spends real capacity turning them away.
    sheds_.fetch_add(ops, std::memory_order_relaxed);
    busy_until_ += options_.reject_ns * ops;
    return {false, 0};
  }
  const uint64_t start = std::max(busy_until_, virtual_now_);
  // The batch's ops complete back to back; depth accounting tracks each.
  uint64_t finish = start;
  for (uint64_t i = 0; i < ops; ++i) {
    finish += options_.service_ns;
    in_service_.push_back(finish);
  }
  busy_until_ = std::max(busy_until_, finish);
  // Queueing delay = waiting behind earlier arrivals. The op's own service
  // occupancy is capacity consumed, not latency added: an idle node admits
  // with zero delay, so the base model's fixed RTT is recovered exactly.
  return {true, start - virtual_now_};
}

uint64_t ServiceQueue::DepthOps() const {
  if (!enabled()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (uint64_t finish : in_service_) {
    if (finish > virtual_now_) {
      ++live;
    }
  }
  return live;
}

uint64_t ServiceQueue::BacklogNs() const {
  if (!enabled()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return busy_until_ > virtual_now_ ? busy_until_ - virtual_now_ : 0;
}

}  // namespace fmds

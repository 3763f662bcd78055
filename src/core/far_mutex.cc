#include "src/core/far_mutex.h"

#include <chrono>
#include <thread>

namespace fmds {

Result<bool> FarMutex::TryLock(FarClient& client) const {
  FMDS_ASSIGN_OR_RETURN(uint64_t old,
                        client.CompareSwap(addr_, 0, OwnerTag(client)));
  return old == 0;
}

Status FarMutex::Lock(FarClient& client, MutexWaitStrategy strategy,
                      uint64_t timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  FMDS_ASSIGN_OR_RETURN(bool acquired, TryLock(client));
  if (acquired) {
    return OkStatus();
  }
  if (strategy == MutexWaitStrategy::kPoll) {
    while (std::chrono::steady_clock::now() < deadline) {
      FMDS_ASSIGN_OR_RETURN(bool got, TryLock(client));
      if (got) {
        return OkStatus();
      }
      std::this_thread::yield();
    }
    return Unavailable("mutex poll-lock timed out");
  }
  // Notification strategy: subscribe to "word == 0", retry the CAS whenever
  // a release fires (or periodically as a lost-notification fallback). The
  // wake-up is all the CAS retry needs, so the events are discarded.
  NotifySpec spec;
  spec.mode = NotifyMode::kOnEqual;
  spec.addr = addr_;
  spec.len = kWordSize;
  spec.value = 0;
  FMDS_ASSIGN_OR_RETURN(SubId sub, client.Subscribe(spec, DiscardingSink()));
  Status result = Unavailable("mutex notify-lock timed out");
  while (std::chrono::steady_clock::now() < deadline) {
    // Re-check after subscribing: the release may have happened in between
    // (classic missed-wakeup guard).
    auto got = TryLock(client);
    if (!got.ok()) {
      result = got.status();
      break;
    }
    if (*got) {
      result = OkStatus();
      break;
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      break;
    }
    // Wait for a release event; on timeout loop back to a CAS retry so a
    // dropped notification cannot wedge us (notifications are best-effort).
    (void)client.WaitNotification(static_cast<uint64_t>(
        std::min<int64_t>(remaining.count(), 50)));
  }
  (void)client.Unsubscribe(sub);
  return result;
}

Status FarMutex::Unlock(FarClient& client) const {
  return client.WriteWord(addr_, 0);
}

}  // namespace fmds

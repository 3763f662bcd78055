#include "src/core/far_barrier.h"

#include <chrono>

namespace fmds {

Result<FarBarrier> FarBarrier::Create(FarClient& client, FarAllocator& alloc,
                                      uint64_t participants) {
  if (participants == 0) {
    return Status(StatusCode::kInvalidArgument, "barrier needs participants");
  }
  FMDS_ASSIGN_OR_RETURN(FarAddr base, alloc.Allocate(3 * kWordSize));
  FMDS_RETURN_IF_ERROR(client.WriteWord(base, participants));
  FMDS_RETURN_IF_ERROR(client.WriteWord(base + kWordSize, 0));
  FMDS_RETURN_IF_ERROR(client.WriteWord(base + 2 * kWordSize, participants));
  return FarBarrier(base, participants);
}

Result<FarBarrier> FarBarrier::Attach(FarClient& client, FarAddr base) {
  FMDS_ASSIGN_OR_RETURN(uint64_t participants,
                        client.ReadWord(base + 2 * kWordSize));
  return FarBarrier(base, participants);
}

Status FarBarrier::Arrive(FarClient& client, uint64_t timeout_ms) {
  const uint64_t target_gen = local_round_ + 1;
  FMDS_ASSIGN_OR_RETURN(
      uint64_t old, client.FetchAdd(count_addr(), static_cast<uint64_t>(-1)));
  if (old == 1) {
    // Last arriver: reopen the barrier for the next round, then announce
    // completion. Order matters — the count must be reset before waiters of
    // this round can start the next one.
    FMDS_RETURN_IF_ERROR(client.WriteWord(count_addr(), participants_));
    FMDS_RETURN_IF_ERROR(client.FetchAdd(gen_addr(), 1).status());
    ++local_round_;
    return OkStatus();
  }
  // Wait for generation == target via notifye, with a read-back guard
  // against the notification racing the subscription (or being dropped).
  NotifySpec spec;
  spec.mode = NotifyMode::kOnEqual;
  spec.addr = gen_addr();
  spec.len = kWordSize;
  spec.value = target_gen;
  // The wake-up is all the read-back needs, so the events are discarded.
  FMDS_ASSIGN_OR_RETURN(SubId sub, client.Subscribe(spec, DiscardingSink()));
  Status result = Unavailable("barrier wait timed out");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    auto gen = client.ReadWord(gen_addr());
    if (!gen.ok() || *gen >= target_gen) {
      result = gen.status();
      break;
    }
    (void)client.WaitNotification(50);
  }
  (void)client.Unsubscribe(sub);
  if (result.ok()) {
    ++local_round_;
  }
  return result;
}

}  // namespace fmds

#include "src/core/far_queue.h"

#include <thread>

#include "src/common/bytes.h"
#include "src/obs/recorder.h"

namespace fmds {

namespace {
// Tries between yields while a dequeue waits for its slot's producer.
constexpr uint64_t kYieldEvery = 64;
}  // namespace

FarQueue::FarQueue(FarClient* client, FarAddr header)
    : client_(client), header_(header) {}

Result<FarQueue> FarQueue::Create(FarClient* client, FarAllocator* alloc,
                                  Options options) {
  if (options.capacity < 4 * (options.max_clients + 1)) {
    return Status(StatusCode::kInvalidArgument,
                  "capacity must be >= 4*(max_clients+1)");
  }
  // Header + ring + slack (+1 guard word), one contiguous block.
  const uint64_t slack_slots = options.max_clients + 2;
  const uint64_t total =
      kHeaderBytes + (options.capacity + slack_slots) * kWordSize;
  FMDS_ASSIGN_OR_RETURN(FarAddr header, alloc->Allocate(total));
  const FarAddr ring_base = header + kHeaderBytes;

  std::vector<uint64_t> image(total / kWordSize, 0);
  image[kHdrHead / 8] = ring_base;
  image[kHdrTail / 8] = ring_base;
  image[kHdrLock / 8] = 0;
  image[kHdrRingBase / 8] = ring_base;
  image[kHdrCapacity / 8] = options.capacity;
  image[kHdrMaxClients / 8] = options.max_clients;
  FMDS_RETURN_IF_ERROR(client->Write(
      header, std::as_bytes(std::span<const uint64_t>(image))));

  FarQueue queue(client, header);
  queue.ring_base_ = ring_base;
  queue.capacity_ = options.capacity;
  queue.max_clients_ = options.max_clients;
  queue.refresh_every_ = options.refresh_every;
  queue.lock_ = FarMutex::Attach(header + kHdrLock);
  queue.est_head_ = ring_base;
  queue.est_tail_ = ring_base;
  if (options.watch_estimates) {
    FMDS_RETURN_IF_ERROR(queue.EnableWatch());
  }
  return queue;
}

Result<FarQueue> FarQueue::Attach(FarClient* client, FarAddr header) {
  return Attach(client, header, Options{});
}

Result<FarQueue> FarQueue::Attach(FarClient* client, FarAddr header,
                                  Options options) {
  uint64_t hdr[8];
  FMDS_RETURN_IF_ERROR(client->Read(
      header, std::as_writable_bytes(std::span<uint64_t>(hdr))));
  FarQueue queue(client, header);
  queue.ring_base_ = hdr[kHdrRingBase / 8];
  queue.capacity_ = hdr[kHdrCapacity / 8];
  queue.max_clients_ = hdr[kHdrMaxClients / 8];
  queue.refresh_every_ = options.refresh_every;
  queue.lock_ = FarMutex::Attach(header + kHdrLock);
  queue.est_head_ = hdr[kHdrHead / 8];
  queue.est_tail_ = hdr[kHdrTail / 8];
  if (options.watch_estimates) {
    FMDS_RETURN_IF_ERROR(queue.EnableWatch());
  }
  return queue;
}

void FarQueue::EstimateWatch::OnNotify(const NotifyEvent& event) {
  if (event.kind == NotifyEventKind::kLossWarning) {
    loss = true;
    return;
  }
  // event.word is the pointer word's value read inside the node's
  // subscription critical section at publish time; coalesced events keep
  // the latest, so adopting it directly is always monotone in real time.
  if (event.sub_id == head_sub) {
    head = event.word;
  } else if (event.sub_id == tail_sub) {
    tail = event.word;
  }
}

Status FarQueue::EnableWatch() {
  watch_ = MakeOwnedSink<EstimateWatch>(client_);
  NotifySpec spec;
  spec.mode = NotifyMode::kOnWrite;
  spec.len = kWordSize;
  // Coalescing is safe (and desirable) here: only the newest pointer value
  // matters, and the event's `word` field carries it.
  spec.policy = DeliveryPolicy{0.0, /*coalesce=*/true};
  uint64_t snapshot = 0;
  spec.addr = head_addr();
  FMDS_ASSIGN_OR_RETURN(watch_->head_sub,
                        client_->Subscribe(spec, watch_.get(), &snapshot));
  watch_->head = snapshot;
  spec.addr = tail_addr();
  FMDS_ASSIGN_OR_RETURN(watch_->tail_sub,
                        client_->Subscribe(spec, watch_.get(), &snapshot));
  watch_->tail = snapshot;
  // Read-and-arm: the snapshots are exact at registration time.
  est_head_ = watch_->head;
  est_tail_ = watch_->tail;
  return OkStatus();
}

Status FarQueue::MaybeRefreshEstimates() {
  if (watch_ != nullptr) {
    // Pushed estimates: drain whatever the fabric delivered (free when the
    // channel is empty) and adopt the watch's latest pointer values. Our
    // own faai/saai publish notifications synchronously at the node, so by
    // the time the next op dispatches, the watch is at least as fresh as
    // our last completed op.
    (void)client_->DispatchNotifications();
    if (watch_->loss) {
      watch_->loss = false;
      FMDS_ASSIGN_OR_RETURN(watch_->head,
                            client_->ReadWordBackground(head_addr()));
      FMDS_ASSIGN_OR_RETURN(watch_->tail,
                            client_->ReadWordBackground(tail_addr()));
    }
    est_head_ = watch_->head;
    est_tail_ = watch_->tail;
    return OkStatus();
  }
  if (ops_since_refresh_ < refresh_every_) {
    return OkStatus();
  }
  ops_since_refresh_ = 0;
  FMDS_ASSIGN_OR_RETURN(est_head_, client_->ReadWordBackground(head_addr()));
  FMDS_ASSIGN_OR_RETURN(est_tail_, client_->ReadWordBackground(tail_addr()));
  return OkStatus();
}

// Slots between two absolute pointer values, modulo one ring lap. A slack
// head up to max_clients + 2 slots past a lapped tail marks outstanding
// empty reservations: the queue reads empty, not (wrapped negative) full.
static uint64_t LogicalOccSlots(uint64_t head, uint64_t tail,
                                uint64_t ring_bytes) {
  int64_t d = static_cast<int64_t>(tail) - static_cast<int64_t>(head);
  if (d < 0) {
    d += static_cast<int64_t>(ring_bytes);
  }
  return d < 0 ? 0 : static_cast<uint64_t>(d) / kWordSize;
}

Status FarQueue::Enqueue(uint64_t value) {
  if (value == 0) {
    return InvalidArgument("queue values must be non-zero");
  }
  ScopedOpLabel label(&client_->recorder(), "queue.enqueue");
  FMDS_RETURN_IF_ERROR(MaybeRefreshEstimates());
  // Second logical slack (§5.3): when the *estimated* free space dips below
  // 2n, leave the fast path and read the true head.
  uint64_t occ = LogicalOccSlots(est_head_, est_tail_,
                                 capacity_ * kWordSize);
  if (occ + 2 * max_clients_ >= capacity_) {
    ++op_stats_.slow_enqueues;
    ++client_->mutable_stats().slow_path_ops;
    uint64_t hdr[2];  // head and tail, one round trip
    FMDS_RETURN_IF_ERROR(client_->Read(
        header_, std::as_writable_bytes(std::span<uint64_t>(hdr))));
    est_head_ = hdr[kHdrHead / 8];
    est_tail_ = hdr[kHdrTail / 8];
    occ = LogicalOccSlots(est_head_, est_tail_, capacity_ * kWordSize);
    if (occ + max_clients_ + 1 >= capacity_) {
      return ResourceExhausted("queue full");
    }
    // The slot the tail reuses next may still hold last lap's item, owed to
    // a dequeuer that reserved it empty: full until that dequeuer takes it.
    const FarAddr reuse = est_tail_ < ring_end()
                              ? est_tail_
                              : ring_base_ + (est_tail_ - ring_end());
    FMDS_ASSIGN_OR_RETURN(uint64_t owed, client_->ReadWord(reuse));
    if (owed != 0) {
      return ResourceExhausted("queue full");
    }
  }
  // Fast path: ONE far access — bump tail and store the value at the old
  // tail slot atomically (saai).
  auto landed = client_->Saai(tail_addr(), kWordSize, AsConstBytes(value));
  if (!landed.ok()) {
    return landed.status();
  }
  // Advance the tail estimate by how far the tail moved, without the lap
  // modulo, so a head estimate a lap stale reads full, not nearly empty.
  int64_t moved = static_cast<int64_t>(*landed + kWordSize - est_tail_) %
                  static_cast<int64_t>(capacity_ * kWordSize);
  if (moved < 0) {
    moved += static_cast<int64_t>(capacity_ * kWordSize);
  }
  est_tail_ += static_cast<uint64_t>(moved);
  ++ops_since_refresh_;
  if (*landed < ring_end()) {
    ++op_stats_.fast_enqueues;
    return OkStatus();
  }
  if (*landed >= slack_end()) {
    return Internal("tail overshot the slack region (protocol violation)");
  }
  return FixupTailLanding(*landed);
}

Status FarQueue::FixupTailLanding(FarAddr landed) {
  ++op_stats_.slow_enqueues;
  ++client_->mutable_stats().slow_path_ops;
  FMDS_RETURN_IF_ERROR(lock_.Lock(*client_, MutexWaitStrategy::kPoll));
  const uint64_t j = (landed - ring_end()) / kWordSize;
  // Move my item to its wrapped position unless a previous fixup already
  // did (then my slack slot reads 0).
  FMDS_ASSIGN_OR_RETURN(uint64_t mine, client_->ReadWord(landed));
  if (mine != 0) {
    FMDS_RETURN_IF_ERROR(
        client_->WriteWord(ring_base_ + j * kWordSize, mine));
    FMDS_RETURN_IF_ERROR(client_->WriteWord(landed, 0));
  }
  // First lander still observing the tail in slack subtracts the lap, after
  // sweeping every completed slack slot back into the ring.
  FMDS_ASSIGN_OR_RETURN(uint64_t tail_now, client_->ReadWord(tail_addr()));
  if (tail_now >= ring_end()) {
    const uint64_t slack_slots = max_clients_ + 2;
    std::vector<uint64_t> slack(slack_slots);
    FMDS_RETURN_IF_ERROR(client_->Read(
        ring_end(), std::as_writable_bytes(std::span<uint64_t>(slack))));
    for (uint64_t k = 0; k < slack_slots; ++k) {
      if (slack[k] != 0) {
        FMDS_RETURN_IF_ERROR(
            client_->WriteWord(ring_base_ + k * kWordSize, slack[k]));
        FMDS_RETURN_IF_ERROR(client_->WriteWord(ring_end() + k * kWordSize,
                                                0));
      }
    }
    FMDS_RETURN_IF_ERROR(
        client_->FetchAdd(tail_addr(),
                          static_cast<uint64_t>(-(capacity_ * kWordSize)))
            .status());
    ++op_stats_.wraps;
  }
  FMDS_RETURN_IF_ERROR(lock_.Unlock(*client_));
  ops_since_refresh_ = refresh_every_;  // force a fresh estimate next op
  return OkStatus();
}

Result<uint64_t> FarQueue::Dequeue() {
  ScopedOpLabel label(&client_->recorder(), "queue.dequeue");
  FMDS_RETURN_IF_ERROR(MaybeRefreshEstimates());
  uint64_t occ =
      LogicalOccSlots(est_head_, est_tail_, capacity_ * kWordSize);
  if (occ == 0) {
    if (watch_ != nullptr) {
      // Watched pointers: the estimate is push-fresh, so an idle poll ends
      // here at ZERO far accesses (bench_e5's idle-poll gate). A concurrent
      // enqueue not yet delivered surfaces on a later poll — same
      // conservative-empty contract as the synchronous check below.
      return Status(StatusCode::kNotFound, "queue empty");
    }
    // Estimate says maybe-empty: read the true tail before reserving.
    ++op_stats_.slow_dequeues;
    ++client_->mutable_stats().slow_path_ops;
    FMDS_ASSIGN_OR_RETURN(est_tail_, client_->ReadWord(tail_addr()));
    occ = LogicalOccSlots(est_head_, est_tail_, capacity_ * kWordSize);
    if (occ == 0) {
      return Status(StatusCode::kNotFound, "queue empty");
    }
  }
  // Fast path: ONE far access — bump head and load the old head slot (faai).
  uint64_t value = 0;
  auto landed = client_->Faai(head_addr(), kWordSize, AsBytes(value));
  if (!landed.ok()) {
    return landed.status();
  }
  est_head_ = *landed + kWordSize;
  ++ops_since_refresh_;
  if (*landed >= slack_end()) {
    return Status(StatusCode::kInternal,
                  "head overshot the slack region (protocol violation)");
  }
  if (*landed >= ring_end()) {
    return FixupHeadLanding(*landed, value);
  }
  if (value == 0) {
    // Empty race: we reserved a slot no producer has filled (yet).
    ++op_stats_.empty_races;
    ++op_stats_.slow_dequeues;
    ++client_->mutable_stats().slow_path_ops;
    FMDS_ASSIGN_OR_RETURN(uint64_t v, AwaitOrUnwind(*landed, *landed));
    if (v == 0) {
      return Status(StatusCode::kNotFound, "queue empty");
    }
    FMDS_RETURN_IF_ERROR(client_->CompareSwapBackground(*landed, v, 0));
    return v;
  }
  ++op_stats_.fast_dequeues;
  // Reset the consumed slot off the critical path so the next lap's empty
  // detection stays sound.
  FMDS_RETURN_IF_ERROR(client_->CompareSwapBackground(*landed, value, 0));
  return value;
}

Result<uint64_t> FarQueue::FixupHeadLanding(FarAddr landed,
                                            uint64_t faai_value) {
  ++op_stats_.slow_dequeues;
  ++client_->mutable_stats().slow_path_ops;
  const uint64_t j = (landed - ring_end()) / kWordSize;
  uint64_t out = faai_value;
  if (faai_value != 0) {
    // Margin violation: the slack slot still held a tail item when our faai
    // read it. The tail fixup (which runs under the lock) may have since
    // copied it to its wrapped ring position; under the lock, exactly one
    // of {slack slot, ring slot} still holds the value — clear both so the
    // item is consumed exactly once.
    FMDS_RETURN_IF_ERROR(lock_.Lock(*client_, MutexWaitStrategy::kPoll));
    FMDS_ASSIGN_OR_RETURN(uint64_t in_slack, client_->ReadWord(landed));
    if (in_slack == faai_value) {
      FMDS_RETURN_IF_ERROR(client_->WriteWord(landed, 0));
    }
    FMDS_ASSIGN_OR_RETURN(uint64_t in_ring,
                          client_->ReadWord(ring_base_ + j * kWordSize));
    if (in_ring == faai_value) {
      FMDS_RETURN_IF_ERROR(
          client_->WriteWord(ring_base_ + j * kWordSize, 0));
    }
    FMDS_RETURN_IF_ERROR(lock_.Unlock(*client_));
  } else {
    // Normal wrap: my reservation logically names ring slot j; the tail
    // fixup places the item there, or an empty queue takes it back (with no
    // lap to subtract). Wait WITHOUT the queue lock — the tail fixup needs
    // it to perform that very copy.
    const FarAddr slot = ring_base_ + j * kWordSize;
    FMDS_ASSIGN_OR_RETURN(out, AwaitOrUnwind(landed, slot));
    if (out == 0) {
      return Status(StatusCode::kNotFound, "queue empty");
    }
    FMDS_RETURN_IF_ERROR(client_->WriteWord(slot, 0));
  }
  // Subtract the lap (once) if the head still points into the slack.
  FMDS_RETURN_IF_ERROR(lock_.Lock(*client_, MutexWaitStrategy::kPoll));
  auto head_now = client_->ReadWord(head_addr());
  if (head_now.ok() && *head_now >= ring_end()) {
    FMDS_RETURN_IF_ERROR(
        client_->FetchAdd(head_addr(),
                          static_cast<uint64_t>(-(capacity_ * kWordSize)))
            .status());
    ++op_stats_.wraps;
  }
  FMDS_RETURN_IF_ERROR(lock_.Unlock(*client_));
  ops_since_refresh_ = refresh_every_;
  return out;
}

Result<uint64_t> FarQueue::AwaitOrUnwind(FarAddr landed, FarAddr slot) {
  // A slack landing's head may since have been lapped by the dequeuer that
  // consumed the slot before ours.
  const uint64_t lap = landed >= ring_end() ? capacity_ * kWordSize : 0;
  for (uint64_t tries = 1;; ++tries) {
    FMDS_ASSIGN_OR_RETURN(uint64_t v, client_->ReadWord(slot));
    if (v != 0) {
      return v;
    }
    FMDS_ASSIGN_OR_RETURN(
        uint64_t old,
        client_->CompareSwap(head_addr(), landed + kWordSize, landed));
    if (old == landed + kWordSize) {
      est_head_ = landed;
      return 0;
    }
    if (lap != 0 && old == landed + kWordSize - lap) {
      FMDS_ASSIGN_OR_RETURN(
          old, client_->CompareSwap(head_addr(), old, landed - lap));
      if (old == landed + kWordSize - lap) {
        est_head_ = landed - lap;
        return 0;
      }
    }
    // Yield now and then, so a producer sharing this core gets to run, but
    // not every try: each yield invites the scheduler to park this waiter,
    // and one parked for a whole lap loses its item (see the header).
    if (tries % kYieldEvery == 0) {
      std::this_thread::yield();
    }
  }
}

Result<uint64_t> FarQueue::SizeSlow() {
  FMDS_ASSIGN_OR_RETURN(est_head_, client_->ReadWord(head_addr()));
  FMDS_ASSIGN_OR_RETURN(est_tail_, client_->ReadWord(tail_addr()));
  return LogicalOccSlots(est_head_, est_tail_, capacity_ * kWordSize);
}

}  // namespace fmds

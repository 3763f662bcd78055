#include "src/fabric/far_client.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <type_traits>
#include <unordered_set>

// Sanitizer instrumentation slows the spinning side of real-time waits by
// 5-20x, so wall-clock budgets that are generous natively can fire
// spuriously under scripts/check.sh's TSan/ASan passes. Scale them.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FMDS_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FMDS_UNDER_SANITIZER 1
#endif
#endif

namespace fmds {

namespace {
#ifdef FMDS_UNDER_SANITIZER
constexpr uint64_t kWaitBudgetScale = 20;
#else
constexpr uint64_t kWaitBudgetScale = 1;
#endif
}  // namespace

FarClient::FarClient(Fabric* fabric, uint64_t client_id, ClientOptions options)
    : fabric_(fabric),
      client_id_(client_id),
      latency_(fabric->options().latency),
      jitter_state_(client_id * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull),
      home_node_(options.home_node),
      obs_(client_id),
      channel_(options.channel_capacity) {
  doorbell_.groups.resize(fabric->num_nodes());
}

void FarClient::AccountRoundTrip(FarOpKind kind, NodeId node, FarAddr addr,
                                 uint64_t payload_bytes, uint64_t messages,
                                 uint64_t extra_hops, bool ok,
                                 uint64_t queue_ns) {
  ++stats_.far_ops;
  stats_.messages += messages;
  uint64_t latency_ns = ModelFor(node).FarRoundTripNs(payload_bytes) +
                        extra_hops * latency_.node_hop_ns + queue_ns;
  if (node != kObsNoNode) {
    // Per-node slowdown knob (contention / degraded link injection): the
    // serviced node's extra service time rides on every round trip to it.
    latency_ns += fabric_->node(node).extra_service_ns();
  }
  const uint64_t start_ns = clock_.now_ns();
  clock_.Advance(latency_ns);
  if (obs_.recording()) {
    obs_.RecordOp(kind, node, addr, payload_bytes, start_ns, latency_ns, ok);
  }
}

// --------------------- Congestion admission (§14) ---------------------

uint64_t FarClient::NextJitter() {
  // xorshift64*: deterministic per client, free of global state.
  uint64_t x = jitter_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  jitter_state_ = x;
  return x * 0x2545F4914F6CDD1Dull;
}

MemoryNode* FarClient::FrontEnd(NodeId node) const {
  // The near-memory agent reaches its own memory through the controller,
  // not through the node's NIC front end; its local work never queues
  // there. (This is what lets an RPC agent keep servicing shipped ops
  // while the one-sided front end is saturated.)
  if (node == kObsNoNode || (home_node_.has_value() && node == *home_node_)) {
    return nullptr;
  }
  MemoryNode& n = fabric_->node(node);
  return n.congestion_enabled() ? &n : nullptr;
}

Result<uint64_t> FarClient::AdmitCongestion(FarOpKind kind, NodeId node,
                                            FarAddr addr, uint64_t ops) {
  MemoryNode* front_end = FrontEnd(node);
  if (front_end == nullptr) {
    return uint64_t{0};
  }
  const uint64_t op_start_ns = clock_.now_ns();
  for (uint32_t attempt = 1;; ++attempt) {
    const AdmissionOutcome outcome =
        front_end->OfferLoad(clock_.now_ns(), ops);
    if (outcome.admitted) {
      return outcome.queue_ns;
    }
    stats_.overload_sheds += ops;
    // The bounce is a completed (failed) round trip: the client learns of
    // the shed from the node's reject reply.
    AccountRoundTrip(kind, node, addr, 0, 1, 0, /*ok=*/false);
    if (attempt >= retry_.max_attempts) {
      break;
    }
    uint64_t backoff = retry_.backoff_base_ns
                       << std::min<uint32_t>(attempt - 1, 20);
    backoff = std::min(std::max<uint64_t>(backoff, 1), retry_.backoff_max_ns);
    backoff = backoff / 2 + NextJitter() % std::max<uint64_t>(backoff / 2, 1);
    if (retry_.deadline_ns != 0 &&
        clock_.now_ns() - op_start_ns + backoff > retry_.deadline_ns) {
      // Out of deadline budget: failing now beats sleeping past it.
      break;
    }
    ++stats_.overload_retries;
    clock_.Advance(backoff);
  }
  ++stats_.overload_failures;
  return Overloaded("node " + std::to_string(node) +
                    " shed op: retry budget exhausted");
}

// ------------------------------- Executor -------------------------------

Result<uint64_t> FarClient::Admit(ChargeRule rule, FarOpKind kind,
                                  NodeId node, FarAddr addr, uint64_t ops) {
  // One admission rule: an op a congested node sheds runs the RetryPolicy
  // loop in a doorbell as in a sync verb, so batching an op never turns a
  // shed the serial rule retries into a kOverloaded completion.
  if (rule == ChargeRule::kBackground) {
    return uint64_t{0};
  }
  return AdmitCongestion(kind, node, addr, ops);
}

inline void FarClient::Charge(ChargeRule rule, const RoundTripCost& cost) {
  switch (rule) {
    case ChargeRule::kSerial:
      AccountRoundTrip(cost.kind, cost.node, cost.addr, cost.bytes,
                       std::max<uint64_t>(cost.messages, 1), cost.hops,
                       cost.ok, cost.queue_ns);
      return;
    case ChargeRule::kBackground:
      ++stats_.background_ops;
      stats_.messages += std::max<uint64_t>(cost.messages, 1);
      if (obs_.recording()) {
        // Fire-and-forget: the client clock does not wait, so latency is 0.
        obs_.RecordOp(FarOpKind::kBackground, cost.node, cost.addr,
                      cost.bytes, clock_.now_ns(), 0, true);
      }
      return;
    case ChargeRule::kDoorbell:
      break;
  }
  if (cost.dependent) {
    // It cannot overlap the batch it depends on: WaitAll charges it serially
    // once the doorbell's reply is in.
    doorbell_.deferred.push_back(cost);
    doorbell_.deferred.back().pieces = {};
    return;
  }
  ++doorbell_.rtts;
  doorbell_.messages += cost.messages;
  if (cost.node == kObsNoNode) {
    return;  // an empty op: nothing for any node group to wait for
  }
  auto join = [this](NodeId node, uint64_t bytes, uint64_t hops) {
    BatchGroup& group = doorbell_.groups[node];
    ++group.contribs;
    group.wire_ns += ModelFor(node).per_byte_ns * static_cast<double>(bytes);
    group.hops += hops;
  };
  BatchGroup& primary = doorbell_.groups[cost.node];
  primary.queue_ns = std::max(primary.queue_ns, cost.queue_ns);
  if (cost.pieces.empty()) {
    join(cost.node, cost.bytes, cost.hops);
  }
  for (const Fabric::Segment& piece : cost.pieces) {
    join(piece.node, piece.len, 0);
  }
}

void FarClient::Apply(const FarOp& op) {
  size_t moved = 0;
  for (const Fabric::Segment& seg : segs_) {
    MemoryNode& node = fabric_->node(seg.node);
    const size_t len = static_cast<size_t>(seg.len);
    switch (op.access) {
      case Access::kRead:
        node.ReadRange(seg.offset, op.out.subspan(moved, len));
        break;
      case Access::kWrite:
        node.WriteRange(seg.offset, op.in.subspan(moved, len));
        break;
      case Access::kAdd:
        node.FetchAddWord(seg.offset, op.value);
        break;
    }
    moved += len;
  }
}

Status FarClient::Execute(const FarOp& op, ChargeRule rule, uint64_t* word,
                          RoundTripCost* report) {
  RoundTripCost unreported;
  RoundTripCost& cost = report != nullptr ? *report : unreported;
  cost = RoundTripCost{
      .kind = op.kind, .addr = op.addr, .dependent = op.dependent};
  uint64_t result = 0;
  switch (op.kind) {
    case FarOpKind::kRead:
    case FarOpKind::kWrite:
    case FarOpKind::kScatterGather: {
      // A byte range [addr, addr + local size), or a far iovec read into
      // or written from one contiguous local buffer.
      const bool read = op.access == Access::kRead;
      const size_t local = read ? op.out.size() : op.in.size();
      const FarSeg range{op.addr, local};
      const std::span<const FarSeg> far =
          op.kind == FarOpKind::kScatterGather ? op.iov
                                               : std::span(&range, 1);
      uint64_t total = 0;
      segs_.clear();
      for (const FarSeg& f : far) {
        total += f.len;
        FMDS_RETURN_IF_ERROR(fabric_->Segments(f.addr, f.len, segs_));
      }
      if (total > local) {
        return InvalidArgument("far iovec exceeds the local buffer");
      }
      cost.addr = far.empty() ? kNullFarAddr : far.front().addr;
      const NodeId node = segs_.empty() ? kObsNoNode : segs_.front().node;
      // The op queues at its primary node: one arrival per segment of a
      // range, per entry of an iovec.
      FMDS_ASSIGN_OR_RETURN(
          cost.queue_ns,
          Admit(rule, op.kind, node, cost.addr,
                op.kind == FarOpKind::kScatterGather
                    ? far.size()
                    : std::max<size_t>(segs_.size(), 1)));
      Apply(op);
      (read ? stats_.bytes_read : stats_.bytes_written) += total;
      cost.node = node;
      cost.bytes = total;
      cost.messages = segs_.size();
      cost.pieces = segs_;
      Charge(rule, cost);
      break;
    }
    case FarOpKind::kReadWord:
    case FarOpKind::kWriteWord:
    case FarOpKind::kCas:
    case FarOpKind::kFetchAdd: {
      if (!IsWordAligned(op.addr)) {
        return InvalidArgument("unaligned word access");
      }
      const Result<Fabric::Location> loc = fabric_->Translate(op.addr);
      if (!loc.ok()) {
        return loc.status();
      }
      FMDS_ASSIGN_OR_RETURN(cost.queue_ns,
                            Admit(rule, op.kind, loc->node, op.addr, 1));
      MemoryNode& node = fabric_->node(loc->node);
      if (op.kind == FarOpKind::kReadWord) {
        result = node.LoadWord(loc->offset);
      } else if (op.kind == FarOpKind::kWriteWord) {
        node.StoreWord(loc->offset, op.value);
      } else if (op.kind == FarOpKind::kCas) {
        result = node.CompareSwapWord(loc->offset, op.value, op.desired);
      } else {
        result = node.FetchAddWord(loc->offset, op.value);
      }
      stats_.bytes_read += op.kind == FarOpKind::kWriteWord ? 0 : kWordSize;
      stats_.bytes_written += op.kind == FarOpKind::kReadWord ? 0 : kWordSize;
      cost.node = loc->node;
      cost.bytes = kWordSize;
      cost.messages = 1;
      Charge(rule, cost);
      break;
    }
    case FarOpKind::kIndirect: {
      const FarAddr ptr_addr =
          op.mode == IndexMode::kIndexedPtr ? op.addr + op.index : op.addr;
      if (!IsWordAligned(ptr_addr)) {
        return InvalidArgument(
            "indirect pointer location must be word-aligned");
      }
      FMDS_ASSIGN_OR_RETURN(const Fabric::Location home,
                            fabric_->Translate(ptr_addr));
      const uint64_t len = op.access == Access::kRead    ? op.out.size()
                           : op.access == Access::kWrite ? op.in.size()
                                                         : kWordSize;
      cost.addr = ptr_addr;
      // One queued request at the home node covers the whole indirection;
      // the dependent access (forwarded or local) is controller work, not a
      // second NIC arrival.
      FMDS_ASSIGN_OR_RETURN(cost.queue_ns,
                            Admit(rule, op.kind, home.node, ptr_addr, 1));
      cost.node = home.node;
      cost.bytes = kWordSize;
      cost.messages = 1;
      MemoryNode& home_node = fabric_->node(home.node);
      home_node.stats().indirections.fetch_add(1, std::memory_order_relaxed);
      // Fetch (and for faai/saai atomically bump) the pointer.
      result = op.bump.has_value()
                   ? home_node.FetchAddWord(home.offset,
                                            static_cast<uint64_t>(*op.bump))
                   : home_node.LoadWord(home.offset);
      const FarAddr target =
          op.mode == IndexMode::kIndexedTgt ? result + op.index : result;
      segs_.clear();
      const Status usable =
          result == kNullFarAddr
              ? FailedPrecondition("null indirect pointer")
          : op.access == Access::kAdd && !IsWordAligned(target)
              ? InvalidArgument("indirect add target must be word-aligned")
              : fabric_->Segments(target, len, segs_);
      uint64_t hops = 0;
      for (const Fabric::Segment& seg : segs_) {
        hops += seg.node != home.node ? 1 : 0;
      }
      if (!usable.ok() ||
          (hops > 0 &&
           fabric_->options().indirection == IndirectionPolicy::kError)) {
        // The round trip brings the pointer back: unusable, or (§7.1
        // kError) for the client to follow itself with a dependent round
        // trip of the direct verb.
        stats_.bytes_read += kWordSize;
        cost.ok = usable.ok();
        Charge(rule, cost);
        FMDS_RETURN_IF_ERROR(usable);
        FMDS_RETURN_IF_ERROR(Execute(
            {.kind = op.access == Access::kRead    ? FarOpKind::kRead
                     : op.access == Access::kWrite ? FarOpKind::kWrite
                                                   : FarOpKind::kFetchAdd,
             .access = op.access,
             .dependent = true,
             .addr = target,
             .value = op.value,
             .out = op.out,
             .in = op.in},
            rule));
        break;
      }
      if (hops > 0) {
        home_node.stats().forwards.fetch_add(hops, std::memory_order_relaxed);
      }
      Apply(op);
      (op.access == Access::kRead ? stats_.bytes_read : stats_.bytes_written) +=
          len;
      // One client round trip regardless of forwarding; each forward hop
      // adds a node-to-node traversal and hop latency.
      cost.bytes = kWordSize + len;
      cost.messages = 1 + hops;
      cost.hops = hops;
      Charge(rule, cost);
      break;
    }
    default:
      return Internal("not an executable far op kind");
  }
  if (word != nullptr) {
    *word = result;
  }
  return OkStatus();
}

inline Result<uint64_t> FarClient::Run(const FarOp& op, ChargeRule rule) {
  uint64_t word = 0;
  FMDS_RETURN_IF_ERROR(Execute(op, rule, &word));
  return word;
}

// ------------------------------ Base verbs ------------------------------

Status FarClient::Read(FarAddr addr, std::span<std::byte> out) {
  return Execute({.kind = FarOpKind::kRead, .addr = addr, .out = out},
                 ChargeRule::kSerial);
}

Status FarClient::Write(FarAddr addr, std::span<const std::byte> data) {
  return Execute({.kind = FarOpKind::kWrite,
                  .access = Access::kWrite,
                  .addr = addr,
                  .in = data},
                 ChargeRule::kSerial);
}

Result<uint64_t> FarClient::ReadWord(FarAddr addr) {
  return Run({.kind = FarOpKind::kReadWord, .addr = addr});
}

Status FarClient::WriteWord(FarAddr addr, uint64_t value) {
  return Execute({.kind = FarOpKind::kWriteWord, .addr = addr, .value = value},
                 ChargeRule::kSerial);
}

Result<uint64_t> FarClient::CompareSwap(FarAddr addr, uint64_t expected,
                                        uint64_t desired) {
  return Run({.kind = FarOpKind::kCas,
              .addr = addr,
              .value = expected,
              .desired = desired});
}

Result<uint64_t> FarClient::FetchAdd(FarAddr addr, uint64_t delta) {
  return Run({.kind = FarOpKind::kFetchAdd, .addr = addr, .value = delta});
}

// -------------------------- Indirect addressing --------------------------

Result<FarAddr> FarClient::Load0(FarAddr ad, std::span<std::byte> out) {
  return Run({.kind = FarOpKind::kIndirect, .addr = ad, .out = out});
}

Result<FarAddr> FarClient::Load1(FarAddr ad, uint64_t i,
                                 std::span<std::byte> out) {
  return Run({.kind = FarOpKind::kIndirect,
              .mode = IndexMode::kIndexedPtr,
              .addr = ad,
              .index = i,
              .out = out});
}

Result<FarAddr> FarClient::Load2(FarAddr ad, uint64_t i,
                                 std::span<std::byte> out) {
  return Run({.kind = FarOpKind::kIndirect,
              .mode = IndexMode::kIndexedTgt,
              .addr = ad,
              .index = i,
              .out = out});
}

Result<FarAddr> FarClient::Store0(FarAddr ad,
                                  std::span<const std::byte> value) {
  return Run({.kind = FarOpKind::kIndirect,
              .access = Access::kWrite,
              .addr = ad,
              .in = value});
}

Result<FarAddr> FarClient::Store1(FarAddr ad, uint64_t i,
                                  std::span<const std::byte> value) {
  return Run({.kind = FarOpKind::kIndirect,
              .access = Access::kWrite,
              .mode = IndexMode::kIndexedPtr,
              .addr = ad,
              .index = i,
              .in = value});
}

Result<FarAddr> FarClient::Store2(FarAddr ad, uint64_t i,
                                  std::span<const std::byte> value) {
  return Run({.kind = FarOpKind::kIndirect,
              .access = Access::kWrite,
              .mode = IndexMode::kIndexedTgt,
              .addr = ad,
              .index = i,
              .in = value});
}

Result<FarAddr> FarClient::Faai(FarAddr ad, int64_t delta,
                                std::span<std::byte> out) {
  return Run({.kind = FarOpKind::kIndirect,
              .addr = ad,
              .bump = delta,
              .out = out});
}

Result<FarAddr> FarClient::Saai(FarAddr ad, int64_t delta,
                                std::span<const std::byte> value) {
  return Run({.kind = FarOpKind::kIndirect,
              .access = Access::kWrite,
              .addr = ad,
              .bump = delta,
              .in = value});
}

Status FarClient::Add0(FarAddr ad, uint64_t v) {
  return Execute({.kind = FarOpKind::kIndirect,
                  .access = Access::kAdd,
                  .addr = ad,
                  .value = v},
                 ChargeRule::kSerial);
}

Status FarClient::Add1(FarAddr ad, uint64_t v, uint64_t i) {
  return Execute({.kind = FarOpKind::kIndirect,
                  .access = Access::kAdd,
                  .mode = IndexMode::kIndexedPtr,
                  .addr = ad,
                  .value = v,
                  .index = i},
                 ChargeRule::kSerial);
}

Status FarClient::Add2(FarAddr ad, uint64_t v, uint64_t i) {
  return Execute({.kind = FarOpKind::kIndirect,
                  .access = Access::kAdd,
                  .mode = IndexMode::kIndexedTgt,
                  .addr = ad,
                  .value = v,
                  .index = i},
                 ChargeRule::kSerial);
}

// ----------------------------- Scatter-gather -----------------------------

Status FarClient::RScatter(FarAddr ad, std::span<const LocalBuf> iov) {
  std::vector<std::byte> staging(TotalLen(iov));
  const FarSeg range{ad, staging.size()};
  FMDS_RETURN_IF_ERROR(RGather(std::span(&range, 1), staging));
  size_t cursor = 0;
  for (const auto& buf : iov) {
    std::memcpy(buf.data, staging.data() + cursor, buf.len);
    cursor += buf.len;
  }
  return OkStatus();
}

Status FarClient::RGather(std::span<const FarSeg> iov,
                          std::span<std::byte> out) {
  return Execute({.kind = FarOpKind::kScatterGather, .out = out, .iov = iov},
                 ChargeRule::kSerial);
}

Status FarClient::WScatter(std::span<const FarSeg> iov,
                           std::span<const std::byte> src) {
  return Execute({.kind = FarOpKind::kScatterGather,
                  .access = Access::kWrite,
                  .in = src,
                  .iov = iov},
                 ChargeRule::kSerial);
}

Status FarClient::WGather(FarAddr ad, std::span<const ConstLocalBuf> iov) {
  std::vector<std::byte> staging(TotalLen(iov));
  size_t cursor = 0;
  for (const auto& buf : iov) {
    std::memcpy(staging.data() + cursor, buf.data, buf.len);
    cursor += buf.len;
  }
  const FarSeg range{ad, staging.size()};
  return WScatter(std::span(&range, 1), staging);
}

Status FarClient::CasBatch(std::span<const CasTarget> targets,
                           std::span<uint64_t> observed) {
  if (observed.size() < targets.size()) {
    return InvalidArgument("cas batch result buffer too small");
  }
  uint64_t queue_ns = 0;
  if (!targets.empty()) {
    FMDS_ASSIGN_OR_RETURN(auto loc0, fabric_->Translate(targets.front().addr));
    FMDS_ASSIGN_OR_RETURN(
        queue_ns, AdmitCongestion(FarOpKind::kCasBatch, loc0.node,
                                  targets.front().addr, targets.size()));
  }
  NodeId first_node = kObsNoNode;
  for (size_t i = 0; i < targets.size(); ++i) {
    const CasTarget& target = targets[i];
    if (!IsWordAligned(target.addr)) {
      return InvalidArgument("unaligned CAS in batch");
    }
    FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(target.addr));
    if (first_node == kObsNoNode) {
      first_node = loc.node;
    }
    observed[i] = fabric_->node(loc.node).CompareSwapWord(
        loc.offset, target.expected, target.desired);
  }
  stats_.bytes_written += targets.size() * kWordSize;
  stats_.bytes_read += targets.size() * kWordSize;
  AccountRoundTrip(FarOpKind::kCasBatch, first_node,
                   targets.empty() ? kNullFarAddr : targets.front().addr,
                   targets.size() * 2 * kWordSize,
                   std::max<size_t>(targets.size(), 1), 0, /*ok=*/true,
                   queue_ns);
  return OkStatus();
}

// ------------------------- Async batched pipeline -------------------------

size_t FarClient::Post(const FarOp& op) {
  // A posted op's spans point into its slot's own vectors, which must keep
  // their buffers when issue_queue_ grows: the slots move, never copy.
  static_assert(std::is_nothrow_move_constructible_v<PendingOp>);
  if (issued_ == issue_queue_.size()) {
    issue_queue_.emplace_back();
  }
  PendingOp& slot = issue_queue_[issued_];
  slot.guard = kNoOp;
  slot.op = op;
  return issued_++;
}

size_t FarClient::PostRead(FarAddr addr, std::span<std::byte> out) {
  return Post({.kind = FarOpKind::kRead, .addr = addr, .out = out});
}

size_t FarClient::PostWrite(FarAddr addr, std::span<const std::byte> data) {
  const size_t i = Post(
      {.kind = FarOpKind::kWrite, .access = Access::kWrite, .addr = addr});
  PendingOp& slot = issue_queue_[i];
  slot.payload.assign(data.begin(), data.end());
  slot.op.in = slot.payload;
  return i;
}

size_t FarClient::PostReadWord(FarAddr addr) {
  return Post({.kind = FarOpKind::kReadWord, .addr = addr});
}

size_t FarClient::PostWriteWord(FarAddr addr, uint64_t value) {
  return Post({.kind = FarOpKind::kWriteWord, .addr = addr, .value = value});
}

size_t FarClient::PostCompareSwap(FarAddr addr, uint64_t expected,
                                  uint64_t desired, size_t guard) {
  const size_t i = Post({.kind = FarOpKind::kCas,
                         .addr = addr,
                         .value = expected,
                         .desired = desired});
  issue_queue_[i].guard = guard;
  return i;
}

size_t FarClient::PostFetchAdd(FarAddr addr, uint64_t delta) {
  return Post({.kind = FarOpKind::kFetchAdd, .addr = addr, .value = delta});
}

size_t FarClient::PostLoad0(FarAddr ad, std::span<std::byte> out) {
  return Post({.kind = FarOpKind::kIndirect, .addr = ad, .out = out});
}

size_t FarClient::PostRGather(std::vector<FarSeg> iov,
                              std::span<std::byte> out) {
  const size_t i = Post({.kind = FarOpKind::kScatterGather, .out = out});
  PendingOp& slot = issue_queue_[i];
  slot.iov = std::move(iov);
  slot.op.iov = slot.iov;
  return i;
}

void FarClient::RunIssued(ChargeRule rule, std::span<Completion> done) {
  assert(done.size() == issued_);
  // The latest failure, and one past its index (0: none yet): it cancels
  // every CAS whose guard is at or before it.
  Status failed;
  size_t failed_end = 0;
  for (size_t i = 0; i < issued_; ++i) {
    const PendingOp& slot = issue_queue_[i];
    Completion& completion = done[i];
    completion.word = 0;
    // What a cancelled CAS reports: its kind and address, nothing moved.
    RoundTripCost cost{.kind = FarOpKind::kCas, .addr = slot.op.addr};
    completion.status = slot.guard < failed_end
                            ? failed
                            : Execute(slot.op, rule, &completion.word, &cost);
    if (!completion.status.ok()) {
      failed = completion.status;
      failed_end = i + 1;
    }
    if (rule == ChargeRule::kDoorbell && obs_.recording()) {
      cost.ok = completion.status.ok();
      cost.pieces = {};
      doorbell_.obs.push_back(cost);
    }
  }
  issued_ = 0;
}

Status FarClient::WaitAll(std::span<Completion> done) {
  RunIssued(ChargeRule::kDoorbell, done);
  if (!done.empty()) {
    ChargeDoorbell(done.size());
  }
  AccountNear(1);  // the completion check
  for (const Completion& completion : done) {
    if (!completion.status.ok()) {
      return completion.status;
    }
  }
  return OkStatus();
}

void FarClient::ChargeDoorbell(size_t batch_size) {
  // One doorbell: per-node groups proceed in parallel; the client waits for
  // the slowest.
  uint64_t batch_ns = 0;
  uint64_t groups = 0;
  for (NodeId node = 0; node < doorbell_.groups.size(); ++node) {
    BatchGroup& group = doorbell_.groups[node];
    if (group.contribs == 0) {
      continue;
    }
    ++groups;
    const LatencyModel& model = ModelFor(node);
    const uint64_t cost =
        model.far_base_ns + static_cast<uint64_t>(group.wire_ns) +
        (group.contribs - 1) * model.batch_op_ns +
        group.hops * latency_.node_hop_ns +
        // A slowed node services each of its sub-batch ops slower.
        group.contribs * fabric_->node(node).extra_service_ns() +
        // Congestion (§14): the group waits out its worst queueing delay.
        group.queue_ns;
    batch_ns = std::max(batch_ns, cost);
    group = BatchGroup{};
  }
  ++stats_.batches;
  stats_.batched_ops += batch_size;
  stats_.messages += doorbell_.messages;
  const uint64_t waited_rtts = groups == 0 ? 0 : 1;
  stats_.far_ops += waited_rtts;
  if (doorbell_.rtts > waited_rtts) {
    stats_.overlapped_rtts_saved += doorbell_.rtts - waited_rtts;
  }
  if (groups > 1) {
    // §7 fan-out: G per-node doorbells overlapped into one wait. A client
    // that issued node sub-batches one at a time would wait G round trips.
    ++stats_.fanout_batches;
    stats_.cross_node_rtts_saved += groups - 1;
  }
  const uint64_t start_ns = clock_.now_ns();
  clock_.Advance(batch_ns);
  if (!doorbell_.obs.empty()) {
    // Flight recorder: the doorbell is one span [start, start+batch_ns];
    // each op inside gets an equal latency share, remainder on the first
    // op, so the shares tile the span exactly and sum to its clock delta
    // (the batched counterpart of "per-lookup share of the batch's
    // simulated time" the benches report).
    const uint64_t batch_id = obs_.NextBatchId();
    const uint64_t k = doorbell_.obs.size();
    const uint64_t share = batch_ns / k;
    uint64_t total_bytes = 0;
    bool all_ok = true;
    for (const RoundTripCost& o : doorbell_.obs) {
      total_bytes += o.bytes;
      all_ok = all_ok && o.ok;
    }
    obs_.RecordOp(FarOpKind::kBatch, kObsNoNode, kNullFarAddr, total_bytes,
                  start_ns, batch_ns, all_ok, batch_id);
    uint64_t cursor = start_ns;
    for (size_t i = 0; i < doorbell_.obs.size(); ++i) {
      const RoundTripCost& o = doorbell_.obs[i];
      const uint64_t op_ns = (i == 0) ? batch_ns - share * (k - 1) : share;
      obs_.RecordOp(o.kind, o.node, o.addr, o.bytes, cursor, op_ns, o.ok,
                    batch_id);
      cursor += op_ns;
    }
  }
  // Then the dependent accesses, one serial round trip each.
  for (const RoundTripCost& cost : doorbell_.deferred) {
    Charge(ChargeRule::kSerial, cost);
  }
  doorbell_.messages = 0;
  doorbell_.rtts = 0;
  doorbell_.obs.clear();
  doorbell_.deferred.clear();
}

void FarClient::ExecuteSerially(std::span<Completion> done) {
  RunIssued(ChargeRule::kSerial, done);
}

// ------------------------------ Notifications ------------------------------

Result<SubId> FarClient::Subscribe(const NotifySpec& spec,
                                   NotificationSink* sink,
                                   uint64_t* snapshot) {
  if (sink == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "subscription needs a notification sink");
  }
  if (!IsWordAligned(spec.addr) || spec.len == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "subscription must be word-aligned and non-empty");
  }
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(spec.addr));
  const SubId id = fabric_->NextSubId();
  Status st = fabric_->node(loc.node).Subscribe(loc.offset, spec, &channel_,
                                                id, snapshot);
  if (!st.ok()) {
    return st;
  }
  subs_[id] = Registration{loc.node, sink};
  // Subscription setup message (the read-and-arm snapshot rides the reply).
  AccountRoundTrip(FarOpKind::kNotification, loc.node, spec.addr, kWordSize, 1,
                   0);
  return id;
}

Status FarClient::Unsubscribe(SubId id) {
  const Registration* reg = subs_.Find(id);
  if (reg == nullptr) {
    return NotFound("unknown subscription");
  }
  const NodeId node = reg->node;  // captured before erase invalidates it
  fabric_->node(node).Unsubscribe(id);
  subs_.Erase(id);
  AccountRoundTrip(FarOpKind::kNotification, node, kNullFarAddr, kWordSize, 1,
                   0);
  return OkStatus();
}

void FarClient::UnsubscribeSink(NotificationSink* sink) {
  std::vector<SubId> ids;
  subs_.ForEach([&](SubId id, const Registration& reg) {
    if (reg.sink == sink) {
      ids.push_back(id);
    }
  });
  std::sort(ids.begin(), ids.end());
  for (SubId id : ids) {
    (void)Unsubscribe(id);
  }
}

Status FarClient::UnsubscribeAt(FarAddr watch_addr, SubId id) {
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(watch_addr));
  fabric_->node(loc.node).Unsubscribe(id);
  AccountRoundTrip(FarOpKind::kNotification, loc.node, kNullFarAddr, kWordSize,
                   1, 0);
  return OkStatus();
}

void FarClient::ForgetSubscription(SubId id) { subs_.Erase(id); }

size_t FarClient::DispatchNotifications() {
  // Empty-channel check is free: the queue head is client-local state the
  // caller touches on every op anyway; charging here would tax every cached
  // operation for coherence traffic that never arrived.
  if (channel_.size() == 0) {
    return 0;
  }
  AccountNear(1);
  size_t routed = 0;
  for (NotifyEvent& ev : channel_.Drain()) {
    if (ev.kind == NotifyEventKind::kLossWarning) {
      // No sub_id: an unknown number of events for unknown subscriptions
      // were dropped. Every sink must assume the worst.
      std::unordered_set<NotificationSink*> seen;
      subs_.ForEach([&](SubId, const Registration& reg) {
        if (seen.insert(reg.sink).second) {
          reg.sink->OnNotify(ev);
          ++routed;
        }
      });
      continue;
    }
    const Registration* reg = subs_.Find(ev.sub_id);
    if (reg == nullptr) {
      continue;  // unsubscribed, or forgotten by a background-mode cache
    }
    ++stats_.notifications;
    if (obs_.recording()) {
      obs_.RecordOp(FarOpKind::kNotification, kObsNoNode, ev.addr, ev.len,
                    clock_.now_ns(), 0, true);
    }
    reg->sink->OnNotify(ev);
    ++routed;
  }
  return routed;
}

Status FarClient::WaitNotification(uint64_t timeout_ms) {
  // Monotonic budget (immune to wall-clock steps) stretched under
  // sanitizer builds, where the wait loop itself runs an order of
  // magnitude slower.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timeout_ms * kWaitBudgetScale);
  while (channel_.size() == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status(StatusCode::kUnavailable, "notification wait timed out");
    }
    std::this_thread::yield();
  }
  clock_.Advance(latency_.notify_delay_ns);
  (void)DispatchNotifications();
  return OkStatus();
}

// ------------------------------- Accounting -------------------------------

void FarClient::AccountNear(uint64_t accesses) {
  stats_.near_ops += accesses;
  clock_.Advance(accesses * latency_.near_ns);
}

Status FarClient::PostWriteBackground(FarAddr addr,
                                      std::span<const std::byte> data) {
  return Execute({.kind = FarOpKind::kWrite,
                  .access = Access::kWrite,
                  .addr = addr,
                  .in = data},
                 ChargeRule::kBackground);
}

Status FarClient::PostWriteWordBackground(FarAddr addr, uint64_t value) {
  uint64_t v = value;
  return PostWriteBackground(addr, AsConstBytes(v));
}

Status FarClient::CompareSwapBackground(FarAddr addr, uint64_t expected,
                                        uint64_t desired) {
  return Run({.kind = FarOpKind::kCas,
              .addr = addr,
              .value = expected,
              .desired = desired},
             ChargeRule::kBackground)
      .status();
}

Result<uint64_t> FarClient::ReadWordBackground(FarAddr addr) {
  return Run({.kind = FarOpKind::kReadWord, .addr = addr},
             ChargeRule::kBackground);
}

}  // namespace fmds

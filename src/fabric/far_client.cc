#include "src/fabric/far_client.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
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
      retry_(options.retry),
      jitter_state_(client_id * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull),
      home_node_(options.home_node),
      local_latency_(options.local_latency),
      obs_(client_id),
      channel_(options.channel_capacity),
      channel_capacity_(options.channel_capacity) {
  obs_.set_options(options.obs);
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

Result<uint64_t> FarClient::OfferOnce(NodeId node, uint64_t ops,
                                      uint64_t bytes) {
  if (node == kObsNoNode) {
    return uint64_t{0};
  }
  if (home_node_.has_value() && node == *home_node_) {
    // The near-memory agent reaches its own memory through the controller,
    // not through the node's NIC front end; its local work never queues
    // there. (This is what lets an RPC agent keep servicing shipped ops
    // while the one-sided front end is saturated.)
    return uint64_t{0};
  }
  MemoryNode& n = fabric_->node(node);
  if (!n.congestion_enabled()) {
    return uint64_t{0};
  }
  AdmissionOutcome outcome = n.OfferLoad(clock_.now_ns(), ops, bytes);
  if (outcome.admitted) {
    return outcome.queue_ns;
  }
  stats_.overload_sheds += ops;
  ++stats_.overload_failures;
  return Overloaded("node " + std::to_string(node) +
                    " shed op: service queue full");
}

Result<uint64_t> FarClient::AdmitCongestion(FarOpKind kind, NodeId node,
                                            FarAddr addr, uint64_t ops,
                                            uint64_t bytes) {
  if (node == kObsNoNode) {
    return uint64_t{0};
  }
  if (home_node_.has_value() && node == *home_node_) {
    // See OfferOnce: home-node (agent) accesses bypass the NIC front end.
    return uint64_t{0};
  }
  MemoryNode& n = fabric_->node(node);
  if (!n.congestion_enabled()) {
    return uint64_t{0};
  }
  const uint64_t op_start_ns = clock_.now_ns();
  for (uint32_t attempt = 1;; ++attempt) {
    AdmissionOutcome outcome = n.OfferLoad(clock_.now_ns(), ops, bytes);
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
    if (retry_.jitter) {
      backoff = backoff / 2 + NextJitter() % std::max<uint64_t>(backoff / 2, 1);
    }
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

// ------------------------------ Base verbs ------------------------------

Status FarClient::Read(FarAddr addr, std::span<std::byte> out) {
  std::vector<Fabric::Segment> segs;
  FMDS_RETURN_IF_ERROR(fabric_->Segments(addr, out.size(), segs));
  // Admission precedes memory effects everywhere: a shed op never touches
  // far memory. The op (all its segments) queues at its primary node.
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kRead,
                      segs.empty() ? kObsNoNode : segs.front().node, addr,
                      std::max<size_t>(segs.size(), 1), out.size()));
  size_t produced = 0;
  for (const auto& seg : segs) {
    fabric_->node(seg.node).ReadRange(
        seg.offset, out.subspan(produced, static_cast<size_t>(seg.len)));
    produced += static_cast<size_t>(seg.len);
  }
  stats_.bytes_read += out.size();
  AccountRoundTrip(FarOpKind::kRead,
                   segs.empty() ? kObsNoNode : segs.front().node, addr,
                   out.size(), std::max<size_t>(segs.size(), 1), 0,
                   /*ok=*/true, queue_ns);
  return OkStatus();
}

Status FarClient::Write(FarAddr addr, std::span<const std::byte> data) {
  std::vector<Fabric::Segment> segs;
  FMDS_RETURN_IF_ERROR(fabric_->Segments(addr, data.size(), segs));
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kWrite,
                      segs.empty() ? kObsNoNode : segs.front().node, addr,
                      std::max<size_t>(segs.size(), 1), data.size()));
  size_t consumed = 0;
  for (const auto& seg : segs) {
    fabric_->node(seg.node).WriteRange(
        seg.offset, data.subspan(consumed, static_cast<size_t>(seg.len)),
        clock_.now_ns());
    consumed += static_cast<size_t>(seg.len);
  }
  stats_.bytes_written += data.size();
  AccountRoundTrip(FarOpKind::kWrite,
                   segs.empty() ? kObsNoNode : segs.front().node, addr,
                   data.size(), std::max<size_t>(segs.size(), 1), 0,
                   /*ok=*/true, queue_ns);
  return OkStatus();
}

Result<uint64_t> FarClient::ReadWord(FarAddr addr) {
  if (!IsWordAligned(addr)) {
    return Status(StatusCode::kInvalidArgument, "unaligned word read");
  }
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(addr));
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kReadWord, loc.node, addr, 1, kWordSize));
  const uint64_t value = fabric_->node(loc.node).LoadWord(loc.offset);
  stats_.bytes_read += kWordSize;
  AccountRoundTrip(FarOpKind::kReadWord, loc.node, addr, kWordSize, 1, 0,
                   /*ok=*/true, queue_ns);
  return value;
}

Status FarClient::WriteWord(FarAddr addr, uint64_t value) {
  if (!IsWordAligned(addr)) {
    return InvalidArgument("unaligned word write");
  }
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(addr));
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kWriteWord, loc.node, addr, 1, kWordSize));
  fabric_->node(loc.node).StoreWord(loc.offset, value, clock_.now_ns());
  stats_.bytes_written += kWordSize;
  AccountRoundTrip(FarOpKind::kWriteWord, loc.node, addr, kWordSize, 1, 0,
                   /*ok=*/true, queue_ns);
  return OkStatus();
}

Result<uint64_t> FarClient::CompareSwap(FarAddr addr, uint64_t expected,
                                        uint64_t desired) {
  if (!IsWordAligned(addr)) {
    return Status(StatusCode::kInvalidArgument, "unaligned CAS");
  }
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(addr));
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kCas, loc.node, addr, 1, kWordSize));
  const uint64_t old = fabric_->node(loc.node).CompareSwapWord(
      loc.offset, expected, desired, clock_.now_ns());
  stats_.bytes_written += kWordSize;
  stats_.bytes_read += kWordSize;
  AccountRoundTrip(FarOpKind::kCas, loc.node, addr, kWordSize, 1, 0,
                   /*ok=*/true, queue_ns);
  return old;
}

Result<uint64_t> FarClient::FetchAdd(FarAddr addr, uint64_t delta) {
  if (!IsWordAligned(addr)) {
    return Status(StatusCode::kInvalidArgument, "unaligned fetch-add");
  }
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(addr));
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kFetchAdd, loc.node, addr, 1, kWordSize));
  const uint64_t old =
      fabric_->node(loc.node).FetchAddWord(loc.offset, delta, clock_.now_ns());
  stats_.bytes_written += kWordSize;
  stats_.bytes_read += kWordSize;
  AccountRoundTrip(FarOpKind::kFetchAdd, loc.node, addr, kWordSize, 1, 0,
                   /*ok=*/true, queue_ns);
  return old;
}

// -------------------------- Indirect addressing --------------------------

Status FarClient::DirectAccess(IndirectKind kind, FarAddr addr,
                               std::span<std::byte> read_out,
                               std::span<const std::byte> write_value,
                               uint64_t add_value) {
  switch (kind) {
    case IndirectKind::kRead:
      return Read(addr, read_out);
    case IndirectKind::kWrite:
      return Write(addr, write_value);
    case IndirectKind::kAtomicAdd: {
      auto r = FetchAdd(addr, add_value);
      return r.status();
    }
  }
  return Internal("bad indirect kind");
}

Result<FarAddr> FarClient::IndirectOp(IndirectKind kind, IndexMode mode,
                                      FarAddr ad, uint64_t i,
                                      std::optional<int64_t> fetch_add_delta,
                                      std::span<std::byte> read_out,
                                      std::span<const std::byte> write_value,
                                      uint64_t add_value) {
  // 1. Locate the pointer word.
  const FarAddr ptr_addr = (mode == IndexMode::kIndexedPtr) ? ad + i : ad;
  if (!IsWordAligned(ptr_addr)) {
    return Status(StatusCode::kInvalidArgument,
                  "indirect pointer location must be word-aligned");
  }
  FMDS_ASSIGN_OR_RETURN(auto home, fabric_->Translate(ptr_addr));
  MemoryNode& home_node = fabric_->node(home.node);
  // One queued request at the home node covers the whole indirection; the
  // dependent access (forwarded or local) is controller work, not a second
  // NIC arrival.
  FMDS_ASSIGN_OR_RETURN(const uint64_t queue_ns,
                        AdmitCongestion(FarOpKind::kIndirect, home.node,
                                        ptr_addr, 1, kWordSize));
  home_node.stats().indirections.fetch_add(1, std::memory_order_relaxed);

  // 2. Fetch (and for faai/saai atomically bump) the pointer.
  FarAddr pointer;
  if (fetch_add_delta.has_value()) {
    pointer = home_node.FetchAddWord(
        home.offset, static_cast<uint64_t>(*fetch_add_delta), clock_.now_ns());
  } else {
    pointer = home_node.LoadWord(home.offset);
  }
  if (pointer == kNullFarAddr) {
    // Completed round trip that found a null pointer; still one far access.
    stats_.bytes_read += kWordSize;
    AccountRoundTrip(FarOpKind::kIndirect, home.node, ptr_addr, kWordSize, 1,
                     0, /*ok=*/false, queue_ns);
    return Status(StatusCode::kFailedPrecondition, "null indirect pointer");
  }

  // 3. Compute the target of the second access.
  const FarAddr target = (mode == IndexMode::kIndexedTgt) ? pointer + i
                                                          : pointer;
  const uint64_t len = (kind == IndirectKind::kRead) ? read_out.size()
                       : (kind == IndirectKind::kWrite) ? write_value.size()
                                                        : kWordSize;
  if (kind == IndirectKind::kAtomicAdd && !IsWordAligned(target)) {
    return Status(StatusCode::kInvalidArgument,
                  "indirect add target must be word-aligned");
  }

  std::vector<Fabric::Segment> segs;
  Status seg_status = fabric_->Segments(target, len, segs);
  if (!seg_status.ok()) {
    stats_.bytes_read += kWordSize;
    AccountRoundTrip(FarOpKind::kIndirect, home.node, ptr_addr, kWordSize, 1,
                     0, /*ok=*/false, queue_ns);
    return seg_status;
  }

  uint64_t remote_hops = 0;
  for (const auto& seg : segs) {
    if (seg.node != home.node) {
      ++remote_hops;
    }
  }

  if (remote_hops > 0 &&
      fabric_->options().indirection == IndirectionPolicy::kError) {
    // §7.1 alternative: the memory node returns the pointer and an error;
    // the client completes the indirection itself with a second round trip
    // (which accounts under its own direct op kind).
    stats_.bytes_read += kWordSize;
    AccountRoundTrip(FarOpKind::kIndirect, home.node, ptr_addr, kWordSize, 1,
                     0, /*ok=*/true, queue_ns);
    FMDS_RETURN_IF_ERROR(
        DirectAccess(kind, target, read_out, write_value, add_value));
    return pointer;
  }

  // 4. Execute memory-side (forwarding between nodes when needed).
  if (remote_hops > 0) {
    home_node.stats().forwards.fetch_add(remote_hops,
                                         std::memory_order_relaxed);
  }
  size_t moved = 0;
  for (const auto& seg : segs) {
    MemoryNode& tgt = fabric_->node(seg.node);
    switch (kind) {
      case IndirectKind::kRead:
        tgt.ReadRange(seg.offset,
                      read_out.subspan(moved, static_cast<size_t>(seg.len)));
        break;
      case IndirectKind::kWrite:
        tgt.WriteRange(seg.offset,
                       write_value.subspan(moved,
                                           static_cast<size_t>(seg.len)),
                       clock_.now_ns());
        break;
      case IndirectKind::kAtomicAdd:
        tgt.FetchAddWord(seg.offset, add_value, clock_.now_ns());
        break;
    }
    moved += static_cast<size_t>(seg.len);
  }

  // 5. Accounting: one client round trip regardless of forwarding; each
  // forward hop adds a node-to-node traversal and hop latency.
  const uint64_t payload = kWordSize + len;
  if (kind == IndirectKind::kRead) {
    stats_.bytes_read += len;
  } else {
    stats_.bytes_written += len;
  }
  AccountRoundTrip(FarOpKind::kIndirect, home.node, ptr_addr, payload,
                   1 + remote_hops, remote_hops, /*ok=*/true, queue_ns);
  return pointer;
}

Result<FarAddr> FarClient::Load0(FarAddr ad, std::span<std::byte> out) {
  return IndirectOp(IndirectKind::kRead, IndexMode::kPlain, ad, 0,
                    std::nullopt, out, {}, 0);
}

Result<FarAddr> FarClient::Load1(FarAddr ad, uint64_t i,
                                 std::span<std::byte> out) {
  return IndirectOp(IndirectKind::kRead, IndexMode::kIndexedPtr, ad, i,
                    std::nullopt, out, {}, 0);
}

Result<FarAddr> FarClient::Load2(FarAddr ad, uint64_t i,
                                 std::span<std::byte> out) {
  return IndirectOp(IndirectKind::kRead, IndexMode::kIndexedTgt, ad, i,
                    std::nullopt, out, {}, 0);
}

Result<FarAddr> FarClient::Store0(FarAddr ad,
                                  std::span<const std::byte> value) {
  return IndirectOp(IndirectKind::kWrite, IndexMode::kPlain, ad, 0,
                    std::nullopt, {}, value, 0);
}

Result<FarAddr> FarClient::Store1(FarAddr ad, uint64_t i,
                                  std::span<const std::byte> value) {
  return IndirectOp(IndirectKind::kWrite, IndexMode::kIndexedPtr, ad, i,
                    std::nullopt, {}, value, 0);
}

Result<FarAddr> FarClient::Store2(FarAddr ad, uint64_t i,
                                  std::span<const std::byte> value) {
  return IndirectOp(IndirectKind::kWrite, IndexMode::kIndexedTgt, ad, i,
                    std::nullopt, {}, value, 0);
}

Result<FarAddr> FarClient::Faai(FarAddr ad, int64_t delta,
                                std::span<std::byte> out) {
  return IndirectOp(IndirectKind::kRead, IndexMode::kPlain, ad, 0, delta, out,
                    {}, 0);
}

Result<FarAddr> FarClient::Saai(FarAddr ad, int64_t delta,
                                std::span<const std::byte> value) {
  return IndirectOp(IndirectKind::kWrite, IndexMode::kPlain, ad, 0, delta, {},
                    value, 0);
}

Status FarClient::Add0(FarAddr ad, uint64_t v) {
  return IndirectOp(IndirectKind::kAtomicAdd, IndexMode::kPlain, ad, 0,
                    std::nullopt, {}, {}, v)
      .status();
}

Status FarClient::Add1(FarAddr ad, uint64_t v, uint64_t i) {
  return IndirectOp(IndirectKind::kAtomicAdd, IndexMode::kIndexedPtr, ad, i,
                    std::nullopt, {}, {}, v)
      .status();
}

Status FarClient::Add2(FarAddr ad, uint64_t v, uint64_t i) {
  return IndirectOp(IndirectKind::kAtomicAdd, IndexMode::kIndexedTgt, ad, i,
                    std::nullopt, {}, {}, v)
      .status();
}

// ----------------------------- Scatter-gather -----------------------------

Status FarClient::RScatter(FarAddr ad, std::span<const LocalBuf> iov) {
  const uint64_t total = TotalLen(iov);
  std::vector<std::byte> staging(total);
  std::vector<Fabric::Segment> segs;
  FMDS_RETURN_IF_ERROR(fabric_->Segments(ad, total, segs));
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kScatterGather,
                      segs.empty() ? kObsNoNode : segs.front().node, ad,
                      std::max<size_t>(segs.size(), 1), total));
  size_t produced = 0;
  for (const auto& seg : segs) {
    fabric_->node(seg.node).ReadRange(
        seg.offset,
        std::span<std::byte>(staging).subspan(produced,
                                              static_cast<size_t>(seg.len)));
    produced += static_cast<size_t>(seg.len);
  }
  size_t cursor = 0;
  for (const auto& buf : iov) {
    std::memcpy(buf.data, staging.data() + cursor, buf.len);
    cursor += buf.len;
  }
  stats_.bytes_read += total;
  AccountRoundTrip(FarOpKind::kScatterGather,
                   segs.empty() ? kObsNoNode : segs.front().node, ad, total,
                   std::max<size_t>(segs.size(), 1), 0, /*ok=*/true, queue_ns);
  return OkStatus();
}

Status FarClient::RGather(std::span<const FarSeg> iov,
                          std::span<std::byte> out) {
  uint64_t total = 0;
  for (const auto& seg : iov) {
    total += seg.len;
  }
  if (total > out.size()) {
    return InvalidArgument("rgather output buffer too small");
  }
  uint64_t queue_ns = 0;
  if (!iov.empty()) {
    FMDS_ASSIGN_OR_RETURN(auto loc0, fabric_->Translate(iov.front().addr));
    FMDS_ASSIGN_OR_RETURN(queue_ns,
                          AdmitCongestion(FarOpKind::kScatterGather, loc0.node,
                                          iov.front().addr, iov.size(), total));
  }
  size_t produced = 0;
  uint64_t messages = 0;
  NodeId first_node = kObsNoNode;
  for (const auto& far : iov) {
    std::vector<Fabric::Segment> segs;
    FMDS_RETURN_IF_ERROR(fabric_->Segments(far.addr, far.len, segs));
    size_t inner = 0;
    for (const auto& seg : segs) {
      if (first_node == kObsNoNode) {
        first_node = seg.node;
      }
      fabric_->node(seg.node).ReadRange(
          seg.offset,
          out.subspan(produced + inner, static_cast<size_t>(seg.len)));
      inner += static_cast<size_t>(seg.len);
    }
    produced += static_cast<size_t>(far.len);
    messages += segs.size();
  }
  stats_.bytes_read += total;
  // One client round trip: the adapter issues the segment reads concurrently.
  AccountRoundTrip(FarOpKind::kScatterGather, first_node,
                   iov.empty() ? kNullFarAddr : iov.front().addr, total,
                   std::max<uint64_t>(messages, 1), 0, /*ok=*/true, queue_ns);
  return OkStatus();
}

Status FarClient::WScatter(std::span<const FarSeg> iov,
                           std::span<const std::byte> src) {
  uint64_t total = 0;
  for (const auto& seg : iov) {
    total += seg.len;
  }
  if (total > src.size()) {
    return InvalidArgument("wscatter source buffer too small");
  }
  uint64_t queue_ns = 0;
  if (!iov.empty()) {
    FMDS_ASSIGN_OR_RETURN(auto loc0, fabric_->Translate(iov.front().addr));
    FMDS_ASSIGN_OR_RETURN(queue_ns,
                          AdmitCongestion(FarOpKind::kScatterGather, loc0.node,
                                          iov.front().addr, iov.size(), total));
  }
  size_t consumed = 0;
  uint64_t messages = 0;
  NodeId first_node = kObsNoNode;
  for (const auto& far : iov) {
    std::vector<Fabric::Segment> segs;
    FMDS_RETURN_IF_ERROR(fabric_->Segments(far.addr, far.len, segs));
    size_t inner = 0;
    for (const auto& seg : segs) {
      if (first_node == kObsNoNode) {
        first_node = seg.node;
      }
      fabric_->node(seg.node).WriteRange(
          seg.offset,
          src.subspan(consumed + inner, static_cast<size_t>(seg.len)),
          clock_.now_ns());
      inner += static_cast<size_t>(seg.len);
    }
    consumed += static_cast<size_t>(far.len);
    messages += segs.size();
  }
  stats_.bytes_written += total;
  AccountRoundTrip(FarOpKind::kScatterGather, first_node,
                   iov.empty() ? kNullFarAddr : iov.front().addr, total,
                   std::max<uint64_t>(messages, 1), 0, /*ok=*/true, queue_ns);
  return OkStatus();
}

Status FarClient::WGather(FarAddr ad, std::span<const ConstLocalBuf> iov) {
  const uint64_t total = TotalLen(iov);
  std::vector<std::byte> staging(total);
  size_t cursor = 0;
  for (const auto& buf : iov) {
    std::memcpy(staging.data() + cursor, buf.data, buf.len);
    cursor += buf.len;
  }
  std::vector<Fabric::Segment> segs;
  FMDS_RETURN_IF_ERROR(fabric_->Segments(ad, total, segs));
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      AdmitCongestion(FarOpKind::kScatterGather,
                      segs.empty() ? kObsNoNode : segs.front().node, ad,
                      std::max<size_t>(segs.size(), 1), total));
  size_t consumed = 0;
  for (const auto& seg : segs) {
    fabric_->node(seg.node).WriteRange(
        seg.offset,
        std::span<const std::byte>(staging)
            .subspan(consumed, static_cast<size_t>(seg.len)),
        clock_.now_ns());
    consumed += static_cast<size_t>(seg.len);
  }
  stats_.bytes_written += total;
  AccountRoundTrip(FarOpKind::kScatterGather,
                   segs.empty() ? kObsNoNode : segs.front().node, ad, total,
                   std::max<size_t>(segs.size(), 1), 0, /*ok=*/true, queue_ns);
  return OkStatus();
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
                                  targets.front().addr, targets.size(),
                                  targets.size() * 2 * kWordSize));
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
        loc.offset, target.expected, target.desired, clock_.now_ns());
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

FarClient::PendingOp& FarClient::NewOp(OpKind kind, FarAddr addr) {
  if (issued_ == issue_queue_.size()) {
    issue_queue_.emplace_back();
  }
  PendingOp& op = issue_queue_[issued_++];
  op.id = next_op_id_++;
  op.kind = kind;
  op.addr = addr;
  op.arg0 = 0;
  op.arg1 = 0;
  op.guard = 0;
  op.out = {};
  op.payload.clear();
  op.iov.clear();
  return op;
}

FarClient::OpId FarClient::PostRead(FarAddr addr, std::span<std::byte> out) {
  PendingOp& op = NewOp(OpKind::kRead, addr);
  op.out = out;
  return op.id;
}

FarClient::OpId FarClient::PostWrite(FarAddr addr,
                                     std::span<const std::byte> data) {
  PendingOp& op = NewOp(OpKind::kWrite, addr);
  op.payload.assign(data.begin(), data.end());
  return op.id;
}

FarClient::OpId FarClient::PostReadWord(FarAddr addr) {
  return NewOp(OpKind::kReadWord, addr).id;
}

FarClient::OpId FarClient::PostWriteWord(FarAddr addr, uint64_t value) {
  PendingOp& op = NewOp(OpKind::kWriteWord, addr);
  op.arg0 = value;
  return op.id;
}

FarClient::OpId FarClient::PostCompareSwap(FarAddr addr, uint64_t expected,
                                           uint64_t desired, OpId guard) {
  PendingOp& op = NewOp(OpKind::kCas, addr);
  op.arg0 = expected;
  op.arg1 = desired;
  op.guard = guard;
  return op.id;
}

FarClient::OpId FarClient::PostFetchAdd(FarAddr addr, uint64_t delta) {
  PendingOp& op = NewOp(OpKind::kFetchAdd, addr);
  op.arg0 = delta;
  return op.id;
}

FarClient::OpId FarClient::PostLoad0(FarAddr ad, std::span<std::byte> out) {
  PendingOp& op = NewOp(OpKind::kLoad0, ad);
  op.out = out;
  return op.id;
}

FarClient::OpId FarClient::PostRGather(std::vector<FarSeg> iov,
                                       std::span<std::byte> out) {
  PendingOp& op = NewOp(OpKind::kRGather, kNullFarAddr);
  op.iov = std::move(iov);
  op.out = out;
  return op.id;
}

Status FarClient::ExecuteBatchedOp(
    PendingOp& op, uint64_t* word,
    std::unordered_map<NodeId, BatchGroup>& groups, uint64_t* messages,
    uint64_t* fabric_ops, uint64_t* serial_ns, uint64_t* serial_rtts,
    BatchOpObs* obs) {
  // One node-group contribution: `msgs` fabric messages carrying
  // `payload_bytes` whose occupancy lands on `node`, plus forward hops.
  // Batch-path admission: one offer per op, no retry — a doorbell cannot
  // re-time individual sub-ops, so a shed surfaces as a kOverloaded
  // completion and the caller decides whether to re-post. The group waits
  // out the worst queueing delay among its admitted ops.
  auto admit = [&](NodeId node, uint64_t ops, uint64_t bytes) -> Status {
    FMDS_ASSIGN_OR_RETURN(const uint64_t queue_ns,
                          OfferOnce(node, ops, bytes));
    if (queue_ns > 0) {
      BatchGroup& group = groups[node];
      group.queue_ns = std::max(group.queue_ns, queue_ns);
    }
    return OkStatus();
  };
  auto charge = [&](NodeId node, uint64_t payload_bytes, uint64_t msgs,
                    uint64_t hops) {
    BatchGroup& group = groups[node];
    ++group.contribs;
    group.wire_ns +=
        ModelFor(node).per_byte_ns * static_cast<double>(payload_bytes);
    group.hops += hops;
    *messages += msgs;
    if (obs != nullptr && obs->node == kObsNoNode) {
      obs->node = node;  // primary node serviced (first charge)
    }
    if (obs != nullptr) {
      obs->bytes += payload_bytes;
    }
  };
  if (obs != nullptr) {
    obs->addr = op.addr;
    switch (op.kind) {
      case OpKind::kRead: obs->kind = FarOpKind::kRead; break;
      case OpKind::kWrite: obs->kind = FarOpKind::kWrite; break;
      case OpKind::kReadWord: obs->kind = FarOpKind::kReadWord; break;
      case OpKind::kWriteWord: obs->kind = FarOpKind::kWriteWord; break;
      case OpKind::kCas: obs->kind = FarOpKind::kCas; break;
      case OpKind::kFetchAdd: obs->kind = FarOpKind::kFetchAdd; break;
      case OpKind::kLoad0: obs->kind = FarOpKind::kIndirect; break;
      case OpKind::kRGather: obs->kind = FarOpKind::kScatterGather; break;
    }
  }

  switch (op.kind) {
    case OpKind::kRead: {
      std::vector<Fabric::Segment> segs;
      FMDS_RETURN_IF_ERROR(fabric_->Segments(op.addr, op.out.size(), segs));
      FMDS_RETURN_IF_ERROR(admit(segs.empty() ? kObsNoNode : segs.front().node,
                                 std::max<size_t>(segs.size(), 1),
                                 op.out.size()));
      size_t produced = 0;
      for (const auto& seg : segs) {
        fabric_->node(seg.node).ReadRange(
            seg.offset,
            op.out.subspan(produced, static_cast<size_t>(seg.len)));
        charge(seg.node, seg.len, 1, 0);
        produced += static_cast<size_t>(seg.len);
      }
      stats_.bytes_read += op.out.size();
      ++*fabric_ops;
      return OkStatus();
    }
    case OpKind::kWrite: {
      std::vector<Fabric::Segment> segs;
      FMDS_RETURN_IF_ERROR(
          fabric_->Segments(op.addr, op.payload.size(), segs));
      FMDS_RETURN_IF_ERROR(admit(segs.empty() ? kObsNoNode : segs.front().node,
                                 std::max<size_t>(segs.size(), 1),
                                 op.payload.size()));
      size_t consumed = 0;
      for (const auto& seg : segs) {
        fabric_->node(seg.node).WriteRange(
            seg.offset,
            std::span<const std::byte>(op.payload)
                .subspan(consumed, static_cast<size_t>(seg.len)),
            clock_.now_ns());
        charge(seg.node, seg.len, 1, 0);
        consumed += static_cast<size_t>(seg.len);
      }
      stats_.bytes_written += op.payload.size();
      ++*fabric_ops;
      return OkStatus();
    }
    case OpKind::kReadWord:
    case OpKind::kWriteWord:
    case OpKind::kCas:
    case OpKind::kFetchAdd: {
      if (!IsWordAligned(op.addr)) {
        return InvalidArgument("unaligned word op in batch");
      }
      FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(op.addr));
      FMDS_RETURN_IF_ERROR(admit(loc.node, 1, kWordSize));
      MemoryNode& node = fabric_->node(loc.node);
      switch (op.kind) {
        case OpKind::kReadWord:
          *word = node.LoadWord(loc.offset);
          stats_.bytes_read += kWordSize;
          break;
        case OpKind::kWriteWord:
          node.StoreWord(loc.offset, op.arg0, clock_.now_ns());
          stats_.bytes_written += kWordSize;
          break;
        case OpKind::kCas:
          *word = node.CompareSwapWord(loc.offset, op.arg0, op.arg1,
                                       clock_.now_ns());
          stats_.bytes_read += kWordSize;
          stats_.bytes_written += kWordSize;
          break;
        default:  // OpKind::kFetchAdd
          *word = node.FetchAddWord(loc.offset, op.arg0, clock_.now_ns());
          stats_.bytes_read += kWordSize;
          stats_.bytes_written += kWordSize;
          break;
      }
      charge(loc.node, kWordSize, 1, 0);
      ++*fabric_ops;
      return OkStatus();
    }
    case OpKind::kLoad0: {
      if (!IsWordAligned(op.addr)) {
        return InvalidArgument("indirect pointer location must be word-aligned");
      }
      FMDS_ASSIGN_OR_RETURN(auto home, fabric_->Translate(op.addr));
      FMDS_RETURN_IF_ERROR(
          admit(home.node, 1, kWordSize + op.out.size()));
      MemoryNode& home_node = fabric_->node(home.node);
      home_node.stats().indirections.fetch_add(1, std::memory_order_relaxed);
      const FarAddr pointer = home_node.LoadWord(home.offset);
      if (pointer == kNullFarAddr) {
        // The round trip completed and found a null pointer.
        stats_.bytes_read += kWordSize;
        charge(home.node, kWordSize, 1, 0);
        ++*fabric_ops;
        return Status(StatusCode::kFailedPrecondition,
                      "null indirect pointer");
      }
      const uint64_t len = op.out.size();
      std::vector<Fabric::Segment> segs;
      Status seg_status = fabric_->Segments(pointer, len, segs);
      if (!seg_status.ok()) {
        stats_.bytes_read += kWordSize;
        charge(home.node, kWordSize, 1, 0);
        ++*fabric_ops;
        return seg_status;
      }
      uint64_t remote_hops = 0;
      for (const auto& seg : segs) {
        if (seg.node != home.node) {
          ++remote_hops;
        }
      }
      if (remote_hops > 0 &&
          fabric_->options().indirection == IndirectionPolicy::kError) {
        // §7.1 kError: the pointer bounces back inside the batch; the client
        // completes the read with a second round trip that cannot overlap
        // anything (it depends on this batch), so it is charged serially.
        stats_.bytes_read += kWordSize;
        charge(home.node, kWordSize, 1, 0);
        ++*fabric_ops;
        size_t produced = 0;
        for (const auto& seg : segs) {
          fabric_->node(seg.node).ReadRange(
              seg.offset,
              op.out.subspan(produced, static_cast<size_t>(seg.len)));
          produced += static_cast<size_t>(seg.len);
        }
        stats_.bytes_read += len;
        *messages += segs.size();
        *serial_ns += latency_.FarRoundTripNs(len);
        ++*serial_rtts;
        ++*fabric_ops;
        *word = pointer;
        return OkStatus();
      }
      if (remote_hops > 0) {
        home_node.stats().forwards.fetch_add(remote_hops,
                                             std::memory_order_relaxed);
      }
      size_t produced = 0;
      for (const auto& seg : segs) {
        fabric_->node(seg.node).ReadRange(
            seg.offset,
            op.out.subspan(produced, static_cast<size_t>(seg.len)));
        produced += static_cast<size_t>(seg.len);
      }
      stats_.bytes_read += len;
      charge(home.node, kWordSize + len, 1 + remote_hops, remote_hops);
      ++*fabric_ops;
      *word = pointer;
      return OkStatus();
    }
    case OpKind::kRGather: {
      uint64_t total = 0;
      for (const auto& far : op.iov) {
        total += far.len;
      }
      if (total > op.out.size()) {
        return InvalidArgument("rgather output buffer too small");
      }
      if (!op.iov.empty()) {
        FMDS_ASSIGN_OR_RETURN(auto loc0,
                              fabric_->Translate(op.iov.front().addr));
        FMDS_RETURN_IF_ERROR(admit(loc0.node, op.iov.size(), total));
      }
      size_t produced = 0;
      for (const auto& far : op.iov) {
        std::vector<Fabric::Segment> segs;
        FMDS_RETURN_IF_ERROR(fabric_->Segments(far.addr, far.len, segs));
        size_t inner = 0;
        for (const auto& seg : segs) {
          fabric_->node(seg.node).ReadRange(
              seg.offset,
              op.out.subspan(produced + inner,
                             static_cast<size_t>(seg.len)));
          charge(seg.node, seg.len, 1, 0);
          inner += static_cast<size_t>(seg.len);
        }
        produced += static_cast<size_t>(far.len);
      }
      stats_.bytes_read += total;
      ++*fabric_ops;
      return OkStatus();
    }
  }
  return Internal("bad batched op kind");
}

Status FarClient::Flush() {
  if (issued_ == 0) {
    return OkStatus();
  }
  std::unordered_map<NodeId, BatchGroup> groups;
  uint64_t messages = 0;
  uint64_t fabric_ops = 0;   // logical round trips the sync path would pay
  uint64_t serial_ns = 0;    // dependent second accesses (kError policy)
  uint64_t serial_rtts = 0;
  const bool observing = obs_.recording();
  std::vector<BatchOpObs> op_obs;
  const size_t batch_size = issued_;
  if (observing) {
    op_obs.resize(batch_size);
  }
  Completion failed;  // latest failure: cancels the CASes it guards
  for (size_t i = 0; i < batch_size; ++i) {
    PendingOp& op = issue_queue_[i];
    Completion completion;
    completion.id = op.id;
    if (op.guard != 0 && failed.id >= op.guard) {
      completion.status = failed.status;
      if (observing) {
        op_obs[i].kind = FarOpKind::kCas;
        op_obs[i].addr = op.addr;
      }
    } else {
      completion.status = ExecuteBatchedOp(
          op, &completion.word, groups, &messages, &fabric_ops, &serial_ns,
          &serial_rtts, observing ? &op_obs[i] : nullptr);
    }
    if (!completion.status.ok()) {
      failed = completion;
    }
    if (observing) {
      op_obs[i].ok = completion.status.ok();
    }
    completion_queue_.push_back(std::move(completion));
  }
  issued_ = 0;
  // One doorbell: per-node groups proceed in parallel; the client waits for
  // the slowest, then for any serialized dependent accesses.
  uint64_t batch_ns = 0;
  for (const auto& [node, group] : groups) {
    const LatencyModel& model = ModelFor(node);
    if (group.contribs == 0) {
      // Admitted op that failed before any memory effect (e.g. a bad range
      // in a gather): its queueing delay was still paid.
      batch_ns = std::max(batch_ns, group.queue_ns);
      continue;
    }
    const uint64_t cost =
        model.far_base_ns + static_cast<uint64_t>(group.wire_ns) +
        (group.contribs - 1) * model.batch_op_ns +
        group.hops * latency_.node_hop_ns +
        // A slowed node services each of its sub-batch ops slower.
        group.contribs * fabric_->node(node).extra_service_ns() +
        // Congestion (§14): the group waits out its worst queueing delay.
        group.queue_ns;
    batch_ns = std::max(batch_ns, cost);
  }
  ++stats_.batches;
  stats_.batched_ops += batch_size;
  stats_.messages += messages;
  const uint64_t waited_rtts = (groups.empty() ? 0 : 1) + serial_rtts;
  stats_.far_ops += waited_rtts;
  if (fabric_ops > waited_rtts) {
    stats_.overlapped_rtts_saved += fabric_ops - waited_rtts;
  }
  if (groups.size() > 1) {
    // §7 fan-out: G per-node doorbells overlapped into one wait. A client
    // that issued node sub-batches one at a time would wait G round trips.
    ++stats_.fanout_batches;
    stats_.cross_node_rtts_saved += groups.size() - 1;
  }
  const uint64_t start_ns = clock_.now_ns();
  const uint64_t total_ns = batch_ns + serial_ns;
  clock_.Advance(total_ns);
  if (observing && !op_obs.empty()) {
    // Flight recorder: the doorbell is one span [start, start+total]; each
    // op inside gets an equal latency share, remainder on the first op, so
    // the shares tile the span exactly and sum to the clock delta (the
    // batched counterpart of "per-lookup share of the batch's simulated
    // time" the benches report).
    const uint64_t batch_id = obs_.NextBatchId();
    const uint64_t k = op_obs.size();
    const uint64_t share = total_ns / k;
    uint64_t total_bytes = 0;
    bool all_ok = true;
    for (const BatchOpObs& o : op_obs) {
      total_bytes += o.bytes;
      all_ok = all_ok && o.ok;
    }
    obs_.RecordOp(FarOpKind::kBatch, kObsNoNode, kNullFarAddr, total_bytes,
                  start_ns, total_ns, all_ok, batch_id);
    uint64_t cursor = start_ns;
    for (size_t i = 0; i < op_obs.size(); ++i) {
      const BatchOpObs& o = op_obs[i];
      const uint64_t op_ns =
          (i == 0) ? total_ns - share * (k - 1) : share;
      obs_.RecordOp(o.kind, o.node, o.addr, o.bytes, cursor, op_ns, o.ok,
                    batch_id);
      cursor += op_ns;
    }
  }
  return OkStatus();
}

std::optional<FarClient::Completion> FarClient::Poll() {
  AccountNear(1);  // completion-queue check
  if (completion_queue_.empty()) {
    return std::nullopt;
  }
  Completion completion = std::move(completion_queue_.front());
  completion_queue_.pop_front();
  return completion;
}

Status FarClient::WaitAll(std::vector<Completion>* out) {
  FMDS_RETURN_IF_ERROR(Flush());
  AccountNear(1);
  Status first = OkStatus();
  while (!completion_queue_.empty()) {
    Completion completion = std::move(completion_queue_.front());
    completion_queue_.pop_front();
    if (first.ok() && !completion.status.ok()) {
      first = completion.status;
    }
    if (out != nullptr) {
      out->push_back(std::move(completion));
    }
  }
  return first;
}

void FarClient::ExecuteSerially(std::span<Completion> done) {
  assert(done.size() == issued_);
  Completion failed;  // latest failure: cancels the CASes it guards
  for (size_t i = 0; i < done.size(); ++i) {
    PendingOp& op = issue_queue_[i];
    Completion& completion = done[i];
    completion.id = op.id;
    completion.word = 0;
    auto word = [&completion](const Result<uint64_t>& r) {
      completion.word = r.ok() ? *r : 0;
      return r.status();
    };
    if (op.guard != 0 && failed.id >= op.guard) {
      completion.status = failed.status;
      continue;
    }
    switch (op.kind) {
      case OpKind::kRead:
        completion.status = Read(op.addr, op.out);
        break;
      case OpKind::kWrite:
        completion.status = Write(op.addr, op.payload);
        break;
      case OpKind::kReadWord:
        completion.status = word(ReadWord(op.addr));
        break;
      case OpKind::kWriteWord:
        completion.status = WriteWord(op.addr, op.arg0);
        break;
      case OpKind::kCas:
        completion.status = word(CompareSwap(op.addr, op.arg0, op.arg1));
        break;
      case OpKind::kFetchAdd:
        completion.status = word(FetchAdd(op.addr, op.arg0));
        break;
      case OpKind::kLoad0:
        completion.status = word(Load0(op.addr, op.out));
        break;
      case OpKind::kRGather:
        completion.status = RGather(op.iov, op.out);
        break;
    }
    if (!completion.status.ok()) {
      failed = completion;
    }
  }
  issued_ = 0;
}

const FarClient::Completion* FarClient::FindCompletion(
    std::span<const Completion> done, OpId id) {
  const auto it = std::lower_bound(
      done.begin(), done.end(), id,
      [](const Completion& c, OpId target) { return c.id < target; });
  return it != done.end() && it->id == id ? &*it : nullptr;
}

// ------------------------------ Notifications ------------------------------

Result<SubId> FarClient::Subscribe(const NotifySpec& spec,
                                   uint64_t* snapshot) {
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
  sub_homes_[id] = loc.node;
  // Subscription setup message (the read-and-arm snapshot rides the reply).
  AccountRoundTrip(FarOpKind::kNotification, loc.node, spec.addr, kWordSize, 1,
                   0);
  return id;
}

Result<SubId> FarClient::Subscribe(const NotifySpec& spec,
                                   NotificationSink* sink,
                                   uint64_t* snapshot) {
  FMDS_ASSIGN_OR_RETURN(SubId id, Subscribe(spec, snapshot));
  if (sink != nullptr) {
    sinks_[id] = sink;
  }
  return id;
}

Status FarClient::Unsubscribe(SubId id) {
  auto it = sub_homes_.find(id);
  if (it == sub_homes_.end()) {
    return NotFound("unknown subscription");
  }
  const NodeId node = it->second;  // captured before erase invalidates it
  fabric_->node(node).Unsubscribe(id);
  sub_homes_.erase(it);
  sinks_.erase(id);
  AccountRoundTrip(FarOpKind::kNotification, node, kNullFarAddr, kWordSize, 1,
                   0);
  return OkStatus();
}

Status FarClient::UnsubscribeAt(FarAddr watch_addr, SubId id) {
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(watch_addr));
  fabric_->node(loc.node).Unsubscribe(id);
  AccountRoundTrip(FarOpKind::kNotification, loc.node, kNullFarAddr, kWordSize,
                   1, 0);
  return OkStatus();
}

void FarClient::ForgetSubscription(SubId id) {
  sub_homes_.erase(id);
  sinks_.erase(id);
  // Remember the id so events already queued for it are dropped at dispatch
  // instead of accumulating in the poll-style park (where enough of them
  // would overflow into a spurious loss warning). Bounded: an id aged out
  // degrades to the park path, which is still correct.
  constexpr size_t kForgottenCap = 256;
  if (forgotten_subs_.size() >= kForgottenCap) {
    forgotten_subs_.pop_front();
  }
  forgotten_subs_.push_back(id);
}

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
    // Stats and obs are charged at the point of delivery, never at parking:
    // a parked event is counted by the PollNotification()/WaitNotification()
    // call that consumes it. Counting the drain itself would tally parked
    // events twice whenever dispatch coexists with poll-style subscriptions
    // (e.g. the near cache plus the HT-tree's split watch).
    if (ev.kind == NotifyEventKind::kLossWarning) {
      // No sub_id: an unknown number of events for unknown subscriptions
      // were dropped. Every sink must assume the worst, and poll-style
      // subscribers still need to see the warning too — the warning is
      // parked for them and counted when they consume it.
      std::unordered_set<NotificationSink*> seen;
      for (const auto& [sub, sink] : sinks_) {
        if (seen.insert(sink).second) {
          sink->OnNotify(ev);
          ++routed;
        }
      }
      ParkEvent(std::move(ev));
      continue;
    }
    auto it = sinks_.find(ev.sub_id);
    if (it != sinks_.end()) {
      ++stats_.notifications;
      if (obs_.recording()) {
        obs_.RecordOp(FarOpKind::kNotification, kObsNoNode, ev.addr, ev.len,
                      clock_.now_ns(), 0, true);
      }
      it->second->OnNotify(ev);
      ++routed;
    } else if (!forgotten_subs_.empty() &&
               std::find(forgotten_subs_.begin(), forgotten_subs_.end(),
                         ev.sub_id) != forgotten_subs_.end()) {
      // Late event for a background-retired subscription: drop it.
    } else {
      ParkEvent(std::move(ev));
    }
  }
  return routed;
}

void FarClient::ParkEvent(NotifyEvent ev) {
  // The park inherits the channel's bound: a dispatcher that never polls
  // its poll-style events must not grow memory without limit. Overflow
  // degrades exactly like the channel does — drop everything parked and
  // leave a single loss warning.
  if (parked_events_.size() >= channel_capacity_) {
    parked_events_.clear();
    NotifyEvent loss;
    loss.kind = NotifyEventKind::kLossWarning;
    loss.publish_ns = ev.publish_ns;
    parked_events_.push_back(std::move(loss));
    return;
  }
  parked_events_.push_back(std::move(ev));
}

std::optional<NotifyEvent> FarClient::PollNotification() {
  AccountNear(1);
  if (!parked_events_.empty()) {
    NotifyEvent ev = std::move(parked_events_.front());
    parked_events_.pop_front();
    ++stats_.notifications;
    if (obs_.recording()) {
      obs_.RecordOp(FarOpKind::kNotification, kObsNoNode, ev.addr, ev.len,
                    clock_.now_ns(), 0, true);
    }
    return ev;
  }
  auto ev = channel_.Poll();
  if (ev.has_value()) {
    ++stats_.notifications;
    if (obs_.recording()) {
      // Delivery already happened on the node side; a poll that drains the
      // channel costs the client only the near access charged above.
      obs_.RecordOp(FarOpKind::kNotification, kObsNoNode, ev->addr, ev->len,
                    clock_.now_ns(), 0, true);
    }
  }
  return ev;
}

Result<NotifyEvent> FarClient::WaitNotification(uint64_t timeout_ms) {
  // Monotonic budget (immune to wall-clock steps) stretched under
  // sanitizer builds, where the poll loop itself runs an order of
  // magnitude slower.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timeout_ms * kWaitBudgetScale);
  while (std::chrono::steady_clock::now() < deadline) {
    std::optional<NotifyEvent> ev;
    if (!parked_events_.empty()) {
      ev = std::move(parked_events_.front());
      parked_events_.pop_front();
    } else {
      ev = channel_.Poll();
    }
    if (ev.has_value()) {
      ++stats_.notifications;
      AccountNear(1);
      const uint64_t start_ns = clock_.now_ns();
      clock_.Advance(latency_.notify_delay_ns);
      if (obs_.recording()) {
        obs_.RecordOp(FarOpKind::kNotification, kObsNoNode, ev->addr, ev->len,
                      start_ns, latency_.notify_delay_ns, true);
      }
      return *std::move(ev);
    }
    std::this_thread::yield();
  }
  return Status(StatusCode::kUnavailable, "notification wait timed out");
}

// ------------------------------- Accounting -------------------------------

void FarClient::Fence() {
  // Synchronous ops already execute in program order; posted async ops are
  // submitted here so nothing issued before the fence can reorder past it.
  // Costs one near access (completion-queue check) on top of the flush.
  (void)Flush();
  AccountNear(1);
}

void FarClient::AccountNear(uint64_t accesses) {
  stats_.near_ops += accesses;
  clock_.Advance(accesses * latency_.near_ns);
}

Status FarClient::PostWriteBackground(FarAddr addr,
                                      std::span<const std::byte> data) {
  std::vector<Fabric::Segment> segs;
  FMDS_RETURN_IF_ERROR(fabric_->Segments(addr, data.size(), segs));
  size_t consumed = 0;
  for (const auto& seg : segs) {
    fabric_->node(seg.node).WriteRange(
        seg.offset, data.subspan(consumed, static_cast<size_t>(seg.len)),
        clock_.now_ns());
    consumed += static_cast<size_t>(seg.len);
  }
  ++stats_.background_ops;
  stats_.messages += std::max<size_t>(segs.size(), 1);
  stats_.bytes_written += data.size();
  if (obs_.recording()) {
    // Fire-and-forget: the client clock does not wait, so latency is 0.
    obs_.RecordOp(FarOpKind::kBackground,
                  segs.empty() ? kObsNoNode : segs.front().node, addr,
                  data.size(), clock_.now_ns(), 0, true);
  }
  return OkStatus();
}

Status FarClient::PostWriteWordBackground(FarAddr addr, uint64_t value) {
  uint64_t v = value;
  return PostWriteBackground(addr, AsConstBytes(v));
}

Result<uint64_t> FarClient::ReadWordBackground(FarAddr addr) {
  if (!IsWordAligned(addr)) {
    return Status(StatusCode::kInvalidArgument, "unaligned word read");
  }
  FMDS_ASSIGN_OR_RETURN(auto loc, fabric_->Translate(addr));
  const uint64_t value = fabric_->node(loc.node).LoadWord(loc.offset);
  ++stats_.background_ops;
  ++stats_.messages;
  stats_.bytes_read += kWordSize;
  if (obs_.recording()) {
    obs_.RecordOp(FarOpKind::kBackground, loc.node, addr, kWordSize,
                  clock_.now_ns(), 0, true);
  }
  return value;
}

}  // namespace fmds

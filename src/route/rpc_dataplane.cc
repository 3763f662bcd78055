#include "src/route/rpc_dataplane.h"

#include "src/rpc/message.h"

namespace fmds {

namespace {

// Per-key view wire format, shared by kGet and kMultiGet responses.
void WriteView(MsgWriter& writer, bool found, uint64_t value, FarAddr bucket,
               uint64_t head_word, uint64_t chain_hops) {
  writer.U8(found ? 1 : 0);
  writer.U8(1);  // server-side TxnRead views are always clean/admissible
  writer.U64(value);
  writer.U64(bucket);
  writer.U64(head_word);
  writer.U64(chain_hops);
}

Result<RemoteMapPath::ReadView> ReadViewFrom(MsgReader& reader) {
  RemoteMapPath::ReadView view;
  FMDS_ASSIGN_OR_RETURN(uint8_t found, reader.U8());
  FMDS_ASSIGN_OR_RETURN(uint8_t cacheable, reader.U8());
  FMDS_ASSIGN_OR_RETURN(view.value, reader.U64());
  FMDS_ASSIGN_OR_RETURN(view.bucket, reader.U64());
  FMDS_ASSIGN_OR_RETURN(view.head_word, reader.U64());
  FMDS_ASSIGN_OR_RETURN(uint64_t hops, reader.U64());
  view.found = found != 0;
  view.cacheable = cacheable != 0;
  view.chain_hops = static_cast<uint32_t>(hops);
  return view;
}

ClientOptions AgentClientOptions(NodeId node) {
  ClientOptions options;
  options.home_node = node;
  return options;
}

}  // namespace

// ---------------------------- MapRpcService ----------------------------

MapRpcService::MapRpcService(RpcServer* server, Fabric* fabric,
                             FarAllocator* alloc, NodeId node,
                             uint64_t client_id)
    : server_(server),
      alloc_(alloc),
      agent_(fabric, client_id, AgentClientOptions(node)) {
  server->RegisterHandler(
      kGet, [this](std::span<const std::byte> req,
                   std::vector<std::byte>& resp) -> Status {
        return HandleGet(req, resp);
      });
  server->RegisterHandler(
      kPut, [this](std::span<const std::byte> req,
                   std::vector<std::byte>& resp) -> Status {
        return HandleWrite(req, resp, /*tombstone=*/false);
      });
  server->RegisterHandler(
      kRemove, [this](std::span<const std::byte> req,
                      std::vector<std::byte>& resp) -> Status {
        return HandleWrite(req, resp, /*tombstone=*/true);
      });
  server->RegisterHandler(
      kMultiGet, [this](std::span<const std::byte> req,
                        std::vector<std::byte>& resp) -> Status {
        return HandleMultiGet(req, resp);
      });
}

Result<HtTree*> MapRpcService::HandleFor(FarAddr header) {
  const auto it = handles_.find(header);
  if (it != handles_.end()) {
    return it->second.get();
  }
  // The agent binds its own handle to the same far header the callers use:
  // everything it publishes goes through the normal bucket-head CAS, so
  // caller-side watches and transaction validation see agent writes
  // exactly like one-sided ones.
  FMDS_ASSIGN_OR_RETURN(HtTree attached,
                        HtTree::Attach(&agent_, alloc_, header));
  auto handle = std::make_unique<HtTree>(std::move(attached));
  HtTree* raw = handle.get();
  handles_.emplace(header, std::move(handle));
  return raw;
}

Status MapRpcService::HandleGet(std::span<const std::byte> req,
                                std::vector<std::byte>& resp) {
  MsgReader reader(req);
  FMDS_ASSIGN_OR_RETURN(uint64_t header, reader.U64());
  FMDS_ASSIGN_OR_RETURN(uint64_t key, reader.U64());
  const uint64_t t0 = agent_.clock().now_ns();
  auto map = HandleFor(header);
  if (!map.ok()) {
    server_->ChargeService(agent_.clock().now_ns() - t0);
    return map.status();
  }
  const uint64_t hops0 = (*map)->op_stats_.chain_hops;
  // TxnRead (cache off) rather than Get: it only answers from a clean,
  // version-checked head, so the returned word is admissible as the
  // caller's NearCache watch and as a Txn validation handle. The rare
  // kAborted (pending bucket outwaited) propagates; the caller falls back
  // to the one-sided path, which owns the retry discipline.
  auto view = (*map)->TxnRead(key, /*allow_cache=*/false);
  server_->ChargeService(agent_.clock().now_ns() - t0);
  if (!view.ok()) {
    return view.status();
  }
  MsgWriter writer;
  WriteView(writer, view->found, view->value, view->bucket, view->head_word,
            (*map)->op_stats_.chain_hops - hops0);
  resp = writer.Take();
  return OkStatus();
}

Status MapRpcService::HandleWrite(std::span<const std::byte> req,
                                  std::vector<std::byte>& resp,
                                  bool tombstone) {
  MsgReader reader(req);
  FMDS_ASSIGN_OR_RETURN(uint64_t header, reader.U64());
  FMDS_ASSIGN_OR_RETURN(uint64_t key, reader.U64());
  FMDS_ASSIGN_OR_RETURN(uint64_t value, reader.U64());
  const uint64_t t0 = agent_.clock().now_ns();
  auto map = HandleFor(header);
  if (!map.ok()) {
    server_->ChargeService(agent_.clock().now_ns() - t0);
    return map.status();
  }
  // MultiWrite's single-key form publishes through the bucket-head CAS and
  // reports the publish location, which the caller needs for its
  // writer-side refill.
  const uint64_t keys[1] = {key};
  const uint64_t values[1] = {value};
  const uint8_t tombstones[1] = {tombstone ? uint8_t{1} : uint8_t{0}};
  std::vector<WriteOutcome> outcomes;
  const Status published =
      (*map)->MultiWrite(keys, values, tombstones, &outcomes);
  server_->ChargeService(agent_.clock().now_ns() - t0);
  FMDS_RETURN_IF_ERROR(published);
  MsgWriter writer;
  writer.U64(outcomes[0].bucket);
  writer.U64(outcomes[0].head);
  writer.U8(outcomes[0].refillable ? 1 : 0);
  resp = writer.Take();
  return OkStatus();
}

Status MapRpcService::HandleMultiGet(std::span<const std::byte> req,
                                     std::vector<std::byte>& resp) {
  MsgReader reader(req);
  FMDS_ASSIGN_OR_RETURN(uint64_t header, reader.U64());
  FMDS_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  std::vector<uint64_t> keys(count);
  for (uint32_t i = 0; i < count; ++i) {
    FMDS_ASSIGN_OR_RETURN(keys[i], reader.U64());
  }
  const uint64_t t0 = agent_.clock().now_ns();
  auto map = HandleFor(header);
  if (!map.ok()) {
    server_->ChargeService(agent_.clock().now_ns() - t0);
    return map.status();
  }
  // Serial per-key reads: at memory-local latencies the chain walks cost
  // nanoseconds, which is the point of shipping the batch here. Any key's
  // failure fails the call (the caller falls back one-sided as a whole).
  MsgWriter writer;
  writer.U32(count);
  Status failed = OkStatus();
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t hops0 = (*map)->op_stats_.chain_hops;
    auto view = (*map)->TxnRead(keys[i], /*allow_cache=*/false);
    if (!view.ok()) {
      failed = view.status();
      break;
    }
    WriteView(writer, view->found, view->value, view->bucket,
              view->head_word, (*map)->op_stats_.chain_hops - hops0);
  }
  server_->ChargeService(agent_.clock().now_ns() - t0);
  FMDS_RETURN_IF_ERROR(failed);
  resp = writer.Take();
  return OkStatus();
}

// ----------------------------- RpcDataplane -----------------------------

RpcDataplane::RpcDataplane(Fabric* fabric, FarAllocator* alloc) {
  agents_.reserve(fabric->num_nodes());
  for (NodeId node = 0; node < fabric->num_nodes(); ++node) {
    agents_.push_back(std::make_unique<Agent>(fabric, alloc, node));
  }
}

// ------------------------------ RpcMapPath ------------------------------

RpcMapPath::RpcMapPath(FarClient* client, RpcDataplane* dataplane)
    : client_(client), dataplane_(dataplane) {
  rpcs_.resize(dataplane_->num_nodes());
}

Result<RpcClient*> RpcMapPath::ClientFor(FarAddr header) {
  FMDS_ASSIGN_OR_RETURN(auto loc, client_->fabric()->Translate(header));
  if (loc.node >= rpcs_.size()) {
    return Internal("map header on a node without an agent");
  }
  if (rpcs_[loc.node] == nullptr) {
    rpcs_[loc.node] =
        std::make_unique<RpcClient>(client_, dataplane_->server(loc.node));
  }
  return rpcs_[loc.node].get();
}

Result<RemoteMapPath::ReadView> RpcMapPath::Get(FarAddr header,
                                                uint64_t key) {
  FMDS_ASSIGN_OR_RETURN(RpcClient * rpc, ClientFor(header));
  MsgWriter writer;
  writer.U64(header);
  writer.U64(key);
  std::vector<std::byte> resp;
  FMDS_RETURN_IF_ERROR(rpc->Call(MapRpcService::kGet, writer.view(), resp));
  MsgReader reader(resp);
  return ReadViewFrom(reader);
}

Result<WriteOutcome> RpcMapPath::CallWrite(uint32_t method, FarAddr header,
                                           uint64_t key, uint64_t value) {
  FMDS_ASSIGN_OR_RETURN(RpcClient * rpc, ClientFor(header));
  MsgWriter writer;
  writer.U64(header);
  writer.U64(key);
  writer.U64(value);
  std::vector<std::byte> resp;
  FMDS_RETURN_IF_ERROR(rpc->Call(method, writer.view(), resp));
  MsgReader reader(resp);
  WriteOutcome outcome;
  FMDS_ASSIGN_OR_RETURN(outcome.bucket, reader.U64());
  FMDS_ASSIGN_OR_RETURN(outcome.head, reader.U64());
  FMDS_ASSIGN_OR_RETURN(uint8_t refillable, reader.U8());
  outcome.refillable = refillable != 0;
  return outcome;
}

Result<WriteOutcome> RpcMapPath::Put(FarAddr header,
                                                    uint64_t key,
                                                    uint64_t value) {
  return CallWrite(MapRpcService::kPut, header, key, value);
}

Result<WriteOutcome> RpcMapPath::Remove(FarAddr header,
                                                       uint64_t key) {
  return CallWrite(MapRpcService::kRemove, header, key, 0);
}

Status RpcMapPath::MultiGet(FarAddr header, std::span<const uint64_t> keys,
                            std::vector<ReadView>* views) {
  FMDS_ASSIGN_OR_RETURN(RpcClient * rpc, ClientFor(header));
  MsgWriter writer;
  writer.U64(header);
  writer.U32(static_cast<uint32_t>(keys.size()));
  for (uint64_t key : keys) {
    writer.U64(key);
  }
  std::vector<std::byte> resp;
  FMDS_RETURN_IF_ERROR(
      rpc->Call(MapRpcService::kMultiGet, writer.view(), resp));
  MsgReader reader(resp);
  FMDS_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  if (count != keys.size()) {
    return Internal("multiget response count mismatch");
  }
  views->clear();
  views->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FMDS_ASSIGN_OR_RETURN(ReadView view, ReadViewFrom(reader));
    views->push_back(view);
  }
  return OkStatus();
}

}  // namespace fmds

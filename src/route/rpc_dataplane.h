// The two-sided half of the adaptive dataplane (DESIGN.md §13): per-node
// near-memory agents that execute map operations server-side, and the
// caller-side RemoteMapPath that ships operations to them.
//
// Semantic equivalence is the load-bearing property. Each agent runs a real
// HtTree handle Attach'd to the same far header the callers use, through a
// FarClient whose home_node is the agent's own node — so its accesses are
// priced at memory-local cost (the §3.1 "processor close to the memory"),
// but they are the SAME protocol accesses: mutations publish through the
// bucket-head CAS, so NearCache watch words fire and Txn validation words
// swing exactly as if the caller had executed the op one-sided. Responses
// carry the publish/observe location so the caller maintains its own cache.
#ifndef FMDS_SRC_ROUTE_RPC_DATAPLANE_H_
#define FMDS_SRC_ROUTE_RPC_DATAPLANE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/dataplane.h"
#include "src/core/ht_tree.h"
#include "src/rpc/rpc.h"

namespace fmds {

// Server-side map service colocated with one memory node. Handlers run
// under the RpcServer's dispatch lock (one agent core); the modelled cost
// of the agent's own far-structure accesses rides the call's service time
// via RpcServer::ChargeService, and the node's load_factor inflates the
// whole call M/M/1-style.
class MapRpcService {
 public:
  static constexpr uint32_t kGet = 100;
  static constexpr uint32_t kPut = 101;
  static constexpr uint32_t kRemove = 102;
  static constexpr uint32_t kMultiGet = 103;

  // The agent's handles take HtTree::Options{}: in particular the cache
  // stays off, since the agent sits next to the memory and a server-side
  // NearCache would add a second coherence domain for no latency win.
  MapRpcService(RpcServer* server, Fabric* fabric, FarAllocator* alloc,
                NodeId node, uint64_t client_id);

 private:
  // Lazy server-side attach keyed by header: the first request against a
  // map binds an agent handle to it (runs under the dispatch lock).
  Result<HtTree*> HandleFor(FarAddr header);

  Status HandleGet(std::span<const std::byte> req,
                   std::vector<std::byte>& resp);
  Status HandleWrite(std::span<const std::byte> req,
                     std::vector<std::byte>& resp, bool tombstone);
  Status HandleMultiGet(std::span<const std::byte> req,
                        std::vector<std::byte>& resp);

  RpcServer* server_;
  FarAllocator* alloc_;
  FarClient agent_;
  std::unordered_map<FarAddr, std::unique_ptr<HtTree>> handles_;
};

// One agent (RpcServer + MapRpcService) per memory node. The bench's
// occupancy knob is SetLoadFactor; HtTree/ShardedMap routing reaches the
// fleet through RpcMapPath below.
class RpcDataplane {
 public:
  // Agent FarClients get ids kAgentClientIdBase + node, so they are
  // recognizable in stats dumps next to application clients.
  static constexpr uint64_t kAgentClientIdBase = 900;

  RpcDataplane(Fabric* fabric, FarAllocator* alloc);

  RpcServer* server(NodeId node) { return &agents_[node]->server; }
  MapRpcService& service(NodeId node) { return agents_[node]->service; }
  size_t num_nodes() const { return agents_.size(); }

  // Occupancy of the colocated processor from non-dataplane work — the
  // §3.1 crossover knob (M/M/1 inflation of every call to that node).
  void SetLoadFactor(NodeId node, double rho) {
    agents_[node]->server.set_load_factor(rho);
  }
  void SetLoadFactorAll(double rho) {
    for (auto& agent : agents_) {
      agent->server.set_load_factor(rho);
    }
  }

 private:
  struct Agent {
    RpcServer server;
    MapRpcService service;
    Agent(Fabric* fabric, FarAllocator* alloc, NodeId node)
        : service(&server, fabric, alloc, node, kAgentClientIdBase + node) {
      server.set_node(node);
    }
  };

  std::vector<std::unique_ptr<Agent>> agents_;
};

// Caller-side RemoteMapPath: translates the map header to its home node
// and ships the op to that node's agent over a per-node RpcClient bound to
// the caller's FarClient (the call charges the caller's clock: fabric RTT
// + agent service + occupancy wait). One instance per application thread.
class RpcMapPath : public RemoteMapPath {
 public:
  RpcMapPath(FarClient* client, RpcDataplane* dataplane);

  Result<ReadView> Get(FarAddr header, uint64_t key) override;
  Result<WriteOutcome> Put(FarAddr header, uint64_t key,
                           uint64_t value) override;
  Result<WriteOutcome> Remove(FarAddr header, uint64_t key) override;
  Status MultiGet(FarAddr header, std::span<const uint64_t> keys,
                  std::vector<ReadView>* views) override;

 private:
  Result<RpcClient*> ClientFor(FarAddr header);
  Result<WriteOutcome> CallWrite(uint32_t method, FarAddr header, uint64_t key,
                                 uint64_t value);

  FarClient* client_;
  RpcDataplane* dataplane_;
  std::vector<std::unique_ptr<RpcClient>> rpcs_;  // indexed by node
};

}  // namespace fmds

#endif  // FMDS_SRC_ROUTE_RPC_DATAPLANE_H_

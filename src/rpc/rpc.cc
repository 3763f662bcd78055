#include "src/rpc/rpc.h"

namespace fmds {

void RpcServer::RegisterHandler(uint32_t method, RpcHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[method] = std::move(handler);
}

void RpcServer::set_load_factor(double rho) {
  if (rho < 0.0) {
    rho = 0.0;
  }
  if (rho > 0.95) {
    rho = 0.95;
  }
  load_factor_.store(rho, std::memory_order_relaxed);
}

Status RpcServer::Dispatch(uint32_t method,
                           std::span<const std::byte> request,
                           std::vector<std::byte>& response,
                           uint64_t* service_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handlers_.find(method);
  if (it == handlers_.end()) {
    return Unimplemented("no handler for method");
  }
  handler_charge_ = 0;
  const Status status = it->second(request, response);
  uint64_t ns =
      options_.service_ns +
      static_cast<uint64_t>(options_.per_byte_ns *
                            static_cast<double>(request.size() +
                                                response.size())) +
      handler_charge_;
  const double rho = load_factor_.load(std::memory_order_relaxed);
  if (rho > 0.0) {
    // Occupied server: the request waits behind the colocated CPU's other
    // work before (and between) getting service — M/M/1 waiting time.
    ns += static_cast<uint64_t>(static_cast<double>(ns) * rho / (1.0 - rho));
  }
  calls_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  if (service_ns != nullptr) {
    *service_ns = ns;
  }
  return status;
}

Status RpcClient::Call(uint32_t method, std::span<const std::byte> request,
                       std::vector<std::byte>& response) {
  // Congestion admission (§14): the request is one arrival at the server
  // node's NIC front end, exactly like a one-sided op. Runs the caller's
  // retry policy; a shed that exhausts it surfaces as kOverloaded without
  // dispatching the handler. Agent-local calls (client homed on the server
  // node) bypass the front end, as do fabrics with congestion disabled.
  FMDS_ASSIGN_OR_RETURN(
      const uint64_t queue_ns,
      client_->AdmitCongestion(FarOpKind::kRpc, server_->node(), kNullFarAddr,
                               1));
  uint64_t service_ns = 0;
  const Status status =
      server_->Dispatch(method, request, response, &service_ns);
  auto& stats = client_->mutable_stats();
  ++stats.rpc_calls;
  stats.messages += 2;  // request + response messages
  stats.bytes_written += request.size();
  stats.bytes_read += response.size();
  const auto& latency = client_->fabric()->options().latency;
  uint64_t rpc_ns = latency.FarRoundTripNs(request.size() + response.size()) +
                    service_ns + queue_ns;
  const NodeId node = server_->node();
  if (node != kObsNoNode) {
    // A colocated server's requests cross the same degraded link/controller
    // one-sided accesses to that node do.
    rpc_ns += client_->fabric()->node(node).extra_service_ns();
  }
  const uint64_t start_ns = client_->clock().now_ns();
  client_->clock().Advance(rpc_ns);
  auto& recorder = client_->recorder();
  if (recorder.recording()) {
    recorder.RecordOp(FarOpKind::kRpc, node, kNullFarAddr,
                      request.size() + response.size(), start_ns, rpc_ns,
                      status.ok());
  }
  return status;
}

}  // namespace fmds

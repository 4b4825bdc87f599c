#include "src/nic/software_server.h"

#include <utility>

#include "src/proto/cipher.h"

namespace lauberhorn {

SoftwareRpcServer::SoftwareRpcServer(const OsCostModel& costs, RpcServeConfig config)
    : costs_(costs), config_(std::move(config)), dedup_(config_.dedup_window) {}

bool SoftwareRpcServer::Open(uint32_t service_id, RpcMessage& request,
                             Duration& cost) const {
  cost = 0;
  if (!config_.crypto) {
    return true;
  }
  cost = costs_.SwCryptoCost(request.payload.size());
  auto opened = OpenPayload(DeriveKey(config_.crypto_root_key, service_id),
                            request.payload);
  if (!opened.has_value()) {
    return false;
  }
  request.payload = std::move(*opened);
  return true;
}

SoftwareRpcServer::Result SoftwareRpcServer::Serve(const ServiceDef* service,
                                                   const Ipv4Header& ip,
                                                   const UdpHeader& udp,
                                                   const RpcMessage& request) {
  Result result;
  // At-most-once admission, after decryption validated the request (a
  // corrupted copy must not park an in-flight entry forever).
  const uint64_t flow = DedupFlowKey(ip.src, udp.src_port);
  if (config_.dedup) {
    switch (dedup_.Admit(flow, request.request_id)) {
      case RpcDedupCache::Verdict::kNew:
        break;
      case RpcDedupCache::Verdict::kInFlight:
        result.outcome = Outcome::kDropped;
        return result;
      case RpcDedupCache::Verdict::kCompleted:
        result.outcome = Outcome::kReplayed;
        result.response = dedup_.Replay(flow, request);  // already sealed
        return result;
    }
  }
  result.outcome = Outcome::kExecuted;
  RpcMessage& response = result.response;
  response = ResponseHeader(request.service_id, request.method_id, request.request_id);
  if (service == nullptr) {
    response.status = RpcStatus::kNoSuchService;
  } else {
    const MethodDef* method = service->FindMethod(request.method_id);
    const Duration service_time = InvokeMethod(method, request.payload, response);
    if (method != nullptr) {
      result.cost += costs_.SwMarshalCost(request.payload.size());  // unmarshal
    }
    if (response.status == RpcStatus::kOk) {
      result.cost += service_time + costs_.SwMarshalCost(response.payload.size());
    }
    if (config_.crypto && !response.payload.empty()) {
      result.cost += costs_.SwCryptoCost(response.payload.size());
      response.payload =
          SealPayload(DeriveKey(config_.crypto_root_key, service->service_id),
                      response.request_id ^ 0x5a5a, response.payload);
    }
  }
  if (config_.dedup) {
    dedup_.Complete(flow, response.request_id, response);
  }
  return result;
}

Packet SoftwareRpcServer::Reply(const EthernetHeader& eth, const Ipv4Header& ip,
                                const UdpHeader& udp, RpcMessage response) {
  if (ip.ecn == kEcnCe) {
    response.flags |= kLrpcFlagEcnEcho;
  }
  return ReplyFrame(eth, ip, udp, response);
}

Packet SoftwareRpcServer::Shed(const ParsedFrame& frame, const RpcMessage& request,
                               ShedReason reason, Duration cost) {
  sheds_.Count(reason);
  shed_cpu_time_ += cost;
  RpcMessage overload =
      ResponseHeader(request.service_id, request.method_id, request.request_id);
  overload.status = RpcStatus::kOverloaded;
  return Reply(frame.eth, frame.ip, frame.udp, std::move(overload));
}

void SoftwareRpcServer::ExportMetrics(MetricsRegistry& metrics, const std::string& prefix,
                                      const std::string& stack) const {
  const std::string base = prefix + stack + "/";
  metrics.SetCounter(base + "rpcs_completed", rpcs_completed_);
  metrics.SetCounter(base + "bad_requests", bad_requests_);
  ExportStats(metrics, base, dedup_.stats(), kDedupStatsFields);
  ExportStats(metrics, prefix + "overload/sheds_", sheds_, kShedCountsFields);
  metrics.SetGauge(prefix + "overload/shed_cpu_us",
                   static_cast<double>(shed_cpu_time_) /
                       static_cast<double>(Microseconds(1)));
}

}  // namespace lauberhorn

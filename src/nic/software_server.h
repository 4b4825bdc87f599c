// The request-serving core of the two DMA-NIC stacks.
//
// The Linux stack and the kernel-bypass runtime run the same RPC semantics as
// the Lauberhorn NIC; they differ only in where a request waits and which CPU
// pays for each step. What happens between "a decoded request reached
// software" and "its reply frame is built" lives here, once: transport
// crypto, at-most-once admission, the handler call, the response seal, the
// kOverloaded shed reply, the ECN echo, and the counters that go with them.
// Each stack keeps its own scheduling, its own admission signal, and its own
// cost charging (which core runs, in which mode, for how long).
#ifndef SRC_NIC_SOFTWARE_SERVER_H_
#define SRC_NIC_SOFTWARE_SERVER_H_

#include <cstdint>
#include <string>

#include "src/net/headers.h"
#include "src/net/packet.h"
#include "src/os/cost_model.h"
#include "src/nic/serve_config.h"
#include "src/overload/overload.h"
#include "src/proto/dedup.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/stats/metrics.h"

namespace lauberhorn {

class SoftwareRpcServer {
 public:
  // What Serve did with one request.
  enum class Outcome {
    kExecuted,  // first copy: `response` is new (and cached for replays)
    kReplayed,  // duplicate of a completed request: `response` is the replay
    kDropped,   // duplicate of an executing request: nothing to send
  };
  struct Result {
    Outcome outcome = Outcome::kDropped;
    RpcMessage response;
    Duration cost = 0;  // software unmarshal, handler, marshal and seal
  };

  SoftwareRpcServer(const OsCostModel& costs, RpcServeConfig config);

  const RpcServeConfig& config() const { return config_; }

  // Opens an encrypted request payload in place; false on an authentication
  // failure. `cost` is the software crypto cost of the attempt (0 without
  // encryption); each stack decides whether a failed attempt is charged.
  bool Open(uint32_t service_id, RpcMessage& request, Duration& cost) const;

  // Serves one opened request of the flow `ip`/`udp`: at-most-once admission,
  // then the handler (kNoSuchService when `service` is null) and the seal.
  // The sealed response is what a replay resends.
  Result Serve(const ServiceDef* service, const Ipv4Header& ip, const UdpHeader& udp,
               const RpcMessage& request);

  // The reply frame for `response` to a request that arrived with
  // `eth`/`ip`/`udp`. A CE mark the request picked up in the fabric is echoed
  // (host-side DCTCP fallback, §15: the echo, but no grants — the kernel has
  // no NIC-resident view of queue headroom). The echo is set after caching,
  // so a replay never carries another copy's congestion observation.
  static Packet Reply(const EthernetHeader& eth, const Ipv4Header& ip,
                      const UdpHeader& udp, RpcMessage response);

  // Counts a shed of `request` and builds its kOverloaded reply. `cost` is
  // the host CPU the stack charges for saying "no".
  Packet Shed(const ParsedFrame& frame, const RpcMessage& request, ShedReason reason,
              Duration cost);

  void CountBadRequest() { ++bad_requests_; }
  void CountCompleted() { ++rpcs_completed_; }

  uint64_t rpcs_completed() const { return rpcs_completed_; }
  uint64_t bad_requests() const { return bad_requests_; }
  const RpcDedupCache& dedup() const { return dedup_; }
  const ShedCounts& sheds() const { return sheds_; }
  Duration shed_cpu_time() const { return shed_cpu_time_; }

  // Exports <stack>/rpcs_completed, bad_requests and the dedup table, plus
  // the shared overload/sheds_<reason> and overload/shed_cpu_us.
  void ExportMetrics(MetricsRegistry& metrics, const std::string& prefix,
                     const std::string& stack) const;

 private:
  const OsCostModel& costs_;
  RpcServeConfig config_;
  RpcDedupCache dedup_;
  uint64_t rpcs_completed_ = 0;
  uint64_t bad_requests_ = 0;
  ShedCounts sheds_;
  Duration shed_cpu_time_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_NIC_SOFTWARE_SERVER_H_

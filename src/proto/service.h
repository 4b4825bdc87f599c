// RPC service definitions shared by every stack in the repository.
//
// A ServiceDef describes one RPC service: its id, UDP port, and methods.
// Each method carries its wire signatures (which the Lauberhorn NIC loads
// into its unmarshal accelerator), a *functional* handler that computes the
// response values, and a modelled CPU service time. The same definition runs
// unchanged on the Linux stack, the kernel-bypass runtime, and Lauberhorn —
// only the dispatch machinery around it differs.
#ifndef SRC_PROTO_SERVICE_H_
#define SRC_PROTO_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/nic/dispatch_policy/dispatch_policy.h"
#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"
#include "src/sim/time.h"

namespace lauberhorn {

struct MethodDef {
  uint16_t method_id = 0;
  std::string name;
  MethodSignature request_sig;
  MethodSignature response_sig;
  // Computes the response from the request. Must match response_sig.
  std::function<std::vector<WireValue>(const std::vector<WireValue>&)> handler;
  // Modelled CPU time of the handler body (excludes all dispatch overhead).
  std::function<Duration(const std::vector<WireValue>&)> service_time =
      [](const std::vector<WireValue>&) { return Microseconds(1); };

  // Convenience: constant service time.
  void SetFixedServiceTime(Duration d) {
    service_time = [d](const std::vector<WireValue>&) { return d; };
  }

  // -- Nested RPC support (§6 continuation endpoints) -------------------------
  // When `nested_call` is set the method issues one nested RPC: the handler
  // phase computes the nested request, the runtime sends it through a
  // continuation endpoint, and `nested_finish` combines the original
  // arguments with the nested reply into the final response.
  struct NestedCall {
    uint16_t dst_port = 0;
    uint16_t method_id = 0;
    // 0 targets the local machine (NIC hairpin); otherwise the request goes
    // out on the wire to that address (cross-machine nested RPC).
    uint32_t dst_ip = 0;
    // Target service id (needed for key derivation on remote calls).
    uint32_t service_id = 0;
    std::vector<WireValue> args;
    MethodSignature request_sig;   // of the nested method
    MethodSignature response_sig;  // of the nested method's reply
  };
  std::function<NestedCall(const std::vector<WireValue>&)> nested_call;
  std::function<std::vector<WireValue>(const std::vector<WireValue>& original_args,
                                       const std::vector<WireValue>& nested_reply)>
      nested_finish;
  bool has_nested_call() const { return static_cast<bool>(nested_call); }
};

struct ServiceDef {
  uint32_t service_id = 0;
  std::string name;
  uint16_t udp_port = 0;
  // How the NIC hands this service's requests to cores (DESIGN.md §18).
  // Control-plane state: lives in the OS registry, so a NIC crash + shadow
  // replay rebuilds the same discipline (only queue *contents* die).
  DispatchPolicyConfig dispatch;
  std::map<uint16_t, MethodDef> methods;

  const MethodDef* FindMethod(uint16_t method_id) const {
    auto it = methods.find(method_id);
    return it != methods.end() ? &it->second : nullptr;
  }
};

// Runs `method` on the marshalled `args` and fills `response`: the one
// handler call every stack makes. An unknown method (null) sets
// kNoSuchMethod; arguments that do not unmarshal set kBadArguments. Either
// way the payload stays empty and the result is 0. Otherwise the handler
// runs and the result is the method's modelled service time; its values are
// marshalled into the payload, or, when they do not match response_sig, the
// payload stays empty and the status is kInternal. Nested calls are the
// caller's business.
Duration InvokeMethod(const MethodDef* method, std::span<const uint8_t> args,
                      RpcMessage& response);

class ServiceRegistry {
 public:
  ServiceDef* Add(ServiceDef def);
  const ServiceDef* Find(uint32_t service_id) const;
  const ServiceDef* FindByPort(uint16_t port) const;
  size_t size() const { return services_.size(); }
  // All registered services in registration order.
  std::vector<const ServiceDef*> All() const;

  // Builds a canonical echo service: method 0 takes kBytes and returns them.
  static ServiceDef MakeEchoService(uint32_t service_id, uint16_t port,
                                    Duration service_time = Nanoseconds(0));

 private:
  std::vector<std::unique_ptr<ServiceDef>> services_;
  std::unordered_map<uint32_t, ServiceDef*> by_id_;
  std::unordered_map<uint16_t, ServiceDef*> by_port_;
};

}  // namespace lauberhorn

#endif  // SRC_PROTO_SERVICE_H_

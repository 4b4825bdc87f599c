#include "src/proto/service.h"

#include <cassert>
#include <utility>

namespace lauberhorn {

Duration InvokeMethod(const MethodDef* method, std::span<const uint8_t> args,
                      RpcMessage& response) {
  if (method == nullptr) {
    response.status = RpcStatus::kNoSuchMethod;
    return 0;
  }
  std::vector<WireValue> values;
  if (!UnmarshalArgs(method->request_sig, args, values)) {
    response.status = RpcStatus::kBadArguments;
    return 0;
  }
  const std::vector<WireValue> result = method->handler(values);
  const Duration service_time = method->service_time(values);
  MarshalArgs(method->response_sig, result, response.payload);
  return service_time;
}

ServiceDef* ServiceRegistry::Add(ServiceDef def) {
  assert(by_id_.find(def.service_id) == by_id_.end() && "duplicate service id");
  assert(by_port_.find(def.udp_port) == by_port_.end() && "duplicate service port");
  services_.push_back(std::make_unique<ServiceDef>(std::move(def)));
  ServiceDef* s = services_.back().get();
  by_id_[s->service_id] = s;
  by_port_[s->udp_port] = s;
  return s;
}

const ServiceDef* ServiceRegistry::Find(uint32_t service_id) const {
  auto it = by_id_.find(service_id);
  return it != by_id_.end() ? it->second : nullptr;
}

const ServiceDef* ServiceRegistry::FindByPort(uint16_t port) const {
  auto it = by_port_.find(port);
  return it != by_port_.end() ? it->second : nullptr;
}

std::vector<const ServiceDef*> ServiceRegistry::All() const {
  std::vector<const ServiceDef*> out;
  out.reserve(services_.size());
  for (const auto& def : services_) {
    out.push_back(def.get());
  }
  return out;
}

ServiceDef ServiceRegistry::MakeEchoService(uint32_t service_id, uint16_t port,
                                            Duration service_time) {
  ServiceDef def;
  def.service_id = service_id;
  def.name = "echo-" + std::to_string(service_id);
  def.udp_port = port;

  MethodDef echo;
  echo.method_id = 0;
  echo.name = "echo";
  echo.request_sig.args = {WireType::kBytes};
  echo.response_sig.args = {WireType::kBytes};
  echo.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{args.at(0)};
  };
  echo.SetFixedServiceTime(service_time);
  def.methods[0] = std::move(echo);
  return def;
}

}  // namespace lauberhorn

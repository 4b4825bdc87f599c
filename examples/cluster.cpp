// Cluster: three machines on one switch — a Lauberhorn frontend tier that
// fans nested RPCs (§6 continuation endpoints) out to two backend machines,
// one running Lauberhorn and one running a conventional Linux stack. The
// LRPC wire format interoperates across stacks; the latency difference
// between the two backends is visible per request.
#include <cstdio>

#include "src/core/testbed.h"
#include "src/stats/table.h"

using namespace lauberhorn;

namespace {

ServiceDef MakeBackendService(uint32_t id, uint16_t port, Duration service_time) {
  ServiceDef def = ServiceRegistry::MakeEchoService(id, port, service_time);
  def.name = "backend-" + std::to_string(id);
  return def;
}

ServiceDef MakeFrontend(uint16_t port, uint32_t backend_ip, uint16_t backend_port,
                        uint32_t backend_service) {
  ServiceDef def;
  def.service_id = port;  // unique enough per frontend
  def.name = "frontend-" + std::to_string(port);
  def.udp_port = port;
  MethodDef m;
  m.method_id = 0;
  m.request_sig.args = {WireType::kBytes};
  m.response_sig.args = {WireType::kBytes};
  m.SetFixedServiceTime(Microseconds(2));
  m.nested_call = [backend_ip, backend_port,
                   backend_service](const std::vector<WireValue>& args) {
    MethodDef::NestedCall call;
    call.dst_ip = backend_ip;
    call.dst_port = backend_port;
    call.service_id = backend_service;
    call.method_id = 0;
    call.args = {args.at(0)};
    call.request_sig.args = {WireType::kBytes};
    call.response_sig.args = {WireType::kBytes};
    return call;
  };
  m.nested_finish = [](const std::vector<WireValue>&,
                       const std::vector<WireValue>& reply) {
    return std::vector<WireValue>{reply.at(0)};
  };
  def.methods[0] = std::move(m);
  return def;
}

}  // namespace

int main() {
  Testbed testbed;

  MachineConfig lbh;
  lbh.stack = StackKind::kLauberhorn;
  lbh.num_cores = 8;
  lbh.platform.wire.propagation = Microseconds(3);  // inter-rack
  MachineConfig linux_config = lbh;
  linux_config.stack = StackKind::kLinux;
  linux_config.nic_queues = 4;

  Machine& frontend_machine = testbed.AddMachine(lbh);   // 10.0.0.x
  Machine& lbh_backend = testbed.AddMachine(lbh);        // 10.0.1.x
  Machine& linux_backend = testbed.AddMachine(linux_config);  // 10.0.2.x

  const ServiceDef& backend_fast =
      lbh_backend.AddService(MakeBackendService(10, 7100, Microseconds(5)));
  linux_backend.AddService(MakeBackendService(11, 7100, Microseconds(5)));
  const ServiceDef& front_fast = frontend_machine.AddService(
      MakeFrontend(7000, lbh_backend.config().server_ip, 7100, 10));
  const ServiceDef& front_slow = frontend_machine.AddService(
      MakeFrontend(7001, linux_backend.config().server_ip, 7100, 11));

  frontend_machine.Start();
  lbh_backend.Start();
  linux_backend.Start();
  frontend_machine.StartHotLoop(front_fast);
  frontend_machine.StartHotLoop(front_slow);
  lbh_backend.StartHotLoop(backend_fast);
  testbed.sim().RunUntil(Milliseconds(1));

  Histogram via_lauberhorn;
  Histogram via_linux;
  const std::vector<uint8_t> body(128, 0x77);
  for (int i = 0; i < 200; ++i) {
    testbed.sim().Schedule(Microseconds(100) * i, [&]() {
      frontend_machine.client().Call(
          front_fast, 0, std::vector<WireValue>{WireValue::Bytes(body)},
          [&](const RpcMessage& r, Duration rtt) {
            if (r.status == RpcStatus::kOk) {
              via_lauberhorn.Record(rtt);
            }
          });
      frontend_machine.client().Call(
          front_slow, 0, std::vector<WireValue>{WireValue::Bytes(body)},
          [&](const RpcMessage& r, Duration rtt) {
            if (r.status == RpcStatus::kOk) {
              via_linux.Record(rtt);
            }
          });
    });
  }
  testbed.sim().RunUntil(testbed.sim().Now() + Milliseconds(100));

  std::printf("3-machine cluster: Lauberhorn frontend fanning nested RPCs to two\n"
              "backend machines (5us handlers, 3us inter-rack wire):\n\n");
  Table table({"path", "completed", "end-to-end p50 (us)", "p99 (us)"});
  table.AddRow({"frontend -> lauberhorn backend",
                Table::Int(static_cast<int64_t>(via_lauberhorn.count())),
                Table::Num(ToMicroseconds(via_lauberhorn.P50()), 2),
                Table::Num(ToMicroseconds(via_lauberhorn.P99()), 2)});
  table.AddRow({"frontend -> linux backend",
                Table::Int(static_cast<int64_t>(via_linux.count())),
                Table::Num(ToMicroseconds(via_linux.P50()), 2),
                Table::Num(ToMicroseconds(via_linux.P99()), 2)});
  table.Print();
  std::printf("\nfabric: %llu frames forwarded, %llu dropped\n",
              static_cast<unsigned long long>(testbed.fabric().forwarded()),
              static_cast<unsigned long long>(testbed.fabric().dropped()));
  std::printf("\nThe backend's stack is visible end to end: the same chain through the\n"
              "kernel-based backend pays its dispatch cost on every nested hop.\n");
  return 0;
}

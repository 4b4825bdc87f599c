// Multi-machine tests: two full Lauberhorn machines on one simulator,
// cross-machine nested RPCs over the switch, mixed-stack topologies, and
// run-to-run determinism of a multi-machine testbed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "src/proto/marshal.h"

namespace lauberhorn {
namespace {

ServiceDef MakeBackend(uint32_t id, uint16_t port) {
  ServiceDef def;
  def.service_id = id;
  def.name = "backend";
  def.udp_port = port;
  MethodDef add1;
  add1.method_id = 0;
  add1.request_sig.args = {WireType::kU64};
  add1.response_sig.args = {WireType::kU64};
  add1.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{WireValue::U64(args[0].scalar + 1)};
  };
  add1.SetFixedServiceTime(Microseconds(1));
  def.methods[0] = std::move(add1);
  return def;
}

// Frontend on machine 0 nests into the backend on machine 1.
ServiceDef MakeRemoteFrontend(uint32_t backend_ip, uint16_t backend_port,
                              uint32_t backend_service_id) {
  ServiceDef def;
  def.service_id = 1;
  def.name = "frontend";
  def.udp_port = 7000;
  MethodDef compose;
  compose.method_id = 0;
  compose.request_sig.args = {WireType::kU64};
  compose.response_sig.args = {WireType::kU64};
  compose.SetFixedServiceTime(Microseconds(1));
  compose.nested_call = [backend_ip, backend_port,
                         backend_service_id](const std::vector<WireValue>& args) {
    MethodDef::NestedCall call;
    call.dst_ip = backend_ip;
    call.dst_port = backend_port;
    call.service_id = backend_service_id;
    call.method_id = 0;
    call.args = {WireValue::U64(args[0].scalar)};
    call.request_sig.args = {WireType::kU64};
    call.response_sig.args = {WireType::kU64};
    return call;
  };
  compose.nested_finish = [](const std::vector<WireValue>&,
                             const std::vector<WireValue>& reply) {
    return std::vector<WireValue>{WireValue::U64(reply[0].scalar * 2)};
  };
  def.methods[0] = std::move(compose);
  return def;
}

TEST(TestbedTest, TwoMachinesBootIndependently) {
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine& a = testbed.AddMachine(config);
  Machine& b = testbed.AddMachine(config);
  EXPECT_NE(a.config().server_ip, b.config().server_ip);

  const ServiceDef& echo_a = a.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  const ServiceDef& echo_b = b.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  a.Start();
  b.Start();
  a.StartHotLoop(echo_a);
  b.StartHotLoop(echo_b);
  testbed.sim().RunUntil(Milliseconds(1));

  int done = 0;
  a.client().Call(echo_a, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                  [&](const RpcMessage& r, Duration) {
                    EXPECT_EQ(r.status, RpcStatus::kOk);
                    ++done;
                  });
  b.client().Call(echo_b, 0, std::vector<WireValue>{WireValue::Bytes({2})},
                  [&](const RpcMessage& r, Duration) {
                    EXPECT_EQ(r.status, RpcStatus::kOk);
                    ++done;
                  });
  testbed.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(done, 2);
}

TEST(TestbedTest, CrossMachineNestedRpc) {
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine& front_machine = testbed.AddMachine(config);
  Machine& back_machine = testbed.AddMachine(config);

  const ServiceDef& backend =
      back_machine.AddService(MakeBackend(9, 7100));
  const ServiceDef& frontend = front_machine.AddService(
      MakeRemoteFrontend(back_machine.config().server_ip, 7100, 9));
  front_machine.Start();
  back_machine.Start();
  front_machine.StartHotLoop(frontend);
  back_machine.StartHotLoop(backend);
  testbed.sim().RunUntil(Milliseconds(1));

  // compose(20) = (20 + 1) * 2 = 42, with the +1 computed on machine 1.
  uint64_t result = 0;
  front_machine.client().Call(frontend, 0,
                              std::vector<WireValue>{WireValue::U64(20)},
                              [&](const RpcMessage& r, Duration) {
                                EXPECT_EQ(r.status, RpcStatus::kOk);
                                std::vector<WireValue> out;
                                ASSERT_TRUE(UnmarshalArgs(
                                    MethodSignature{{WireType::kU64}}, r.payload, out));
                                result = out[0].scalar;
                              });
  testbed.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(result, 42u);
  EXPECT_GE(testbed.fabric().forwarded(), 3u);  // request, nested rtt, response
  EXPECT_EQ(testbed.fabric().dropped(), 0u);
  // The backend machine actually served an RPC.
  EXPECT_GE(back_machine.lauberhorn_nic()->stats().hot_dispatches, 1u);
}

TEST(TestbedTest, CrossMachineNestedRpcEncrypted) {
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.encrypt_rpcs = true;  // shared root key across the fleet
  Machine& front_machine = testbed.AddMachine(config);
  Machine& back_machine = testbed.AddMachine(config);

  const ServiceDef& backend = back_machine.AddService(MakeBackend(9, 7100));
  const ServiceDef& frontend = front_machine.AddService(
      MakeRemoteFrontend(back_machine.config().server_ip, 7100, 9));
  front_machine.Start();
  back_machine.Start();
  front_machine.StartHotLoop(frontend);
  back_machine.StartHotLoop(backend);
  testbed.sim().RunUntil(Milliseconds(1));

  uint64_t result = 0;
  front_machine.client().Call(frontend, 0,
                              std::vector<WireValue>{WireValue::U64(5)},
                              [&](const RpcMessage& r, Duration) {
                                std::vector<WireValue> out;
                                if (UnmarshalArgs(MethodSignature{{WireType::kU64}},
                                                  r.payload, out)) {
                                  result = out[0].scalar;
                                }
                              });
  testbed.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(result, 12u);
  EXPECT_EQ(front_machine.lauberhorn_nic()->stats().crypto_failures, 0u);
  EXPECT_EQ(back_machine.lauberhorn_nic()->stats().crypto_failures, 0u);
}

TEST(TestbedTest, MixedStacksInteroperate) {
  // A Lauberhorn frontend machine nests into a backend served by a plain
  // Linux machine: the LRPC wire format is stack-agnostic.
  Testbed testbed;
  MachineConfig lbh;
  lbh.stack = StackKind::kLauberhorn;
  lbh.num_cores = 4;
  MachineConfig linux_config;
  linux_config.stack = StackKind::kLinux;
  linux_config.num_cores = 4;
  Machine& front_machine = testbed.AddMachine(lbh);
  Machine& back_machine = testbed.AddMachine(linux_config);

  const ServiceDef& backend = back_machine.AddService(MakeBackend(9, 7100));
  const ServiceDef& frontend = front_machine.AddService(
      MakeRemoteFrontend(back_machine.config().server_ip, 7100, 9));
  (void)backend;
  front_machine.Start();
  back_machine.Start();
  front_machine.StartHotLoop(frontend);
  testbed.sim().RunUntil(Milliseconds(1));

  uint64_t result = 0;
  front_machine.client().Call(frontend, 0,
                              std::vector<WireValue>{WireValue::U64(10)},
                              [&](const RpcMessage& r, Duration) {
                                std::vector<WireValue> out;
                                if (UnmarshalArgs(MethodSignature{{WireType::kU64}},
                                                  r.payload, out)) {
                                  result = out[0].scalar;
                                }
                              });
  testbed.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(result, 22u);
  EXPECT_GE(back_machine.linux_stack()->server().rpcs_completed(), 1u);
}

TEST(TestbedTest, SwitchDropsUnroutableFrames) {
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine& machine = testbed.AddMachine(config);
  const ServiceDef& frontend = machine.AddService(
      MakeRemoteFrontend(MakeIpv4(10, 9, 9, 9), 7100, 9));  // nobody home
  machine.Start();
  machine.StartHotLoop(frontend);
  testbed.sim().RunUntil(Milliseconds(1));

  std::optional<RpcStatus> status;
  machine.client().Call(frontend, 0, std::vector<WireValue>{WireValue::U64(1)},
                        [&](const RpcMessage& r, Duration) { status = r.status; });
  testbed.sim().RunUntil(Milliseconds(50));
  EXPECT_GE(testbed.fabric().dropped(), 1u);
  // The frontend's nested call gets no reply. After one TRYAGAIN deadline
  // (15 ms) it fails, so the client hears kInternal instead of nothing and
  // the frontend's core and continuation are free again.
  EXPECT_EQ(status, RpcStatus::kInternal);
  EXPECT_EQ(machine.lauberhorn_runtime()->stats().nested_failed, 1u);
}

struct CrossTrafficRun {
  std::string metrics_json;
  uint64_t completed = 0;
};

// Four Lauberhorn machines; each drives a short burst of echo calls to
// pseudo-random peers, then every counter of the testbed is exported.
CrossTrafficRun RunCrossTraffic(uint64_t seed) {
  constexpr int kMachines = 4;
  Testbed testbed;
  std::vector<Machine*> machines;
  for (int m = 0; m < kMachines; ++m) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.num_cores = 4;
    config.seed = seed + static_cast<uint64_t>(m) * 977;
    machines.push_back(&testbed.AddMachine(config));
  }
  for (Machine* machine : machines) {
    const ServiceDef& echo = machine->AddService(
        ServiceRegistry::MakeEchoService(1, 7000, Microseconds(1)));
    machine->Start();
    machine->StartHotLoop(echo);
  }

  struct Caller {
    Rng rng{0};
    Machine* self = nullptr;
    std::vector<uint32_t> peer_ips;
    int remaining = 60;
    uint64_t* completed = nullptr;
    Callback tick;
  };
  CrossTrafficRun run;
  std::vector<std::unique_ptr<Caller>> callers;
  for (size_t m = 0; m < machines.size(); ++m) {
    auto caller = std::make_unique<Caller>();
    Caller* d = caller.get();
    d->rng = Rng(seed * 2654435761u + m);
    d->self = machines[m];
    d->completed = &run.completed;
    for (size_t peer = 0; peer < machines.size(); ++peer) {
      if (peer != m) {
        d->peer_ips.push_back(machines[peer]->config().server_ip);
      }
    }
    d->tick = [d] {
      if (d->remaining-- <= 0) {
        return;
      }
      const uint32_t dst =
          d->peer_ips[d->rng.UniformInt(0, d->peer_ips.size() - 1)];
      std::vector<uint8_t> payload;
      MarshalArgs(MethodSignature{{WireType::kBytes}},
                  std::vector<WireValue>{WireValue::Bytes({1, 2, 3})},
                  payload);
      d->self->client().CallRawTo(dst, 7000, 1, 0, std::move(payload),
                                  [d](const RpcMessage& r, Duration) {
                                    if (r.status == RpcStatus::kOk) {
                                      ++*d->completed;
                                    }
                                  });
      d->self->sim().Schedule(Nanoseconds(d->rng.UniformInt(500, 20000)),
                              [d] { d->tick(); });
    };
    d->self->sim().ScheduleAt(Milliseconds(1) + static_cast<Duration>(m),
                              [d] { d->tick(); });
    callers.push_back(std::move(caller));
  }
  testbed.sim().RunUntil(Milliseconds(10));

  MetricsRegistry metrics;
  testbed.ExportMetrics(metrics);
  run.metrics_json = metrics.ToJson();
  return run;
}

TEST(TestbedTest, SameSeedSameMetrics) {
  const CrossTrafficRun first = RunCrossTraffic(42);
  ASSERT_GT(first.completed, 200u)
      << "too little traffic for the comparison to mean anything";
  const CrossTrafficRun again = RunCrossTraffic(42);
  EXPECT_EQ(first.completed, again.completed);
  EXPECT_EQ(first.metrics_json, again.metrics_json);
  // Guards against a vacuous pass: the export must notice a different seed.
  EXPECT_NE(first.metrics_json, RunCrossTraffic(43).metrics_json);
}

}  // namespace
}  // namespace lauberhorn

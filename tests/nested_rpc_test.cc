// Tests for §6's continuation endpoints: server-side nested RPCs through the
// NIC hairpin — a frontend service whose handler calls a backend service and
// combines the reply, on both the hot and the cold dispatch path.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>

#include "src/core/machine.h"
#include "src/nic/shadow.h"

namespace lauberhorn {
namespace {

// frontend.compose(u64 x) -> calls backend.add1(x) -> returns (reply * 2).
ServiceDef MakeBackend() {
  ServiceDef def;
  def.service_id = 2;
  def.name = "backend";
  def.udp_port = 7100;
  MethodDef add1;
  add1.method_id = 0;
  add1.name = "add1";
  add1.request_sig.args = {WireType::kU64};
  add1.response_sig.args = {WireType::kU64};
  add1.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{WireValue::U64(args[0].scalar + 1)};
  };
  add1.SetFixedServiceTime(Microseconds(1));
  def.methods[0] = std::move(add1);
  return def;
}

ServiceDef MakeFrontend() {
  ServiceDef def;
  def.service_id = 1;
  def.name = "frontend";
  def.udp_port = 7000;
  MethodDef compose;
  compose.method_id = 0;
  compose.name = "compose";
  compose.request_sig.args = {WireType::kU64};
  compose.response_sig.args = {WireType::kU64};
  compose.SetFixedServiceTime(Microseconds(1));
  compose.nested_call = [](const std::vector<WireValue>& args) {
    MethodDef::NestedCall call;
    call.dst_port = 7100;
    call.method_id = 0;
    call.args = {WireValue::U64(args[0].scalar)};
    call.request_sig.args = {WireType::kU64};
    call.response_sig.args = {WireType::kU64};
    return call;
  };
  compose.nested_finish = [](const std::vector<WireValue>& /*original*/,
                             const std::vector<WireValue>& reply) {
    return std::vector<WireValue>{WireValue::U64(reply[0].scalar * 2)};
  };
  def.methods[0] = std::move(compose);
  return def;
}

struct NestedFixture {
  explicit NestedFixture(bool hot) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.num_cores = 4;
    machine = std::make_unique<Machine>(config);
    frontend = &machine->AddService(MakeFrontend());
    backend = &machine->AddService(MakeBackend());
    machine->Start();
    if (hot) {
      machine->StartHotLoop(*frontend);
      machine->StartHotLoop(*backend);
    } else {
      machine->StartHotLoop(*backend);  // backend hot; frontend cold-dispatched
    }
    machine->sim().RunUntil(Milliseconds(1));
  }

  uint64_t Compose(uint64_t x, Duration* rtt_out = nullptr) {
    uint64_t result = ~0ULL;
    machine->client().Call(*frontend, 0, std::vector<WireValue>{WireValue::U64(x)},
                           [&](const RpcMessage& r, Duration rtt) {
                             EXPECT_EQ(r.status, RpcStatus::kOk);
                             std::vector<WireValue> out;
                             EXPECT_TRUE(UnmarshalArgs(
                                 MethodSignature{{WireType::kU64}}, r.payload, out));
                             result = out[0].scalar;
                             if (rtt_out != nullptr) {
                               *rtt_out = rtt;
                             }
                           });
    machine->sim().RunUntil(machine->sim().Now() + Milliseconds(50));
    return result;
  }

  std::unique_ptr<Machine> machine;
  const ServiceDef* frontend = nullptr;
  const ServiceDef* backend = nullptr;
};

TEST(NestedRpcTest, HotPathComputesThroughBothServices) {
  NestedFixture fx(/*hot=*/true);
  // compose(20) = (20 + 1) * 2 = 42.
  EXPECT_EQ(fx.Compose(20), 42u);
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->nested_issued(), 1u);
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->nested_failed(), 0u);
}

TEST(NestedRpcTest, SequentialNestedCallsReuseContinuations) {
  NestedFixture fx(/*hot=*/true);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(fx.Compose(i), (i + 1) * 2);
  }
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->nested_issued(), 20u);
  // The pool (32 continuations) never exhausts because each is freed.
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->nested_failed(), 0u);
}

TEST(NestedRpcTest, ColdDispatchedFrontendAlsoNests) {
  NestedFixture fx(/*hot=*/false);
  EXPECT_EQ(fx.Compose(5), 12u);
  EXPECT_GE(fx.machine->lauberhorn_nic()->stats().cold_dispatches, 1u);
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->nested_issued(), 1u);
}

TEST(NestedRpcTest, NestedLatencyIsTwoHotTraversals) {
  NestedFixture fx(/*hot=*/true);
  Duration rtt = 0;
  fx.Compose(1, &rtt);
  // Roughly: wire RTT + two hot end-system traversals + 2us of handlers.
  // Well under any kernel-mediated chain; sanity bounds only.
  EXPECT_GT(rtt, Microseconds(5));
  EXPECT_LT(rtt, Microseconds(40));
}

TEST(NestedRpcTest, BackendBusyDelaysButCompletes) {
  NestedFixture fx(/*hot=*/true);
  // Saturate the backend with direct calls while nesting through it.
  for (int i = 0; i < 10; ++i) {
    fx.machine->client().Call(*fx.backend, 0,
                              std::vector<WireValue>{WireValue::U64(1)});
  }
  EXPECT_EQ(fx.Compose(10), 22u);
}

TEST(NestedRpcTest, FinishResultOffResponseSigIsInternal) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine machine(config);
  ServiceDef frontend_def = MakeFrontend();
  frontend_def.methods[0].nested_finish = [](const std::vector<WireValue>&,
                                             const std::vector<WireValue>&) {
    return std::vector<WireValue>{WireValue::Bytes({1})};  // response_sig is {kU64}
  };
  const ServiceDef& frontend = machine.AddService(std::move(frontend_def));
  const ServiceDef& backend = machine.AddService(MakeBackend());
  machine.Start();
  machine.StartHotLoop(frontend);
  machine.StartHotLoop(backend);
  machine.sim().RunUntil(Milliseconds(1));
  std::optional<RpcMessage> response;
  machine.client().Call(frontend, 0, std::vector<WireValue>{WireValue::U64(1)},
                        [&](const RpcMessage& r, Duration) { response = r; });
  machine.sim().RunUntil(Milliseconds(50));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, RpcStatus::kInternal);
  EXPECT_TRUE(response->payload.empty());
  EXPECT_EQ(machine.lauberhorn_runtime()->nested_issued(), 1u);
}

TEST(NestedRpcTest, ContinuationPoolExhaustionFailsGracefully) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine machine(config);
  const ServiceDef& frontend = machine.AddService(MakeFrontend());
  machine.AddService(MakeBackend());
  machine.Start();
  machine.StartHotLoop(frontend);
  machine.sim().RunUntil(Milliseconds(1));
  // Exhaust the pool directly.
  while (machine.lauberhorn_nic()->AllocateContinuation().has_value()) {
  }
  RpcStatus status = RpcStatus::kOk;
  machine.client().Call(frontend, 0, std::vector<WireValue>{WireValue::U64(1)},
                        [&](const RpcMessage& r, Duration) { status = r.status; });
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(status, RpcStatus::kInternal);
  EXPECT_EQ(machine.lauberhorn_runtime()->nested_failed(), 1u);
}

TEST(NestedRpcTest, NicCrashWithContinuationAllocatedRestoresIt) {
  // The NIC dies while the frontend's handler is parked on a continuation
  // waiting for a slow backend. The shadow must re-reserve that continuation
  // on the reborn NIC, and the request must still run each handler once.
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(200);
  config.client_max_retransmits = 8;
  config.client_backoff_multiplier = 2.0;
  config.client_max_retransmit_timeout = Milliseconds(2);
  config.faults.nic_crash.first_crash_at = Microseconds(1030);
  config.faults.nic_crash.reset_latency = Microseconds(50);
  Machine machine(config);

  std::unordered_map<uint64_t, int> frontend_runs;
  std::unordered_map<uint64_t, int> backend_runs;
  ServiceDef frontend_def = MakeFrontend();
  MethodDef& compose = frontend_def.methods[0];
  compose.nested_call = [&frontend_runs, call = std::move(compose.nested_call)](
                            const std::vector<WireValue>& args) {
    ++frontend_runs[args[0].scalar];
    return call(args);
  };
  ServiceDef backend_def = MakeBackend();
  MethodDef& add1 = backend_def.methods[0];
  add1.handler = [&backend_runs, handler = std::move(add1.handler)](
                     const std::vector<WireValue>& args) {
    ++backend_runs[args[0].scalar];
    return handler(args);
  };
  add1.SetFixedServiceTime(Microseconds(200));  // still running at the crash
  const ServiceDef& frontend = machine.AddService(std::move(frontend_def));
  const ServiceDef& backend = machine.AddService(std::move(backend_def));
  machine.Start();
  machine.StartHotLoop(frontend);
  machine.StartHotLoop(backend);
  machine.sim().RunUntil(Milliseconds(1));

  std::optional<RpcMessage> reply;
  machine.client().Call(frontend, 0, std::vector<WireValue>{WireValue::U64(20)},
                        [&](const RpcMessage& r, Duration) { reply = r; });
  NicRecoveryManager* recovery = machine.nic_recovery();
  ASSERT_NE(recovery, nullptr);
  while (recovery->stats().recoveries == 0 &&
         machine.sim().Now() < Milliseconds(5)) {
    machine.sim().RunUntil(machine.sim().Now() + Microseconds(1));
  }
  ASSERT_EQ(recovery->stats().recoveries, 1u);
  EXPECT_EQ(recovery->stats().replayed_continuations, 1u);
  ASSERT_EQ(machine.nic_shadow()->continuation_count(), 1u);

  // The reborn NIC must not hand out the continuation the handler holds:
  // draining the pool yields every other id exactly once.
  LauberhornNic& nic = *machine.lauberhorn_nic();
  std::set<uint32_t> handed_out;
  while (const auto id = nic.AllocateContinuation()) {
    EXPECT_TRUE(handed_out.insert(*id).second) << "continuation " << *id;
  }
  EXPECT_EQ(handed_out.size(), LauberhornNic::Config{}.num_continuations - 1);
  for (const uint32_t id : handed_out) {
    nic.FreeContinuation(id);
  }

  machine.sim().RunUntil(Milliseconds(40));
  // The nested call completes, or fails explicitly, and either way the
  // continuation goes back to the pool. A failure cannot reach the client:
  // the reset also wiped the frontend's delivered request, whose id stays
  // pinned in the dedup table, so the client times out.
  ASSERT_TRUE(reply.has_value());
  if (reply->status == RpcStatus::kOk) {
    std::vector<WireValue> out;
    ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kU64}}, reply->payload, out));
    EXPECT_EQ(out[0].scalar, 42u);
    EXPECT_EQ(machine.lauberhorn_runtime()->nested_failed(), 0u);
  } else {
    EXPECT_EQ(reply->status, kTimedOut);
    EXPECT_EQ(machine.lauberhorn_runtime()->nested_failed(), 1u);
  }
  EXPECT_EQ(machine.nic_shadow()->continuation_count(), 0u);
  // No handler ran twice.
  EXPECT_EQ(frontend_runs[20], 1);
  EXPECT_LE(backend_runs[20], 1);
}

}  // namespace
}  // namespace lauberhorn

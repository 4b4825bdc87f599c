// Tests for §6's continuation endpoints: server-side nested RPCs through the
// NIC hairpin — a frontend service whose handler calls a backend service and
// combines the reply, on both the hot and the cold dispatch path.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>

#include "src/core/machine.h"

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
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->stats().nested_issued, 1u);
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->stats().nested_failed, 0u);
}

TEST(NestedRpcTest, SequentialNestedCallsReuseContinuations) {
  NestedFixture fx(/*hot=*/true);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(fx.Compose(i), (i + 1) * 2);
  }
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->stats().nested_issued, 20u);
  // The pool (32 continuations) never exhausts because each is freed.
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->stats().nested_failed, 0u);
}

TEST(NestedRpcTest, ColdDispatchedFrontendAlsoNests) {
  NestedFixture fx(/*hot=*/false);
  EXPECT_EQ(fx.Compose(5), 12u);
  EXPECT_GE(fx.machine->lauberhorn_nic()->stats().cold_dispatches, 1u);
  EXPECT_EQ(fx.machine->lauberhorn_runtime()->stats().nested_issued, 1u);
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
  EXPECT_EQ(machine.lauberhorn_runtime()->stats().nested_issued, 1u);
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
  EXPECT_EQ(machine.lauberhorn_runtime()->stats().nested_failed, 1u);
}

// The NIC dies at 1.03 ms while the frontend's handler is parked on a
// continuation waiting for a slow backend; the client's request is in
// flight from 1 ms. Handler runs are counted per argument.
struct NicCrashFixture {
  NicCrashFixture() {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.num_cores = 4;
    config.client_retransmit_timeout = Microseconds(200);
    config.client_max_retransmits = 8;
    config.client_backoff_multiplier = 2.0;
    config.client_max_retransmit_timeout = Milliseconds(2);
    config.faults.nic_crash.first_crash_at = Microseconds(1030);
    config.faults.nic_crash.reset_latency = Microseconds(50);
    machine = std::make_unique<Machine>(config);

    ServiceDef frontend_def = MakeFrontend();
    MethodDef& compose = frontend_def.methods[0];
    compose.nested_call = [this, call = std::move(compose.nested_call)](
                              const std::vector<WireValue>& args) {
      ++frontend_runs[args[0].scalar];
      return call(args);
    };
    ServiceDef backend_def = MakeBackend();
    MethodDef& add1 = backend_def.methods[0];
    add1.handler = [this, handler = std::move(add1.handler)](
                       const std::vector<WireValue>& args) {
      ++backend_runs[args[0].scalar];
      return handler(args);
    };
    add1.SetFixedServiceTime(Microseconds(200));  // still running at the crash
    const ServiceDef& frontend = machine->AddService(std::move(frontend_def));
    const ServiceDef& backend = machine->AddService(std::move(backend_def));
    machine->Start();
    machine->StartHotLoop(frontend);
    machine->StartHotLoop(backend);
    machine->sim().RunUntil(Milliseconds(1));
    machine->client().Call(frontend, 0, std::vector<WireValue>{WireValue::U64(20)},
                           [this](const RpcMessage& r, Duration) { reply = r; });
  }

  // Steps the simulation until `done` holds, for at most 5 ms of simulated
  // time.
  template <typename Pred>
  void RunUntil(Pred done) {
    while (!done() && machine->sim().Now() < Milliseconds(5)) {
      machine->sim().RunUntil(machine->sim().Now() + Microseconds(1));
    }
  }

  // The machine's handlers write these, so it is declared after them and
  // destroyed first.
  std::unordered_map<uint64_t, int> frontend_runs;
  std::unordered_map<uint64_t, int> backend_runs;
  std::optional<RpcMessage> reply;
  std::unique_ptr<Machine> machine;
};

// Takes every continuation the pool hands out, in allocation order.
std::vector<uint32_t> DrainContinuations(LauberhornNic& nic) {
  std::vector<uint32_t> ids;
  while (const auto id = nic.AllocateContinuation()) {
    ids.push_back(*id);
  }
  return ids;
}

TEST(NestedRpcTest, NicCrashWithContinuationAllocatedRestoresIt) {
  // The reborn NIC must keep the parked handler's continuation reserved,
  // and the request must still run each handler once.
  NicCrashFixture fx;
  Machine& machine = *fx.machine;
  NicRecoveryManager* recovery = machine.nic_recovery();
  ASSERT_NE(recovery, nullptr);
  fx.RunUntil([&] { return recovery->stats().recoveries > 0; });
  ASSERT_EQ(recovery->stats().recoveries, 1u);
  EXPECT_EQ(recovery->stats().replayed_continuations, 1u);
  LauberhornNic& nic = *machine.lauberhorn_nic();
  ASSERT_EQ(nic.CountControlState().continuations, 1u);

  // The reborn NIC must not hand out the continuation the handler holds:
  // draining the pool yields every other id exactly once.
  std::set<uint32_t> handed_out;
  for (const uint32_t id : DrainContinuations(nic)) {
    EXPECT_TRUE(handed_out.insert(id).second) << "continuation " << id;
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
  ASSERT_TRUE(fx.reply.has_value());
  if (fx.reply->status == RpcStatus::kOk) {
    std::vector<WireValue> out;
    ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kU64}}, fx.reply->payload, out));
    EXPECT_EQ(out[0].scalar, 42u);
    EXPECT_EQ(machine.lauberhorn_runtime()->stats().nested_failed, 0u);
  } else {
    EXPECT_EQ(fx.reply->status, kTimedOut);
    EXPECT_EQ(machine.lauberhorn_runtime()->stats().nested_failed, 1u);
  }
  const std::vector<uint32_t> drained = DrainContinuations(nic);
  EXPECT_EQ(std::set<uint32_t>(drained.begin(), drained.end()).size(),
            drained.size());
  EXPECT_EQ(drained.size(), nic.config().num_continuations);
  // No handler ran twice.
  EXPECT_EQ(fx.frontend_runs[20], 1);
  EXPECT_LE(fx.backend_runs[20], 1);
}

TEST(NestedRpcTest, ContinuationAllocatedDuringBlackoutAvoidsHeldOne) {
  // Between the crash and the reset the host may still take a continuation.
  // It must not get the one the parked handler holds, and once both are
  // back the pool holds every id exactly once.
  NicCrashFixture fx;
  Machine& machine = *fx.machine;
  LauberhornNic& nic = *machine.lauberhorn_nic();
  const size_t pool = nic.config().num_continuations;

  // Find the held continuation: the one id of the pool's range it does not
  // hand out. Continuations follow the kernel channels and service
  // endpoints. Returning the others in reverse leaves the pool as it was.
  machine.sim().RunUntil(Microseconds(1020));
  const std::vector<uint32_t> free_before = DrainContinuations(nic);
  ASSERT_EQ(free_before.size(), pool - 1);
  const auto first = static_cast<uint32_t>(nic.config().num_kernel_channels +
                                           nic.config().num_endpoints);
  const std::set<uint32_t> free_ids(free_before.begin(), free_before.end());
  uint32_t held = first;
  while (free_ids.count(held) != 0) {
    ++held;
  }
  ASSERT_LT(held, first + pool);
  for (auto it = free_before.rbegin(); it != free_before.rend(); ++it) {
    nic.FreeContinuation(*it);
  }

  NicRecoveryManager* recovery = machine.nic_recovery();
  ASSERT_NE(recovery, nullptr);
  fx.RunUntil([&] { return !nic.device_up(); });
  ASSERT_FALSE(nic.device_up());
  ASSERT_EQ(recovery->stats().recoveries, 0u);
  const std::optional<uint32_t> taken = nic.AllocateContinuation();
  ASSERT_TRUE(taken.has_value());
  EXPECT_NE(*taken, held);

  fx.RunUntil([&] { return recovery->stats().recoveries > 0; });
  ASSERT_EQ(recovery->stats().recoveries, 1u);
  nic.FreeContinuation(*taken);
  // The nested call completes or fails; either way it frees its
  // continuation before the client hears back.
  machine.sim().RunUntil(Milliseconds(40));
  ASSERT_TRUE(fx.reply.has_value());
  const std::vector<uint32_t> drained = DrainContinuations(nic);
  EXPECT_EQ(drained.size(), pool);
  EXPECT_EQ(std::set<uint32_t>(drained.begin(), drained.end()).size(), pool);
}

}  // namespace
}  // namespace lauberhorn

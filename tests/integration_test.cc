// End-to-end integration tests: a client calls an echo service through each
// stack (Linux, kernel-bypass, Lauberhorn hot/cold) on a full simulated
// machine, exercising wire -> NIC -> dispatch -> handler -> response -> wire.
#include <gtest/gtest.h>

#include "src/core/machine.h"

namespace lauberhorn {
namespace {

std::vector<WireValue> EchoArgs(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  return {WireValue::Bytes(std::move(data))};
}

MachineConfig BaseConfig(StackKind stack) {
  MachineConfig config;
  config.stack = stack;
  config.num_cores = 4;
  config.nic_queues = 2;
  return config;
}

TEST(IntegrationTest, LinuxStackEchoCompletes) {
  Machine machine(BaseConfig(StackKind::kLinux));
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));  // let setup MMIO settle

  int done = 0;
  const auto args = EchoArgs(64);
  for (int i = 0; i < 20; ++i) {
    machine.client().Call(echo, 0, args, [&](const RpcMessage& r, Duration rtt) {
      EXPECT_EQ(r.status, RpcStatus::kOk);
      EXPECT_GT(rtt, 0);
      ++done;
    });
  }
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(done, 20);
  EXPECT_EQ(machine.client().completed(), 20u);
  EXPECT_EQ(machine.server_rpcs(), 20u);
  // Linux path costs tens of microseconds of end-system latency.
  EXPECT_GT(machine.end_system_latency().P50(), Microseconds(5));
}

TEST(IntegrationTest, LinuxEchoPayloadIntact) {
  Machine machine(BaseConfig(StackKind::kLinux));
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<uint8_t> got;
  machine.client().Call(echo, 0, EchoArgs(200), [&](const RpcMessage& r, Duration) {
    std::vector<WireValue> out;
    ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kBytes}}, r.payload, out));
    got = out[0].bytes;
  });
  machine.sim().RunUntil(Milliseconds(100));
  ASSERT_EQ(got.size(), 200u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[199], static_cast<uint8_t>(199 * 7 + 1));
}

TEST(IntegrationTest, BypassStackEchoCompletes) {
  Machine machine(BaseConfig(StackKind::kBypass));
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));

  int done = 0;
  const auto args = EchoArgs(64);
  for (int i = 0; i < 20; ++i) {
    machine.client().Call(echo, 0, args,
                          [&](const RpcMessage& r, Duration) {
                            EXPECT_EQ(r.status, RpcStatus::kOk);
                            ++done;
                          });
  }
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(done, 20);
  // Spin cores burn cycles even while idle.
  Duration spin = 0;
  for (size_t i = 0; i < machine.kernel().num_cores(); ++i) {
    spin += machine.kernel().core(i).TimeIn(CoreMode::kSpin);
  }
  EXPECT_GT(spin, 0);
}

TEST(IntegrationTest, LauberhornHotPathEchoCompletes) {
  Machine machine(BaseConfig(StackKind::kLauberhorn));
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));  // loop parks on the control line

  int done = 0;
  const auto args = EchoArgs(64);
  for (int i = 0; i < 20; ++i) {
    // Spaced out so queueing does not pollute the unloaded latency.
    machine.sim().Schedule(Microseconds(50) * i, [&, args]() {
      machine.client().Call(echo, 0, args,
                            [&](const RpcMessage& r, Duration) {
                              EXPECT_EQ(r.status, RpcStatus::kOk);
                              ++done;
                            });
    });
  }
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(done, 20);
  EXPECT_GT(machine.lauberhorn_nic()->stats().hot_dispatches, 0u);
  EXPECT_EQ(machine.lauberhorn_nic()->stats().drops_bad_frame, 0u);
  // Hot-path end-system latency is a few microseconds at most.
  EXPECT_LT(machine.end_system_latency().P50(), Microseconds(8));
}

TEST(IntegrationTest, LauberhornEchoPayloadIntact) {
  Machine machine(BaseConfig(StackKind::kLauberhorn));
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<uint8_t> got;
  machine.client().Call(echo, 0, EchoArgs(300), [&](const RpcMessage& r, Duration) {
    std::vector<WireValue> out;
    ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kBytes}}, r.payload, out));
    got = out[0].bytes;
  });
  machine.sim().RunUntil(Milliseconds(50));
  ASSERT_EQ(got.size(), 300u);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<uint8_t>(i * 7 + 1)) << "byte " << i;
  }
}

TEST(IntegrationTest, LauberhornColdPathSchedulesProcess) {
  Machine machine(BaseConfig(StackKind::kLauberhorn));
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  // No hot loop: the first request must go through the kernel channel.
  machine.sim().RunUntil(Milliseconds(1));

  int done = 0;
  machine.client().Call(echo, 0, EchoArgs(32),
                        [&](const RpcMessage& r, Duration) {
                          EXPECT_EQ(r.status, RpcStatus::kOk);
                          ++done;
                        });
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(done, 1);
  EXPECT_GE(machine.lauberhorn_nic()->stats().cold_dispatches, 1u);
  EXPECT_EQ(machine.lauberhorn_runtime()->rpcs_cold(), 1u);

  // A burst makes the endpoint hot (queued work promotes it to a user-mode
  // loop, Fig. 5 (1)); subsequent requests then dispatch without the kernel.
  for (int i = 0; i < 8; ++i) {
    machine.client().Call(echo, 0, EchoArgs(32),
                          [&](const RpcMessage&, Duration) { ++done; });
  }
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(done, 9);
  EXPECT_GE(machine.lauberhorn_nic()->stats().hot_dispatches, 1u);
  EXPECT_GT(machine.lauberhorn_runtime()->loops_started(), 0u);
}

TEST(IntegrationTest, LauberhornFasterThanBypassFasterThanLinux) {
  // The paper's headline (§4): better than kernel bypass for stable RPC
  // workloads, far better than the kernel stack.
  auto run = [](StackKind stack) {
    Machine machine(BaseConfig(stack));
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    if (stack == StackKind::kLauberhorn) {
      machine.StartHotLoop(echo);
    }
    machine.sim().RunUntil(Milliseconds(1));
    const auto args = EchoArgs(64);
    int done = 0;
    // Closed loop so queueing does not pollute the comparison.
    std::function<void()> next = [&]() {
      machine.client().Call(echo, 0, args, [&](const RpcMessage&, Duration) {
        if (++done < 50) {
          next();
        }
      });
    };
    next();
    machine.sim().RunUntil(Seconds(2));
    EXPECT_EQ(done, 50) << ToString(stack);
    return machine.end_system_latency().P50();
  };
  const Duration lauberhorn = run(StackKind::kLauberhorn);
  const Duration bypass = run(StackKind::kBypass);
  const Duration linux_stack = run(StackKind::kLinux);
  EXPECT_LT(lauberhorn, bypass);
  EXPECT_LT(bypass, linux_stack);
}

TEST(IntegrationTest, PacketLossDoesNotWedgeLauberhorn) {
  MachineConfig config = BaseConfig(StackKind::kLauberhorn);
  config.platform.wire.loss_probability = 0.2;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  int done = 0;
  const auto args = EchoArgs(64);
  for (int i = 0; i < 100; ++i) {
    machine.sim().Schedule(Microseconds(i * 10), [&]() {
      machine.client().Call(echo, 0, args,
                            [&](const RpcMessage&, Duration) { ++done; });
    });
  }
  machine.sim().RunUntil(Milliseconds(100));
  // ~20% request loss and ~20% response loss: roughly 64% should complete.
  EXPECT_GT(done, 30);
  EXPECT_LT(done, 100);
  EXPECT_EQ(machine.interconnect().stats().bus_errors, 0u);
}

TEST(IntegrationTest, CorruptedFramesAreDroppedByChecksum) {
  MachineConfig config = BaseConfig(StackKind::kLauberhorn);
  config.faults.net.corrupt_probability = 1.0;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  int done = 0;
  machine.client().Call(echo, 0, EchoArgs(64),
                        [&](const RpcMessage&, Duration) { ++done; });
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(done, 0);
  EXPECT_GE(machine.lauberhorn_nic()->stats().drops_bad_frame, 1u);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  auto run = []() {
    Machine machine(BaseConfig(StackKind::kLauberhorn));
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    std::vector<uint8_t> data(64, 3);
    for (int i = 0; i < 10; ++i) {
      machine.client().Call(echo, 0,
                            std::vector<WireValue>{WireValue::Bytes(data)});
    }
    machine.sim().RunUntil(Milliseconds(50));
    return std::make_tuple(machine.sim().events_executed(),
                           machine.end_system_latency().P50(),
                           machine.client().rtt().Mean());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace lauberhorn

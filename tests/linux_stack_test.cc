// Behavioural tests of the Linux-baseline stack: NAPI batching under bursts,
// socket-buffer overload, multi-worker scaling, IRQ steering across queues,
// and interrupt-moderation interaction.
#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/workload/generator.h"

namespace lauberhorn {
namespace {

MachineConfig LinuxConfig(int cores = 4, uint32_t queues = 2, int workers = 1) {
  MachineConfig config;
  config.stack = StackKind::kLinux;
  config.num_cores = cores;
  config.nic_queues = queues;
  config.linux_stack.worker_threads_per_service = workers;
  return config;
}

TEST(LinuxStackTest, BurstIsBatchedByNapi) {
  Machine machine(LinuxConfig());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));

  // 30 simultaneous packets: far fewer IRQs than packets thanks to NAPI
  // (the first interrupt's poll drains the whole ring).
  const uint64_t irqs_before = machine.kernel().scheduler().context_switches();
  (void)irqs_before;
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                          [&](const RpcMessage&, Duration) { ++done; });
  }
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(done, 30);
  EXPECT_EQ(machine.linux_stack()->server().rpcs_completed(), 30u);
}

TEST(LinuxStackTest, MoreWorkersIncreaseServiceThroughput) {
  auto run = [](int workers) {
    Machine machine(LinuxConfig(4, 2, workers));
    const ServiceDef& slow = machine.AddService(
        ServiceRegistry::MakeEchoService(1, 7000, Microseconds(50)));
    machine.Start();
    machine.sim().RunUntil(Milliseconds(1));
    std::vector<WorkloadTarget> targets = {{&slow, 0, 64, 1.0}};
    OpenLoopGenerator::Config config;
    config.rate_rps = 30000.0;  // 1.5 cores of handler work
    config.stop = machine.sim().Now() + Milliseconds(100);
    OpenLoopGenerator generator(machine.sim(), machine.client(), targets, config);
    generator.Start();
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(150));
    return generator.rtt().P99();
  };
  const Duration one_worker = run(1);
  const Duration three_workers = run(3);
  // A single worker saturates (0.05ms x 30krps = 1.5 cores of demand);
  // three workers spread it across cores.
  EXPECT_GT(one_worker, three_workers * 5);
}

TEST(LinuxStackTest, SocketOverflowDropsAreBounded) {
  Machine machine(LinuxConfig());
  const ServiceDef& slow = machine.AddService(
      ServiceRegistry::MakeEchoService(1, 7000, Milliseconds(2)));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));

  // Hammer a 2ms-per-request service at 5 krps for 300 ms: far beyond its
  // 500 rps capacity. The socket buffer (1024) absorbs some; the rest drop,
  // but the stack must not wedge.
  std::vector<WorkloadTarget> targets = {{&slow, 0, 64, 1.0}};
  OpenLoopGenerator::Config config;
  config.rate_rps = 5000.0;
  config.stop = machine.sim().Now() + Milliseconds(300);
  OpenLoopGenerator generator(machine.sim(), machine.client(), targets, config);
  generator.Start();
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(400));
  EXPECT_GT(generator.completed(), 100u);
  EXPECT_LT(generator.completed(), generator.sent());
  // Keeps serving after the storm.
  int after = 0;
  machine.client().Call(slow, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                        [&](const RpcMessage&, Duration) { ++after; });
  machine.sim().RunUntil(machine.sim().Now() + Seconds(5));
  EXPECT_EQ(after, 1);
}

TEST(LinuxStackTest, FlowsSpreadAcrossIrqCores) {
  // With 4 queues and flow-RSS, the softirq load lands on several cores.
  Machine machine(LinuxConfig(4, 4, 2));
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<WorkloadTarget> targets = {{&echo, 0, 64, 1.0}};
  OpenLoopGenerator::Config config;
  config.rate_rps = 40000.0;
  config.stop = machine.sim().Now() + Milliseconds(100);
  OpenLoopGenerator generator(machine.sim(), machine.client(), targets, config);
  generator.Start();
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(150));
  EXPECT_EQ(generator.completed(), generator.sent());

  int cores_with_kernel_time = 0;
  for (size_t i = 0; i < machine.kernel().num_cores(); ++i) {
    if (machine.kernel().core(i).TimeIn(CoreMode::kKernel) > Microseconds(100)) {
      ++cores_with_kernel_time;
    }
  }
  EXPECT_GE(cores_with_kernel_time, 3) << "softirq work should spread over queues";
}

TEST(LinuxStackTest, InterruptModerationStillCompletesAll) {
  MachineConfig config = LinuxConfig();
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));
  // Paced trickle, one packet every 500us: every packet needs its own IRQ.
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    machine.sim().Schedule(Microseconds(500) * i, [&machine, &echo, &done]() {
      machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({2})},
                            [&done](const RpcMessage&, Duration) { ++done; });
    });
  }
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(50));
  EXPECT_EQ(done, 20);
}

TEST(LinuxStackTest, UnknownPortCountsBadRequest) {
  Machine machine(LinuxConfig());
  machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));
  machine.client().CallRaw(9999, 1, 0, {});  // nobody listens on 9999
  machine.sim().RunUntil(Milliseconds(20));
  EXPECT_EQ(machine.linux_stack()->server().bad_requests(), 1u);
  EXPECT_EQ(machine.client().completed(), 0u);
}

}  // namespace
}  // namespace lauberhorn

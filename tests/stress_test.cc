// Stress and long-run robustness tests: scheduler work storms, long idle
// periods (TRYAGAIN cycles, spin backoff), determinism across stacks, and
// sustained mixed load.
#include <gtest/gtest.h>

#include <string>

#include "src/core/machine.h"
#include "src/sim/random.h"
#include "src/workload/generator.h"

namespace lauberhorn {
namespace {

TEST(SchedulerStressTest, RandomWorkStormAllItemsComplete) {
  Simulator sim;
  CoherenceConfig coherence;
  CoherentInterconnect interconnect(sim, coherence);
  Kernel::Config config;
  config.num_cores = 4;
  Kernel kernel(sim, interconnect, config);
  kernel.scheduler().StartTimer();

  Rng rng(31337);
  constexpr int kThreads = 12;
  constexpr int kItems = 500;
  std::vector<Thread*> threads;
  Process* process_a = kernel.CreateProcess("a");
  Process* process_b = kernel.CreateProcess("b");
  for (int i = 0; i < kThreads; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    threads.push_back(kernel.AddThread(i % 2 == 0 ? process_a : process_b, name,
                                       /*kernel_priority=*/i % 5 == 0));
  }

  int completed = 0;
  Duration total_work = 0;
  for (int i = 0; i < kItems; ++i) {
    Thread* thread = threads[rng.UniformInt(0, kThreads - 1)];
    const Duration work =
        static_cast<Duration>(rng.UniformInt(100, 200000)) * kNanosecond / 100;
    total_work += work;
    const Duration at = static_cast<Duration>(rng.UniformInt(0, 5000)) * kMicrosecond;
    sim.Schedule(at, [&kernel, thread, work, &completed]() {
      thread->PushWork([&kernel, work, &completed](Core& core) {
        core.Run(work, CoreMode::kUser, [&kernel, &core, &completed]() {
          ++completed;
          kernel.scheduler().OnWorkDone(core);
        });
      });
      kernel.scheduler().Wake(thread);
    });
  }
  sim.RunUntil(Seconds(30));
  EXPECT_EQ(completed, kItems) << "work items lost under storm";
  // All modelled user work actually executed (accounting conservation).
  Duration user_time = 0;
  for (size_t i = 0; i < kernel.num_cores(); ++i) {
    user_time += kernel.core(i).TimeIn(CoreMode::kUser);
  }
  EXPECT_EQ(user_time, total_work);
}

TEST(StressTest, BypassIdleBackoffBoundsEventRate) {
  MachineConfig config;
  config.stack = StackKind::kBypass;
  config.num_cores = 4;
  config.nic_queues = 4;
  Machine machine(config);
  machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));
  const uint64_t before = machine.sim().events_executed();
  machine.sim().RunUntil(machine.sim().Now() + Seconds(1));
  const uint64_t events = machine.sim().events_executed() - before;
  // 4 idle spin cores for 1 s at the 500ns backoff = ~8M events ceiling;
  // without backoff (25 ns) it would be 160M.
  EXPECT_LT(events, 10'000'000u);
  // The cores still burn 100% (the energy story is unchanged by backoff).
  Duration spin = 0;
  for (size_t i = 0; i < machine.kernel().num_cores(); ++i) {
    spin += machine.kernel().core(i).TimeIn(CoreMode::kSpin);
  }
  EXPECT_GT(spin, MicrosecondsF(3.9e6));  // ~4 core-seconds
}

TEST(StressTest, LauberhornLongIdleIsCheapAndStable) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  machine.kernel().ResetAccounting();

  machine.sim().RunUntil(machine.sim().Now() + Seconds(10));
  // 10 s idle at one TRYAGAIN per 15 ms: ~666 cycles.
  const uint64_t tryagains = machine.lauberhorn_nic()->stats().tryagains;
  EXPECT_NEAR(static_cast<double>(tryagains), 666.0, 10.0);
  EXPECT_EQ(machine.interconnect().stats().bus_errors, 0u);
  EXPECT_LT(machine.TotalBusyTime(), Milliseconds(1));

  // And the endpoint still works afterwards.
  int done = 0;
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                        [&](const RpcMessage&, Duration) { ++done; });
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(20));
  EXPECT_EQ(done, 1);
}

TEST(StressTest, SustainedMixedLoadAllStacksConserveRequests) {
  for (StackKind stack :
       {StackKind::kLinux, StackKind::kBypass, StackKind::kLauberhorn}) {
    MachineConfig config;
    config.stack = stack;
    config.num_cores = 4;
    config.nic_queues = 4;
    config.lauberhorn_endpoints = 16;
    Machine machine(config);
    std::vector<WorkloadTarget> targets;
    for (int i = 0; i < 4; ++i) {
      const ServiceDef& service = machine.AddService(ServiceRegistry::MakeEchoService(
          static_cast<uint32_t>(i + 1), static_cast<uint16_t>(7000 + i),
          Microseconds(3)));
      targets.push_back({&service, 0, 200, 1.0});
    }
    machine.Start();
    machine.sim().RunUntil(Milliseconds(1));

    OpenLoopGenerator::Config generator_config;
    generator_config.rate_rps = 60000.0;
    generator_config.zipf_skew = 0.8;
    generator_config.stop = machine.sim().Now() + Milliseconds(300);
    OpenLoopGenerator generator(machine.sim(), machine.client(), targets,
                                generator_config);
    generator.Start();
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(400));
    EXPECT_EQ(generator.completed(), generator.sent()) << ToString(stack);
    EXPECT_EQ(machine.client().outstanding(), 0u) << ToString(stack);
  }
}

TEST(StressTest, LinuxStackDeterministicAcrossRuns) {
  auto run = []() {
    MachineConfig config;
    config.stack = StackKind::kLinux;
    config.num_cores = 4;
    config.nic_queues = 2;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.sim().RunUntil(Milliseconds(1));
    std::vector<WorkloadTarget> targets = {{&echo, 0, 64, 1.0}};
    OpenLoopGenerator::Config generator_config;
    generator_config.rate_rps = 30000.0;
    generator_config.stop = machine.sim().Now() + Milliseconds(50);
    OpenLoopGenerator generator(machine.sim(), machine.client(), targets,
                                generator_config);
    generator.Start();
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(100));
    return std::make_tuple(machine.sim().events_executed(), generator.completed(),
                           machine.end_system_latency().Mean(),
                           machine.TotalBusyTime());
  };
  EXPECT_EQ(run(), run());
}

TEST(StressTest, RepeatedRetireAndRestartCycles) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  const uint32_t ep = machine.EndpointsOf(echo)[0];

  int done = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    machine.lauberhorn_runtime()->Deschedule(ep);
    machine.sim().RunUntil(machine.sim().Now() + Microseconds(200));
    machine.lauberhorn_runtime()->StartUserLoop(ep);
    machine.sim().RunUntil(machine.sim().Now() + Microseconds(200));
    machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({7})},
                          [&](const RpcMessage& r, Duration) {
                            EXPECT_EQ(r.status, RpcStatus::kOk);
                            ++done;
                          });
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(1));
  }
  EXPECT_EQ(done, 20);
  EXPECT_EQ(machine.lauberhorn_nic()->stats().retires, 20u);
  EXPECT_EQ(machine.interconnect().stats().bus_errors, 0u);
}

}  // namespace
}  // namespace lauberhorn

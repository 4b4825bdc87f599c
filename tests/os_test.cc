// Tests for cores (execution, IRQs, blocking loads, accounting), the
// scheduler (dispatch, affinity, priorities, preemption), and the kernel.
#include <gtest/gtest.h>

#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/os/kernel.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace lauberhorn {
namespace {

constexpr LineAddr kDevBase = 0x4000'0000;  // above the 1 GiB memory home

class StubDevice : public HomeAgent {
 public:
  void OnHomeRead(AgentId requester, LineAddr addr, bool exclusive, FillFn fill) override {
    reads.push_back({requester, addr, exclusive, std::move(fill)});
  }
  void OnHomeWriteBack(AgentId, LineAddr, const LineData&) override {}
  void OnHomeUncachedWrite(AgentId, LineAddr, size_t, std::span<const uint8_t>) override {}

  struct Read {
    AgentId requester;
    LineAddr addr;
    bool exclusive;
    FillFn fill;
  };
  std::vector<Read> reads;
};

class OsTest : public ::testing::Test {
 protected:
  OsTest()
      : interconnect_(sim_, CoherenceConfig{}),
        memory_(sim_, interconnect_, 0, 1 << 30),
        kernel_(sim_, interconnect_, MakeConfig()) {
    interconnect_.RegisterHomeAgent(&device_, kDevBase, 0x10000, /*is_device=*/true);
  }

  static Kernel::Config MakeConfig() {
    Kernel::Config config;
    config.num_cores = 4;
    return config;
  }

  Simulator sim_;
  CoherentInterconnect interconnect_;
  MemoryHomeAgent memory_;
  StubDevice device_;
  Kernel kernel_;
};

TEST_F(OsTest, CoreRunAccountsTime) {
  Core& core = kernel_.core(0);
  bool done = false;
  core.Run(Microseconds(10), CoreMode::kUser, [&] { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(core.TimeIn(CoreMode::kUser), Microseconds(10));
  EXPECT_EQ(core.BusyTime(), Microseconds(10));
}

TEST_F(OsTest, CoreModesAccountedSeparately) {
  Core& core = kernel_.core(0);
  core.Run(Microseconds(2), CoreMode::kKernel, [&] {
    core.Run(Microseconds(3), CoreMode::kSpin, [&] {
      core.Run(Microseconds(5), CoreMode::kUser, [] {});
    });
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(core.TimeIn(CoreMode::kKernel), Microseconds(2));
  EXPECT_EQ(core.TimeIn(CoreMode::kSpin), Microseconds(3));
  EXPECT_EQ(core.TimeIn(CoreMode::kUser), Microseconds(5));
  EXPECT_EQ(core.BusyCycles(), ToCycles(Microseconds(10), 2.0));
}

TEST_F(OsTest, IdleTimeAccrues) {
  Core& core = kernel_.core(1);
  sim_.RunUntil(Microseconds(100));
  EXPECT_EQ(core.TimeIn(CoreMode::kIdle), Microseconds(100));
  EXPECT_EQ(core.BusyTime(), 0);
}

TEST_F(OsTest, IrqPreemptsRunningWorkAndResumes) {
  Core& core = kernel_.core(0);
  SimTime work_done_at = 0;
  SimTime irq_done_at = 0;
  core.Run(Microseconds(10), CoreMode::kUser, [&] { work_done_at = sim_.Now(); });
  sim_.RunUntil(Microseconds(2));
  core.RaiseIrq([&] { irq_done_at = sim_.Now(); }, Nanoseconds(300));
  sim_.RunUntilIdle();
  // IRQ runs first (600ns entry + 300ns body), then work resumes.
  EXPECT_EQ(irq_done_at, Microseconds(2) + Nanoseconds(900));
  EXPECT_EQ(work_done_at, Microseconds(10) + Nanoseconds(900));
  EXPECT_EQ(core.TimeIn(CoreMode::kUser), Microseconds(10));
}

TEST_F(OsTest, IrqOnIdleCorePaysIdleExit) {
  Core& core = kernel_.core(0);
  SimTime at = 0;
  core.RaiseIrq([&] { at = sim_.Now(); }, Nanoseconds(300));
  sim_.RunUntilIdle();
  // idle_exit (200) + irq_entry (600) + body (300).
  EXPECT_EQ(at, Nanoseconds(1100));
}

TEST_F(OsTest, NestedIrqsQueueAndDrain) {
  Core& core = kernel_.core(0);
  std::vector<int> order;
  core.RaiseIrq([&] {
    order.push_back(1);
    core.RaiseIrq([&] { order.push_back(2); }, Nanoseconds(100));
  }, Nanoseconds(100));
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(OsTest, BlockOnLoadStallsUntilDeviceFills) {
  Core& core = kernel_.core(0);
  std::vector<uint8_t> got;
  core.BlockOnLoad(kDevBase, 8,
                   [&](std::span<const uint8_t> d) { got.assign(d.begin(), d.end()); });
  sim_.RunUntil(Milliseconds(1));
  EXPECT_TRUE(core.blocked_on_load());
  EXPECT_TRUE(got.empty());
  ASSERT_EQ(device_.reads.size(), 1u);

  LineData line(interconnect_.config().line_size, 0);
  line[0] = 0x5a;
  device_.reads[0].fill(std::move(line));
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(got[0], 0x5a);
  EXPECT_FALSE(core.blocked_on_load());
  // Blocked time is accounted as blocked, not busy.
  EXPECT_EQ(core.BusyTime(), 0);
  EXPECT_GT(core.TimeIn(CoreMode::kBlockedOnLoad), Milliseconds(1) - Microseconds(1));
}

TEST_F(OsTest, IrqDuringBlockedLoadDeliveredAfterUnblock) {
  Core& core = kernel_.core(0);
  std::vector<std::string> order;
  core.BlockOnLoad(kDevBase, 8, [&](std::span<const uint8_t>) { order.push_back("load"); });
  sim_.RunUntil(Microseconds(10));
  core.RaiseIrq([&] { order.push_back("irq"); }, Nanoseconds(300));
  sim_.RunUntil(Microseconds(20));
  EXPECT_TRUE(order.empty()) << "a stalled core cannot take the IRQ";

  ASSERT_EQ(device_.reads.size(), 1u);
  device_.reads[0].fill(LineData(interconnect_.config().line_size, 0));
  sim_.RunUntilIdle();
  // The IRQ fires when the load retires, before software sees the data.
  EXPECT_EQ(order, (std::vector<std::string>{"irq", "load"}));
}

TEST_F(OsTest, SchedulerRunsPostedWork) {
  Process* p = kernel_.CreateProcess("svc");
  Thread* t = kernel_.AddThread(p, "worker");
  SimTime done_at = 0;
  t->PushWork([&](Core& core) {
    core.Run(Microseconds(5), CoreMode::kUser, [&] {
      done_at = sim_.Now();
      kernel_.scheduler().OnWorkDone(core);
    });
  });
  kernel_.scheduler().Wake(t);
  sim_.RunUntilIdle();
  EXPECT_GT(done_at, 0);
  EXPECT_EQ(t->state(), ThreadState::kBlocked);
  // Dispatch paid a context switch (fresh address space on the core).
  EXPECT_EQ(kernel_.scheduler().context_switches(), 1u);
}

TEST_F(OsTest, SameProcessThreadSwitchIsCheaper) {
  Process* p = kernel_.CreateProcess("svc");
  Thread* t1 = kernel_.AddThread(p, "w1");
  Thread* t2 = kernel_.AddThread(p, "w2");
  t1->PinTo(0);
  t2->PinTo(0);
  auto work = [&](Core& core) {
    core.Run(Microseconds(1), CoreMode::kUser,
             [&core, this] { kernel_.scheduler().OnWorkDone(core); });
  };
  t1->PushWork(work);
  kernel_.scheduler().Wake(t1);
  sim_.RunUntilIdle();
  t2->PushWork(work);
  kernel_.scheduler().Wake(t2);
  sim_.RunUntilIdle();
  EXPECT_EQ(kernel_.scheduler().context_switches(), 1u);
  EXPECT_EQ(kernel_.scheduler().thread_switches(), 1u);
}

TEST_F(OsTest, WorkSpreadsAcrossIdleCores) {
  Process* p = kernel_.CreateProcess("svc");
  std::vector<int> cores_used;
  for (int i = 0; i < 4; ++i) {
    Thread* t = kernel_.AddThread(p, "w" + std::to_string(i));
    t->PushWork([&, t](Core& core) {
      core.Run(Microseconds(100), CoreMode::kUser, [&core, &cores_used, this] {
        cores_used.push_back(core.index());
        kernel_.scheduler().OnWorkDone(core);
      });
    });
    kernel_.scheduler().Wake(t);
  }
  sim_.RunUntilIdle();
  std::sort(cores_used.begin(), cores_used.end());
  EXPECT_EQ(cores_used, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(OsTest, KernelPriorityThreadPreemptsUserWork) {
  Process* p = kernel_.CreateProcess("svc");
  // Fill all 4 cores with long user work.
  for (int i = 0; i < 4; ++i) {
    Thread* t = kernel_.AddThread(p, "long" + std::to_string(i));
    t->PushWork([this](Core& core) {
      core.Run(Milliseconds(10), CoreMode::kUser,
               [&core, this] { kernel_.scheduler().OnWorkDone(core); });
    });
    kernel_.scheduler().Wake(t);
  }
  sim_.RunUntil(Microseconds(100));

  Thread* kt = kernel_.AddThread(kernel_.kernel_process(), "softirq", true);
  SimTime ran_at = 0;
  kt->PushWork([&](Core& core) {
    core.Run(Microseconds(1), CoreMode::kKernel, [&core, &ran_at, this] {
      ran_at = sim_.Now();
      kernel_.scheduler().OnWorkDone(core);
    });
  });
  kernel_.scheduler().Wake(kt);
  sim_.RunUntilIdle();
  ASSERT_GT(ran_at, 0);
  // Must run at the next 50us quantum boundary, far before the 10ms work ends.
  EXPECT_LT(ran_at, Milliseconds(1));
  EXPECT_GE(kernel_.scheduler().preemptions(), 1u);
}

TEST_F(OsTest, PreemptedWorkCompletesEventually) {
  Process* p = kernel_.CreateProcess("svc");
  Thread* user = kernel_.AddThread(p, "user");
  bool user_done = false;
  user->PushWork([&](Core& core) {
    core.Run(Milliseconds(2), CoreMode::kUser, [&core, &user_done, this] {
      user_done = true;
      kernel_.scheduler().OnWorkDone(core);
    });
  });
  user->PinTo(0);
  kernel_.scheduler().Wake(user);
  sim_.RunUntil(Microseconds(60));

  Thread* kt = kernel_.AddThread(kernel_.kernel_process(), "kthread", true);
  kt->PinTo(0);
  kt->PushWork([this](Core& core) {
    core.Run(Microseconds(10), CoreMode::kKernel,
             [&core, this] { kernel_.scheduler().OnWorkDone(core); });
  });
  kernel_.scheduler().Wake(kt);
  sim_.RunUntilIdle();
  EXPECT_TRUE(user_done);
  // Total user time preserved across preemption.
  Duration user_time = 0;
  for (size_t i = 0; i < kernel_.num_cores(); ++i) {
    user_time += kernel_.core(i).TimeIn(CoreMode::kUser);
  }
  EXPECT_EQ(user_time, Milliseconds(2));
}

TEST_F(OsTest, IpiReachesTargetCore) {
  SimTime at = 0;
  kernel_.SendIpi(2, [&] { at = sim_.Now(); });
  sim_.RunUntilIdle();
  // ipi (400) + idle_exit (200) + irq_entry (600) + top half (300).
  EXPECT_EQ(at, Nanoseconds(1500));
}

TEST_F(OsTest, PlacementChangesNotifyListeners) {
  class Recorder : public SchedStateListener {
   public:
    void OnPlacement(Thread* thread, int core, bool running) override {
      events.emplace_back(thread->name(), core, running);
    }
    std::vector<std::tuple<std::string, int, bool>> events;
  };
  Recorder rec;
  kernel_.AddSchedListener(&rec);

  Process* p = kernel_.CreateProcess("svc");
  Thread* t = kernel_.AddThread(p, "w");
  t->PushWork([this](Core& core) {
    core.Run(Microseconds(1), CoreMode::kUser,
             [&core, this] { kernel_.scheduler().OnWorkDone(core); });
  });
  kernel_.scheduler().Wake(t);
  sim_.RunUntilIdle();
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(rec.events[0], std::make_tuple(std::string("w"), 0, true));
  EXPECT_EQ(rec.events[1], std::make_tuple(std::string("w"), 0, false));
}

TEST_F(OsTest, SocketEnqueueDequeueAndDrops) {
  Process* p = kernel_.CreateProcess("svc");
  Thread* t = kernel_.AddThread(p, "w");
  Socket* sock = kernel_.CreateSocket(7000, t);
  EXPECT_EQ(kernel_.LookupSocket(7000), sock);
  EXPECT_EQ(kernel_.LookupSocket(7001), nullptr);

  EXPECT_TRUE(sock->Enqueue({1, 2}));
  EXPECT_TRUE(sock->HasData());
  EXPECT_EQ(sock->Dequeue(), (std::vector<uint8_t>{1, 2}));
  EXPECT_FALSE(sock->HasData());

  Socket small(7002, t, /*max_depth=*/1);
  EXPECT_TRUE(small.Enqueue({1}));
  EXPECT_FALSE(small.Enqueue({2}));
  EXPECT_EQ(small.drops(), 1u);
}

TEST_F(OsTest, TimesliceRotatesEqualPriorityThreads) {
  kernel_.scheduler().StartTimer();
  Process* p = kernel_.CreateProcess("svc");
  // 2 long threads pinned to core 0: both must make progress.
  std::vector<SimTime> completions;
  for (int i = 0; i < 2; ++i) {
    Thread* t = kernel_.AddThread(p, "t" + std::to_string(i));
    t->PinTo(0);
    t->PushWork([&completions, this](Core& core) {
      core.Run(Milliseconds(5), CoreMode::kUser, [&core, &completions, this] {
        completions.push_back(sim_.Now());
        kernel_.scheduler().OnWorkDone(core);
      });
    });
    kernel_.scheduler().Wake(t);
  }
  sim_.RunUntil(Milliseconds(30));
  ASSERT_EQ(completions.size(), 2u);
  // With 1ms timeslices the two 5ms jobs interleave: the first finishes well
  // after its solo time (5ms), the second shortly after.
  EXPECT_GT(completions[0], Milliseconds(8));
  EXPECT_LT(completions[1] - completions[0], Milliseconds(2));
}


// Property: per-core time accounting is conservative — the five mode buckets
// always sum to elapsed simulated time, regardless of IRQ/preemption churn.
class CoreAccountingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreAccountingPropertyTest, ModeBucketsSumToElapsedTime) {
  Simulator sim;
  CoherentInterconnect interconnect(sim, CoherenceConfig{});
  MemoryHomeAgent memory(sim, interconnect, 0, 1 << 24);
  OsCostModel costs;
  Core core(sim, interconnect, costs, 0);
  Rng rng(GetParam());

  // Random mix of runs and IRQs.
  std::function<void()> chain = [&]() {
    if (sim.Now() > Milliseconds(5)) {
      return;
    }
    const auto mode = static_cast<CoreMode>(1 + rng.UniformInt(0, 2));  // user/kernel/spin
    core.Run(static_cast<Duration>(rng.UniformInt(1, 200)) * kMicrosecond / 10, mode,
             chain);
  };
  chain();
  for (int i = 0; i < 30; ++i) {
    sim.Schedule(static_cast<Duration>(rng.UniformInt(0, 5000)) * kMicrosecond,
                 [&core]() { core.RaiseIrq(nullptr, Nanoseconds(500)); });
  }
  sim.RunUntil(Milliseconds(8));

  Duration total = 0;
  for (int m = 0; m < kNumCoreModes; ++m) {
    total += core.TimeIn(static_cast<CoreMode>(m));
  }
  EXPECT_EQ(total, sim.Now()) << "accounting leaked time";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreAccountingPropertyTest,
                         ::testing::Values(1, 7, 42, 1001, 31337));

}  // namespace
}  // namespace lauberhorn

// Tests for the Machine façade: assembly across stacks and platforms,
// measurement plumbing (end-system latency, cycles/RPC, resets), service
// registration, and the RPC client.
#include <gtest/gtest.h>

#include "src/core/machine.h"

namespace lauberhorn {
namespace {

TEST(MachineTest, StackNames) {
  EXPECT_EQ(ToString(StackKind::kLinux), "linux");
  EXPECT_EQ(ToString(StackKind::kBypass), "bypass");
  EXPECT_EQ(ToString(StackKind::kLauberhorn), "lauberhorn");
}

TEST(MachineTest, OnlyActiveStackObjectsExist) {
  MachineConfig config;
  config.stack = StackKind::kLinux;
  Machine linux_machine(config);
  EXPECT_NE(linux_machine.dma_nic(), nullptr);
  EXPECT_NE(linux_machine.linux_stack(), nullptr);
  EXPECT_EQ(linux_machine.bypass(), nullptr);
  EXPECT_EQ(linux_machine.lauberhorn_nic(), nullptr);

  config.stack = StackKind::kLauberhorn;
  Machine lbh_machine(config);
  EXPECT_EQ(lbh_machine.dma_nic(), nullptr);
  EXPECT_NE(lbh_machine.lauberhorn_nic(), nullptr);
  EXPECT_NE(lbh_machine.lauberhorn_runtime(), nullptr);
}

TEST(MachineTest, AllPlatformsBootAndServe) {
  for (const PlatformSpec& platform :
       {PlatformSpec::EnzianEci(), PlatformSpec::ModernPcPcie(),
        PlatformSpec::Cxl3Projection()}) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.platform = platform;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    int done = 0;
    machine.client().Call(echo, 0,
                          std::vector<WireValue>{WireValue::Bytes({1, 2})},
                          [&](const RpcMessage&, Duration) { ++done; });
    machine.sim().RunUntil(Milliseconds(30));
    EXPECT_EQ(done, 1) << platform.name;
  }
}

TEST(MachineTest, FasterInterconnectGivesLowerLatency) {
  auto measure = [](PlatformSpec platform) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.platform = std::move(platform);
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    for (int i = 0; i < 10; ++i) {
      machine.sim().Schedule(Microseconds(50) * i, [&machine, &echo]() {
        machine.client().Call(echo, 0,
                              std::vector<WireValue>{WireValue::Bytes({1})});
      });
    }
    machine.sim().RunUntil(Milliseconds(20));
    return machine.end_system_latency().P50();
  };
  EXPECT_LT(measure(PlatformSpec::Cxl3Projection()),
            measure(PlatformSpec::EnzianEci()));
}

TEST(MachineTest, EndSystemLatencyExcludesPropagation) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform.wire.propagation = Microseconds(50);  // long wire
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  Duration rtt = 0;
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                        [&](const RpcMessage&, Duration r) { rtt = r; });
  machine.sim().RunUntil(Milliseconds(20));
  // Client RTT includes 2x50us of wire; end-system latency must not.
  EXPECT_GT(rtt, Microseconds(100));
  EXPECT_LT(machine.end_system_latency().P50(), Microseconds(20));
}

TEST(MachineTest, ResetMeasurementClearsWindows) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
  machine.sim().RunUntil(Milliseconds(10));
  EXPECT_EQ(machine.end_system_latency().count(), 1u);
  machine.ResetMeasurement();
  EXPECT_EQ(machine.end_system_latency().count(), 0u);
  EXPECT_EQ(machine.CyclesPerRpc(), 0.0);
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
  machine.sim().RunUntil(Milliseconds(20));
  EXPECT_EQ(machine.end_system_latency().count(), 1u);
  EXPECT_GT(machine.CyclesPerRpc(), 0.0);
}

TEST(MachineTest, EndpointsOfReturnsAllocatedEndpoints) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& a =
      machine.AddService(ServiceRegistry::MakeEchoService(1, 7000), /*max_cores=*/3);
  const ServiceDef& b = machine.AddService(ServiceRegistry::MakeEchoService(2, 7001));
  EXPECT_EQ(machine.EndpointsOf(a).size(), 3u);
  EXPECT_EQ(machine.EndpointsOf(b).size(), 1u);
  // Distinct endpoints.
  auto all = machine.EndpointsOf(a);
  auto more = machine.EndpointsOf(b);
  all.insert(all.end(), more.begin(), more.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(MachineTest, ExportsNicDropAndDispatchCounters) {
  // No NIC drop is silent: each of these reaches the registry, with the
  // value the NIC holds.
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
  machine.sim().RunUntil(Milliseconds(10));

  MetricsRegistry metrics;
  machine.ExportMetrics(metrics);
  const LauberhornNic::Stats& s = machine.lauberhorn_nic()->stats();
  const std::pair<const char*, uint64_t> expected[] = {
      {"overload/sheds_queue", s.sheds.queue},
      {"nic/drops_bad_frame", s.drops_bad_frame},
      {"nic/drops_no_endpoint", s.drops_no_endpoint},
      {"nic/drops_bad_args", s.drops_bad_args},
      {"nic/drops_service_down", s.drops_service_down},
      {"nic/crypto_failures", s.crypto_failures},
      {"nic/wedged_polls", s.wedged_polls},
      {"nic/degraded_dispatches", s.degraded_dispatches},
      {"nic/dispatcher_wakeups", s.dispatcher_wakeups},
  };
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(metrics.HasCounter(key)) << key;
    EXPECT_EQ(metrics.Counter(key), value) << key;
  }
}

TEST(MachineTest, ExportsIommuTranslationCounters) {
  // The Linux stack DMAs every frame, so its IOMMU is busy. Each successful
  // translation is exactly one IOTLB hit or miss, and all three counters
  // reach the registry.
  MachineConfig config;
  config.stack = StackKind::kLinux;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  for (int i = 0; i < 20; ++i) {
    machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1, 2, 3})});
  }
  machine.sim().RunUntil(Milliseconds(10));

  MetricsRegistry metrics;
  machine.ExportMetrics(metrics);
  Iommu& iommu = machine.iommu();
  ASSERT_TRUE(metrics.HasCounter("pcie/iotlb_hits"));
  ASSERT_TRUE(metrics.HasCounter("pcie/iotlb_misses"));
  ASSERT_TRUE(metrics.HasCounter("pcie/iommu_faults"));
  EXPECT_EQ(metrics.Counter("pcie/iotlb_hits"), iommu.iotlb_hits());
  EXPECT_EQ(metrics.Counter("pcie/iotlb_misses"), iommu.iotlb_misses());
  EXPECT_EQ(metrics.Counter("pcie/iommu_faults"), iommu.faults());
  const uint64_t translations =
      metrics.Counter("pcie/iotlb_hits") + metrics.Counter("pcie/iotlb_misses");
  EXPECT_GT(translations, 0u);

  // Two more translations of a fresh page (a miss, then a hit) and one
  // unmapped access (a fault) move the exported counters by exactly that.
  const uint64_t page = 0x7f00'0000'0000ULL;
  iommu.Map(page, page, Iommu::kPageSize);
  ASSERT_TRUE(iommu.Translate(page, 8, /*inject_faults=*/false).has_value());
  ASSERT_TRUE(iommu.Translate(page + 64, 8, /*inject_faults=*/false).has_value());
  EXPECT_FALSE(iommu.Translate(page + Iommu::kPageSize, 8, false).has_value());
  MetricsRegistry after;
  machine.ExportMetrics(after);
  EXPECT_EQ(after.Counter("pcie/iotlb_hits") + after.Counter("pcie/iotlb_misses"),
            translations + 2);
  EXPECT_EQ(after.Counter("pcie/iotlb_misses"), metrics.Counter("pcie/iotlb_misses") + 1);
  EXPECT_EQ(after.Counter("pcie/iommu_faults"), metrics.Counter("pcie/iommu_faults") + 1);
}

TEST(MachineTest, ExportsDmaPathCounters) {
  // Every DMA NIC and PCIe link counter reaches the registry under dmanic/
  // and pcie/, equal to its accessor.
  MachineConfig config;
  config.stack = StackKind::kLinux;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  for (int i = 0; i < 20; ++i) {
    machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1, 2, 3})});
  }
  machine.sim().RunUntil(Milliseconds(10));

  MetricsRegistry metrics;
  machine.ExportMetrics(metrics);
  const DmaNic& nic = *machine.dma_nic();
  const PcieLink& pcie = machine.pcie();
  const std::pair<const char*, uint64_t> expected[] = {
      {"dmanic/rx_packets", nic.rx_packets()},
      {"dmanic/tx_packets", nic.tx_packets()},
      {"dmanic/rx_drops_no_desc", nic.rx_drops_no_desc()},
      {"dmanic/rx_drops_bad_frame", nic.rx_drops_bad_frame()},
      {"dmanic/rx_drops_service_down", nic.rx_drops_service_down()},
      {"dmanic/tx_ring_full", machine.dma_driver()->tx_ring_full()},
      {"pcie/mmio_reads", pcie.mmio_reads()},
      {"pcie/mmio_writes", pcie.mmio_writes()},
      {"pcie/dma_read_bytes", pcie.dma_read_bytes()},
      {"pcie/dma_write_bytes", pcie.dma_write_bytes()},
      {"pcie/dma_errors", pcie.dma_errors()},
  };
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(metrics.HasCounter(key)) << key;
    EXPECT_EQ(metrics.Counter(key), value) << key;
  }
  EXPECT_EQ(metrics.Counter("dmanic/rx_packets"), 20u);
  EXPECT_EQ(metrics.Counter("dmanic/tx_packets"), 20u);
  EXPECT_GT(metrics.Counter("pcie/dma_write_bytes"), 0u);
}

TEST(MachineTest, ExportsCoherenceCounters) {
  // Every coherence message counter and the cores' summed cache counters
  // reach the registry under coherence/, equal to their accessors.
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  for (int i = 0; i < 20; ++i) {
    machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1, 2, 3})});
  }
  machine.sim().RunUntil(Milliseconds(10));

  MetricsRegistry metrics;
  machine.ExportMetrics(metrics);
  const CoherenceStats& stats = machine.interconnect().stats();
  std::vector<std::pair<std::string, uint64_t>> expected = {
      {"coherence/data_msgs", stats.data_messages},
      {"coherence/bus_errors", stats.bus_errors},
  };
  for (int type = 0; type < kNumCoherenceMsgTypes; ++type) {
    expected.emplace_back(std::string("coherence/msgs_") + kCoherenceMsgTypeNames[type],
                          stats.messages[type]);
  }
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t loads_through = 0;
  for (size_t i = 0; i < machine.kernel().num_cores(); ++i) {
    const CacheAgent& cache = machine.kernel().core(i).cache();
    hits += cache.hits();
    misses += cache.misses();
    loads_through += cache.loads_through();
  }
  expected.emplace_back("coherence/cache_hits", hits);
  expected.emplace_back("coherence/cache_misses", misses);
  expected.emplace_back("coherence/loads_through", loads_through);
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(metrics.HasCounter(key)) << key;
    EXPECT_EQ(metrics.Counter(key), value) << key;
  }
  EXPECT_GT(metrics.Counter("coherence/msgs_fill"), 0u);
  EXPECT_GT(metrics.Counter("coherence/loads_through"), 0u);
  EXPECT_GT(metrics.Counter("coherence/cache_misses"), 0u);
}

TEST(MachineTest, ExportsSchedulerWireMsixAndNestedCounters) {
  // Counters that once had no metric: each reaches the registry, equal to its
  // accessor, under a key perfbench does not add itself.
  for (const StackKind stack : {StackKind::kLinux, StackKind::kLauberhorn}) {
    MachineConfig config;
    config.stack = stack;
    config.platform.wire.loss_probability = 0.2;
    config.client_retransmit_timeout = Microseconds(200);
    Machine machine(config);
    const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    for (int i = 0; i < 20; ++i) {
      machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1, 2, 3})});
    }
    machine.sim().RunUntil(Milliseconds(10));

    MetricsRegistry metrics;
    machine.ExportMetrics(metrics);
    const Scheduler& scheduler = machine.kernel().scheduler();
    std::vector<std::pair<std::string, uint64_t>> expected = {
        {"client/retransmits_suppressed_breaker",
         machine.client().retransmits_suppressed_breaker()},
        {"wire/client_egress_loss_drops", machine.wire().a_to_b().packets_dropped()},
        {"wire/nic_egress_loss_drops", machine.wire().b_to_a().packets_dropped()},
        {"sched/context_switches", scheduler.context_switches()},
        {"sched/thread_switches", scheduler.thread_switches()},
        {"sched/preemptions", scheduler.preemptions()},
    };
    if (stack == StackKind::kLauberhorn) {
      expected.emplace_back("runtime/nested_failed",
                            machine.lauberhorn_runtime()->nested_failed());
    }
    for (const auto& [key, value] : expected) {
      ASSERT_TRUE(metrics.HasCounter(key)) << key;
      EXPECT_EQ(metrics.Counter(key), value) << key;
    }
    ASSERT_TRUE(metrics.HasCounter("pcie/msix_interrupts"));
    EXPECT_GT(metrics.Counter("wire/client_egress_loss_drops") +
                  metrics.Counter("wire/nic_egress_loss_drops"),
              0u);
    EXPECT_GT(metrics.Counter("sched/context_switches") +
                  metrics.Counter("sched/thread_switches"),
              0u);
    if (stack == StackKind::kLinux) {
      EXPECT_GT(metrics.Counter("pcie/msix_interrupts"), 0u);
    }
  }
}

TEST(RpcClientTest, MatchesResponsesToRequests) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<uint64_t> ids;
  std::vector<uint64_t> completed_ids;
  for (int i = 0; i < 5; ++i) {
    const uint64_t id = machine.client().Call(
        echo, 0, std::vector<WireValue>{WireValue::Bytes({static_cast<uint8_t>(i)})},
        [&completed_ids](const RpcMessage& r, Duration) {
          completed_ids.push_back(r.request_id);
        });
    ids.push_back(id);
  }
  machine.sim().RunUntil(Milliseconds(50));
  std::sort(ids.begin(), ids.end());
  std::sort(completed_ids.begin(), completed_ids.end());
  EXPECT_EQ(ids, completed_ids);
  EXPECT_EQ(machine.client().outstanding(), 0u);
}

TEST(RpcClientTest, RttHistogramPopulates) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  for (int i = 0; i < 10; ++i) {
    machine.sim().Schedule(Microseconds(100) * i, [&machine, &echo]() {
      machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({9})});
    });
  }
  machine.sim().RunUntil(Milliseconds(20));
  EXPECT_EQ(machine.client().rtt().count(), 10u);
  EXPECT_GT(machine.client().rtt().P50(), Microseconds(1));
  EXPECT_LT(machine.client().rtt().P50(), Microseconds(20));
}

TEST(MachineTest, CyclesPerRpcOrdering) {
  // The paper's efficiency ordering must hold for the busy-cycle metric too
  // (excluding bypass, whose spin dominates by design).
  auto measure = [](StackKind stack) {
    MachineConfig config;
    config.stack = stack;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    if (stack == StackKind::kLauberhorn) {
      machine.StartHotLoop(echo);
    }
    machine.sim().RunUntil(Milliseconds(1));
    machine.ResetMeasurement();
    for (int i = 0; i < 20; ++i) {
      machine.sim().Schedule(Microseconds(100) * i, [&machine, &echo]() {
        machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
      });
    }
    machine.sim().RunUntil(Milliseconds(50));
    return machine.CyclesPerRpc();
  };
  const double lauberhorn = measure(StackKind::kLauberhorn);
  const double linux_cycles = measure(StackKind::kLinux);
  EXPECT_LT(lauberhorn, 200.0) << "hot dispatch is essentially free (§1)";
  EXPECT_GT(linux_cycles, 10000.0);
}


TEST(RpcClientTest, RetransmissionRecoversFromLoss) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform.wire.loss_probability = 0.3;
  config.client_retransmit_timeout = Milliseconds(1);
  config.client_max_retransmits = 10;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  int ok = 0;
  int timed_out = 0;
  for (int i = 0; i < 100; ++i) {
    machine.sim().Schedule(Microseconds(20) * i, [&machine, &echo, &ok, &timed_out]() {
      machine.client().Call(echo, 0,
                            std::vector<WireValue>{WireValue::Bytes({1, 2, 3})},
                            [&ok, &timed_out](const RpcMessage& r, Duration) {
                              if (r.status == RpcStatus::kOk) {
                                ++ok;
                              } else if (r.status == kTimedOut) {
                                ++timed_out;
                              }
                            });
    });
  }
  machine.sim().RunUntil(Milliseconds(100));
  // 30% loss each way but 10 retries: effectively everything completes.
  EXPECT_EQ(ok + timed_out, 100);
  EXPECT_GE(ok, 98);
  EXPECT_GT(machine.client().retransmits(), 0u);
  EXPECT_EQ(machine.client().outstanding(), 0u);
}

TEST(RpcClientTest, TimeoutReportedWhenServerUnreachable) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform.wire.loss_probability = 1.0;  // black hole
  config.client_retransmit_timeout = Milliseconds(1);
  config.client_max_retransmits = 2;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));

  RpcStatus status = RpcStatus::kOk;
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                        [&status](const RpcMessage& r, Duration) { status = r.status; });
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(status, kTimedOut);
  EXPECT_EQ(machine.client().timeouts(), 1u);
  EXPECT_EQ(machine.client().retransmits(), 2u);
  EXPECT_EQ(machine.client().outstanding(), 0u);
}

// FIFO eviction from the completed window is the root cause of the
// retransmit-after-eviction duplicate, so every stack exports its count.
class DedupEvictionExportTest : public ::testing::TestWithParam<StackKind> {};

INSTANTIATE_TEST_SUITE_P(AllStacks, DedupEvictionExportTest,
                         ::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                           StackKind::kLauberhorn),
                         [](const auto& info) { return ToString(info.param); });

TEST_P(DedupEvictionExportTest, SequentialCallsEvictPastTheWindow) {
  MachineConfig config;
  config.stack = GetParam();
  config.server_dedup_window = 4;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                          [&ok](const RpcMessage& r, Duration) {
                            ok += r.status == RpcStatus::kOk;
                          });
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(1));
  }
  ASSERT_EQ(ok, 10);

  // Ten completions through a window of four: the six oldest are evicted.
  MetricsRegistry metrics;
  machine.ExportMetrics(metrics);
  const std::string prefix = GetParam() == StackKind::kLauberhorn ? "nic" : ToString(GetParam());
  ASSERT_TRUE(metrics.HasCounter(prefix + "/dedup_evictions"));
  EXPECT_EQ(metrics.Counter(prefix + "/dedup_evictions"), 6u);
  EXPECT_EQ(machine.server_dedup().stats().evictions, 6u);
}

}  // namespace
}  // namespace lauberhorn

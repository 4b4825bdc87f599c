// Tests for the Machine façade: assembly across stacks and platforms,
// measurement plumbing (end-system latency, cycles/RPC, resets), service
// registration, and the RPC client.
#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "src/core/arrival_table.h"
#include "src/core/client.h"
#include "src/core/machine.h"
#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"

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
  // Every PCIe link counter reaches the registry under pcie/, equal to its
  // accessor (the DMA NIC's table rows are checked by MachineExportTest).
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
  const PcieLink& pcie = machine.pcie();
  const std::pair<const char*, uint64_t> expected[] = {
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
    const std::pair<const char*, uint64_t> expected[] = {
        {"wire/client_egress_loss_drops", machine.wire().a_to_b().packets_dropped()},
        {"wire/nic_egress_loss_drops", machine.wire().b_to_a().packets_dropped()},
        {"sched/context_switches", scheduler.context_switches()},
        {"sched/thread_switches", scheduler.thread_switches()},
        {"sched/preemptions", scheduler.preemptions()},
    };
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
  EXPECT_GT(machine.client().stats().retransmits, 0u);
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
  EXPECT_EQ(machine.client().stats().timeouts, 1u);
  EXPECT_EQ(machine.client().stats().retransmits, 2u);
  EXPECT_EQ(machine.client().outstanding(), 0u);
}

// The client remembers exactly the last 4,096 retired ids, completed or
// expired, and forgets the oldest retired first, not the lowest id. A
// duplicate response for a remembered id is a late response; for a
// forgotten one it is a stray error.
TEST(RpcClientTest, RetiredWindowHoldsTheLast4096RetiredIds) {
  Simulator sim;
  LinkDirection to_server(sim, LinkConfig{}, /*seed=*/1);
  RpcClient::Config config;
  // An unanswered call is retransmitted at 100 us and expires at 300 us.
  config.retransmit_timeout = Microseconds(100);
  config.max_retransmits = 1;
  RpcClient client(sim, to_server, config);
  auto call = [&client] { return client.CallRaw(7000, 1, 0, {}); };
  auto respond = [&client](uint64_t request_id) {
    RpcMessage msg;
    msg.kind = MessageKind::kResponse;
    msg.request_id = request_id;
    Ipv4Header ip;
    ip.src = MakeIpv4(10, 0, 0, 2);
    ip.dst = MakeIpv4(10, 0, 0, 1);
    UdpHeader udp;
    udp.src_port = 7000;
    udp.dst_port = 40000;
    client.ReceivePacket(BuildRpcFrame(EthernetHeader{}, ip, udp, msg));
  };

  for (int i = 0; i < 100; ++i) {
    respond(call());
  }
  // Ids in issue order: expired < late < early. Retirement order: early
  // (answered at once), expired (at 300 us), 4,094 more calls, then late.
  const uint64_t expired = call();
  sim.RunUntil(Microseconds(250));
  const uint64_t late = call();
  const uint64_t early = call();
  respond(early);
  sim.RunUntil(Microseconds(301));
  ASSERT_EQ(client.stats().timeouts, 1u);
  std::vector<uint64_t> rest;
  for (int i = 0; i < 4094; ++i) {
    rest.push_back(call());
    respond(rest.back());
  }
  respond(late);
  sim.RunUntilIdle();
  ASSERT_EQ(client.completed(), 100u + 4096u);
  ASSERT_EQ(client.stats().timeouts, 1u);
  ASSERT_EQ(client.outstanding(), 0u);
  ASSERT_EQ(client.stats().errors, 0u);
  ASSERT_EQ(client.stats().late_responses, 0u);

  // `expired`, the lowest id, is the 4,096th most recently retired id:
  // remembered. `early`, the highest of the three, is the 4,097th: forgotten.
  respond(expired);
  EXPECT_EQ(client.stats().late_responses, 1u);
  EXPECT_EQ(client.stats().errors, 0u);
  respond(late);
  respond(rest.front());
  EXPECT_EQ(client.stats().late_responses, 3u);
  EXPECT_EQ(client.stats().errors, 0u);
  respond(early);
  EXPECT_EQ(client.stats().errors, 1u);
  EXPECT_EQ(client.stats().late_responses, 3u);

  // One more completion forgets the expired id too.
  respond(call());
  respond(expired);
  EXPECT_EQ(client.stats().errors, 2u);
  EXPECT_EQ(client.stats().late_responses, 3u);
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

// The dedup admission count and the NIC trace ring's drops are exported, and
// no exported key is one that perfbench's Trial::Snapshot adds on its own:
// Snapshot sums every machine's keys with its own into one map, so a shared
// name would be counted twice.
TEST(MachineTest, ExportsDedupAdmissionsAndTraceDrops) {
  const char* const snapshot_keys[] = {
      "coherence/messages", "coherence/data_messages", "pcie/mmio",
      "pcie/dma_bytes",     "os/context_switches",     "os/preemptions",
      "os/busy_ps",         "wire/loss_drops",         "cluster/diverts",
      "cluster/failovers",  "fabric/queue_drops",      "sim/events"};
  for (StackKind stack : {StackKind::kLauberhorn, StackKind::kLinux}) {
    SCOPED_TRACE(ToString(stack));
    MachineConfig config;
    config.stack = stack;
    Machine machine(config);
    const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    if (stack == StackKind::kLauberhorn) {
      machine.StartHotLoop(echo);
    }
    machine.sim().RunUntil(Milliseconds(1));
    // Enough calls that the Lauberhorn NIC's 4,096-entry trace ring wraps.
    constexpr int kCalls = 2000;
    int ok = 0;
    for (int i = 0; i < kCalls; ++i) {
      machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                            [&ok](const RpcMessage& r, Duration) {
                              ok += r.status == RpcStatus::kOk;
                            });
      machine.sim().RunUntil(machine.sim().Now() + Microseconds(50));
    }
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(1));
    ASSERT_EQ(ok, kCalls);

    MetricsRegistry metrics;
    machine.ExportMetrics(metrics);
    const std::string dedup_key =
        stack == StackKind::kLauberhorn ? "nic/dedup_admitted" : "linux/dedup_admitted";
    ASSERT_TRUE(metrics.HasCounter(dedup_key));
    EXPECT_EQ(metrics.Counter(dedup_key), machine.server_dedup().stats().admitted);
    EXPECT_EQ(metrics.Counter(dedup_key), static_cast<uint64_t>(kCalls));
    if (stack == StackKind::kLauberhorn) {
      ASSERT_TRUE(metrics.HasCounter("nic/trace_dropped"));
      EXPECT_EQ(metrics.Counter("nic/trace_dropped"),
                machine.lauberhorn_nic()->trace().dropped());
      EXPECT_GT(metrics.Counter("nic/trace_dropped"), 0u);
    }
    for (const char* key : snapshot_keys) {
      EXPECT_FALSE(metrics.HasCounter(key)) << key;
      EXPECT_EQ(metrics.gauges().count(key), 0u) << key;
    }
  }
}

TEST(ArrivalTableTest, LatestArrivalWinsAndTakeErases) {
  ArrivalTable table;
  EXPECT_EQ(table.Take(7), std::nullopt);
  table.Set(7, 100);
  table.Set(7, 250);  // a retransmit of the same id
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Take(7), SimTime{250});
  EXPECT_EQ(table.Take(7), std::nullopt);
  EXPECT_EQ(table.size(), 0u);
  table.Set(0, 0);  // id 0 at time 0 is an ordinary entry
  EXPECT_EQ(table.Take(0), SimTime{0});
}

TEST(ArrivalTableTest, MatchesAHashMapUnderRandomChurn) {
  // Ids drawn from a small range collide and cluster, so erasure's backward
  // shifts run through long probe runs and across the array's wrap.
  ArrivalTable table;
  std::unordered_map<uint64_t, SimTime> reference;
  std::mt19937_64 rng(26);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t id = (rng() % 3000) << (step % 3 == 0 ? 32 : 0);
    if (rng() % 5 < 3) {
      const auto at = static_cast<SimTime>(step);
      table.Set(id, at);
      reference[id] = at;
    } else {
      const auto it = reference.find(id);
      const std::optional<SimTime> expected =
          it == reference.end() ? std::nullopt : std::optional<SimTime>(it->second);
      if (it != reference.end()) {
        reference.erase(it);
      }
      ASSERT_EQ(table.Take(id), expected) << "step " << step;
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  for (const auto& [id, at] : reference) {
    EXPECT_EQ(table.Take(id), at);
  }
  EXPECT_EQ(table.size(), 0u);
}

// What the server NIC's wire taps record, pinned exactly: end-system latency
// runs from the *latest* wire arrival of a request id to the wire departure
// of a response carrying it, and every such response counts as a served RPC
// (server_rpcs feeds cycles per RPC). Frames are injected straight onto the
// client-to-server wire so that arrival times are exact.
class ObservationSemanticsTest : public ::testing::TestWithParam<StackKind> {
 protected:
  static Packet EchoFrame(const MachineConfig& config, uint64_t request_id) {
    std::vector<uint8_t> args;
    MarshalArgs(MethodSignature{{WireType::kBytes}},
                std::vector<WireValue>{WireValue::Bytes(std::vector<uint8_t>(16, 0x5a))},
                args);
    RpcMessage msg;
    msg.kind = MessageKind::kRequest;
    msg.service_id = 1;
    msg.method_id = 0;
    msg.request_id = request_id;
    msg.payload = std::move(args);
    EthernetHeader eth;
    eth.src = {2, 0, 0, 0, 0, 1};
    eth.dst = {2, 0, 0, 0, 0, 2};
    Ipv4Header ip;
    ip.src = config.client_ip;
    ip.dst = config.server_ip;
    UdpHeader udp;
    udp.src_port = 40001;
    udp.dst_port = 7000;
    return BuildRpcFrame(eth, ip, udp, msg);
  }

  static MachineConfig Config() {
    MachineConfig config;
    config.stack = GetParam();
    return config;
  }

  static void Boot(Machine& machine, const ServiceDef& echo) {
    machine.Start();
    if (GetParam() == StackKind::kLauberhorn) {
      machine.StartHotLoop(echo);
    }
    machine.sim().RunUntil(Milliseconds(1));
  }

  static void Send(Machine& machine, Packet frame) {
    machine.wire().a_to_b().Send(std::move(frame));
  }
};

// Pinned against the end-system histogram: exact count, served RPCs, and
// the percentiles and extremes it reports, in picoseconds.
void ExpectObserved(const Machine& machine, uint64_t count, Duration p50, Duration p99,
                    Duration min, Duration max) {
  const Histogram& latency = machine.end_system_latency();
  EXPECT_EQ(latency.count(), count);
  EXPECT_EQ(machine.server_rpcs(), count);
  EXPECT_EQ(latency.P50(), p50);
  EXPECT_EQ(latency.P99(), p99);
  EXPECT_EQ(latency.min(), min);
  EXPECT_EQ(latency.max(), max);
}

TEST_P(ObservationSemanticsTest, RetransmitReplayAndBadChecksum) {
  const MachineConfig config = Config();
  const bool lbh = GetParam() == StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(
      ServiceRegistry::MakeEchoService(1, 7000, Microseconds(10)));
  Boot(machine, echo);
  Simulator& sim = machine.sim();

  // A retransmit lands 3 us into the original's execution. Its response
  // answers both copies, and the latency runs from the copy's arrival.
  Send(machine, EchoFrame(config, 1));
  sim.RunUntil(sim.Now() + Microseconds(3));
  Send(machine, EchoFrame(config, 1));
  sim.RunUntil(Milliseconds(2));
  const Duration first = lbh ? 9'713'000 : 25'067'478;
  ExpectObserved(machine, 1, first, first, first, first);

  // A later copy of the completed id is answered from the dedup cache, and
  // that replay counts as a served RPC too.
  Send(machine, EchoFrame(config, 1));
  sim.RunUntil(Milliseconds(3));
  const Duration replay = lbh ? 400'000 : 15'192'478;
  const Duration p99 = lbh ? 9'713'000 : 24'903'679;
  ExpectObserved(machine, 2, replay, p99, replay, first);

  // A frame whose UDP checksum fails is never recorded.
  Packet bad = EchoFrame(config, 2);
  bad.bytes.back() ^= 0xff;
  Send(machine, std::move(bad));
  sim.RunUntil(Milliseconds(4));
  ExpectObserved(machine, 2, replay, p99, replay, first);
}

TEST_P(ObservationSemanticsTest, ShedReplyIsRecorded) {
  // A one-token quota: every request the stack admits through its shed
  // point after the first is answered kOverloaded.
  MachineConfig config = Config();
  config.admission.enabled = true;
  config.admission.quota_rps = 1.0;
  config.admission.quota_burst = 1.0;
  const bool lbh = GetParam() == StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(
      ServiceRegistry::MakeEchoService(1, 7000, Microseconds(10)));
  Boot(machine, echo);
  Simulator& sim = machine.sim();

  for (uint64_t id = 1; id <= 3; ++id) {
    Send(machine, EchoFrame(config, id));
    sim.RunUntil(sim.Now() + Microseconds(1));
  }
  sim.RunUntil(Milliseconds(2));
  // The Lauberhorn NIC hands the first request straight to the parked core
  // without consulting admission, so only the third is shed there.
  EXPECT_EQ(machine.sheds().quota, lbh ? 1u : 2u);
  if (lbh) {
    ExpectObserved(machine, 3, 12'713'983, 23'175'000, 531'000, 23'175'000);
  } else {
    ExpectObserved(machine, 3, 22'282'239, 28'049'407, 17'804'200, 28'067'478);
  }
}

INSTANTIATE_TEST_SUITE_P(ServerStacks, ObservationSemanticsTest,
                         ::testing::Values(StackKind::kLauberhorn, StackKind::kLinux),
                         [](const auto& info) { return ToString(info.param); });

}  // namespace
}  // namespace lauberhorn

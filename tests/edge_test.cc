// Edge-case tests across the substrates: boundary values, stress patterns,
// and rarely-hit branches not covered by the per-module suites.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/core/machine.h"
#include "src/pcie/iommu.h"
#include "src/proto/service.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"

namespace lauberhorn {
namespace {

// --- Simulator stress ---------------------------------------------------------

TEST(SimulatorEdgeTest, CancelStressInterleaved) {
  Simulator sim;
  Rng rng(1);
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(sim.Schedule(static_cast<Duration>(rng.UniformInt(1, 100000)),
                               [&] { ++fired; }));
  }
  int cancelled = 0;
  for (size_t i = 0; i < ids.size(); i += 2) {
    cancelled += sim.Cancel(ids[i]) ? 1 : 0;
  }
  sim.RunUntilIdle();
  EXPECT_EQ(cancelled, 1000);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorEdgeTest, ScheduleAtInThePastClampsToNow) {
  Simulator sim;
  sim.RunUntil(Microseconds(10));
  SimTime fired_at = 0;
  sim.ScheduleAt(Microseconds(1), [&] { fired_at = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(fired_at, Microseconds(10));
}

TEST(SimulatorEdgeTest, EventsScheduledFromCancelledSlotStillRun) {
  Simulator sim;
  bool late = false;
  const EventId id = sim.Schedule(Nanoseconds(5), [] {});
  sim.Cancel(id);
  sim.Schedule(Nanoseconds(5), [&] { late = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(late);
}

// --- Rng distributions ----------------------------------------------------------

TEST(RngEdgeTest, BoundedParetoStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.BoundedPareto(1.5, 1.0, 100.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(RngEdgeTest, LognormalMedianConverges) {
  Rng rng(6);
  std::vector<double> samples;
  for (int i = 0; i < 30001; ++i) {
    samples.push_back(rng.Lognormal(10.0, 0.5));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 10.0, 0.5);
}

TEST(RngEdgeTest, UniformIntDegenerateRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(42, 42), 42u);
  }
}

// --- Histogram extremes ----------------------------------------------------------

TEST(HistogramEdgeTest, HugeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(Seconds(100000));  // ~1e17 ps
  h.Record(Nanoseconds(1));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.Percentile(1.0), Seconds(1));
  EXPECT_LE(h.Percentile(0.0), Nanoseconds(2));
}

TEST(HistogramEdgeTest, QuantileClampOutOfRange) {
  Histogram h;
  h.Record(Nanoseconds(100));
  EXPECT_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(1.5), h.Percentile(1.0));
}

TEST(HistogramEdgeTest, MergeEmptyIsNoOp) {
  Histogram a;
  Histogram b;
  a.Record(Nanoseconds(7));
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.min(), Nanoseconds(7));
}

// --- IOMMU edge cases -------------------------------------------------------------

TEST(IommuEdgeTest, PartialUnmapKeepsOtherPages) {
  Iommu iommu;
  iommu.Map(0x10000, 0x50000, 4 * Iommu::kPageSize);
  iommu.Unmap(0x11000, Iommu::kPageSize);  // second page only
  EXPECT_TRUE(iommu.Translate(0x10000, 8).has_value());
  EXPECT_FALSE(iommu.Translate(0x11000, 8).has_value());
  EXPECT_TRUE(iommu.Translate(0x12000, 8).has_value());
  const auto t = iommu.Translate(0x13008, 8);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, 0x53008u);
}

TEST(IommuEdgeTest, IotlbEvictionUnderPressure) {
  Iommu::Config config;
  config.iotlb_entries = 4;
  Iommu iommu(config);
  iommu.Map(0, 0, 64 * Iommu::kPageSize);
  for (uint64_t page = 0; page < 64; ++page) {
    EXPECT_TRUE(iommu.Translate(page * Iommu::kPageSize, 4).has_value());
  }
  // All misses: every page was new and the IOTLB only holds 4.
  EXPECT_EQ(iommu.iotlb_misses(), 64u);
  EXPECT_EQ(iommu.faults(), 0u);
}

TEST(IommuEdgeTest, IotlbVictimSequencePinned) {
  // A 4-entry IOTLB over a reused working set of 8 pages: which page a miss
  // evicts decides every later hit or miss, so this sequence pins the
  // victim (first page in the hash set's bucket order). LRU would give
  // "MMMMMMMMMHMMMHMMMMMMMMHMMMMM" and FIFO "MMMMMMMMMHMHMMMMMMMMMMHMMMMM".
  // Changing the victim is a result-changing decision: re-baseline here.
  Iommu::Config config;
  config.iotlb_entries = 4;
  Iommu iommu(config);
  iommu.Map(0, 0, 64 * Iommu::kPageSize);
  const uint64_t pages[] = {0, 1, 2, 3, 4, 0, 1, 5, 2, 0, 6, 1, 3, 0,
                            7, 2, 4, 1, 0, 5, 3, 6, 0, 2, 7, 1, 4, 0};
  std::string sequence;
  for (uint64_t page : pages) {
    const uint64_t hits = iommu.iotlb_hits();
    ASSERT_TRUE(iommu.Translate(page * Iommu::kPageSize + 8, 8).has_value());
    sequence += iommu.iotlb_hits() > hits ? 'H' : 'M';
  }
  EXPECT_EQ(sequence, "MMMMMHHMHHMHMHMHMHHMMMHHMHMH");
}

TEST(IommuEdgeTest, ExtentTableMatchesPerPageReference) {
  // Random Map/Unmap sequences against a per-page reference table: overlaps,
  // remaps to a different pa, partial unmaps that split an extent, and sizes
  // that are not page multiples (a partial last page is mapped).
  constexpr uint64_t kPage = Iommu::kPageSize;
  constexpr uint64_t kPages = 48;
  Rng rng(7);
  Iommu iommu;
  std::map<uint64_t, uint64_t> reference;  // iova page -> pa page
  uint64_t expected_faults = 0;
  for (int op = 0; op < 400; ++op) {
    const uint64_t first = rng.UniformInt(0, kPages - 1);
    const uint64_t size = rng.UniformInt(1, 10 * kPage);
    const uint64_t count = (size + kPage - 1) / kPage;
    if (rng.Bernoulli(0.6)) {
      // Half the maps continue a neighbour's pa, so extents also coalesce.
      const uint64_t pa = rng.Bernoulli(0.5) ? first * kPage + (1 << 20)
                                             : rng.UniformInt(0, 4096) * kPage;
      iommu.Map(first * kPage, pa, size);
      for (uint64_t i = 0; i < count; ++i) {
        reference[(first + i) * kPage] = pa + i * kPage;
      }
    } else {
      iommu.Unmap(first * kPage, size);
      for (uint64_t i = 0; i < count; ++i) {
        reference.erase((first + i) * kPage);
      }
    }
    for (uint64_t page = 0; page < kPages + 12; ++page) {
      const uint64_t offset = rng.UniformInt(0, kPage - 8);
      const auto t = iommu.Translate(page * kPage + offset, 8);
      const auto it = reference.find(page * kPage);
      if (it == reference.end()) {
        ++expected_faults;
        EXPECT_FALSE(t.has_value()) << "op " << op << " page " << page;
      } else {
        ASSERT_TRUE(t.has_value()) << "op " << op << " page " << page;
        EXPECT_EQ(t->pa, it->second + offset) << "op " << op << " page " << page;
      }
    }
    ASSERT_EQ(iommu.faults(), expected_faults) << "op " << op;
  }
}

// --- Service registry ----------------------------------------------------------

TEST(ServiceRegistryTest, FindByIdAndPort) {
  ServiceRegistry registry;
  registry.Add(ServiceRegistry::MakeEchoService(5, 9000));
  registry.Add(ServiceRegistry::MakeEchoService(6, 9001));
  EXPECT_NE(registry.Find(5), nullptr);
  EXPECT_EQ(registry.Find(7), nullptr);
  ASSERT_NE(registry.FindByPort(9001), nullptr);
  EXPECT_EQ(registry.FindByPort(9001)->service_id, 6u);
  EXPECT_EQ(registry.FindByPort(9999), nullptr);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ServiceRegistryTest, MethodLookup) {
  const ServiceDef def = ServiceRegistry::MakeEchoService(1, 7000);
  EXPECT_NE(def.FindMethod(0), nullptr);
  EXPECT_EQ(def.FindMethod(1), nullptr);
  EXPECT_FALSE(def.FindMethod(0)->has_nested_call());
}

// --- Memory home byte access ------------------------------------------------------

TEST(MemoryHomeEdgeTest, CrossLineByteAccess) {
  Simulator sim;
  CoherenceConfig config;
  config.line_size = 64;
  CoherentInterconnect interconnect(sim, config);
  MemoryHomeAgent memory(sim, interconnect, 0, 1 << 20);
  // Write a pattern spanning three lines at an unaligned offset.
  std::vector<uint8_t> data(150);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i ^ 0x5a);
  }
  memory.WriteBytes(60, data);
  EXPECT_EQ(memory.ReadBytes(60, 150), data);
  // Unwritten regions read as zero.
  EXPECT_EQ(memory.ReadBytes(1000, 4), (std::vector<uint8_t>{0, 0, 0, 0}));
}

// --- Machine misc ----------------------------------------------------------------

TEST(MachineEdgeTest, NicEndpointLatencyHistogramPopulates) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  for (int i = 0; i < 5; ++i) {
    machine.sim().Schedule(Microseconds(50) * i, [&machine, &echo]() {
      machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
    });
  }
  machine.sim().RunUntil(Milliseconds(20));
  const uint32_t ep = machine.EndpointsOf(echo)[0];
  const Histogram& latency = machine.lauberhorn_nic()->EndpointLatency(ep);
  EXPECT_EQ(latency.count(), 5u);
  EXPECT_GT(latency.P50(), Microseconds(1));
  EXPECT_LT(latency.P50(), Microseconds(10));
}

TEST(MachineEdgeTest, ZeroByteEchoPayload) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  int done = 0;
  machine.client().Call(echo, 0,
                        std::vector<WireValue>{WireValue::Bytes({})},
                        [&](const RpcMessage& r, Duration) {
                          EXPECT_EQ(r.status, RpcStatus::kOk);
                          ++done;
                        });
  machine.sim().RunUntil(Milliseconds(20));
  EXPECT_EQ(done, 1);
}

TEST(MachineEdgeTest, BackToBackMachinesAreIndependent) {
  // Building and tearing down several machines must not leak cross-instance
  // state (regression guard for statics/globals).
  for (int i = 0; i < 3; ++i) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    int done = 0;
    machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({9})},
                          [&](const RpcMessage&, Duration) { ++done; });
    machine.sim().RunUntil(Milliseconds(20));
    EXPECT_EQ(done, 1) << "iteration " << i;
  }
}

}  // namespace
}  // namespace lauberhorn

// Tests for the PCIe link model: MMIO, DMA through the IOMMU, descriptor
// rings, and MSI-X delivery.
#include <gtest/gtest.h>

#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/fault/fault.h"
#include "src/pcie/iommu.h"
#include "src/pcie/pcie_link.h"
#include "src/pcie/ring.h"
#include "src/sim/simulator.h"

namespace lauberhorn {
namespace {

class RecordingDevice : public MmioDevice {
 public:
  void OnMmioWrite(uint64_t offset, uint64_t value) override {
    writes.emplace_back(offset, value);
  }
  uint64_t OnMmioRead(uint64_t offset) override {
    reads.push_back(offset);
    return offset * 2 + 1;
  }
  std::vector<std::pair<uint64_t, uint64_t>> writes;
  std::vector<uint64_t> reads;
};

class PcieTest : public ::testing::Test {
 protected:
  PcieTest()
      : interconnect_(sim_, CoherenceConfig{}),
        memory_(sim_, interconnect_, 0, 1 << 30),
        link_(sim_, PcieConfig{}, memory_, iommu_) {
    link_.set_device(&device_);
    // Identity-map the first 16 MiB.
    iommu_.Map(0, 0, 16 << 20);
  }

  Simulator sim_;
  CoherentInterconnect interconnect_;
  MemoryHomeAgent memory_;
  Iommu iommu_;
  PcieLink link_;
  RecordingDevice device_;
};

TEST_F(PcieTest, MmioWriteIsPostedAndArrivesLater) {
  link_.HostMmioWrite(0x10, 42);
  EXPECT_TRUE(device_.writes.empty()) << "posted write must not be instant";
  sim_.RunUntilIdle();
  ASSERT_EQ(device_.writes.size(), 1u);
  EXPECT_EQ(device_.writes[0], std::make_pair(uint64_t{0x10}, uint64_t{42}));
  EXPECT_EQ(sim_.Now(), Nanoseconds(150));
}

TEST_F(PcieTest, MmioReadRoundTrip) {
  uint64_t got = 0;
  link_.HostMmioRead(0x20, [&](uint64_t v) { got = v; });
  sim_.RunUntilIdle();
  EXPECT_EQ(got, 0x20u * 2 + 1);
  EXPECT_EQ(sim_.Now(), Nanoseconds(800));
}

TEST_F(PcieTest, DmaWriteThenReadRoundTrip) {
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  bool write_done = false;
  link_.DeviceDmaWrite(0x1000, data, [&] { write_done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(write_done);
  EXPECT_EQ(memory_.ReadBytes(0x1000, 8), data);

  std::vector<uint8_t> got;
  link_.DeviceDmaRead(0x1000, 8, [&](std::span<const uint8_t> d) { got.assign(d.begin(), d.end()); });
  sim_.RunUntilIdle();
  EXPECT_EQ(got, data);
}

TEST_F(PcieTest, DmaCrossesPageBoundary) {
  std::vector<uint8_t> data(300, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  // Write spanning the page at 4096.
  link_.DeviceDmaWrite(4096 - 100, data);
  sim_.RunUntilIdle();
  EXPECT_EQ(memory_.ReadBytes(4096 - 100, 300), data);
}

TEST_F(PcieTest, UnmappedDmaReadFaults) {
  uint64_t faulted_iova = 0;
  iommu_.set_fault_handler([&](uint64_t iova) { faulted_iova = iova; });
  std::vector<uint8_t> got = {1};
  link_.DeviceDmaRead(64 << 20, 8, [&](std::span<const uint8_t> d) { got.assign(d.begin(), d.end()); });
  sim_.RunUntilIdle();
  EXPECT_TRUE(got.empty()) << "faulted read must return no data";
  EXPECT_EQ(faulted_iova, uint64_t{64} << 20);
  EXPECT_EQ(iommu_.faults(), 1u);
}

TEST_F(PcieTest, UnmapRevokesAccess) {
  iommu_.Unmap(0x2000, Iommu::kPageSize);
  link_.DeviceDmaWrite(0x2000, std::vector<uint8_t>{1, 2, 3});
  sim_.RunUntilIdle();
  EXPECT_EQ(iommu_.faults(), 1u);
  EXPECT_EQ(memory_.ReadBytes(0x2000, 3), (std::vector<uint8_t>{0, 0, 0}));
}

TEST_F(PcieTest, IotlbHitsAfterFirstAccess) {
  link_.DeviceDmaRead(0x3000, 4, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  EXPECT_EQ(iommu_.iotlb_misses(), 1u);
  link_.DeviceDmaRead(0x3010, 4, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  EXPECT_EQ(iommu_.iotlb_hits(), 1u);
}

TEST_F(PcieTest, BandwidthSerializesLargeTransfers) {
  // Two 64 KiB reads must take longer than one (shared link).
  SimTime t_one = 0;
  link_.DeviceDmaRead(0x4000, 4096, [&](std::span<const uint8_t>) { t_one = sim_.Now(); });
  sim_.RunUntilIdle();
  const SimTime start2 = sim_.Now();
  SimTime t_a = 0;
  SimTime t_b = 0;
  link_.DeviceDmaRead(0x4000, 4096, [&](std::span<const uint8_t>) { t_a = sim_.Now(); });
  link_.DeviceDmaRead(0x5000, 4096, [&](std::span<const uint8_t>) { t_b = sim_.Now(); });
  sim_.RunUntilIdle();
  EXPECT_GT(std::max(t_a, t_b) - start2, t_one) << "concurrent DMA must queue";
}

TEST_F(PcieTest, DmaStatsAccumulate) {
  link_.DeviceDmaWrite(0x6000, std::vector<uint8_t>(128, 0));
  link_.DeviceDmaRead(0x6000, 64, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  EXPECT_EQ(link_.dma_write_bytes(), 128u);
  EXPECT_EQ(link_.dma_read_bytes(), 64u);
}

TEST(DescriptorTest, EncodeDecodeRoundTrip) {
  Descriptor d;
  d.buffer_iova = 0xdeadbeefcafe;
  d.length = 1500;
  d.flags = kDescReady;
  const Descriptor back = Descriptor::Decode(d.Encode());
  EXPECT_EQ(back.buffer_iova, d.buffer_iova);
  EXPECT_EQ(back.length, d.length);
  EXPECT_EQ(back.flags, d.flags);
}

TEST(DescriptorTest, EncodedSizeFixed) {
  EXPECT_EQ(Descriptor{}.Encode().size(), kDescriptorSize);
}

TEST_F(PcieTest, RingViewReadWrite) {
  RingView ring(memory_, 0x10000, 8);
  Descriptor d;
  d.buffer_iova = 0x20000;
  d.length = 64;
  d.flags = kDescReady;
  ring.Write(3, d);
  const Descriptor back = ring.Read(3);
  EXPECT_EQ(back.buffer_iova, 0x20000u);
  EXPECT_EQ(back.flags, kDescReady);
  // Index wraps.
  EXPECT_EQ(ring.DescAddr(11), ring.DescAddr(3));
}

TEST_F(PcieTest, MsixDeliversToHandler) {
  Msix msix(sim_, Nanoseconds(600));
  int fired = 0;
  msix.SetHandler(2, [&] { ++fired; });
  msix.Trigger(2);
  msix.Trigger(2);
  sim_.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(msix.interrupts_delivered(), 2u);
  EXPECT_EQ(sim_.Now(), Nanoseconds(600));
}

TEST_F(PcieTest, MsixUnknownVectorIgnored) {
  Msix msix(sim_, Nanoseconds(600));
  msix.Trigger(7);  // no handler
  sim_.RunUntilIdle();
  EXPECT_EQ(msix.interrupts_delivered(), 1u);
}

TEST_F(PcieTest, InjectedTransientIommuFaultsFireTheFaultHandler) {
  // Satellite: a transient fault on a *mapped* page goes through the exact
  // accounting + fault_handler path a genuine unmapped access takes.
  FaultPlan plan;
  plan.pcie.iommu_fault_probability = 1.0;
  plan.pcie.iommu_fault_burst = 1;
  FaultInjector faults(sim_, plan);
  iommu_.set_fault_injector(&faults);

  std::vector<uint64_t> faulted;
  iommu_.set_fault_handler([&](uint64_t iova) { faulted.push_back(iova); });

  EXPECT_FALSE(iommu_.Translate(0x3000, 4).has_value());
  ASSERT_EQ(faulted.size(), 1u);
  EXPECT_EQ(faulted[0], 0x3000u);
  EXPECT_EQ(iommu_.faults(), 1u);
  EXPECT_EQ(faults.stats().iommu_faults, 1u);

  // Detach the injector: the same mapped page translates cleanly again.
  iommu_.set_fault_injector(nullptr);
  EXPECT_TRUE(iommu_.Translate(0x3000, 4).has_value());
  EXPECT_EQ(iommu_.faults(), 1u);
}

TEST_F(PcieTest, InjectedDmaErrorsCompleteWithNoData) {
  FaultPlan plan;
  plan.pcie.dma_error_probability = 1.0;
  FaultInjector faults(sim_, plan);
  link_.set_fault_injector(&faults);

  memory_.WriteBytes(0x7000, std::vector<uint8_t>{9, 9, 9, 9});
  bool read_done = false;
  std::vector<uint8_t> got = {1};
  link_.DeviceDmaRead(0x7000, 4, [&](std::span<const uint8_t> d) {
    read_done = true;
    got.assign(d.begin(), d.end());
  });
  bool write_done = false;
  link_.DeviceDmaWrite(0x8000, std::vector<uint8_t>{5, 5, 5}, [&] { write_done = true; });
  sim_.RunUntilIdle();

  // Completion still fires (descriptor chains must keep moving); the payload
  // is what's lost.
  EXPECT_TRUE(read_done);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(write_done);
  EXPECT_EQ(memory_.ReadBytes(0x8000, 3), (std::vector<uint8_t>{0, 0, 0}));
  EXPECT_EQ(link_.dma_errors(), 2u);
  EXPECT_EQ(faults.stats().dma_errors, 2u);
}

}  // namespace
}  // namespace lauberhorn

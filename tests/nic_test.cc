// Tests for the NIC substrate pieces: control-line codecs, platform cost
// models, the traditional DMA NIC + driver (rings, RSS, interrupts,
// moderation, steering), and the trace ring.
#include <gtest/gtest.h>

#include <set>

#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/net/headers.h"
#include "src/nic/cost_model.h"
#include "src/nic/dispatch_line.h"
#include "src/nic/dma_nic.h"
#include "src/nic/toeplitz.h"
#include "src/sim/random.h"
#include "src/stats/trace.h"

namespace lauberhorn {
namespace {

// --- DispatchLine / ResponseLine codecs --------------------------------------

TEST(DispatchLineTest, EncodeDecodeRoundTrip) {
  DispatchLine line;
  line.kind = LineKind::kRpcDispatch;
  line.aux_lines = 3;
  line.method_id = 7;
  line.service_id = 42;
  line.request_id = 0x1122334455667788ULL;
  line.code_ptr = 0x5000'1000;
  line.data_ptr = 0x7000'2000;
  line.arg_len = 84;
  line.endpoint_id = 9;
  line.pid = 1234;
  line.inline_args.assign(84, 0xab);

  const LineData encoded = line.Encode(128);
  EXPECT_EQ(encoded.size(), 128u);
  const auto decoded = DispatchLine::Decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, LineKind::kRpcDispatch);
  EXPECT_EQ(decoded->aux_lines, 3);
  EXPECT_EQ(decoded->method_id, 7);
  EXPECT_EQ(decoded->service_id, 42u);
  EXPECT_EQ(decoded->request_id, 0x1122334455667788ULL);
  EXPECT_EQ(decoded->code_ptr, 0x5000'1000u);
  EXPECT_EQ(decoded->data_ptr, 0x7000'2000u);
  EXPECT_EQ(decoded->arg_len, 84u);
  EXPECT_EQ(decoded->endpoint_id, 9);
  EXPECT_EQ(decoded->pid, 1234u);
  EXPECT_EQ(decoded->inline_args, line.inline_args);
}

TEST(DispatchLineTest, ViaDmaCarriesNoInlineArgs) {
  DispatchLine line;
  line.kind = LineKind::kRpcDispatch;
  line.via_dma = true;
  line.arg_len = 10000;
  line.data_ptr = 0x400000;
  const auto decoded = DispatchLine::Decode(line.Encode(128));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->via_dma);
  EXPECT_TRUE(decoded->inline_args.empty());
  EXPECT_EQ(decoded->arg_len, 10000u);
}

TEST(DispatchLineTest, InlineCapacityMatchesLineSize) {
  EXPECT_EQ(DispatchLine::InlineCapacity(128), 128 - kDispatchHeaderSize);
  EXPECT_EQ(DispatchLine::InlineCapacity(64), 64 - kDispatchHeaderSize);
}

TEST(DispatchLineTest, TryagainAndRetireKinds) {
  for (LineKind kind : {LineKind::kTryAgain, LineKind::kRetire}) {
    DispatchLine line;
    line.kind = kind;
    line.endpoint_id = 5;
    const auto decoded = DispatchLine::Decode(line.Encode(128));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->endpoint_id, 5);
  }
}

TEST(DispatchLineTest, TooShortLineRejected) {
  EXPECT_FALSE(DispatchLine::Decode(LineData(10, 0)).has_value());
  EXPECT_FALSE(ResponseLine::Decode(LineData(4, 0)).has_value());
}

TEST(ResponseLineTest, EncodeDecodeRoundTrip) {
  ResponseLine line;
  line.status = 2;
  line.resp_len = 50;
  line.request_id = 77;
  line.aux_lines = 1;
  line.inline_payload.assign(50, 0xcd);
  const auto decoded = ResponseLine::Decode(line.Encode(128));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, LineKind::kResponse);
  EXPECT_EQ(decoded->status, 2);
  EXPECT_EQ(decoded->resp_len, 50u);
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->inline_payload, line.inline_payload);
}

TEST(ResponseLineTest, InlineTruncatedToRespLen) {
  ResponseLine line;
  line.resp_len = 4;  // shorter than the line
  line.inline_payload = {1, 2, 3, 4};
  const auto decoded = ResponseLine::Decode(line.Encode(128));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->inline_payload, (LineData{1, 2, 3, 4}));
}

TEST(DispatchLineTest, LineLongerThanMaxRejected) {
  const std::vector<uint8_t> too_long(kMaxLineSize + 1, 0);
  EXPECT_FALSE(DispatchLine::Decode(too_long).has_value());
  EXPECT_FALSE(ResponseLine::Decode(too_long).has_value());
  EXPECT_TRUE(DispatchLine::Decode(LineData(kMaxLineSize, 0)).has_value());
}

TEST(DispatchLineTest, FullCapacityRoundTripAt64And128ByteLines) {
  for (size_t line_size : {size_t{64}, size_t{128}}) {
    DispatchLine line;
    line.kind = LineKind::kRpcDispatch;
    line.request_id = line_size;
    line.arg_len = static_cast<uint32_t>(DispatchLine::InlineCapacity(line_size));
    line.inline_args.resize(line.arg_len);
    for (size_t i = 0; i < line.inline_args.size(); ++i) {
      line.inline_args[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    const LineData encoded = line.Encode(line_size);
    ASSERT_EQ(encoded.size(), line_size);
    const auto decoded = DispatchLine::Decode(encoded);
    ASSERT_TRUE(decoded.has_value()) << line_size;
    EXPECT_EQ(decoded->request_id, line_size);
    EXPECT_EQ(decoded->arg_len, line.arg_len);
    EXPECT_EQ(decoded->inline_args, line.inline_args) << line_size;
  }
}

TEST(ResponseLineTest, FullCapacityRoundTripAt64And128ByteLines) {
  for (size_t line_size : {size_t{64}, size_t{128}}) {
    ResponseLine line;
    line.request_id = line_size;
    line.resp_len = static_cast<uint32_t>(ResponseLine::InlineCapacity(line_size));
    line.inline_payload.resize(line.resp_len);
    for (size_t i = 0; i < line.inline_payload.size(); ++i) {
      line.inline_payload[i] = static_cast<uint8_t>(255 - i);
    }
    const LineData encoded = line.Encode(line_size);
    ASSERT_EQ(encoded.size(), line_size);
    const auto decoded = ResponseLine::Decode(encoded);
    ASSERT_TRUE(decoded.has_value()) << line_size;
    EXPECT_EQ(decoded->resp_len, line.resp_len);
    EXPECT_EQ(decoded->inline_payload, line.inline_payload) << line_size;
  }
}

// --- Platform cost models -------------------------------------------------------

TEST(CostModelTest, PlatformsDifferWhereTheyShould) {
  const PlatformSpec enzian = PlatformSpec::EnzianEci();
  const PlatformSpec pc = PlatformSpec::ModernPcPcie();
  const PlatformSpec cxl = PlatformSpec::Cxl3Projection();
  EXPECT_EQ(enzian.coherence.line_size, 128u);
  EXPECT_EQ(pc.coherence.line_size, 64u);
  EXPECT_GT(enzian.coherence.cpu_device_hop, pc.coherence.cpu_device_hop);
  EXPECT_GT(pc.coherence.cpu_device_hop, cxl.coherence.cpu_device_hop);
  EXPECT_GT(enzian.pcie.dma_read_latency, pc.pcie.dma_read_latency);
  EXPECT_EQ(enzian.lauberhorn.tryagain_timeout, Milliseconds(15));
  EXPECT_LT(enzian.lauberhorn.tryagain_timeout, enzian.coherence.bus_timeout);
}

TEST(CostModelTest, UnmarshalCostScalesWithBytes) {
  NicPipelineCosts pipeline;
  EXPECT_GT(pipeline.UnmarshalCost(4096), pipeline.UnmarshalCost(64));
  EXPECT_EQ(pipeline.UnmarshalCost(0), pipeline.unmarshal_fixed);
}

// --- DMA NIC + driver ---------------------------------------------------------

class DmaNicTest : public ::testing::Test {
 protected:
  DmaNicTest()
      : interconnect_(sim_, CoherenceConfig{}),
        memory_(sim_, interconnect_, 0, 1 << 28),
        pcie_(sim_, PcieConfig{}, memory_, iommu_),
        msix_(sim_, Nanoseconds(600)),
        wire_(sim_, LinkConfig{}) {}

  void Build(DmaNic::Config config, uint32_t ring_entries = 64) {
    nic_ = std::make_unique<DmaNic>(sim_, config, pcie_, msix_);
    DmaNicDriver::Config driver_config;
    driver_config.num_queues = config.num_queues;
    driver_config.ring_entries = ring_entries;
    driver_ = std::make_unique<DmaNicDriver>(sim_, driver_config, pcie_, iommu_, memory_);
    driver_->Setup();
    sim_.RunUntilIdle();  // let the setup MMIO land
  }

  Packet MakeRequest(uint16_t src_port, uint16_t dst_port, size_t payload = 32) {
    EthernetHeader eth;
    eth.src = {2, 0, 0, 0, 0, 1};
    eth.dst = {2, 0, 0, 0, 0, 2};
    Ipv4Header ip;
    ip.src = MakeIpv4(10, 0, 0, 1);
    ip.dst = MakeIpv4(10, 0, 0, 2);
    UdpHeader udp;
    udp.src_port = src_port;
    udp.dst_port = dst_port;
    return BuildUdpFrame(eth, ip, udp, std::vector<uint8_t>(payload, 0x11));
  }

  Simulator sim_;
  CoherentInterconnect interconnect_;
  MemoryHomeAgent memory_;
  Iommu iommu_;
  PcieLink pcie_;
  Msix msix_;
  Link wire_;
  std::unique_ptr<DmaNic> nic_;
  std::unique_ptr<DmaNicDriver> driver_;
};

TEST_F(DmaNicTest, RxPacketLandsInHostMemory) {
  DmaNic::Config config;
  config.num_queues = 1;
  Build(config);
  const Packet request = MakeRequest(1000, 2000);
  nic_->ReceivePacket(request);
  sim_.RunUntilIdle();
  EXPECT_EQ(nic_->stats().rx_packets, 1u);
  auto packets = driver_->Poll(0, 16);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].bytes, request.bytes);
}

TEST_F(DmaNicTest, InterruptFiresOnRx) {
  DmaNic::Config config;
  config.num_queues = 1;
  config.interrupts_enabled = true;
  Build(config);
  int irqs = 0;
  msix_.SetHandler(0, [&] { ++irqs; });
  nic_->ReceivePacket(MakeRequest(1, 2));
  sim_.RunUntilIdle();
  EXPECT_EQ(irqs, 1);
}

TEST_F(DmaNicTest, RssSpreadsFlowsAcrossQueues) {
  DmaNic::Config config;
  config.num_queues = 4;
  config.interrupts_enabled = false;
  Build(config);
  for (uint16_t port = 0; port < 64; ++port) {
    nic_->ReceivePacket(MakeRequest(static_cast<uint16_t>(20000 + port), 2));
  }
  sim_.RunUntilIdle();
  int queues_used = 0;
  for (uint32_t q = 0; q < 4; ++q) {
    if (!driver_->Poll(q, 64).empty()) {
      ++queues_used;
    }
  }
  EXPECT_GE(queues_used, 3) << "64 flows should hash to nearly every queue";
}

// --- Toeplitz hash (RSS) -----------------------------------------------------

TEST(ToeplitzTest, NdisVerificationVectorsWithPorts) {
  // Microsoft's RSS verification suite, IPv4 with ports: the hash input is
  // src addr | dst addr | src port | dst port, all big-endian, keyed with
  // the default NDIS key. Any drift in bit order, key windowing, or input
  // layout fails these exact values.
  EXPECT_EQ(ToeplitzHash4Tuple(kDefaultToeplitzKey, MakeIpv4(66, 9, 149, 187),
                               MakeIpv4(161, 142, 100, 80), 2794, 1766),
            0x51ccc178u);
  EXPECT_EQ(ToeplitzHash4Tuple(kDefaultToeplitzKey, MakeIpv4(199, 92, 111, 2),
                               MakeIpv4(65, 69, 140, 83), 14230, 4739),
            0xc626b0eau);
  EXPECT_EQ(ToeplitzHash4Tuple(kDefaultToeplitzKey, MakeIpv4(24, 19, 198, 95),
                               MakeIpv4(12, 22, 207, 184), 12898, 38024),
            0x5c2b394au);
}

TEST(ToeplitzTest, NdisVerificationVectorsIpOnly) {
  // Same suite, 2-tuple (addresses only, 8 input bytes).
  const auto ip_only = [](uint32_t src, uint32_t dst) {
    uint8_t bytes[8];
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<uint8_t>(src >> (24 - 8 * i));
      bytes[4 + i] = static_cast<uint8_t>(dst >> (24 - 8 * i));
    }
    return ToeplitzHash(kDefaultToeplitzKey, bytes, sizeof(bytes));
  };
  EXPECT_EQ(ip_only(MakeIpv4(66, 9, 149, 187), MakeIpv4(161, 142, 100, 80)),
            0x323e8fc2u);
  EXPECT_EQ(ip_only(MakeIpv4(199, 92, 111, 2), MakeIpv4(65, 69, 140, 83)),
            0xd718262au);
  EXPECT_EQ(ip_only(MakeIpv4(24, 19, 198, 95), MakeIpv4(12, 22, 207, 184)),
            0xd2d0a5deu);
}

TEST_F(DmaNicTest, ExplicitPortBindingOverridesRssHash) {
  DmaNic::Config config;
  config.num_queues = 4;
  config.interrupts_enabled = false;
  Build(config);
  nic_->BindPort(7777, 3);
  EXPECT_EQ(nic_->BoundPorts(), 1u);
  // Every flow to the bound port lands on queue 3 no matter what the
  // 4-tuple hashes to; flows to other ports still spread by hash.
  for (uint16_t src = 0; src < 32; ++src) {
    EXPECT_EQ(nic_->RssQueue(MakeRequest(static_cast<uint16_t>(30000 + src), 7777)), 3u);
  }
  std::set<uint32_t> other_queues;
  for (uint16_t src = 0; src < 64; ++src) {
    other_queues.insert(
        nic_->RssQueue(MakeRequest(static_cast<uint16_t>(20000 + src), 8888)));
  }
  EXPECT_GE(other_queues.size(), 3u);
}

TEST_F(DmaNicTest, RebindIsCountedAndTakesEffect) {
  DmaNic::Config config;
  config.num_queues = 4;
  config.interrupts_enabled = false;
  Build(config);
  nic_->BindPort(7777, 0);
  EXPECT_EQ(nic_->stats().rx_rebinds, 0u);
  EXPECT_EQ(nic_->RssQueue(MakeRequest(1, 7777)), 0u);
  // Re-binding to the same queue is a no-op, not a rebind.
  nic_->BindPort(7777, 0);
  EXPECT_EQ(nic_->stats().rx_rebinds, 0u);
  // Moving the service to another queue is counted and takes effect
  // immediately — no stale binding keeps steering to the old queue.
  nic_->BindPort(7777, 2);
  EXPECT_EQ(nic_->stats().rx_rebinds, 1u);
  EXPECT_EQ(nic_->RssQueue(MakeRequest(1, 7777)), 2u);
  nic_->UnbindPort(7777);
  EXPECT_EQ(nic_->BoundPorts(), 0u);
}

TEST_F(DmaNicTest, CorruptFrameDroppedBeforeDma) {
  DmaNic::Config config;
  config.num_queues = 1;
  Build(config);
  Packet bad = MakeRequest(1, 2);
  bad.bytes.back() ^= 0x01;
  nic_->ReceivePacket(bad);
  sim_.RunUntilIdle();
  EXPECT_EQ(nic_->stats().rx_packets, 0u);
  EXPECT_EQ(nic_->stats().rx_drops_bad_frame, 1u);
}

TEST_F(DmaNicTest, RingWrapsAfterManyPackets) {
  DmaNic::Config config;
  config.num_queues = 1;
  config.interrupts_enabled = false;
  Build(config, /*ring_entries=*/16);
  // 100 packets through a 16-entry ring, draining as we go.
  size_t received = 0;
  for (int i = 0; i < 100; ++i) {
    sim_.Schedule(Microseconds(20) * i, [this, i]() {
      nic_->ReceivePacket(MakeRequest(static_cast<uint16_t>(i), 2));
    });
    sim_.Schedule(Microseconds(20) * i + Microseconds(15), [this, &received]() {
      received += driver_->Poll(0, 16).size();
    });
  }
  sim_.RunUntilIdle();
  received += driver_->Poll(0, 16).size();
  EXPECT_EQ(received, 100u);
  EXPECT_EQ(nic_->stats().rx_drops_no_desc, 0u);
}

TEST_F(DmaNicTest, RxDropsWhenHostStopsPolling) {
  DmaNic::Config config;
  config.num_queues = 1;
  config.interrupts_enabled = false;
  Build(config, /*ring_entries=*/8);
  // 20 packets, host never polls: only ring_entries-1 fit.
  for (int i = 0; i < 20; ++i) {
    nic_->ReceivePacket(MakeRequest(static_cast<uint16_t>(i), 2));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(nic_->stats().rx_packets, 7u);
  EXPECT_EQ(nic_->stats().rx_drops_no_desc, 13u);
}

TEST_F(DmaNicTest, TxPathDeliversToWire) {
  DmaNic::Config config;
  config.num_queues = 1;
  Build(config);
  class Sink : public PacketSink {
   public:
    void ReceivePacket(Packet packet) override { packets.push_back(std::move(packet)); }
    std::vector<Packet> packets;
  };
  Sink sink;
  wire_.b_to_a().set_sink(&sink);
  nic_->set_tx_wire(&wire_.b_to_a());

  const Packet out = MakeRequest(5, 6, 100);
  EXPECT_TRUE(driver_->Transmit(0, out.bytes));
  sim_.RunUntilIdle();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].bytes, out.bytes);
  EXPECT_EQ(nic_->stats().tx_packets, 1u);
}

TEST_F(DmaNicTest, TxRingFullRefusesAndRecovers) {
  DmaNic::Config config;
  config.num_queues = 1;
  Build(config, /*ring_entries=*/4);
  class Sink : public PacketSink {
   public:
    void ReceivePacket(Packet packet) override { packets.push_back(std::move(packet)); }
    std::vector<Packet> packets;
  };
  Sink sink;
  wire_.b_to_a().set_sink(&sink);
  nic_->set_tx_wire(&wire_.b_to_a());

  // Ten back-to-back frames into a 4-entry ring: the device has completed
  // none of them yet, so only the first four fit and the rest are refused
  // instead of overwriting slots the device still owns.
  std::vector<Packet> frames;
  for (uint16_t i = 0; i < 10; ++i) {
    frames.push_back(MakeRequest(static_cast<uint16_t>(100 + i), 6));
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(driver_->Transmit(0, frames[i].bytes), i < 4) << "frame " << i;
  }
  EXPECT_EQ(driver_->stats().tx_ring_full, 6u);
  sim_.RunUntilIdle();
  ASSERT_EQ(sink.packets.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.packets[i].bytes, frames[i].bytes) << "frame " << i;
  }

  // Completed slots are reusable: the queue keeps sending.
  EXPECT_TRUE(driver_->Transmit(0, frames[9].bytes));
  sim_.RunUntilIdle();
  ASSERT_EQ(sink.packets.size(), 5u);
  EXPECT_EQ(sink.packets[4].bytes, frames[9].bytes);
  EXPECT_EQ(nic_->stats().tx_packets, 5u);
  EXPECT_EQ(driver_->stats().tx_ring_full, 6u);
}

TEST_F(DmaNicTest, TxRejectsOversizedPayload) {
  DmaNic::Config config;
  Build(config);
  EXPECT_FALSE(driver_->Transmit(0, std::vector<uint8_t>(4096, 0)));
}

// --- TraceRing ------------------------------------------------------------------

TEST(TraceRingTest, RecordsInOrder) {
  TraceRing ring(8);
  ring.Emit(1, TraceEvent::kWireRx, 3, 100);
  ring.Emit(2, TraceEvent::kDispatchHot, 3, 100);
  ring.Emit(3, TraceEvent::kWireTx, 3, 100);
  const auto entries = ring.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].event, TraceEvent::kWireRx);
  EXPECT_EQ(entries[2].event, TraceEvent::kWireTx);
  EXPECT_EQ(entries[1].at, 2);
}

TEST(TraceRingTest, OverflowDropsOldest) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Emit(i, TraceEvent::kTryAgain, 1, 0);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.Snapshot().front().at, 6);
}

TEST(TraceRingTest, FilterByEndpoint) {
  TraceRing ring;
  ring.Emit(1, TraceEvent::kDispatchHot, 7, 0);
  ring.Emit(2, TraceEvent::kDispatchHot, 8, 0);
  ring.Emit(3, TraceEvent::kRetire, 7, 0);
  const auto entries = ring.ForEndpoint(7);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].event, TraceEvent::kRetire);
}

TEST(TraceRingTest, DisableStopsRecording) {
  TraceRing ring;
  ring.set_enabled(false);
  ring.Emit(1, TraceEvent::kDrop, 0, 0);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(TraceRingTest, EventNames) {
  EXPECT_EQ(ToString(TraceEvent::kDispatchHot), "dispatch-hot");
  EXPECT_EQ(ToString(TraceEvent::kTryAgain), "tryagain");
  EXPECT_EQ(ToString(TraceEvent::kLoopExit), "loop-exit");
}

}  // namespace
}  // namespace lauberhorn

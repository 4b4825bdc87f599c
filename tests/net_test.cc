// Tests for Ethernet/IPv4/UDP framing, checksums, and the link model.
#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/fault/fault.h"
#include "src/net/headers.h"
#include "src/net/link.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace lauberhorn {
namespace {

EthernetHeader TestEth() {
  EthernetHeader eth;
  eth.dst = {0x02, 0, 0, 0, 0, 0x01};
  eth.src = {0x02, 0, 0, 0, 0, 0x02};
  return eth;
}

Ipv4Header TestIp() {
  Ipv4Header ip;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  return ip;
}

UdpHeader TestUdp() {
  UdpHeader udp;
  udp.src_port = 5555;
  udp.dst_port = 7777;
  return udp;
}

TEST(HeadersTest, BuildParseRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), payload);
  ASSERT_EQ(p.size(), kAllHeadersSize + payload.size());

  ParseError error{};
  const auto frame = ParseUdpFrame(p, &error);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->ip.src, MakeIpv4(10, 0, 0, 1));
  EXPECT_EQ(frame->ip.dst, MakeIpv4(10, 0, 0, 2));
  EXPECT_EQ(frame->udp.src_port, 5555);
  EXPECT_EQ(frame->udp.dst_port, 7777);
  ASSERT_EQ(frame->payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame->payload.begin()));
}

TEST(HeadersTest, EmptyPayload) {
  const Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), {});
  const auto frame = ParseUdpFrame(p);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), 0u);
}

TEST(HeadersTest, TruncatedFrameRejected) {
  Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1, 2, 3});
  p.bytes.resize(kAllHeadersSize - 1);
  ParseError error{};
  EXPECT_FALSE(ParseUdpFrame(p, &error).has_value());
  EXPECT_EQ(error, ParseError::kTruncated);
}

TEST(HeadersTest, CorruptIpHeaderDetected) {
  Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1, 2, 3});
  p.bytes[kEthernetHeaderSize + 8] ^= 0xff;  // mangle TTL
  ParseError error{};
  EXPECT_FALSE(ParseUdpFrame(p, &error).has_value());
  EXPECT_EQ(error, ParseError::kBadIpChecksum);
}

TEST(HeadersTest, CorruptPayloadDetectedByUdpChecksum) {
  Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1, 2, 3, 4});
  p.bytes.back() ^= 0x01;
  ParseError error{};
  EXPECT_FALSE(ParseUdpFrame(p, &error).has_value());
  EXPECT_EQ(error, ParseError::kBadUdpChecksum);
}

TEST(HeadersTest, NonIpv4Rejected) {
  Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1});
  p.bytes[12] = 0x86;  // EtherType high byte -> not IPv4
  p.bytes[13] = 0xdd;
  ParseError error{};
  EXPECT_FALSE(ParseUdpFrame(p, &error).has_value());
  EXPECT_EQ(error, ParseError::kNotIpv4);
}

TEST(HeadersTest, NonUdpRejected) {
  Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1});
  // Change protocol to TCP and fix up the IP checksum.
  p.bytes[kEthernetHeaderSize + 9] = 6;
  p.bytes[kEthernetHeaderSize + 10] = 0;
  p.bytes[kEthernetHeaderSize + 11] = 0;
  const uint16_t csum = InternetChecksum(
      std::span<const uint8_t>(p.bytes.data() + kEthernetHeaderSize, kIpv4HeaderSize));
  p.bytes[kEthernetHeaderSize + 10] = static_cast<uint8_t>(csum >> 8);
  p.bytes[kEthernetHeaderSize + 11] = static_cast<uint8_t>(csum & 0xff);
  ParseError error{};
  EXPECT_FALSE(ParseUdpFrame(p, &error).has_value());
  EXPECT_EQ(error, ParseError::kNotUdp);
}

TEST(HeadersTest, ChecksumKnownVector) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2, csum ~0xddf2.
  const std::vector<uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data), static_cast<uint16_t>(~0xddf2 & 0xffff));
}

// The RFC 1071 definition, one 16-bit word per step: the reference the
// eight-bytes-per-step InternetChecksum must match bit for bit.
uint16_t WordChecksum(std::span<const uint8_t> data, uint32_t initial) {
  uint64_t sum = initial;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

TEST(HeadersTest, ChecksumEqualsWordAtATimeReference) {
  Rng rng(1071);
  constexpr size_t kMaxLength = 1600;
  constexpr size_t kMaxOffset = 7;
  std::vector<uint8_t> random(kMaxLength + kMaxOffset);
  for (auto& b : random) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const std::vector<uint8_t> zeros(kMaxLength + kMaxOffset, 0x00);
  const std::vector<uint8_t> ones(kMaxLength + kMaxOffset, 0xff);
  const std::vector<uint8_t>* const buffers[] = {&random, &zeros, &ones};
  for (size_t len = 0; len <= kMaxLength; ++len) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const auto initial = static_cast<uint32_t>(rng.Next());
      for (const std::vector<uint8_t>* buf : buffers) {
        const std::span<const uint8_t> data(buf->data() + offset, len);
        // Initial 0 is the one input whose folded sum can be 0 (all-zero data).
        ASSERT_EQ(InternetChecksum(data, initial), WordChecksum(data, initial))
            << "len " << len << " offset " << offset << " initial " << initial;
        ASSERT_EQ(InternetChecksum(data), WordChecksum(data, 0))
            << "len " << len << " offset " << offset;
      }
    }
  }
}

TEST(HeadersTest, FormatHelpers) {
  EXPECT_EQ(FormatIpv4(MakeIpv4(192, 168, 1, 20)), "192.168.1.20");
  EXPECT_EQ(FormatMac({0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}), "de:ad:be:ef:00:01");
}

// Property: any random payload survives build+parse bit-exact.
class FramingPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FramingPropertyTest, RandomPayloadRoundTrip) {
  Rng rng(GetParam() * 31 + 1);
  std::vector<uint8_t> payload(GetParam());
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), payload);
  const auto frame = ParseUdpFrame(p);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame->payload.begin()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FramingPropertyTest,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 512, 1024, 1472));

class CollectingSink : public PacketSink {
 public:
  void ReceivePacket(Packet packet) override {
    packets.push_back(std::move(packet));
    arrival_times.push_back(owner->Now());
  }
  Simulator* owner = nullptr;
  std::vector<Packet> packets;
  std::vector<SimTime> arrival_times;
};

TEST(LinkTest, DeliversAfterSerializationAndPropagation) {
  Simulator sim;
  LinkConfig config;
  config.bandwidth_gbps = 100.0;
  config.propagation = Nanoseconds(500);
  Link link(sim, config);
  CollectingSink sink;
  sink.owner = &sim;
  link.a_to_b().set_sink(&sink);

  Packet p;
  p.bytes.assign(105, 0xab);  // 105B + 20B overhead = 125B = 10ns at 100Gbps
  link.a_to_b().Send(std::move(p));
  sim.RunUntilIdle();

  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], Nanoseconds(510));
}

TEST(LinkTest, BackToBackPacketsSerialize) {
  Simulator sim;
  LinkConfig config;
  config.bandwidth_gbps = 10.0;  // 1 byte = 0.8ns
  config.propagation = 0;
  Link link(sim, config);
  CollectingSink sink;
  sink.owner = &sim;
  link.a_to_b().set_sink(&sink);

  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.bytes.assign(80, 0);  // (80+20)*0.8 = 80ns each
    link.a_to_b().Send(std::move(p));
  }
  sim.RunUntilIdle();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.arrival_times[0], Nanoseconds(80));
  EXPECT_EQ(sink.arrival_times[1], Nanoseconds(160));
  EXPECT_EQ(sink.arrival_times[2], Nanoseconds(240));
}

TEST(LinkTest, LossDropsDeterministically) {
  Simulator sim;
  LinkConfig config;
  config.loss_probability = 0.5;
  config.seed = 123;
  Link link(sim, config);
  CollectingSink sink;
  sink.owner = &sim;
  link.a_to_b().set_sink(&sink);

  for (int i = 0; i < 1000; ++i) {
    Packet p;
    p.bytes.assign(64, 0);
    link.a_to_b().Send(std::move(p));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sink.packets.size() + link.a_to_b().packets_dropped(), 1000u);
  EXPECT_NEAR(static_cast<double>(link.a_to_b().packets_dropped()), 500.0, 60.0);
}

TEST(LinkTest, CorruptionFlipsOneBitCaughtByChecksum) {
  Simulator sim;
  LinkConfig config;
  Link link(sim, config);
  FaultPlan plan;
  plan.net.corrupt_probability = 1.0;
  FaultInjector faults(sim, plan);
  link.a_to_b().set_fault_injector(&faults);
  CollectingSink sink;
  sink.owner = &sim;
  link.a_to_b().set_sink(&sink);

  const Packet original = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1, 2, 3, 4});
  Packet copy = original;
  link.a_to_b().Send(std::move(copy));
  sim.RunUntilIdle();

  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_NE(sink.packets[0].bytes, original.bytes);
  // Either the IP or the UDP checksum must catch a single flipped bit.
  EXPECT_FALSE(ParseUdpFrame(sink.packets[0]).has_value());
}

TEST(LinkTest, DuplicationDeliversBackToBackCopies) {
  Simulator sim;
  LinkConfig config;
  config.propagation = 0;
  Link link(sim, config);
  FaultPlan plan;
  plan.net.duplicate_probability = 1.0;
  FaultInjector faults(sim, plan);
  link.a_to_b().set_fault_injector(&faults);
  CollectingSink sink;
  sink.owner = &sim;
  link.a_to_b().set_sink(&sink);

  Packet p = BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1, 2});
  link.a_to_b().Send(std::move(p));
  sim.RunUntilIdle();

  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0].bytes, sink.packets[1].bytes);
  // The copy occupies the wire a second time: strictly later arrival.
  EXPECT_GT(sink.arrival_times[1], sink.arrival_times[0]);
  EXPECT_EQ(link.a_to_b().packets_duplicated(), 1u);
  EXPECT_EQ(link.a_to_b().packets_sent(), 1u);
}

TEST(LinkTest, ReorderingLetsLaterPacketsOvertake) {
  Simulator sim;
  LinkConfig config;
  config.propagation = 0;
  Link link(sim, config);
  FaultPlan plan;
  plan.net.reorder_probability = 0.5;
  plan.net.reorder_extra_delay = Microseconds(3);
  plan.seed = 77;
  FaultInjector faults(sim, plan);
  link.a_to_b().set_fault_injector(&faults);
  CollectingSink sink;
  sink.owner = &sim;
  link.a_to_b().set_sink(&sink);

  const int kPackets = 100;
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.bytes.assign(64, static_cast<uint8_t>(i));  // tag = send order
    link.a_to_b().Send(std::move(p));
  }
  sim.RunUntilIdle();

  ASSERT_EQ(sink.packets.size(), static_cast<size_t>(kPackets));
  EXPECT_GT(link.a_to_b().packets_reordered(), 10u);
  EXPECT_LT(link.a_to_b().packets_reordered(), 90u);
  // A slipped packet falls behind successors sent within the extra delay.
  int inversions = 0;
  for (int i = 1; i < kPackets; ++i) {
    if (sink.packets[i].bytes[0] < sink.packets[i - 1].bytes[0]) {
      ++inversions;
    }
  }
  EXPECT_GT(inversions, 0);
}

TEST(LinkTest, CorruptionCountedAndDroppedAtParse) {
  // Satellite: corrupted packets are charged to packets_corrupted() at the
  // wire and to the checksum-drop counter at the receiver — the genuine
  // RFC 1071 checksums are what catches the flipped bit.
  Simulator sim;
  LinkConfig config;
  config.seed = 5;
  Link link(sim, config);
  FaultPlan plan;
  plan.net.corrupt_probability = 0.3;
  plan.seed = 5;
  FaultInjector faults(sim, plan);
  link.a_to_b().set_fault_injector(&faults);
  CollectingSink sink;
  sink.owner = &sim;
  link.a_to_b().set_sink(&sink);

  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    link.a_to_b().Send(
        BuildUdpFrame(TestEth(), TestIp(), TestUdp(), std::vector<uint8_t>{1, 2, 3, 4}));
  }
  sim.RunUntilIdle();

  ASSERT_EQ(sink.packets.size(), static_cast<size_t>(kPackets));
  const uint64_t corrupted = link.a_to_b().packets_corrupted();
  EXPECT_GT(corrupted, 20u);
  uint64_t parse_drops = 0;
  for (const Packet& p : sink.packets) {
    if (!ParseUdpFrame(p).has_value()) {
      ++parse_drops;
    }
  }
  // A flip in the IP/UDP headers or payload is caught by a checksum; only
  // flips landing in the unchecksummed Ethernet MAC bytes (12 of 46 in this
  // frame) escape. Clean frames always parse.
  EXPECT_LE(parse_drops, corrupted);
  EXPECT_GE(parse_drops, corrupted / 2);
}

TEST(LinkTest, FullDuplexDirectionsIndependent) {
  Simulator sim;
  LinkConfig config;
  config.propagation = Nanoseconds(100);
  Link link(sim, config);
  CollectingSink sink_b;
  CollectingSink sink_a;
  sink_b.owner = &sim;
  sink_a.owner = &sim;
  link.a_to_b().set_sink(&sink_b);
  link.b_to_a().set_sink(&sink_a);

  Packet p1;
  p1.bytes.assign(64, 1);
  Packet p2;
  p2.bytes.assign(64, 2);
  link.a_to_b().Send(std::move(p1));
  link.b_to_a().Send(std::move(p2));
  sim.RunUntilIdle();
  EXPECT_EQ(sink_b.packets.size(), 1u);
  EXPECT_EQ(sink_a.packets.size(), 1u);
  EXPECT_EQ(sink_b.arrival_times[0], sink_a.arrival_times[0]);
}

TEST(LinkTest, CorruptedRequestsAreDroppedByNicChecksumAccounting) {
  // End to end: wire corruption -> NIC parse failure -> bad-frame drop
  // counter, with the client's retransmit layer recovering the RPC.
  for (const StackKind stack : {StackKind::kLinux, StackKind::kLauberhorn}) {
    MachineConfig config;
    config.stack = stack;
    config.num_cores = 4;
    config.client_retransmit_timeout = Microseconds(200);
    config.client_max_retransmits = 8;
    config.faults.net.corrupt_probability = 0.2;
    Machine machine(std::move(config));
    const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    if (stack == StackKind::kLauberhorn) {
      machine.StartHotLoop(echo);
    }

    uint64_t ok = 0;
    auto fire = std::make_shared<Function<void()>>();
    int remaining = 100;
    *fire = [&, fire]() {
      if (remaining-- <= 0) {
        return;
      }
      std::vector<WireValue> args = {WireValue::Bytes({1, 2, 3, 4})};
      machine.client().Call(echo, 0, args, [&ok](const RpcMessage& r, Duration) {
        if (r.status == RpcStatus::kOk) {
          ++ok;
        }
      });
      machine.sim().Schedule(Microseconds(10), [fire]() { (*fire)(); });
    };
    (*fire)();
    machine.sim().RunUntil(Milliseconds(15));

    const uint64_t corrupted = machine.wire().a_to_b().packets_corrupted() +
                               machine.wire().b_to_a().packets_corrupted();
    const uint64_t checksum_drops = stack == StackKind::kLauberhorn
                                        ? machine.lauberhorn_nic()->stats().drops_bad_frame
                                        : machine.dma_nic()->rx_drops_bad_frame();
    EXPECT_GT(corrupted, 0u) << ToString(stack);
    EXPECT_GT(checksum_drops, 0u) << ToString(stack);
    EXPECT_EQ(ok, 100u) << ToString(stack);  // retransmits recover every RPC
    EXPECT_GT(machine.client().retransmits(), 0u) << ToString(stack);
  }
}

}  // namespace
}  // namespace lauberhorn

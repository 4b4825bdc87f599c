// Tests for the NIC-driven congestion-control loop (DESIGN.md §15): ECN
// codepoints through the real header bytes, in-flight CE marking at the
// fabric, the egress-queue drop/mark boundaries, the LRPC v2 flags/grant
// fields, the client's DCTCP window + receiver grants, and the fault
// fallbacks (grant loss, ECN corruption, granted-but-shed refunds).
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/core/machine.h"
#include "src/core/testbed.h"
#include "src/fault/fault.h"
#include "src/net/headers.h"
#include "src/net/link.h"
#include "src/proto/rpc_message.h"
#include "src/sim/simulator.h"
#include "src/stats/metrics.h"

namespace lauberhorn {
namespace {

EthernetHeader TestEth() {
  EthernetHeader eth;
  eth.dst = {0x02, 0, 0, 0, 0, 0x01};
  eth.src = {0x02, 0, 0, 0, 0, 0x02};
  return eth;
}

Packet TestFrame(uint8_t ecn, uint32_t src = MakeIpv4(10, 0, 1, 1),
                 uint32_t dst = MakeIpv4(10, 0, 0, 2)) {
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.ecn = ecn;
  UdpHeader udp;
  udp.src_port = 5555;
  udp.dst_port = 7777;
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  return BuildUdpFrame(TestEth(), ip, udp, payload);
}

// --- ECN through the header bytes (wire-format boundary) ---------------------

TEST(EcnHeaderTest, CodepointSurvivesBuildParseRoundTrip) {
  for (uint8_t ecn : {kEcnNotEct, kEcnEct0, kEcnCe}) {
    const Packet p = TestFrame(ecn);
    const auto frame = ParseUdpFrame(p);
    ASSERT_TRUE(frame.has_value()) << "ecn=" << int(ecn);
    EXPECT_EQ(frame->ip.ecn, ecn);
  }
}

TEST(EcnHeaderTest, MarkEcnCePatchesChecksumInFlight) {
  Packet p = TestFrame(kEcnEct0);
  ASSERT_TRUE(MarkEcnCe(p));
  // The rewritten frame must still pass the RX pipeline's checksum check.
  ParseError error{};
  const auto frame = ParseUdpFrame(p, &error);
  ASSERT_TRUE(frame.has_value()) << static_cast<int>(error);
  EXPECT_EQ(frame->ip.ecn, kEcnCe);
  // Marking an already-CE frame is an idempotent no-op.
  const Packet before = p;
  EXPECT_TRUE(MarkEcnCe(p));
  EXPECT_EQ(p.bytes, before.bytes);
}

TEST(EcnHeaderTest, MarkEcnCeRefusesNonEctTraffic) {
  Packet p = TestFrame(kEcnNotEct);
  const Packet before = p;
  EXPECT_FALSE(MarkEcnCe(p));
  EXPECT_EQ(p.bytes, before.bytes);  // never rewrite a non-ECN frame
}

TEST(LrpcV2Test, FlagsAndGrantRoundTrip) {
  RpcMessage msg;
  msg.kind = MessageKind::kResponse;
  msg.service_id = 7;
  msg.method_id = 3;
  msg.status = RpcStatus::kOk;
  msg.request_id = 0x1122334455667788ULL;
  msg.flags = kLrpcFlagEcnEcho | kLrpcFlagGrant;
  msg.grant = 37;
  msg.payload = {9, 8, 7};

  std::vector<uint8_t> bytes;
  EncodeRpcMessage(msg, bytes);
  ASSERT_EQ(bytes.size(), kLrpcHeaderSize + msg.payload.size());
  const auto decoded = DecodeRpcMessage(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flags, msg.flags);
  EXPECT_EQ(decoded->grant, msg.grant);
  EXPECT_EQ(decoded->request_id, msg.request_id);
  EXPECT_EQ(decoded->payload, msg.payload);
}

// --- Egress-queue boundaries (exact limit / exact threshold) -----------------

class CountingSink : public PacketSink {
 public:
  void ReceivePacket(Packet packet) override { packets.push_back(std::move(packet)); }
  std::vector<Packet> packets;
};

TEST(EgressQueueTest, TailDropAtExactlyQueueLimit) {
  Simulator sim;
  LinkConfig config;
  config.queue_limit = 4;
  LinkDirection egress(sim, config, /*seed=*/1);
  CountingSink sink;
  egress.set_sink(&sink);

  // All five sends land at the same instant, so nothing has finished
  // serializing: depths at arrival are 0, 1, 2, 3 (accepted — the fourth
  // packet fills the buffer exactly) and 4 (== limit, dropped).
  const uint32_t src = MakeIpv4(10, 0, 3, 1);
  const uint32_t dst = MakeIpv4(10, 0, 0, 2);
  for (int i = 0; i < 5; ++i) {
    egress.Send(TestFrame(kEcnNotEct, src, dst));
  }
  EXPECT_EQ(egress.stats().queue_drops, 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(sink.packets.size(), 4u);

  // The drop is attributed to the (src, dst) pair that suffered it.
  const auto& drops = egress.pair_drops();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops.at(LinkDirection::PairKey(src, dst)), 1u);
}

TEST(EgressQueueTest, CeMarkAtExactlyThreshold) {
  Simulator sim;
  LinkConfig config;
  config.ecn_threshold = 2;  // K: mark arrivals that find >= 2 buffered
  LinkDirection egress(sim, config, /*seed=*/1);
  CountingSink sink;
  egress.set_sink(&sink);

  for (int i = 0; i < 3; ++i) {
    egress.Send(TestFrame(kEcnEct0));
  }
  EXPECT_EQ(egress.stats().ecn_marked, 1u);  // only the third found depth == K
  sim.RunUntilIdle();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(ParseUdpFrame(sink.packets[0])->ip.ecn, kEcnEct0);
  EXPECT_EQ(ParseUdpFrame(sink.packets[1])->ip.ecn, kEcnEct0);
  EXPECT_EQ(ParseUdpFrame(sink.packets[2])->ip.ecn, kEcnCe);
}

TEST(EgressQueueTest, NonEctTrafficIsNeverMarked) {
  Simulator sim;
  LinkConfig config;
  config.ecn_threshold = 1;
  LinkDirection egress(sim, config, /*seed=*/1);
  CountingSink sink;
  egress.set_sink(&sink);

  for (int i = 0; i < 4; ++i) {
    egress.Send(TestFrame(kEcnNotEct));
  }
  EXPECT_EQ(egress.stats().ecn_marked, 0u);
  sim.RunUntilIdle();
  for (const Packet& p : sink.packets) {
    EXPECT_EQ(ParseUdpFrame(p)->ip.ecn, kEcnNotEct);
  }
}

// --- Client window + receiver grants (end to end) ----------------------------

// Drives uniquely-numbered RPCs through one machine and counts per-seq
// handler executions (the at-most-once observable), like fault_test's
// harness but with congestion control in the client config.
class CcHarness {
 public:
  explicit CcHarness(MachineConfig config) : machine_(std::move(config)) {
    ServiceDef def;
    def.service_id = 1;
    def.name = "counted";
    def.udp_port = 7000;
    MethodDef method;
    method.method_id = 0;
    method.name = "count";
    method.request_sig.args = {WireType::kU64};
    method.response_sig.args = {WireType::kU64};
    method.handler = [this](const std::vector<WireValue>& args) {
      ++execs_[args.at(0).scalar];
      return std::vector<WireValue>{args.at(0)};
    };
    method.SetFixedServiceTime(Nanoseconds(500));
    def.methods[0] = std::move(method);
    service_ = &machine_.AddService(std::move(def), 2);
    machine_.Start();
    machine_.StartHotLoop(*service_);
    machine_.sim().RunUntil(Microseconds(100));
  }

  void Run(int count, Duration gap, Duration drain = Milliseconds(5)) {
    auto fire = std::make_shared<Function<void()>>();
    int remaining = count;
    *fire = [this, fire, &remaining, gap]() {
      if (remaining-- <= 0) {
        return;
      }
      std::vector<WireValue> args = {WireValue::U64(next_seq_++)};
      machine_.client().Call(*service_, 0, args,
                             [this](const RpcMessage& response, Duration) {
                               if (response.status == RpcStatus::kOk) {
                                 ++ok_;
                               }
                             });
      machine_.sim().Schedule(gap, [fire]() { (*fire)(); });
    };
    (*fire)();
    machine_.sim().RunUntil(machine_.sim().Now() + gap * count + drain);
  }

  uint64_t sent() const { return next_seq_; }
  uint64_t ok() const { return ok_; }
  uint64_t DuplicateExecutions() const {
    uint64_t dups = 0;
    for (const auto& [seq, count] : execs_) {
      if (count > 1) {
        ++dups;
      }
    }
    return dups;
  }
  Machine& machine() { return machine_; }

 private:
  Machine machine_;
  const ServiceDef* service_ = nullptr;
  std::unordered_map<uint64_t, uint32_t> execs_;
  uint64_t next_seq_ = 0;
  uint64_t ok_ = 0;
};

MachineConfig CcConfig() {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(200);
  config.client_max_retransmits = 8;
  config.client_max_retransmit_timeout = Milliseconds(2);
  config.server_dedup = true;
  config.client_congestion = true;
  return config;
}

TEST(CcClientTest, WindowDefersBurstBeyondLimitAndDrainsAll) {
  MachineConfig config = CcConfig();
  config.client_cc_initial_window = 2.0;
  CcHarness harness(config);
  // A zero-gap burst of 10: only the window's worth leaves immediately, the
  // rest park in the deferral queue and are ack-clocked out.
  harness.Run(10, /*gap=*/0);
  RpcClient& client = harness.machine().client();
  EXPECT_EQ(harness.ok(), 10u);
  EXPECT_GE(client.stats().cc_deferrals, 8u);
  const uint32_t server = harness.machine().config().server_ip;
  EXPECT_EQ(client.cc_outstanding(server), 0u);  // every slot released
  EXPECT_EQ(client.cc_deferred_count(server), 0u);
}

TEST(CcClientTest, LauberhornReceiverIssuesGrants) {
  CcHarness harness(CcConfig());
  harness.Run(200, Microseconds(2));
  Machine& m = harness.machine();
  EXPECT_EQ(harness.ok(), 200u);
  EXPECT_GT(m.client().stats().cc_grants_received, 0u);
  EXPECT_GT(m.lauberhorn_nic()->stats().grants_issued, 0u);
  // Grants cap the window at the receiver's headroom, they never raise it
  // beyond the configured maximum.
  EXPECT_LE(m.client().cc_window(m.config().server_ip),
            m.config().client_cc_initial_window + 200.0);
}

TEST(CcClientTest, FabricCeMarksReachClientAccounting) {
  // Two machines behind a fabric whose egress ports serialize 100x slower
  // than the machine uplinks: a windowed burst arrives faster than the port
  // drains, the queue builds past K = 1, and the CE marks must travel the
  // whole loop — switch rewrite, NIC echo, response header — into the
  // sender's mark accounting.
  FabricConfig fabric;
  fabric.port_bandwidth_gbps = 1.0;
  fabric.port_ecn_threshold = 1;
  Testbed testbed(fabric);
  MachineConfig server_config = CcConfig();
  server_config.client_congestion = false;
  Machine& server = testbed.AddMachine(server_config);
  Machine& sender = testbed.AddMachine(CcConfig());

  ServiceDef def;
  def.service_id = 1;
  def.udp_port = 7000;
  MethodDef method;
  method.method_id = 0;
  method.request_sig.args = {WireType::kU64};
  method.response_sig.args = {WireType::kU64};
  method.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{args.at(0)};
  };
  method.SetFixedServiceTime(Microseconds(2));  // slow: keeps queues busy
  def.methods[0] = std::move(method);
  const ServiceDef& echo = server.AddService(std::move(def), 2);
  for (Machine* m : {&server, &sender}) {
    m->Start();
  }
  server.StartHotLoop(echo);

  RpcClient& client = sender.client();
  const uint32_t dst = server.config().server_ip;
  uint64_t ok = 0;
  sender.sim().Schedule(0, [&]() {
    // Zero-gap burst: the initial window's worth hits the slow port at once.
    for (int i = 0; i < 200; ++i) {
      std::vector<uint8_t> payload;
      MarshalArgs(MethodSignature{{WireType::kU64}},
                  std::vector<WireValue>{WireValue::U64(1)}, payload);
      client.CallRawTo(dst, 7000, 1, 0, std::move(payload),
                       [&ok](const RpcMessage& r, Duration) {
                         if (r.status == RpcStatus::kOk) {
                           ++ok;
                         }
                       });
    }
  });
  testbed.sim().RunUntil(Milliseconds(20));

  EXPECT_EQ(ok, 200u);
  EXPECT_GT(client.stats().cc_marks_seen, 0u);
  MetricsRegistry metrics;
  testbed.ExportMetrics(metrics);
  EXPECT_GT(metrics.Counter("fabric/ecn_marked"), 0u);
}

TEST(CcClientTest, SustainedMarksCollapseWindowToFloor) {
  // Deterministic multiplicative decrease: ECN corruption at probability 1
  // inverts every (clean) response into a marked one, so every DCTCP round
  // is fully marked, alpha ramps toward 1, and the window must decay from
  // the initial 8 to the floor instead of growing additively.
  MachineConfig config = CcConfig();
  config.faults.cc.ecn_corrupt_probability = 1.0;
  CcHarness harness(config);
  harness.Run(400, Microseconds(2), Milliseconds(20));
  RpcClient& client = harness.machine().client();

  EXPECT_EQ(harness.ok(), 400u);  // throttled, never stalled
  EXPECT_GT(client.stats().cc_marks_seen, 300u);
  EXPECT_LT(client.cc_window(harness.machine().config().server_ip), 3.0);
}

// --- Fault fallbacks (satellite: grant loss / ECN corruption) ----------------

TEST(CcFaultTest, GrantLossFallsBackToRetransmitWithAtMostOnce) {
  MachineConfig config = CcConfig();
  // Every grant write is lost and the wire drops 20% of packets: the client
  // must survive on its local DCTCP window plus the PR 2 retransmit ladder.
  config.faults.cc.grant_loss_probability = 1.0;
  config.faults.net.good_loss = 0.2;
  CcHarness harness(config);
  harness.Run(300, Microseconds(2), Milliseconds(20));
  Machine& m = harness.machine();

  EXPECT_EQ(harness.ok(), 300u);                       // nothing lost for good
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);        // at-most-once held
  EXPECT_GT(m.client().stats().retransmits, 0u);             // the ladder carried it
  EXPECT_EQ(m.client().stats().cc_grants_received, 0u);      // no grant ever landed
  EXPECT_GT(m.lauberhorn_nic()->stats().grants_issued, 0u);  // NIC kept trying
  EXPECT_GT(m.fault_injector()->stats().cc_grant_losses, 0u);
}

TEST(CcFaultTest, EcnCorruptionDegradesButCompletes) {
  MachineConfig config = CcConfig();
  config.faults.cc.ecn_corrupt_probability = 0.5;  // mark bit flips randomly
  CcHarness harness(config);
  harness.Run(300, Microseconds(2), Milliseconds(20));
  Machine& m = harness.machine();

  EXPECT_EQ(harness.ok(), 300u);
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_GT(m.fault_injector()->stats().cc_ecn_corruptions, 0u);
  // Inverted bits manufacture marks on a clean path, so the client sees
  // congestion that does not exist — and must still make progress.
  EXPECT_GT(m.client().stats().cc_marks_seen, 0u);
}

// --- Granted-but-shed interplay (satellite: overload audit) ------------------

// A request admitted by a fresh grant but shed by the receiver's admission
// gate must hand back what it consumed: the client refunds the retry tokens
// that request spent and skips the multiplicative overload cut. Without
// grants (grant loss injected), the same shed applies the full token cut.
TEST(CcOverloadTest, GrantedButShedRefundsRetryTokens) {
  auto run = [](bool lose_grants) {
    MachineConfig config = CcConfig();
    config.client_retry_budget_per_sec = 1000.0;
    // Quota sheds fire regardless of queue depth, so the receiver keeps
    // granting (its queues are short) while still rejecting most requests —
    // exactly the granted-then-shed race the audit is about.
    config.admission.enabled = true;
    config.admission.quota_rps = 50000.0;
    config.admission.quota_burst = 4.0;
    config.client_cc_initial_window = 16.0;
    if (lose_grants) {
      config.faults.cc.grant_loss_probability = 1.0;
    }
    CcHarness harness(config);
    harness.Run(400, Nanoseconds(500), Milliseconds(20));
    return std::pair<uint64_t, double>(
        harness.machine().client().stats().cc_shed_refunds,
        harness.machine().client().retry_tokens());
  };
  const auto [refunds_granted, tokens_granted] = run(/*lose_grants=*/false);
  const auto [refunds_lost, tokens_lost] = run(/*lose_grants=*/true);

  EXPECT_GT(refunds_granted, 0u);   // sheds under a fresh grant were refunded
  EXPECT_EQ(refunds_lost, 0u);      // no grant, no refund
  // With refunds the budget survives the shed storm; with grants lost the
  // multiplicative cut drains it.
  EXPECT_GT(tokens_granted, tokens_lost);
}

// Stale credit must not hold a window open: after the grant TTL passes
// without fresh feedback, the effective window falls back to the
// unscheduled budget (the initial window), not the accumulated DCTCP
// window. Observable end to end: a burst after an idle gap defers
// everything beyond the initial window even though the DCTCP window had
// grown past it.
TEST(CcClientTest, StaleGrantRevertsToUnscheduledBudget) {
  MachineConfig config = CcConfig();
  config.client_cc_initial_window = 2.0;
  config.client_cc_grant_ttl = Microseconds(100);
  CcHarness harness(config);
  // Warm up: grow the DCTCP window well past the initial 2.
  harness.Run(300, Microseconds(1), Milliseconds(5));
  RpcClient& client = harness.machine().client();
  const uint32_t server = harness.machine().config().server_ip;
  ASSERT_GT(client.cc_window(server), 3.0);
  ASSERT_GT(client.stats().cc_grants_received, 0u);

  // Idle past the TTL, then burst: only the unscheduled budget may leave
  // immediately, so at least burst - initial_window sends must defer.
  harness.machine().sim().RunUntil(harness.machine().sim().Now() +
                                   Milliseconds(1));
  const uint64_t deferrals_before = client.stats().cc_deferrals;
  harness.Run(10, /*gap=*/0);
  EXPECT_EQ(harness.ok(), 310u);
  EXPECT_GE(client.stats().cc_deferrals - deferrals_before, 8u);
}

}  // namespace
}  // namespace lauberhorn

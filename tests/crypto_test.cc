// Tests for transport encryption (§6): the cipher primitive, end-to-end
// encrypted echo on all three stacks, authentication failures, and the
// NIC-offload cost advantage.
#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/proto/cipher.h"
#include "src/sim/random.h"

namespace lauberhorn {
namespace {

TEST(CipherTest, SealOpenRoundTrip) {
  const uint64_t key = DeriveKey(0x1234, 7);
  const std::vector<uint8_t> plaintext = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto sealed = SealPayload(key, 42, plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + kCipherOverhead);
  // Ciphertext differs from plaintext.
  EXPECT_NE(std::vector<uint8_t>(sealed.begin() + kCipherNonceSize,
                                 sealed.begin() + kCipherNonceSize + plaintext.size()),
            plaintext);
  const auto opened = OpenPayload(key, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(CipherTest, WrongKeyFailsAuthentication) {
  const auto sealed = SealPayload(DeriveKey(1, 1), 5, std::vector<uint8_t>{1, 2, 3});
  EXPECT_FALSE(OpenPayload(DeriveKey(1, 2), sealed).has_value());
  EXPECT_FALSE(OpenPayload(DeriveKey(2, 1), sealed).has_value());
}

TEST(CipherTest, TamperedCiphertextFailsAuthentication) {
  const uint64_t key = DeriveKey(9, 9);
  auto sealed = SealPayload(key, 1, std::vector<uint8_t>(64, 0x5a));
  for (size_t i : {size_t{0}, kCipherNonceSize + 5, sealed.size() - 1}) {
    auto tampered = sealed;
    tampered[i] ^= 0x80;
    EXPECT_FALSE(OpenPayload(key, tampered).has_value()) << "byte " << i;
  }
}

TEST(CipherTest, DifferentNoncesDifferentCiphertext) {
  const uint64_t key = DeriveKey(3, 3);
  const std::vector<uint8_t> plaintext(32, 0xab);
  const auto a = SealPayload(key, 1, plaintext);
  const auto b = SealPayload(key, 2, plaintext);
  EXPECT_NE(a, b);
}

TEST(CipherTest, EmptyPayload) {
  const uint64_t key = DeriveKey(4, 4);
  const auto sealed = SealPayload(key, 1, {});
  const auto opened = OpenPayload(key, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
  // Too-short input rejected.
  EXPECT_FALSE(OpenPayload(key, std::vector<uint8_t>(5, 0)).has_value());
}

TEST(CipherTest, RandomRoundTripProperty) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> plaintext(rng.UniformInt(0, 512));
    for (auto& b : plaintext) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const uint64_t key = rng.Next();
    const uint64_t nonce = rng.Next();
    const auto opened = OpenPayload(key, SealPayload(key, nonce, plaintext));
    ASSERT_TRUE(opened.has_value());
    ASSERT_EQ(*opened, plaintext);
  }
}

// -- End to end across stacks -------------------------------------------------

std::vector<WireValue> Payload(size_t n, uint8_t fill) {
  return {WireValue::Bytes(std::vector<uint8_t>(n, fill))};
}

class EncryptedStackTest : public ::testing::TestWithParam<StackKind> {};

TEST_P(EncryptedStackTest, EncryptedEchoRoundTrips) {
  MachineConfig config;
  config.stack = GetParam();
  config.num_cores = 4;
  config.encrypt_rpcs = true;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  if (GetParam() == StackKind::kLauberhorn) {
    machine.StartHotLoop(echo);
  }
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<uint8_t> got;
  RpcStatus status = RpcStatus::kInternal;
  machine.client().Call(echo, 0, Payload(120, 0x3e),
                        [&](const RpcMessage& r, Duration) {
                          status = r.status;
                          std::vector<WireValue> out;
                          if (UnmarshalArgs(MethodSignature{{WireType::kBytes}},
                                            r.payload, out)) {
                            got = out[0].bytes;
                          }
                        });
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(status, RpcStatus::kOk);
  EXPECT_EQ(got, std::vector<uint8_t>(120, 0x3e));
}

INSTANTIATE_TEST_SUITE_P(AllStacks, EncryptedStackTest,
                         ::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                           StackKind::kLauberhorn),
                         [](const auto& info) { return ToString(info.param); });

TEST(CryptoIntegrationTest, PayloadOnWireIsCiphertext) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.encrypt_rpcs = true;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  // Sniff the wire: the marshalled plaintext must never appear.
  std::vector<uint8_t> secret(64, 0xd0);
  struct Sniffer : PacketSink {
    PacketSink* next = nullptr;
    const std::vector<uint8_t>* secret = nullptr;
    bool plaintext_seen = false;
    int frames = 0;
    void ReceivePacket(Packet packet) override {
      ++frames;
      plaintext_seen |= std::search(packet.bytes.begin(), packet.bytes.end(),
                                    secret->begin(), secret->end()) != packet.bytes.end();
      next->ReceivePacket(std::move(packet));
    }
  } sniffer;
  sniffer.next = machine.lauberhorn_nic();
  sniffer.secret = &secret;
  machine.wire().a_to_b().set_sink(&sniffer);
  int done = 0;
  machine.client().Call(echo, 0,
                        std::vector<WireValue>{WireValue::Bytes(secret)},
                        [&](const RpcMessage& r, Duration) {
                          EXPECT_EQ(r.status, RpcStatus::kOk);
                          ++done;
                        });
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(done, 1);
  EXPECT_GT(sniffer.frames, 0);
  EXPECT_FALSE(sniffer.plaintext_seen) << "plaintext leaked onto the wire";
}

TEST(CryptoIntegrationTest, WrongKeyClientRejectedByNic) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.encrypt_rpcs = true;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  // Inject a frame sealed with the wrong key straight into the NIC (as a
  // malicious or misconfigured peer would).
  std::vector<uint8_t> args;
  MarshalArgs(MethodSignature{{WireType::kBytes}},
              std::vector<WireValue>{WireValue::Bytes({1, 2, 3})}, args);
  RpcMessage msg;
  msg.kind = MessageKind::kRequest;
  msg.service_id = 1;
  msg.method_id = 0;
  msg.request_id = 99;
  msg.payload = SealPayload(DeriveKey(0xbad, 1), 1, args);
  EthernetHeader eth;
  eth.src = {2, 0, 0, 0, 0, 1};
  eth.dst = {2, 0, 0, 0, 0, 2};
  Ipv4Header ip;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  UdpHeader udp;
  udp.src_port = 40001;
  udp.dst_port = 7000;
  machine.lauberhorn_nic()->ReceivePacket(BuildRpcFrame(eth, ip, udp, msg));
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().crypto_failures, 1u);
  EXPECT_EQ(machine.lauberhorn_nic()->stats().hot_dispatches, 0u);
}

TEST(CryptoIntegrationTest, NestedCallsEncryptedEndToEnd) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.encrypt_rpcs = true;
  Machine machine(config);

  ServiceDef backend = ServiceRegistry::MakeEchoService(2, 7100, Microseconds(1));
  ServiceDef frontend;
  frontend.service_id = 1;
  frontend.name = "front";
  frontend.udp_port = 7000;
  MethodDef m;
  m.method_id = 0;
  m.request_sig.args = {WireType::kBytes};
  m.response_sig.args = {WireType::kBytes};
  m.SetFixedServiceTime(Microseconds(1));
  m.nested_call = [](const std::vector<WireValue>& args) {
    MethodDef::NestedCall call;
    call.dst_port = 7100;
    call.method_id = 0;
    call.args = {args.at(0)};
    call.request_sig.args = {WireType::kBytes};
    call.response_sig.args = {WireType::kBytes};
    return call;
  };
  m.nested_finish = [](const std::vector<WireValue>&,
                       const std::vector<WireValue>& reply) {
    return std::vector<WireValue>{reply.at(0)};
  };
  frontend.methods[0] = std::move(m);

  const ServiceDef& front = machine.AddService(std::move(frontend));
  const ServiceDef& back = machine.AddService(std::move(backend));
  machine.Start();
  machine.StartHotLoop(front);
  machine.StartHotLoop(back);
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<uint8_t> got;
  machine.client().Call(front, 0, Payload(40, 0x6b),
                        [&](const RpcMessage& r, Duration) {
                          EXPECT_EQ(r.status, RpcStatus::kOk);
                          std::vector<WireValue> out;
                          ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kBytes}},
                                                    r.payload, out));
                          got = out[0].bytes;
                        });
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(got, std::vector<uint8_t>(40, 0x6b));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().crypto_failures, 0u);
}

}  // namespace
}  // namespace lauberhorn

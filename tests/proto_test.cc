// Tests for argument marshalling, LRPC message framing, reply addressing, and
// the handler call every stack shares.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/net/headers.h"
#include "src/proto/id_window.h"
#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/sim/random.h"

namespace lauberhorn {
namespace {

TEST(MarshalTest, ScalarRoundTrip) {
  MethodSignature sig{{WireType::kU8, WireType::kU16, WireType::kU32, WireType::kU64,
                       WireType::kI64, WireType::kF64}};
  const std::vector<WireValue> in = {
      WireValue::U8(0xab),         WireValue::U16(0xbeef), WireValue::U32(0xdeadbeef),
      WireValue::U64(0x0123456789abcdefULL), WireValue::I64(-42), WireValue::F64(3.25),
  };
  std::vector<uint8_t> buf;
  ASSERT_TRUE(MarshalArgs(sig, in, buf));
  EXPECT_EQ(buf.size(), sig.EncodedSize(in));

  std::vector<WireValue> out;
  size_t consumed = 0;
  ASSERT_TRUE(UnmarshalArgs(sig, buf, out, &consumed));
  EXPECT_EQ(consumed, buf.size());
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i]) << "arg " << i;
  }
  EXPECT_EQ(out[4].AsI64(), -42);
}

TEST(MarshalTest, BytesAndStringRoundTrip) {
  MethodSignature sig{{WireType::kBytes, WireType::kString}};
  const std::vector<WireValue> in = {
      WireValue::Bytes({0, 1, 2, 255}),
      WireValue::Str("hello lauberhorn"),
  };
  std::vector<uint8_t> buf;
  ASSERT_TRUE(MarshalArgs(sig, in, buf));
  std::vector<WireValue> out;
  ASSERT_TRUE(UnmarshalArgs(sig, buf, out));
  EXPECT_EQ(out[0].bytes, in[0].bytes);
  EXPECT_EQ(out[1].str, "hello lauberhorn");
}

TEST(MarshalTest, SignatureMismatchRejected) {
  MethodSignature sig{{WireType::kU32}};
  std::vector<uint8_t> buf;
  EXPECT_FALSE(MarshalArgs(sig, std::vector<WireValue>{WireValue::U64(1)}, buf));
  EXPECT_FALSE(MarshalArgs(sig, std::vector<WireValue>{}, buf));
  EXPECT_TRUE(buf.empty());
}

TEST(MarshalTest, TruncatedInputRejected) {
  MethodSignature sig{{WireType::kU64}};
  std::vector<uint8_t> buf = {1, 2, 3};  // too short for a u64
  std::vector<WireValue> out;
  EXPECT_FALSE(UnmarshalArgs(sig, buf, out));
}

TEST(MarshalTest, FailureLeavesNoPartialValues) {
  // The first argument decodes; the second is cut short.
  MethodSignature sig{{WireType::kU16, WireType::kU64}};
  const std::vector<uint8_t> buf = {1, 2, 3, 4};
  std::vector<WireValue> out;
  EXPECT_FALSE(UnmarshalArgs(sig, buf, out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(ValidateArgs(sig, buf));
}

TEST(MarshalTest, OverlongLengthPrefixRejected) {
  MethodSignature sig{{WireType::kBytes}};
  std::vector<uint8_t> buf;
  PutU32Le(buf, 1000);  // claims 1000 bytes, provides 2
  buf.push_back(1);
  buf.push_back(2);
  std::vector<WireValue> out;
  EXPECT_FALSE(UnmarshalArgs(sig, buf, out));
}

TEST(MarshalTest, EmptySignature) {
  MethodSignature sig{};
  std::vector<uint8_t> buf;
  ASSERT_TRUE(MarshalArgs(sig, {}, buf));
  EXPECT_TRUE(buf.empty());
  std::vector<WireValue> out;
  ASSERT_TRUE(UnmarshalArgs(sig, buf, out));
  EXPECT_TRUE(out.empty());
}

// A random signature of up to eight arguments and values matching it.
void RandomArgs(Rng& rng, MethodSignature& sig, std::vector<WireValue>& in) {
  const size_t nargs = rng.UniformInt(0, 8);
  for (size_t i = 0; i < nargs; ++i) {
    const auto t = static_cast<WireType>(rng.UniformInt(1, 8));
    sig.args.push_back(t);
    switch (t) {
      case WireType::kU8:
        in.push_back(WireValue::U8(static_cast<uint8_t>(rng.Next())));
        break;
      case WireType::kU16:
        in.push_back(WireValue::U16(static_cast<uint16_t>(rng.Next())));
        break;
      case WireType::kU32:
        in.push_back(WireValue::U32(static_cast<uint32_t>(rng.Next())));
        break;
      case WireType::kU64:
        in.push_back(WireValue::U64(rng.Next()));
        break;
      case WireType::kI64:
        in.push_back(WireValue::I64(static_cast<int64_t>(rng.Next())));
        break;
      case WireType::kF64:
        in.push_back(WireValue::F64(rng.Uniform(-1e9, 1e9)));
        break;
      case WireType::kBytes: {
        std::vector<uint8_t> b(rng.UniformInt(0, 64));
        for (auto& x : b) {
          x = static_cast<uint8_t>(rng.Next());
        }
        in.push_back(WireValue::Bytes(std::move(b)));
        break;
      }
      case WireType::kString: {
        std::string s(rng.UniformInt(0, 32), 'x');
        for (auto& c : s) {
          c = static_cast<char>('a' + rng.UniformInt(0, 25));
        }
        in.push_back(WireValue::Str(std::move(s)));
        break;
      }
    }
  }
}

// Property: random values of random signatures round-trip bit-exact.
class MarshalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MarshalPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    MethodSignature sig;
    std::vector<WireValue> in;
    RandomArgs(rng, sig, in);
    std::vector<uint8_t> buf;
    ASSERT_TRUE(MarshalArgs(sig, in, buf));
    EXPECT_EQ(buf.size(), sig.EncodedSize(in));
    std::vector<WireValue> out;
    ASSERT_TRUE(UnmarshalArgs(sig, buf, out));
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i], in[i]);
    }
  }
}

// Property: ValidateArgs accepts exactly the bytes UnmarshalArgs accepts, on
// every truncation of a valid encoding, the exact encoding, overlong ones,
// and random bytes; a rejected unmarshal leaves no partial values behind.
TEST_P(MarshalPropertyTest, ValidateAgreesWithUnmarshal) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    MethodSignature sig;
    std::vector<WireValue> in;
    RandomArgs(rng, sig, in);
    std::vector<uint8_t> exact;
    ASSERT_TRUE(MarshalArgs(sig, in, exact));
    std::vector<std::vector<uint8_t>> inputs;
    for (size_t len = 0; len <= exact.size(); ++len) {
      inputs.emplace_back(exact.begin(), exact.begin() + static_cast<long>(len));
    }
    std::vector<uint8_t> overlong = exact;
    for (uint64_t extra = rng.UniformInt(1, 16); extra > 0; --extra) {
      overlong.push_back(static_cast<uint8_t>(rng.Next()));
    }
    inputs.push_back(overlong);
    std::vector<uint8_t> noise(rng.UniformInt(0, 48));
    for (auto& x : noise) {
      // Small bytes keep some length prefixes short enough to be read.
      x = static_cast<uint8_t>(rng.UniformInt(0, 3) == 0 ? rng.Next() : rng.UniformInt(0, 4));
    }
    inputs.push_back(noise);
    for (const std::vector<uint8_t>& bytes : inputs) {
      std::vector<WireValue> out = {WireValue::U8(1)};  // stale contents
      const bool unmarshalled = UnmarshalArgs(sig, bytes, out);
      ASSERT_EQ(ValidateArgs(sig, bytes), unmarshalled)
          << "iter " << iter << ", " << bytes.size() << " of " << exact.size() << " bytes";
      if (unmarshalled) {
        EXPECT_EQ(out.size(), sig.args.size());
      } else {
        EXPECT_TRUE(out.empty());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest, ::testing::Values(1, 5, 9, 42, 77));

// One output vector reused across changing signatures ends up equal to a
// fresh one each time, with every field of a reused element reset, and it
// keeps the byte buffers it grew.
TEST(MarshalTest, ReusedOutputEqualsAFreshVector) {
  const std::vector<uint8_t> long_bytes(1000, 0x42);
  const std::vector<std::pair<MethodSignature, std::vector<WireValue>>> calls = {
      {{{WireType::kBytes, WireType::kU64}},
       {WireValue::Bytes(long_bytes), WireValue::U64(9)}},
      {{{WireType::kString}}, {WireValue::Str("hello")}},
      {{{WireType::kU8, WireType::kU16, WireType::kU32, WireType::kU64, WireType::kI64,
         WireType::kF64}},
       {WireValue::U8(1), WireValue::U16(2), WireValue::U32(3), WireValue::U64(4),
        WireValue::I64(-5), WireValue::F64(6.5)}},
      {{{WireType::kString, WireType::kBytes, WireType::kF64}},
       {WireValue::Str(std::string(300, 's')), WireValue::Bytes({7, 7}),
        WireValue::F64(-0.25)}},
      {{{WireType::kBytes}}, {WireValue::Bytes({1, 2, 3})}},
      {{{WireType::kU64}}, {WireValue::U64(0xffff'ffff'ffff'ffffULL)}},
      {{{}}, {}},
  };
  std::vector<WireValue> reused;
  for (size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    const auto& [sig, values] = calls[i];
    std::vector<uint8_t> wire;
    ASSERT_TRUE(MarshalArgs(sig, values, wire));
    std::vector<WireValue> fresh;
    size_t fresh_consumed = 0;
    size_t reused_consumed = 0;
    ASSERT_TRUE(UnmarshalArgs(sig, wire, fresh, &fresh_consumed));
    ASSERT_TRUE(UnmarshalArgs(sig, wire, reused, &reused_consumed));
    EXPECT_EQ(reused, fresh);
    EXPECT_EQ(reused, values);
    EXPECT_EQ(reused_consumed, fresh_consumed);
    for (size_t k = 0; k < reused.size(); ++k) {
      EXPECT_EQ(reused[k].scalar, fresh[k].scalar);
      EXPECT_EQ(reused[k].f64, fresh[k].f64);
      EXPECT_EQ(reused[k].bytes, fresh[k].bytes);
      EXPECT_EQ(reused[k].str, fresh[k].str);
    }
    if (i == 4) {
      // The first element held 1,000 bytes two calls ago; it keeps that buffer.
      EXPECT_GE(reused[0].bytes.capacity(), long_bytes.size());
    }
  }

  // A failed unmarshal still leaves the reused vector empty.
  const MethodSignature sig{{WireType::kU64, WireType::kBytes}};
  std::vector<uint8_t> wire;
  ASSERT_TRUE(MarshalArgs(sig, {{WireValue::U64(1), WireValue::Bytes({1, 2})}}, wire));
  ASSERT_TRUE(UnmarshalArgs(sig, wire, reused));
  ASSERT_EQ(reused.size(), 2u);
  wire.pop_back();  // the byte string overruns
  EXPECT_FALSE(UnmarshalArgs(sig, wire, reused));
  EXPECT_TRUE(reused.empty());
}

TEST(RpcMessageTest, EncodeDecodeRoundTrip) {
  RpcMessage msg;
  msg.kind = MessageKind::kRequest;
  msg.service_id = 17;
  msg.method_id = 3;
  msg.request_id = 0xfeedfacecafebeefULL;
  msg.payload = {9, 8, 7};

  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  EXPECT_EQ(wire.size(), msg.WireSize());

  const auto decoded = DecodeRpcMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, MessageKind::kRequest);
  EXPECT_EQ(decoded->service_id, 17u);
  EXPECT_EQ(decoded->method_id, 3);
  EXPECT_EQ(decoded->request_id, 0xfeedfacecafebeefULL);
  EXPECT_EQ(decoded->payload, msg.payload);
}

TEST(RpcMessageTest, ResponseCarriesStatus) {
  RpcMessage msg;
  msg.kind = MessageKind::kResponse;
  msg.status = RpcStatus::kNoSuchMethod;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  const auto decoded = DecodeRpcMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, MessageKind::kResponse);
  EXPECT_EQ(decoded->status, RpcStatus::kNoSuchMethod);
}

TEST(RpcMessageTest, BadMagicRejected) {
  RpcMessage msg;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire[0] ^= 0xff;
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, BadVersionRejected) {
  RpcMessage msg;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire[2] = 99;
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, BadKindRejected) {
  RpcMessage msg;
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire[3] = 0;
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, TruncatedPayloadRejected) {
  RpcMessage msg;
  msg.payload.assign(100, 1);
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  wire.resize(wire.size() - 1);
  EXPECT_FALSE(DecodeRpcMessage(wire).has_value());
}

TEST(RpcMessageTest, EmptyInputRejected) {
  EXPECT_FALSE(DecodeRpcMessage(std::span<const uint8_t>{}).has_value());
}

TEST(RpcMessageTest, PeekAcceptsExactlyWhatDecodeAccepts) {
  RpcMessage request;
  request.kind = MessageKind::kRequest;
  request.request_id = 0x0102030405060708ULL;
  request.payload.assign(40, 7);
  RpcMessage response = request;
  response.kind = MessageKind::kResponse;
  response.request_id = 99;
  std::vector<uint8_t> valid_request;
  EncodeRpcMessage(request, valid_request);
  std::vector<uint8_t> valid_response;
  EncodeRpcMessage(response, valid_response);

  // One frame per malformed-header class, plus every truncation of a valid
  // frame (inside the header and inside the payload) and a zero-length one.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> frames = {
      {"request", valid_request}, {"response", valid_response}};
  const auto mutate = [&](const std::string& name, size_t offset, uint8_t value) {
    std::vector<uint8_t> wire = valid_request;
    wire[offset] = value;
    frames.emplace_back(name, std::move(wire));
  };
  mutate("bad magic", 0, 0);
  mutate("bad version", 2, kLrpcVersion + 1);
  mutate("kind 0", 3, 0);
  mutate("kind 3", 3, 3);
  mutate("payload length past end", 20, 41);
  for (size_t len = 0; len < valid_request.size(); ++len) {
    frames.emplace_back("truncated to " + std::to_string(len),
                        std::vector<uint8_t>(valid_request.begin(),
                                             valid_request.begin() +
                                                 static_cast<long>(len)));
  }

  int accepted = 0;
  for (const auto& [name, wire] : frames) {
    const auto decoded = DecodeRpcMessage(wire);
    const auto peeked = PeekRpcHeader(wire);
    ASSERT_EQ(peeked.has_value(), decoded.has_value()) << name;
    if (decoded.has_value()) {
      ++accepted;
      EXPECT_EQ(peeked->kind, decoded->kind) << name;
      EXPECT_EQ(peeked->request_id, decoded->request_id) << name;
    }
  }
  EXPECT_EQ(accepted, 2);  // only the two valid frames
}

void ExpectSameMessage(const RpcMessage& a, const RpcMessage& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.service_id, b.service_id);
  EXPECT_EQ(a.method_id, b.method_id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.grant, b.grant);
  EXPECT_EQ(a.payload, b.payload);
}

// DecodeRpcMessageFrom gives the same verdict, header and payload as
// DecodeRpcMessage on every frame class; on success the payload lives in the
// frame's own buffer, and on failure the frame is untouched.
TEST(RpcMessageTest, InPlaceDecodeMatchesCopyingDecode) {
  RpcMessage request;
  request.kind = MessageKind::kRequest;
  request.service_id = 0x0a0b0c0d;
  request.method_id = 5;
  request.request_id = 0x0102030405060708ULL;
  request.flags = kLrpcFlagEcnEcho | kLrpcFlagGrant;
  request.grant = 77;
  for (size_t i = 0; i < 40; ++i) {
    request.payload.push_back(static_cast<uint8_t>(i * 29 + 3));
  }
  std::vector<uint8_t> valid;
  EncodeRpcMessage(request, valid);
  RpcMessage empty = request;
  empty.kind = MessageKind::kResponse;
  empty.status = RpcStatus::kInternal;
  empty.payload.clear();
  std::vector<uint8_t> valid_empty;
  EncodeRpcMessage(empty, valid_empty);

  struct Case {
    std::string name;
    std::vector<uint8_t> message;
    size_t padding = 0;  // bytes after the message that are not part of it
  };
  std::vector<Case> cases = {{"valid", valid},
                             {"empty payload", valid_empty},
                             {"ethernet padding", valid, 18},
                             {"empty payload, padded", valid_empty, 26}};
  const auto mutate = [&](const std::string& name, size_t offset, uint8_t value) {
    std::vector<uint8_t> wire = valid;
    wire[offset] = value;
    cases.push_back({name, std::move(wire)});
  };
  mutate("bad magic", 0, 0x4d);
  mutate("bad version", 2, kLrpcVersion + 1);
  mutate("kind 0", 3, 0);
  mutate("kind 3", 3, 3);
  mutate("payload length past end", 20, 41);
  // Padding cannot lend the payload its bytes: the length counts only the
  // message.
  cases.push_back({"payload length into padding", valid, 8});
  cases.back().message[20] = 48;
  for (size_t len = 0; len <= kLrpcHeaderSize; ++len) {
    cases.push_back({"truncated to " + std::to_string(len),
                     std::vector<uint8_t>(valid.begin(),
                                          valid.begin() + static_cast<long>(len))});
  }

  int accepted = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // The message sits behind 42 bytes of frame headers, followed by the
    // padding (0xee), as in a received Ethernet frame.
    std::vector<uint8_t> frame(kAllHeadersSize + c.message.size() + c.padding, 0xee);
    std::fill_n(frame.begin(), kAllHeadersSize, 0x99);
    std::copy(c.message.begin(), c.message.end(), frame.begin() + kAllHeadersSize);
    const std::vector<uint8_t> original = frame;
    const uint8_t* buffer = frame.data();

    const auto copied =
        DecodeRpcMessage(std::span(original).subspan(kAllHeadersSize, c.message.size()));
    const auto in_place =
        DecodeRpcMessageFrom(std::move(frame), kAllHeadersSize, c.message.size());
    ASSERT_EQ(in_place.has_value(), copied.has_value());
    if (!copied.has_value()) {
      EXPECT_EQ(frame, original);  // a rejected frame is left as it was
      continue;
    }
    ++accepted;
    ExpectSameMessage(*in_place, *copied);
    if (!in_place->payload.empty()) {
      EXPECT_EQ(in_place->payload.data(), buffer);
    }
  }
  EXPECT_EQ(accepted, 4);  // the valid, empty and padded frames
}

// --- BuildRpcFrame: the one-buffer frame --------------------------------------

struct FrameCase {
  EthernetHeader eth;
  Ipv4Header ip;
  UdpHeader udp;
  RpcMessage msg;
};

FrameCase MakeFrameCase(MessageKind kind, uint8_t ecn, uint8_t flags, size_t payload_size) {
  FrameCase c;
  c.eth.dst = {0x02, 0, 0, 0, 0, 0x01};
  c.eth.src = {0x02, 0, 0, 0, 0, 0x02};
  c.ip.src = MakeIpv4(10, 0, 0, 1);
  c.ip.dst = MakeIpv4(10, 0, 1, 2);
  c.ip.ecn = ecn;
  c.udp.src_port = 40001;
  c.udp.dst_port = 7000;
  c.msg.kind = kind;
  c.msg.service_id = 0x01020304;
  c.msg.method_id = 7;
  c.msg.status = kind == MessageKind::kResponse ? RpcStatus::kOverloaded : RpcStatus::kOk;
  c.msg.request_id = 0x1122334455667788ULL;
  c.msg.flags = flags;
  c.msg.grant = (flags & kLrpcFlagGrant) != 0 ? 37 : 0;
  for (size_t i = 0; i < payload_size; ++i) {
    c.msg.payload.push_back(static_cast<uint8_t>(i * 131 + 17));
  }
  return c;
}

TEST(RpcFrameTest, MatchesKnownFrameBytes) {
  // Produced by encoding into a scratch vector and framing a copy of it; pins
  // every header byte and both checksums independently of this build.
  FrameCase c = MakeFrameCase(MessageKind::kResponse, kEcnCe,
                              kLrpcFlagEcnEcho | kLrpcFlagGrant, 0);
  c.msg.payload = {0xde, 0xad, 0xbe, 0xef, 0x01};
  const std::vector<uint8_t> expected = {
      0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02,
      0x08, 0x00, 0x45, 0x03, 0x00, 0x41, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11,
      0x65, 0xa7, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x01, 0x02, 0x9c, 0x41,
      0x1b, 0x58, 0x00, 0x2d, 0xb2, 0xf0, 0x4c, 0x52, 0x02, 0x02, 0x04, 0x03,
      0x02, 0x01, 0x07, 0x00, 0x04, 0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
      0x22, 0x11, 0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x25, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01};
  EXPECT_EQ(BuildRpcFrame(c.eth, c.ip, c.udp, c.msg).bytes, expected);
}

TEST(RpcFrameTest, EqualsEncodeThenFrameAndRoundTrips) {
  for (MessageKind kind : {MessageKind::kRequest, MessageKind::kResponse}) {
    for (uint8_t ecn : {kEcnNotEct, kEcnEct0, kEcnCe}) {
      for (uint8_t flags : {uint8_t{0}, kLrpcFlagEcnEcho, kLrpcFlagGrant,
                            static_cast<uint8_t>(kLrpcFlagEcnEcho | kLrpcFlagGrant)}) {
        for (size_t payload_size : {size_t{0}, size_t{1}, size_t{63}, size_t{1400}}) {
          const FrameCase c = MakeFrameCase(kind, ecn, flags, payload_size);
          SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) + " ecn " +
                       std::to_string(ecn) + " flags " + std::to_string(flags) +
                       " payload " + std::to_string(payload_size));
          const Packet frame = BuildRpcFrame(c.eth, c.ip, c.udp, c.msg);
          std::vector<uint8_t> wire;
          EncodeRpcMessage(c.msg, wire);
          EXPECT_EQ(frame.bytes, BuildUdpFrame(c.eth, c.ip, c.udp, wire).bytes);
          EXPECT_EQ(frame.bytes.capacity(), frame.bytes.size());  // sized once

          const auto parsed = ParseUdpFrame(frame);
          ASSERT_TRUE(parsed.has_value());
          EXPECT_EQ(parsed->ip.ecn, ecn);
          EXPECT_EQ(parsed->udp.dst_port, c.udp.dst_port);
          const auto decoded = DecodeRpcMessage(parsed->payload);
          ASSERT_TRUE(decoded.has_value());
          EXPECT_EQ(decoded->kind, kind);
          EXPECT_EQ(decoded->service_id, c.msg.service_id);
          EXPECT_EQ(decoded->method_id, c.msg.method_id);
          EXPECT_EQ(decoded->status, c.msg.status);
          EXPECT_EQ(decoded->request_id, c.msg.request_id);
          EXPECT_EQ(decoded->flags, flags);
          EXPECT_EQ(decoded->grant, c.msg.grant);
          EXPECT_EQ(decoded->payload, c.msg.payload);
        }
      }
    }
  }
}

// A received frame may carry Ethernet padding after its UDP payload; the
// in-place decode takes the message's bounds from the UDP parse, as the
// NIC's RX step and the client do, and matches the copying decode.
TEST(RpcFrameTest, InPlaceDecodeOfAPaddedFrameMatchesCopyingDecode) {
  for (size_t payload_size : {size_t{0}, size_t{1}, size_t{64}, size_t{1400}}) {
    SCOPED_TRACE("payload " + std::to_string(payload_size));
    const FrameCase c = MakeFrameCase(MessageKind::kResponse, kEcnEct0, 0, payload_size);
    Packet frame = BuildRpcFrame(c.eth, c.ip, c.udp, c.msg);
    frame.bytes.insert(frame.bytes.end(), 12, 0xa5);  // padding
    const auto parsed = ParseUdpFrame(frame);
    ASSERT_TRUE(parsed.has_value());
    const auto copied = DecodeRpcMessage(parsed->payload);
    ASSERT_TRUE(copied.has_value());
    const size_t offset = parsed->payload.data() - frame.bytes.data();
    const auto in_place =
        DecodeRpcMessageFrom(std::move(frame.bytes), offset, parsed->payload.size());
    ASSERT_TRUE(in_place.has_value());
    ExpectSameMessage(*in_place, *copied);
    EXPECT_EQ(in_place->payload, c.msg.payload);
  }
}

// --- ReplyFrame and InvokeMethod: shared by every stack ----------------------

TEST(ReplyFrameTest, SwapsAddressingAndAnswersEcnCapableRequestsWithEct0) {
  constexpr uint8_t kEcnEct1 = 0b01;
  for (uint8_t ecn : {kEcnNotEct, kEcnEct1, kEcnEct0, kEcnCe}) {
    SCOPED_TRACE("request ecn " + std::to_string(ecn));
    const FrameCase request = MakeFrameCase(MessageKind::kRequest, ecn, 0, 4);
    RpcMessage response =
        ResponseHeader(request.msg.service_id, request.msg.method_id,
                       request.msg.request_id);
    response.payload = {9, 8, 7};
    const Packet reply = ReplyFrame(request.eth, request.ip, request.udp, response);
    const auto parsed = ParseUdpFrame(reply);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->eth.dst, request.eth.src);
    EXPECT_EQ(parsed->eth.src, request.eth.dst);
    EXPECT_EQ(parsed->ip.dst, request.ip.src);
    EXPECT_EQ(parsed->ip.src, request.ip.dst);
    EXPECT_EQ(parsed->udp.dst_port, request.udp.src_port);
    EXPECT_EQ(parsed->udp.src_port, request.udp.dst_port);
    EXPECT_EQ(parsed->ip.ecn, ecn != kEcnNotEct ? kEcnEct0 : kEcnNotEct);
    const auto decoded = DecodeRpcMessage(parsed->payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, MessageKind::kResponse);
    EXPECT_EQ(decoded->service_id, request.msg.service_id);
    EXPECT_EQ(decoded->method_id, request.msg.method_id);
    EXPECT_EQ(decoded->request_id, request.msg.request_id);
    EXPECT_EQ(decoded->status, RpcStatus::kOk);
    EXPECT_EQ(decoded->flags, 0);  // the echo is the caller's decision
    EXPECT_EQ(decoded->payload, response.payload);
  }
}

TEST(InvokeMethodTest, UnknownMethodIsNoSuchMethod) {
  RpcMessage response = ResponseHeader(1, 3, 42);
  EXPECT_EQ(InvokeMethod(nullptr, {}, response), 0);
  EXPECT_EQ(response.status, RpcStatus::kNoSuchMethod);
  EXPECT_TRUE(response.payload.empty());
}

TEST(InvokeMethodTest, MalformedArgumentsAreBadArgumentsWithEmptyPayload) {
  const ServiceDef echo = ServiceRegistry::MakeEchoService(1, 7000, Microseconds(3));
  bool ran = false;
  MethodDef method = echo.methods.at(0);
  method.handler = [&ran](const std::vector<WireValue>& args) {
    ran = true;
    return args;
  };
  const std::vector<uint8_t> malformed = {0xff, 0xff};  // length prefix overruns
  RpcMessage response = ResponseHeader(1, 0, 42);
  EXPECT_EQ(InvokeMethod(&method, malformed, response), 0);
  EXPECT_EQ(response.status, RpcStatus::kBadArguments);
  EXPECT_TRUE(response.payload.empty());
  EXPECT_FALSE(ran);
}

TEST(InvokeMethodTest, SuccessMarshalsResultAndReturnsServiceTime) {
  const ServiceDef echo = ServiceRegistry::MakeEchoService(1, 7000, Microseconds(3));
  const MethodDef& method = echo.methods.at(0);
  const std::vector<WireValue> args = {WireValue::Bytes({1, 2, 3})};
  std::vector<uint8_t> request;
  ASSERT_TRUE(MarshalArgs(method.request_sig, args, request));
  std::vector<uint8_t> expected;
  ASSERT_TRUE(MarshalArgs(method.response_sig, args, expected));

  RpcMessage response = ResponseHeader(1, 0, 42);
  EXPECT_EQ(InvokeMethod(&method, request, response), Microseconds(3));
  EXPECT_EQ(response.status, RpcStatus::kOk);
  EXPECT_EQ(response.payload, expected);
  EXPECT_EQ(response.request_id, 42u);
}

TEST(InvokeMethodTest, ResultNotMatchingResponseSigIsInternalWithEmptyPayload) {
  const ServiceDef echo = ServiceRegistry::MakeEchoService(1, 7000, Microseconds(3));
  MethodDef method = echo.methods.at(0);  // response_sig {kBytes}
  method.handler = [](const std::vector<WireValue>&) {
    return std::vector<WireValue>{WireValue::U64(7)};
  };
  std::vector<uint8_t> request;
  ASSERT_TRUE(MarshalArgs(method.request_sig, {{WireValue::Bytes({1, 2})}}, request));
  RpcMessage response = ResponseHeader(1, 0, 42);
  EXPECT_EQ(InvokeMethod(&method, request, response), Microseconds(3));  // it ran
  EXPECT_EQ(response.status, RpcStatus::kInternal);
  EXPECT_TRUE(response.payload.empty());
}

// The argument vector is per-thread scratch; a handler that itself calls
// InvokeMethod gets a vector of its own, so both calls see their own
// arguments and both results are right.
TEST(InvokeMethodTest, HandlerThatInvokesAMethodGetsBothResultsRight) {
  const ServiceDef echo = ServiceRegistry::MakeEchoService(1, 7000, Microseconds(2));
  const MethodDef& inner = echo.methods.at(0);
  MethodDef outer;
  outer.request_sig.args = {WireType::kU64, WireType::kBytes};
  outer.response_sig.args = {WireType::kU64, WireType::kBytes, WireType::kBytes};
  outer.SetFixedServiceTime(Microseconds(5));
  RpcMessage inner_response = ResponseHeader(1, 0, 7);
  outer.handler = [&](const std::vector<WireValue>& args) {
    std::vector<uint8_t> reversed(args[1].bytes.rbegin(), args[1].bytes.rend());
    std::vector<uint8_t> inner_request;
    EXPECT_TRUE(MarshalArgs(inner.request_sig, {{WireValue::Bytes(reversed)}},
                            inner_request));
    EXPECT_EQ(InvokeMethod(&inner, inner_request, inner_response), Microseconds(2));
    std::vector<WireValue> echoed;
    EXPECT_TRUE(UnmarshalArgs(inner.response_sig, inner_response.payload, echoed));
    // The outer arguments are intact after the inner call.
    return std::vector<WireValue>{WireValue::U64(args[0].scalar + 1),
                                  WireValue::Bytes(args[1].bytes),
                                  WireValue::Bytes(echoed.at(0).bytes)};
  };

  for (uint64_t round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<uint8_t> body = {1, 2, 3, static_cast<uint8_t>(round)};
    std::vector<uint8_t> request;
    ASSERT_TRUE(MarshalArgs(outer.request_sig,
                            {{WireValue::U64(100 + round), WireValue::Bytes(body)}}, request));
    RpcMessage response = ResponseHeader(2, 0, 8);
    EXPECT_EQ(InvokeMethod(&outer, request, response), Microseconds(5));
    EXPECT_EQ(response.status, RpcStatus::kOk);
    EXPECT_EQ(inner_response.status, RpcStatus::kOk);
    std::vector<WireValue> result;
    ASSERT_TRUE(UnmarshalArgs(outer.response_sig, response.payload, result));
    EXPECT_EQ(result[0].scalar, 101 + round);
    EXPECT_EQ(result[1].bytes, body);
    EXPECT_EQ(result[2].bytes, std::vector<uint8_t>(body.rbegin(), body.rend()));
    inner_response.payload.clear();
  }
}

// The set-plus-deque window IdWindow replaces: same eviction rule, the
// oldest inserted id first.
class ReferenceIdWindow {
 public:
  bool Contains(uint64_t id) const { return ids_.count(id) != 0; }
  void Insert(uint64_t id) {
    if (!ids_.insert(id).second) {
      return;
    }
    order_.push_back(id);
    if (order_.size() > IdWindow::kCapacity) {
      ids_.erase(order_.front());
      order_.pop_front();
    }
  }

 private:
  std::unordered_set<uint64_t> ids_;
  std::deque<uint64_t> order_;
};

TEST(IdWindowTest, EvictsOldestInsertedNotLowestId) {
  IdWindow window;
  EXPECT_FALSE(window.Contains(0));
  const uint64_t base = (uint64_t{3} << 40) | 1;
  window.Insert(base + 1);
  window.Insert(base);  // lower id, inserted second
  for (uint64_t i = 2; i < IdWindow::kCapacity; ++i) {
    window.Insert(base + i);
  }
  EXPECT_EQ(window.size(), IdWindow::kCapacity);
  window.Insert(base + 1);  // already held: no change, no eviction
  EXPECT_TRUE(window.Contains(base + 1));
  window.Insert(base + IdWindow::kCapacity);
  EXPECT_FALSE(window.Contains(base + 1));
  EXPECT_TRUE(window.Contains(base));
  window.Insert(base + IdWindow::kCapacity + 1);
  EXPECT_FALSE(window.Contains(base));
  EXPECT_TRUE(window.Contains(base + 2));
  EXPECT_FALSE(window.Contains(base + IdWindow::kCapacity + 2));
}

TEST(IdWindowTest, StragglerBelowTheBitmapIsStillFound) {
  // An id that retires after 100,000 newer ones sits below the bitmap and
  // must still be remembered until kCapacity newer retirements pass.
  IdWindow window;
  const uint64_t straggler = 7;
  for (uint64_t id = 100; id < 100000; ++id) {
    window.Insert(id);
  }
  window.Insert(straggler);
  EXPECT_TRUE(window.Contains(straggler));
  EXPECT_TRUE(window.Contains(99999));
  EXPECT_FALSE(window.Contains(100));
  for (uint64_t id = 100000; id < 100000 + IdWindow::kCapacity - 1; ++id) {
    window.Insert(id);
  }
  EXPECT_TRUE(window.Contains(straggler));
  window.Insert(1 << 30);  // a jump past the whole bitmap
  EXPECT_FALSE(window.Contains(straggler));
  EXPECT_TRUE(window.Contains(1 << 30));
  EXPECT_TRUE(window.Contains(100000 + IdWindow::kCapacity - 2));
}

// Ids retire out of order, a few of them 40,000 ids late (below the
// bitmap), at high id offsets and near the top of the id space; membership
// must match the reference after every insert.
TEST(IdWindowTest, MatchesSetAndDequeReference) {
  for (uint64_t start : {uint64_t{1}, (uint64_t{5} << 40) | 1,
                         ~uint64_t{0} - 200000}) {
    Rng rng(start);
    IdWindow window;
    ReferenceIdWindow reference;
    std::vector<uint64_t> open;
    std::vector<std::pair<int, uint64_t>> parked;  // (release step, id)
    uint64_t next = start;
    for (int step = 0; step < 60000; ++step) {
      while (open.size() < 64) {
        open.push_back(next++);
      }
      uint64_t id = 0;
      if (!parked.empty() && parked.front().first <= step) {
        id = parked.front().second;  // retires 40,000 ids late
        parked.erase(parked.begin());
      } else {
        // Mostly one of the oldest open ids, now and then any of them.
        const size_t pick = rng.UniformInt(0, 99) < 98 ? rng.UniformInt(0, 7)
                                                       : rng.UniformInt(0, 63);
        id = open[pick];
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        if (rng.UniformInt(0, 999) == 0) {
          parked.emplace_back(step + 40000, id);
          continue;
        }
      }
      window.Insert(id);
      reference.Insert(id);
      const uint64_t probe = next - rng.UniformInt(1, 40000);
      ASSERT_EQ(window.Contains(id), reference.Contains(id));
      ASSERT_EQ(window.Contains(probe), reference.Contains(probe)) << probe;
    }
  }
}

}  // namespace
}  // namespace lauberhorn

// Tests for argument marshalling and LRPC message framing.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"
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

// Property: random values of random signatures round-trip bit-exact.
class MarshalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MarshalPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    MethodSignature sig;
    std::vector<WireValue> in;
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
    std::vector<uint8_t> buf;
    ASSERT_TRUE(MarshalArgs(sig, in, buf));
    std::vector<WireValue> out;
    ASSERT_TRUE(UnmarshalArgs(sig, buf, out));
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i], in[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest, ::testing::Values(1, 5, 9, 42, 77));

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

}  // namespace
}  // namespace lauberhorn

#include "src/proto/rpc_message.h"

#include <array>
#include <cassert>
#include <cstring>

namespace lauberhorn {

RpcMessage ResponseHeader(uint32_t service_id, uint16_t method_id, uint64_t request_id) {
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.service_id = service_id;
  response.method_id = method_id;
  response.request_id = request_id;
  return response;
}

void EncodeRpcMessage(const RpcMessage& msg, std::vector<uint8_t>& out) {
  // The header is assembled on the stack and appended with the payload in
  // two bulk copies; `out` grows at most once.
  std::array<uint8_t, kLrpcHeaderSize> header{};  // reserved fields stay 0
  const auto put = [&header](size_t off, uint64_t v, size_t width) {
    for (size_t i = 0; i < width; ++i) {
      header[off + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put(0, kLrpcMagic, 2);
  header[2] = kLrpcVersion;
  header[3] = static_cast<uint8_t>(msg.kind);
  put(4, msg.service_id, 4);
  put(8, msg.method_id, 2);
  put(10, static_cast<uint16_t>(msg.status), 2);
  put(12, msg.request_id, 8);
  put(20, msg.payload.size(), 4);
  header[24] = msg.flags;
  put(26, msg.grant, 2);
  out.reserve(out.size() + msg.WireSize());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
}

Packet BuildRpcFrame(const EthernetHeader& eth, const Ipv4Header& ip,
                     const UdpHeader& udp, const RpcMessage& msg) {
  Packet packet;
  packet.bytes.reserve(kAllHeadersSize + msg.WireSize());
  packet.bytes.resize(kAllHeadersSize);
  EncodeRpcMessage(msg, packet.bytes);
  WriteUdpHeaders(eth, ip, udp, packet.bytes);
  return packet;
}

Packet ReplyFrame(const EthernetHeader& eth, const Ipv4Header& ip, const UdpHeader& udp,
                  const RpcMessage& response) {
  EthernetHeader reply_eth;
  reply_eth.dst = eth.src;
  reply_eth.src = eth.dst;
  Ipv4Header reply_ip;
  reply_ip.src = ip.dst;
  reply_ip.dst = ip.src;
  reply_ip.ecn = ip.ecn != kEcnNotEct ? kEcnEct0 : kEcnNotEct;
  UdpHeader reply_udp;
  reply_udp.src_port = udp.dst_port;
  reply_udp.dst_port = udp.src_port;
  return BuildRpcFrame(reply_eth, reply_ip, reply_udp, response);
}

namespace {

// Validates the framing (magic, version, kind, a complete header, and a
// payload length that fits `in`) and fills every header field of `msg`.
// Decode and peek share it, so they accept exactly the same frames. The
// payload starts at kLrpcHeaderSize.
bool DecodeHeader(std::span<const uint8_t> in, RpcMessage& msg, uint32_t& payload_length) {
  if (in.size() < kLrpcHeaderSize) {
    return false;
  }
  const uint8_t* h = in.data();
  const uint8_t version = h[2];
  const uint8_t kind = h[3];
  if (LoadLe<uint16_t>(h) != kLrpcMagic || version != kLrpcVersion ||
      (kind != static_cast<uint8_t>(MessageKind::kRequest) &&
       kind != static_cast<uint8_t>(MessageKind::kResponse))) {
    return false;
  }
  payload_length = LoadLe<uint32_t>(h + 20);
  if (payload_length > in.size() - kLrpcHeaderSize) {
    return false;
  }
  msg.kind = static_cast<MessageKind>(kind);
  msg.service_id = LoadLe<uint32_t>(h + 4);
  msg.method_id = LoadLe<uint16_t>(h + 8);
  msg.status = static_cast<RpcStatus>(LoadLe<uint16_t>(h + 10));
  msg.request_id = LoadLe<uint64_t>(h + 12);
  msg.flags = h[24];
  msg.grant = LoadLe<uint16_t>(h + 26);  // h[25] and h[28..31] are reserved
  return true;
}

}  // namespace

std::optional<RpcMessage> DecodeRpcMessage(std::span<const uint8_t> in) {
  RpcMessage msg;
  uint32_t payload_length = 0;
  if (!DecodeHeader(in, msg, payload_length)) {
    return std::nullopt;
  }
  const auto payload = in.subspan(kLrpcHeaderSize, payload_length);
  msg.payload.assign(payload.begin(), payload.end());
  return msg;
}

std::optional<RpcMessage> DecodeRpcMessageFrom(std::vector<uint8_t>&& frame, size_t offset,
                                               size_t size) {
  assert(offset + size <= frame.size() && "message past the end of the frame");
  RpcMessage msg;
  uint32_t payload_length = 0;
  if (!DecodeHeader(std::span(frame).subspan(offset, size), msg, payload_length)) {
    return std::nullopt;
  }
  // Slide the payload to the front of the frame's buffer and cut the rest:
  // a shrinking resize keeps the buffer, so nothing is allocated.
  std::memmove(frame.data(), frame.data() + offset + kLrpcHeaderSize, payload_length);
  frame.resize(payload_length);
  msg.payload = std::move(frame);
  return msg;
}

std::optional<RpcHeaderPeek> PeekRpcHeader(std::span<const uint8_t> in) {
  RpcMessage header;  // the payload stays empty: nothing is copied
  uint32_t payload_length = 0;
  if (!DecodeHeader(in, header, payload_length)) {
    return std::nullopt;
  }
  return RpcHeaderPeek{header.kind, header.request_id};
}

}  // namespace lauberhorn

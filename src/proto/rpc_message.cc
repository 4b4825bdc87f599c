#include "src/proto/rpc_message.h"

namespace lauberhorn {

void EncodeRpcMessage(const RpcMessage& msg, std::vector<uint8_t>& out) {
  out.reserve(out.size() + msg.WireSize());
  PutU16Le(out, kLrpcMagic);
  out.push_back(kLrpcVersion);
  out.push_back(static_cast<uint8_t>(msg.kind));
  PutU32Le(out, msg.service_id);
  PutU16Le(out, msg.method_id);
  PutU16Le(out, static_cast<uint16_t>(msg.status));
  PutU64Le(out, msg.request_id);
  PutU32Le(out, static_cast<uint32_t>(msg.payload.size()));
  out.push_back(msg.flags);
  out.push_back(0);  // reserved
  PutU16Le(out, msg.grant);
  PutU32Le(out, 0);  // reserved2
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
}

namespace {

// Validates the framing (magic, version, kind, a complete header, and a
// payload length that fits `in`) and fills every header field of `msg`.
// Decode and peek share it, so they accept exactly the same frames.
bool DecodeHeader(std::span<const uint8_t> in, RpcMessage& msg,
                  size_t& payload_offset, uint32_t& payload_length) {
  size_t off = 0;
  uint16_t magic = 0;
  if (!GetU16Le(in, off, magic) || magic != kLrpcMagic) {
    return false;
  }
  if (off + 2 > in.size()) {
    return false;
  }
  const uint8_t version = in[off++];
  const uint8_t kind = in[off++];
  if (version != kLrpcVersion ||
      (kind != static_cast<uint8_t>(MessageKind::kRequest) &&
       kind != static_cast<uint8_t>(MessageKind::kResponse))) {
    return false;
  }
  msg.kind = static_cast<MessageKind>(kind);
  uint16_t status = 0;
  if (!GetU32Le(in, off, msg.service_id) || !GetU16Le(in, off, msg.method_id) ||
      !GetU16Le(in, off, status) || !GetU64Le(in, off, msg.request_id) ||
      !GetU32Le(in, off, payload_length)) {
    return false;
  }
  msg.status = static_cast<RpcStatus>(status);
  if (off + 2 > in.size()) {
    return false;
  }
  msg.flags = in[off++];
  ++off;  // reserved
  uint32_t reserved2 = 0;
  if (!GetU16Le(in, off, msg.grant) || !GetU32Le(in, off, reserved2)) {
    return false;
  }
  if (off + payload_length > in.size()) {
    return false;
  }
  payload_offset = off;
  return true;
}

}  // namespace

std::optional<RpcMessage> DecodeRpcMessage(std::span<const uint8_t> in) {
  RpcMessage msg;
  size_t off = 0;
  uint32_t payload_length = 0;
  if (!DecodeHeader(in, msg, off, payload_length)) {
    return std::nullopt;
  }
  msg.payload.assign(in.begin() + off, in.begin() + off + payload_length);
  return msg;
}

std::optional<RpcHeaderPeek> PeekRpcHeader(std::span<const uint8_t> in) {
  RpcMessage header;  // the payload stays empty: nothing is copied
  size_t off = 0;
  uint32_t payload_length = 0;
  if (!DecodeHeader(in, header, off, payload_length)) {
    return std::nullopt;
  }
  return RpcHeaderPeek{header.kind, header.request_id};
}

}  // namespace lauberhorn

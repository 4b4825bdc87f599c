// LRPC message framing: the RPC-over-UDP wire format spoken by clients and
// decoded by every NIC model in this repository.
//
// Layout (little-endian, 32-byte header, then the marshalled payload):
//   u16 magic      'LR' (0x524c)
//   u8  version    2
//   u8  kind       MessageKind
//   u32 service_id
//   u16 method_id
//   u16 status     RpcStatus (responses; 0 in requests)
//   u64 request_id
//   u32 payload_length
//   u8  flags      congestion-control bits (kLrpcFlag*)
//   u8  reserved   must be 0
//   u16 grant      receiver-driven credit (valid when kLrpcFlagGrant set)
//   u32 reserved2  must be 0
//   u8  payload[payload_length]
//
// Version 2 appended the 8 congestion-control bytes (flags/grant) to the v1
// header; request_id stays at offset 12 so header peeks are layout-stable.
#ifndef SRC_PROTO_RPC_MESSAGE_H_
#define SRC_PROTO_RPC_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/net/headers.h"
#include "src/net/packet.h"
#include "src/proto/marshal.h"

namespace lauberhorn {

inline constexpr uint16_t kLrpcMagic = 0x524c;  // "LR"
inline constexpr uint8_t kLrpcVersion = 2;
inline constexpr size_t kLrpcHeaderSize = 32;

// Congestion-control flag bits (the NIC-terminated transport loop).
// kLrpcFlagEcnEcho: a response echoing that the request arrived CE-marked —
// the DCTCP feedback signal. kLrpcFlagGrant: the `grant` field carries a
// receiver-issued credit (absent on sheds, so a rejected request never
// extends the sender's window).
inline constexpr uint8_t kLrpcFlagEcnEcho = 0x1;
inline constexpr uint8_t kLrpcFlagGrant = 0x2;

enum class MessageKind : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

enum class RpcStatus : uint16_t {
  kOk = 0,
  kNoSuchService = 1,
  kNoSuchMethod = 2,
  kBadArguments = 3,
  kOverloaded = 4,
  kInternal = 5,
};

struct RpcMessage {
  MessageKind kind = MessageKind::kRequest;
  uint32_t service_id = 0;
  uint16_t method_id = 0;
  RpcStatus status = RpcStatus::kOk;
  uint64_t request_id = 0;
  uint8_t flags = 0;   // kLrpcFlag* bits
  uint16_t grant = 0;  // receiver credit, meaningful with kLrpcFlagGrant
  std::vector<uint8_t> payload;  // marshalled args or return values

  size_t WireSize() const { return kLrpcHeaderSize + payload.size(); }
};

// The response to a request, before its handler runs: kind kResponse, the
// request's ids, status kOk and no payload.
RpcMessage ResponseHeader(uint32_t service_id, uint16_t method_id, uint64_t request_id);

// Appends the encoded message to `out`.
void EncodeRpcMessage(const RpcMessage& msg, std::vector<uint8_t>& out);

// Builds the complete Ethernet+IPv4+UDP frame carrying `msg`: one buffer,
// sized once, with the LRPC header and payload encoded straight after the
// UDP header and the IPv4/UDP headers and checksums written in place. The
// bytes equal BuildUdpFrame(eth, ip, udp, <EncodeRpcMessage(msg)>).
Packet BuildRpcFrame(const EthernetHeader& eth, const Ipv4Header& ip,
                     const UdpHeader& udp, const RpcMessage& msg);

// The frame carrying `response` back to the sender of a request that arrived
// with `eth`/`ip`/`udp`: MAC addresses, IP addresses and UDP ports swapped,
// and ECT(0) exactly when the request was ECN-capable, so congestion on the
// return path is observable too.
Packet ReplyFrame(const EthernetHeader& eth, const Ipv4Header& ip, const UdpHeader& udp,
                  const RpcMessage& response);

// Decodes one message from `in`; returns nullopt on malformed framing.
std::optional<RpcMessage> DecodeRpcMessage(std::span<const uint8_t> in);

// The header fields an observer needs to follow a request, read without
// copying the payload.
struct RpcHeaderPeek {
  MessageKind kind = MessageKind::kRequest;
  uint64_t request_id = 0;
};

// Validates `in` exactly as DecodeRpcMessage does (magic, version, kind,
// header length, payload length): returns nullopt exactly when decoding
// would, and otherwise the kind and request id decoding would return.
std::optional<RpcHeaderPeek> PeekRpcHeader(std::span<const uint8_t> in);

}  // namespace lauberhorn

#endif  // SRC_PROTO_RPC_MESSAGE_H_

// Ethernet / IPv4 / UDP header construction and parsing.
//
// The simulated NICs parse real header bytes in network byte order, including
// genuine internet checksums, so checksum-offload and corrupt-packet paths
// behave like hardware.
#ifndef SRC_NET_HEADERS_H_
#define SRC_NET_HEADERS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "src/net/packet.h"

namespace lauberhorn {

using MacAddress = std::array<uint8_t, 6>;

inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr uint8_t kIpProtoUdp = 17;
// ECN codepoints (RFC 3168), the low two bits of the IPv4 DSCP/ECN byte.
inline constexpr uint8_t kEcnNotEct = 0b00;  // sender opted out of marking
inline constexpr uint8_t kEcnEct0 = 0b10;    // ECN-capable transport
inline constexpr uint8_t kEcnCe = 0b11;      // congestion experienced
inline constexpr size_t kEthernetHeaderSize = 14;
inline constexpr size_t kIpv4HeaderSize = 20;  // no options
inline constexpr size_t kUdpHeaderSize = 8;
inline constexpr size_t kAllHeadersSize =
    kEthernetHeaderSize + kIpv4HeaderSize + kUdpHeaderSize;
inline constexpr size_t kEthernetMtu = 1500;
// Max UDP payload in one frame with our fixed 20-byte IPv4 header.
inline constexpr size_t kMaxUdpPayload = kEthernetMtu - kIpv4HeaderSize - kUdpHeaderSize;

struct EthernetHeader {
  MacAddress dst{};
  MacAddress src{};
  uint16_t ether_type = kEtherTypeIpv4;
};

struct Ipv4Header {
  uint8_t ttl = 64;
  uint8_t protocol = kIpProtoUdp;
  uint8_t ecn = kEcnNotEct;  // RFC 3168 codepoint, low 2 bits of the ToS byte
  uint32_t src = 0;
  uint32_t dst = 0;
  uint16_t total_length = 0;  // filled in by BuildFrame
  uint16_t checksum = 0;      // filled in by BuildFrame / verified by Parse
};

struct UdpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t length = 0;    // filled in by BuildFrame
  uint16_t checksum = 0;  // filled in by BuildFrame
};

// Fully parsed frame; spans reference the packet's bytes.
struct ParsedFrame {
  EthernetHeader eth;
  Ipv4Header ip;
  UdpHeader udp;
  std::span<const uint8_t> payload;
};

// RFC 1071 internet checksum over `data`, with an optional initial sum for
// pseudo-header folding.
uint16_t InternetChecksum(std::span<const uint8_t> data, uint32_t initial = 0);

// UDP checksum including the IPv4 pseudo-header.
uint16_t UdpChecksum(uint32_t src_ip, uint32_t dst_ip, std::span<const uint8_t> udp_segment);

// Builds a complete Ethernet+IPv4+UDP frame around `payload`, computing
// lengths and checksums.
Packet BuildUdpFrame(const EthernetHeader& eth, Ipv4Header ip, UdpHeader udp,
                     std::span<const uint8_t> payload);

enum class ParseError {
  kTruncated,
  kNotIpv4,
  kNotUdp,
  kBadIpChecksum,
  kBadUdpChecksum,
  kBadLength,
};

// Parses and validates a frame. Returns the parsed view or the first error
// encountered, mirroring what a NIC RX pipeline checks stage by stage.
std::optional<ParsedFrame> ParseUdpFrame(const Packet& packet, ParseError* error = nullptr);

// Reads the IPv4 (src, dst) pair without validating checksums or lengths —
// used by egress queues to attribute tail drops to the flow that suffered
// them. Returns nullopt for frames too short to carry an IPv4 header or with
// a non-IPv4 ethertype.
struct Ipv4Pair {
  uint32_t src = 0;
  uint32_t dst = 0;
};
std::optional<Ipv4Pair> PeekIpv4SrcDst(const Packet& packet);

// In-flight CE marking, the switch-side half of ECN: sets the CE codepoint on
// an ECT frame and patches the IPv4 header checksum so the frame still
// parses. Returns false (frame untouched) when the packet is not an ECT IPv4
// frame — non-ECN traffic must never be rewritten.
bool MarkEcnCe(Packet& packet);

// Debug helpers.
std::string FormatMac(const MacAddress& mac);
std::string FormatIpv4(uint32_t ip);
constexpr uint32_t MakeIpv4(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
  return (static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
         (static_cast<uint32_t>(c) << 8) | d;
}

}  // namespace lauberhorn

#endif  // SRC_NET_HEADERS_H_

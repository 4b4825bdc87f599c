#include "src/net/headers.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

namespace lauberhorn {
namespace {

uint16_t Get16(std::span<const uint8_t> d, size_t off) {
  return static_cast<uint16_t>((d[off] << 8) | d[off + 1]);
}

uint32_t Get32(std::span<const uint8_t> d, size_t off) {
  return (static_cast<uint32_t>(Get16(d, off)) << 16) | Get16(d, off + 2);
}

void Store16(std::span<uint8_t> buf, size_t off, uint16_t v) {
  buf[off] = static_cast<uint8_t>(v >> 8);
  buf[off + 1] = static_cast<uint8_t>(v & 0xff);
}

void Store32(std::span<uint8_t> buf, size_t off, uint32_t v) {
  Store16(buf, off, static_cast<uint16_t>(v >> 16));
  Store16(buf, off + 2, static_cast<uint16_t>(v & 0xffff));
}

}  // namespace

uint16_t InternetChecksum(std::span<const uint8_t> data, uint32_t initial) {
  // Eight bytes per step: read them as one big-endian u64 and add its two
  // 32-bit halves. Since 2^16 == 1 (mod 65535), a half (a << 16) | b adds the
  // same as the two 16-bit words a + b do, so after the fold the result is
  // the RFC 1071 word-at-a-time sum bit for bit (RFC 1071 §2). The 64-bit
  // accumulator cannot overflow: each step adds less than 2^33.
  uint64_t sum = initial;
  const uint8_t* p = data.data();
  const size_t n = data.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    sum += (word >> 32) + (word & 0xffffffffu);
  }
  for (; i + 1 < n; i += 2) {
    sum += static_cast<uint32_t>((p[i] << 8) | p[i + 1]);
  }
  if (i < n) {
    sum += static_cast<uint32_t>(p[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint16_t UdpChecksum(uint32_t src_ip, uint32_t dst_ip,
                     std::span<const uint8_t> udp_segment) {
  // Pseudo-header: src, dst, zero+proto, udp length.
  uint32_t pseudo = 0;
  pseudo += src_ip >> 16;
  pseudo += src_ip & 0xffff;
  pseudo += dst_ip >> 16;
  pseudo += dst_ip & 0xffff;
  pseudo += kIpProtoUdp;
  pseudo += static_cast<uint32_t>(udp_segment.size());
  uint16_t sum = InternetChecksum(udp_segment, pseudo);
  // Per RFC 768, a computed 0 is transmitted as all-ones.
  return sum == 0 ? 0xffff : sum;
}

void WriteUdpHeaders(const EthernetHeader& eth, Ipv4Header ip, UdpHeader udp,
                     std::span<uint8_t> frame) {
  assert(frame.size() >= kAllHeadersSize);
  const size_t payload_size = frame.size() - kAllHeadersSize;

  // Ethernet.
  std::memcpy(frame.data(), eth.dst.data(), eth.dst.size());
  std::memcpy(frame.data() + 6, eth.src.data(), eth.src.size());
  Store16(frame, 12, eth.ether_type);

  // IPv4 (20-byte header, no options).
  const size_t ip_off = kEthernetHeaderSize;
  ip.total_length =
      static_cast<uint16_t>(kIpv4HeaderSize + kUdpHeaderSize + payload_size);
  frame[ip_off] = 0x45;  // version 4, IHL 5
  frame[ip_off + 1] = static_cast<uint8_t>(ip.ecn & 0x3);  // DSCP 0, ECN bits
  Store16(frame, ip_off + 2, ip.total_length);
  Store16(frame, ip_off + 4, 0);  // identification
  Store16(frame, ip_off + 6, 0);  // flags/fragment offset
  frame[ip_off + 8] = ip.ttl;
  frame[ip_off + 9] = ip.protocol;
  Store16(frame, ip_off + 10, 0);  // checksum placeholder
  Store32(frame, ip_off + 12, ip.src);
  Store32(frame, ip_off + 16, ip.dst);
  Store16(frame, ip_off + 10, InternetChecksum(frame.subspan(ip_off, kIpv4HeaderSize)));

  // UDP.
  const size_t udp_off = ip_off + kIpv4HeaderSize;
  udp.length = static_cast<uint16_t>(kUdpHeaderSize + payload_size);
  Store16(frame, udp_off, udp.src_port);
  Store16(frame, udp_off + 2, udp.dst_port);
  Store16(frame, udp_off + 4, udp.length);
  Store16(frame, udp_off + 6, 0);  // checksum placeholder
  Store16(frame, udp_off + 6,
          UdpChecksum(ip.src, ip.dst, frame.subspan(udp_off, udp.length)));
}

Packet BuildUdpFrame(const EthernetHeader& eth, const Ipv4Header& ip,
                     const UdpHeader& udp, std::span<const uint8_t> payload) {
  Packet packet;
  packet.bytes.resize(kAllHeadersSize + payload.size());
  std::copy(payload.begin(), payload.end(), packet.bytes.begin() + kAllHeadersSize);
  WriteUdpHeaders(eth, ip, udp, packet.bytes);
  return packet;
}

std::optional<Ipv4Pair> PeekIpv4SrcDst(const Packet& packet) {
  const std::span<const uint8_t> d(packet.bytes);
  if (d.size() < kEthernetHeaderSize + kIpv4HeaderSize) {
    return std::nullopt;
  }
  if (Get16(d, 12) != kEtherTypeIpv4) {
    return std::nullopt;
  }
  return Ipv4Pair{Get32(d, kEthernetHeaderSize + 12),
                  Get32(d, kEthernetHeaderSize + 16)};
}

bool MarkEcnCe(Packet& packet) {
  auto& bytes = packet.bytes;
  const size_t ip_off = kEthernetHeaderSize;
  if (bytes.size() < ip_off + kIpv4HeaderSize ||
      Get16(bytes, 12) != kEtherTypeIpv4 || bytes[ip_off] != 0x45) {
    return false;
  }
  const uint8_t ecn = bytes[ip_off + 1] & 0x3;
  if (ecn == kEcnNotEct) {
    return false;  // sender did not opt into ECN; drop-only semantics apply
  }
  if (ecn == kEcnCe) {
    return true;  // already marked upstream
  }
  bytes[ip_off + 1] = static_cast<uint8_t>((bytes[ip_off + 1] & ~0x3u) | kEcnCe);
  // Recompute the header checksum over the patched 20 bytes, as a real
  // marking switch's egress pipeline does.
  Store16(bytes, ip_off + 10, 0);
  const uint16_t csum = InternetChecksum(
      std::span<const uint8_t>(bytes.data() + ip_off, kIpv4HeaderSize));
  Store16(bytes, ip_off + 10, csum);
  return true;
}

std::optional<ParsedFrame> ParseUdpFrame(const Packet& packet, ParseError* error) {
  auto fail = [&](ParseError e) -> std::optional<ParsedFrame> {
    if (error != nullptr) {
      *error = e;
    }
    return std::nullopt;
  };
  const std::span<const uint8_t> d(packet.bytes);
  if (d.size() < kAllHeadersSize) {
    return fail(ParseError::kTruncated);
  }

  ParsedFrame frame;
  std::memcpy(frame.eth.dst.data(), d.data(), 6);
  std::memcpy(frame.eth.src.data(), d.data() + 6, 6);
  frame.eth.ether_type = Get16(d, 12);
  if (frame.eth.ether_type != kEtherTypeIpv4) {
    return fail(ParseError::kNotIpv4);
  }

  const size_t ip_off = kEthernetHeaderSize;
  if (d[ip_off] != 0x45) {
    return fail(ParseError::kNotIpv4);  // options / not v4 unsupported
  }
  if (InternetChecksum(d.subspan(ip_off, kIpv4HeaderSize)) != 0) {
    return fail(ParseError::kBadIpChecksum);
  }
  frame.ip.ecn = d[ip_off + 1] & 0x3;
  frame.ip.total_length = Get16(d, ip_off + 2);
  frame.ip.ttl = d[ip_off + 8];
  frame.ip.protocol = d[ip_off + 9];
  frame.ip.checksum = Get16(d, ip_off + 10);
  frame.ip.src = Get32(d, ip_off + 12);
  frame.ip.dst = Get32(d, ip_off + 16);
  if (frame.ip.protocol != kIpProtoUdp) {
    return fail(ParseError::kNotUdp);
  }
  if (frame.ip.total_length < kIpv4HeaderSize + kUdpHeaderSize ||
      ip_off + frame.ip.total_length > d.size()) {
    return fail(ParseError::kBadLength);
  }

  const size_t udp_off = ip_off + kIpv4HeaderSize;
  frame.udp.src_port = Get16(d, udp_off);
  frame.udp.dst_port = Get16(d, udp_off + 2);
  frame.udp.length = Get16(d, udp_off + 4);
  frame.udp.checksum = Get16(d, udp_off + 6);
  if (frame.udp.length < kUdpHeaderSize ||
      udp_off + frame.udp.length > d.size() ||
      frame.udp.length != frame.ip.total_length - kIpv4HeaderSize) {
    return fail(ParseError::kBadLength);
  }
  if (frame.udp.checksum != 0) {
    // Checksum over the whole segment (with the transmitted checksum in
    // place) plus pseudo-header must fold to 0.
    uint32_t pseudo = 0;
    pseudo += frame.ip.src >> 16;
    pseudo += frame.ip.src & 0xffff;
    pseudo += frame.ip.dst >> 16;
    pseudo += frame.ip.dst & 0xffff;
    pseudo += kIpProtoUdp;
    pseudo += frame.udp.length;
    if (InternetChecksum(d.subspan(udp_off, frame.udp.length), pseudo) != 0) {
      return fail(ParseError::kBadUdpChecksum);
    }
  }

  frame.payload = d.subspan(udp_off + kUdpHeaderSize, frame.udp.length - kUdpHeaderSize);
  return frame;
}

std::string FormatMac(const MacAddress& mac) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", mac[0], mac[1],
                mac[2], mac[3], mac[4], mac[5]);
  return buf;
}

std::string FormatIpv4(uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

}  // namespace lauberhorn

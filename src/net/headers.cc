#include "src/net/headers.h"

#include <cstdio>
#include <cstring>

namespace lauberhorn {
namespace {

void Put16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xff));
}

void Put32(std::vector<uint8_t>& out, uint32_t v) {
  Put16(out, static_cast<uint16_t>(v >> 16));
  Put16(out, static_cast<uint16_t>(v & 0xffff));
}

uint16_t Get16(std::span<const uint8_t> d, size_t off) {
  return static_cast<uint16_t>((d[off] << 8) | d[off + 1]);
}

uint32_t Get32(std::span<const uint8_t> d, size_t off) {
  return (static_cast<uint32_t>(Get16(d, off)) << 16) | Get16(d, off + 2);
}

void Store16(std::vector<uint8_t>& buf, size_t off, uint16_t v) {
  buf[off] = static_cast<uint8_t>(v >> 8);
  buf[off + 1] = static_cast<uint8_t>(v & 0xff);
}

}  // namespace

uint16_t InternetChecksum(std::span<const uint8_t> data, uint32_t initial) {
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

Packet BuildUdpFrame(const EthernetHeader& eth, Ipv4Header ip, UdpHeader udp,
                     std::span<const uint8_t> payload) {
  Packet packet;
  auto& out = packet.bytes;
  out.reserve(kAllHeadersSize + payload.size());

  // Ethernet.
  out.insert(out.end(), eth.dst.begin(), eth.dst.end());
  out.insert(out.end(), eth.src.begin(), eth.src.end());
  Put16(out, eth.ether_type);

  // IPv4 (20-byte header, no options).
  ip.total_length =
      static_cast<uint16_t>(kIpv4HeaderSize + kUdpHeaderSize + payload.size());
  out.push_back(0x45);  // version 4, IHL 5
  out.push_back(static_cast<uint8_t>(ip.ecn & 0x3));  // DSCP 0, ECN bits
  Put16(out, ip.total_length);
  Put16(out, 0);  // identification
  Put16(out, 0);  // flags/fragment offset
  out.push_back(ip.ttl);
  out.push_back(ip.protocol);
  Put16(out, 0);  // checksum placeholder
  Put32(out, ip.src);
  Put32(out, ip.dst);
  const uint16_t ip_csum = InternetChecksum(
      std::span<const uint8_t>(out.data() + kEthernetHeaderSize, kIpv4HeaderSize));
  Store16(out, kEthernetHeaderSize + 10, ip_csum);

  // UDP.
  udp.length = static_cast<uint16_t>(kUdpHeaderSize + payload.size());
  const size_t udp_off = out.size();
  Put16(out, udp.src_port);
  Put16(out, udp.dst_port);
  Put16(out, udp.length);
  Put16(out, 0);  // checksum placeholder
  out.insert(out.end(), payload.begin(), payload.end());
  const uint16_t udp_csum = UdpChecksum(
      ip.src, ip.dst, std::span<const uint8_t>(out.data() + udp_off, udp.length));
  Store16(out, udp_off + 6, udp_csum);

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

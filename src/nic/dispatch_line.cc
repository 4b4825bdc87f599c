#include "src/nic/dispatch_line.h"

#include <cassert>
#include <cstring>

#include "src/proto/marshal.h"

namespace lauberhorn {

LineData DispatchLine::Encode(size_t line_size) const {
  assert(inline_args.size() <= InlineCapacity(line_size));
  std::vector<uint8_t> out;
  out.reserve(line_size);
  out.push_back(static_cast<uint8_t>(kind));
  out.push_back(aux_lines);
  PutU16Le(out, method_id);
  PutU32Le(out, service_id);
  PutU64Le(out, request_id);
  PutU64Le(out, code_ptr);
  PutU64Le(out, data_ptr);
  PutU32Le(out, arg_len);
  out.push_back(via_dma ? 1 : 0);
  out.push_back(0);  // pad
  PutU16Le(out, endpoint_id);
  PutU32Le(out, pid);
  assert(out.size() == kDispatchHeaderSize);
  out.insert(out.end(), inline_args.begin(), inline_args.end());
  out.resize(line_size, 0);
  return out;
}

std::optional<DispatchLine> DispatchLine::Decode(const LineData& line) {
  if (line.size() < kDispatchHeaderSize || line.size() > kMaxLineSize) {
    return std::nullopt;
  }
  DispatchLine d;
  std::span<const uint8_t> in(line);
  size_t off = 0;
  d.kind = static_cast<LineKind>(in[off++]);
  d.aux_lines = in[off++];
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  GetU16Le(in, off, u16);
  d.method_id = u16;
  GetU32Le(in, off, u32);
  d.service_id = u32;
  GetU64Le(in, off, d.request_id);
  GetU64Le(in, off, d.code_ptr);
  GetU64Le(in, off, d.data_ptr);
  GetU32Le(in, off, d.arg_len);
  d.via_dma = in[off++] != 0;
  ++off;  // pad
  GetU16Le(in, off, u16);
  d.endpoint_id = u16;
  GetU32Le(in, off, u32);
  d.pid = u32;
  const size_t inline_bytes =
      d.via_dma ? 0
                : std::min<size_t>(d.arg_len, line.size() - kDispatchHeaderSize);
  d.inline_args.assign(line.begin() + kDispatchHeaderSize,
                       line.begin() + kDispatchHeaderSize + inline_bytes);
  return d;
}

LineData ResponseLine::Encode(size_t line_size) const {
  assert(inline_payload.size() <= InlineCapacity(line_size));
  std::vector<uint8_t> out;
  out.reserve(line_size);
  out.push_back(static_cast<uint8_t>(kind));
  out.push_back(aux_lines);
  PutU16Le(out, status);
  PutU32Le(out, resp_len);
  PutU64Le(out, request_id);
  out.push_back(via_dma ? 1 : 0);
  out.resize(kResponseHeaderSize, 0);  // pad to header size
  out.insert(out.end(), inline_payload.begin(), inline_payload.end());
  out.resize(line_size, 0);
  return out;
}

std::optional<ResponseLine> ResponseLine::Decode(const LineData& line) {
  if (line.size() < kResponseHeaderSize || line.size() > kMaxLineSize) {
    return std::nullopt;
  }
  ResponseLine r;
  std::span<const uint8_t> in(line);
  size_t off = 0;
  r.kind = static_cast<LineKind>(in[off++]);
  r.aux_lines = in[off++];
  GetU16Le(in, off, r.status);
  GetU32Le(in, off, r.resp_len);
  GetU64Le(in, off, r.request_id);
  r.via_dma = in[off++] != 0;
  const size_t inline_bytes =
      r.via_dma ? 0
                : std::min<size_t>(r.resp_len, line.size() - kResponseHeaderSize);
  r.inline_payload.assign(line.begin() + kResponseHeaderSize,
                          line.begin() + kResponseHeaderSize + inline_bytes);
  return r;
}

}  // namespace lauberhorn

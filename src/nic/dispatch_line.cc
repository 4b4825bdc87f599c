#include "src/nic/dispatch_line.h"

#include <algorithm>
#include <cassert>

#include "src/proto/marshal.h"

namespace lauberhorn {

namespace {

// Writes little-endian fields front to back into a zeroed line.
class LineWriter {
 public:
  explicit LineWriter(LineData& line) : out_(line.data()) {}

  template <typename T>
  void Put(T value) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out_[pos_++] = static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i));
    }
  }
  void Skip(size_t n) { pos_ += n; }
  void Bytes(const LineData& bytes) {
    std::copy(bytes.begin(), bytes.end(), out_ + pos_);
    pos_ += bytes.size();
  }
  size_t pos() const { return pos_; }

 private:
  uint8_t* out_;
  size_t pos_ = 0;
};

}  // namespace

LineData DispatchLine::Encode(size_t line_size) const {
  assert(inline_args.size() <= InlineCapacity(line_size));
  LineData out(line_size, 0);
  LineWriter w(out);
  w.Put(static_cast<uint8_t>(kind));
  w.Put(aux_lines);
  w.Put(method_id);
  w.Put(service_id);
  w.Put(request_id);
  w.Put(code_ptr);
  w.Put(data_ptr);
  w.Put(arg_len);
  w.Put(static_cast<uint8_t>(via_dma ? 1 : 0));
  w.Skip(1);  // pad
  w.Put(endpoint_id);
  w.Put(pid);
  assert(w.pos() == kDispatchHeaderSize);
  w.Bytes(inline_args);
  return out;
}

std::optional<DispatchLine> DispatchLine::Decode(std::span<const uint8_t> line) {
  if (line.size() < kDispatchHeaderSize || line.size() > kMaxLineSize) {
    return std::nullopt;
  }
  DispatchLine d;
  size_t off = 0;
  d.kind = static_cast<LineKind>(line[off++]);
  d.aux_lines = line[off++];
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  GetU16Le(line, off, u16);
  d.method_id = u16;
  GetU32Le(line, off, u32);
  d.service_id = u32;
  GetU64Le(line, off, d.request_id);
  GetU64Le(line, off, d.code_ptr);
  GetU64Le(line, off, d.data_ptr);
  GetU32Le(line, off, d.arg_len);
  d.via_dma = line[off++] != 0;
  ++off;  // pad
  GetU16Le(line, off, u16);
  d.endpoint_id = u16;
  GetU32Le(line, off, u32);
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
  LineData out(line_size, 0);
  LineWriter w(out);
  w.Put(static_cast<uint8_t>(kind));
  w.Put(aux_lines);
  w.Put(status);
  w.Put(resp_len);
  w.Put(request_id);
  w.Put(static_cast<uint8_t>(via_dma ? 1 : 0));
  w.Skip(kResponseHeaderSize - w.pos());  // pad to header size
  w.Bytes(inline_payload);
  return out;
}

std::optional<ResponseLine> ResponseLine::Decode(std::span<const uint8_t> line) {
  if (line.size() < kResponseHeaderSize || line.size() > kMaxLineSize) {
    return std::nullopt;
  }
  ResponseLine r;
  size_t off = 0;
  r.kind = static_cast<LineKind>(line[off++]);
  r.aux_lines = line[off++];
  GetU16Le(line, off, r.status);
  GetU32Le(line, off, r.resp_len);
  GetU64Le(line, off, r.request_id);
  r.via_dma = line[off++] != 0;
  const size_t inline_bytes =
      r.via_dma ? 0
                : std::min<size_t>(r.resp_len, line.size() - kResponseHeaderSize);
  r.inline_payload.assign(line.begin() + kResponseHeaderSize,
                          line.begin() + kResponseHeaderSize + inline_bytes);
  return r;
}

}  // namespace lauberhorn

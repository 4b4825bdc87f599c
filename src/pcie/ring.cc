#include "src/pcie/ring.h"

#include "src/proto/marshal.h"

namespace lauberhorn {

DescriptorBytes Descriptor::Encode() const {
  DescriptorBytes out{};  // the reserved field stays zero
  const auto put = [&out](size_t off, uint64_t value, size_t width) {
    for (size_t i = 0; i < width; ++i) {
      out[off + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  };
  put(0, buffer_iova, 8);
  put(8, length, 4);
  put(12, flags, 2);
  return out;
}

Descriptor Descriptor::Decode(std::span<const uint8_t> bytes) {
  Descriptor d;
  size_t off = 0;
  GetU64Le(bytes, off, d.buffer_iova);
  GetU32Le(bytes, off, d.length);
  GetU16Le(bytes, off, d.flags);
  return d;
}

RingView::RingView(MemoryHomeAgent& memory, uint64_t base, uint32_t num_entries)
    : memory_(memory), base_(base), num_entries_(num_entries) {}

void RingView::Write(uint32_t index, const Descriptor& desc) {
  memory_.WriteBytes(DescAddr(index), desc.Encode());
}

Descriptor RingView::Read(uint32_t index) const {
  DescriptorBytes raw;
  memory_.ReadInto(DescAddr(index), raw);
  return Descriptor::Decode(raw);
}

}  // namespace lauberhorn

#include "src/coherence/memory_home.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace lauberhorn {

MemoryHomeAgent::MemoryHomeAgent(Simulator& sim, CoherentInterconnect& interconnect,
                                 LineAddr base, uint64_t size)
    : sim_(sim),
      interconnect_(interconnect),
      base_(base),
      size_(size),
      id_(interconnect.RegisterHomeAgent(this, base, size, /*is_device=*/false)) {}

LineData& MemoryHomeAgent::LineAt(LineAddr addr) {
  LineData& line = lines_[addr];
  if (line.empty()) {
    line.resize(interconnect_.config().line_size);
  }
  return line;
}

void MemoryHomeAgent::OnHomeRead(AgentId /*requester*/, LineAddr addr, bool /*exclusive*/,
                                 FillFn fill) {
  sim_.Schedule(interconnect_.config().memory_latency,
                [fill = std::move(fill), copy = LineAt(addr)]() mutable { fill(copy); });
}

void MemoryHomeAgent::OnHomeWriteBack(AgentId /*from*/, LineAddr addr,
                                      const LineData& data) {
  LineData& line = lines_[addr];
  line = data;
  line.resize(interconnect_.config().line_size);
}

void MemoryHomeAgent::OnHomeUncachedWrite(AgentId /*from*/, LineAddr addr, size_t offset,
                                          std::span<const uint8_t> data) {
  LineData& line = LineAt(addr);
  assert(offset + data.size() <= line.size());
  std::memcpy(line.data() + offset, data.data(), data.size());
}

void MemoryHomeAgent::WriteBytes(uint64_t addr, std::span<const uint8_t> data) {
  const size_t line_size = interconnect_.config().line_size;
  size_t written = 0;
  while (written < data.size()) {
    const uint64_t a = addr + written;
    const LineAddr line_addr = interconnect_.AlignToLine(a);
    const size_t offset = a - line_addr;
    const size_t chunk = std::min(line_size - offset, data.size() - written);
    LineData& line = LineAt(line_addr);
    std::memcpy(line.data() + offset, data.data() + written, chunk);
    written += chunk;
  }
}

void MemoryHomeAgent::ReadInto(uint64_t addr, std::span<uint8_t> out) const {
  const size_t line_size = interconnect_.config().line_size;
  size_t read = 0;
  while (read < out.size()) {
    const uint64_t a = addr + read;
    const LineAddr line_addr = a & ~static_cast<LineAddr>(line_size - 1);
    const size_t offset = a - line_addr;
    const size_t chunk = std::min(line_size - offset, out.size() - read);
    auto it = lines_.find(line_addr);
    if (it != lines_.end()) {
      std::memcpy(out.data() + read, it->second.data() + offset, chunk);
    } else {
      std::memset(out.data() + read, 0, chunk);
    }
    read += chunk;
  }
}

std::vector<uint8_t> MemoryHomeAgent::ReadBytes(uint64_t addr, size_t size) const {
  std::vector<uint8_t> out(size);
  ReadInto(addr, out);
  return out;
}

}  // namespace lauberhorn

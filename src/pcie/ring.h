// Descriptor-ring layout helpers for the traditional DMA NIC (Fig. 1).
//
// Rings live in real (simulated) host memory: 16-byte descriptors the NIC
// fetches by DMA and completes by DMA write-back, exactly like an e1000/mlx
// style queue. The host posts buffers, rings a doorbell, and consumes
// completions.
//
// Descriptor layout (little-endian):
//   u64 buffer_iova
//   u32 length      (buffer capacity on post; bytes used on completion)
//   u16 flags       (kDescReady / kDescDone)
//   u16 reserved
#ifndef SRC_PCIE_RING_H_
#define SRC_PCIE_RING_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/coherence/memory_home.h"

namespace lauberhorn {

inline constexpr size_t kDescriptorSize = 16;
inline constexpr uint16_t kDescReady = 1 << 0;  // owned by device
inline constexpr uint16_t kDescDone = 1 << 1;   // completed by device

// A descriptor's wire image.
using DescriptorBytes = std::array<uint8_t, kDescriptorSize>;

struct Descriptor {
  uint64_t buffer_iova = 0;
  uint32_t length = 0;
  uint16_t flags = 0;

  DescriptorBytes Encode() const;
  // A field that `bytes` does not hold in full decodes as zero.
  static Descriptor Decode(std::span<const uint8_t> bytes);
};

// Host-side view of a descriptor ring at `base` with `num_entries` slots.
// Index arithmetic only; all data goes through host memory so the device and
// host observe the same bytes.
class RingView {
 public:
  RingView(MemoryHomeAgent& memory, uint64_t base, uint32_t num_entries);

  uint64_t DescAddr(uint32_t index) const {
    return base_ + static_cast<uint64_t>(index % num_entries_) * kDescriptorSize;
  }
  uint32_t num_entries() const { return num_entries_; }
  uint64_t base() const { return base_; }

  void Write(uint32_t index, const Descriptor& desc);
  Descriptor Read(uint32_t index) const;

 private:
  MemoryHomeAgent& memory_;
  uint64_t base_;
  uint32_t num_entries_;
};

}  // namespace lauberhorn

#endif  // SRC_PCIE_RING_H_

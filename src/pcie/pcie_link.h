// PCIe link model between the host and a device.
//
// Models the costs that dominate a traditional DMA NIC's small-message path
// (Fig. 1): posted MMIO writes (doorbells), non-posted MMIO reads, and DMA
// read/write TLPs with IOMMU translation and shared link bandwidth. Host
// memory is the coherence module's MemoryHomeAgent, so data DMA'd in is the
// same bytes the CPU later reads.
#ifndef SRC_PCIE_PCIE_LINK_H_
#define SRC_PCIE_PCIE_LINK_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/coherence/memory_home.h"
#include "src/pcie/iommu.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

class FaultInjector;

struct PcieConfig {
  Duration mmio_read = Nanoseconds(800);        // non-posted, full round trip
  Duration mmio_write = Nanoseconds(150);       // posted doorbell
  Duration dma_read_latency = Nanoseconds(700);  // request issued -> data at device
  Duration dma_write_latency = Nanoseconds(400); // posted write visible in host memory
  double bandwidth_gbps = 256.0;                // Gen4 x16 ≈ 32 GB/s
  Duration msix_latency = Nanoseconds(600);     // vector signalled -> handler entry
};

// Device-side register space: the host's MMIO reads/writes land here.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual void OnMmioWrite(uint64_t offset, uint64_t value) = 0;
  virtual uint64_t OnMmioRead(uint64_t offset) = 0;
};

class PcieLink {
 public:
  PcieLink(Simulator& sim, PcieConfig config, MemoryHomeAgent& host_memory, Iommu& iommu);

  const PcieConfig& config() const { return config_; }
  void set_device(MmioDevice* device) { device_ = device; }
  // Optional fault injection (src/fault): DMA completion errors. An errored
  // read completes with no data; an errored write completes (the TLP was
  // acknowledged) but its payload never reaches host memory.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // -- Host-initiated ----------------------------------------------------

  // Posted register write (doorbell). Completes at the device later; the CPU
  // does not wait.
  void HostMmioWrite(uint64_t offset, uint64_t value);

  // Non-posted register read; `on_done` runs at the host after the round trip.
  void HostMmioRead(uint64_t offset, Function<void(uint64_t)> on_done);

  // -- Device-initiated (DMA through the IOMMU) ---------------------------

  // Reads `size` bytes at `iova` from host memory, as they are when the read
  // completes. The callback receives them in a span that is valid only
  // during the call, or an empty span on an IOMMU fault or completion error.
  // `fault_eligible` false exempts the transfer from *injected* faults
  // (completion errors and transient IOMMU faults) — NICs use it for
  // descriptor-ring accesses, which a real device cannot survive losing (it
  // would enter a fatal error state and be reset).
  void DeviceDmaRead(uint64_t iova, size_t size,
                     Function<void(std::span<const uint8_t>)> on_done,
                     bool fault_eligible = true);

  // Posted write of `data` to host memory at `iova`. The bytes are copied
  // when the write is posted and land in host memory when it completes;
  // `on_done` (optional) runs then, once the write is globally visible.
  void DeviceDmaWrite(uint64_t iova, std::span<const uint8_t> data,
                      Callback on_done = nullptr, bool fault_eligible = true);

  // -- Stats ---------------------------------------------------------------

  uint64_t mmio_reads() const { return mmio_reads_; }
  uint64_t mmio_writes() const { return mmio_writes_; }
  uint64_t dma_read_bytes() const { return dma_read_bytes_; }
  uint64_t dma_write_bytes() const { return dma_write_bytes_; }
  uint64_t dma_errors() const { return dma_errors_; }

 private:
  // Serializes a transfer on the shared link; returns its completion time
  // contribution (queuing + wire time for `bytes`).
  Duration ClaimBandwidth(size_t bytes);
  struct Chunk {
    uint64_t pa = 0;
    size_t size = 0;
  };
  // The host-physical pieces of one transfer, in order. A page-bounded chunk
  // that continues the previous one physically is merged into it, and the
  // first chunk is held inline: a transfer inside one page (every descriptor,
  // every 2 KiB buffer) or across physically adjacent pages (the drivers'
  // identity-mapped regions) allocates nothing.
  class Chunks {
   public:
    void Append(uint64_t pa, size_t size);
    template <typename F>
    void ForEach(F&& f) const {
      if (first_.size != 0) {
        f(first_);
      }
      for (const Chunk& c : rest_) {
        f(c);
      }
    }

   private:
    Chunk first_;
    std::vector<Chunk> rest_;
  };
  // Splits [iova, iova+size) into page-bounded chunks and translates each
  // into `chunks`. Returns the summed translation cost, or nullopt on a fault.
  std::optional<Duration> TranslateRange(uint64_t iova, size_t size, Chunks& chunks,
                                         bool fault_eligible);

  Simulator& sim_;
  PcieConfig config_;
  MemoryHomeAgent& host_memory_;
  Iommu& iommu_;
  MmioDevice* device_ = nullptr;
  FaultInjector* faults_ = nullptr;
  SimTime link_free_at_ = 0;
  uint64_t mmio_reads_ = 0;
  uint64_t mmio_writes_ = 0;
  uint64_t dma_read_bytes_ = 0;
  uint64_t dma_write_bytes_ = 0;
  uint64_t dma_errors_ = 0;
  // Where each DMA read completion lands before its callback runs; reused,
  // so it grows to the largest read once.
  std::vector<uint8_t> read_buffer_;
};

// MSI-X interrupt delivery: vectors fan out to registered handlers after the
// configured latency. The OS module binds vectors to cores.
class Msix {
 public:
  Msix(Simulator& sim, Duration latency) : sim_(sim), latency_(latency) {}

  using Handler = Callback;

  void SetHandler(uint32_t vector, Handler handler);
  void Trigger(uint32_t vector);

  uint64_t interrupts_delivered() const { return delivered_; }

 private:
  Simulator& sim_;
  Duration latency_;
  std::vector<Handler> handlers_;
  uint64_t delivered_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_PCIE_PCIE_LINK_H_

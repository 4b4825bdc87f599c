#include "src/pcie/pcie_link.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/fault/fault.h"

namespace lauberhorn {

PcieLink::PcieLink(Simulator& sim, PcieConfig config, MemoryHomeAgent& host_memory,
                   Iommu& iommu)
    : sim_(sim), config_(config), host_memory_(host_memory), iommu_(iommu) {}

Duration PcieLink::ClaimBandwidth(size_t bytes) {
  // TLP header overhead (~24B per 256B payload) folded into an effective rate.
  const double effective_gbps = config_.bandwidth_gbps * 0.9;
  const Duration wire = NanosecondsF(static_cast<double>(bytes) * 8.0 / effective_gbps);
  const SimTime start = std::max(sim_.Now(), link_free_at_);
  link_free_at_ = start + wire;
  return (start - sim_.Now()) + wire;
}

void PcieLink::Chunks::Append(uint64_t pa, size_t size) {
  Chunk& last = rest_.empty() ? first_ : rest_.back();
  if (last.size == 0) {
    last = Chunk{pa, size};
  } else if (last.pa + last.size == pa) {
    last.size += size;
  } else {
    rest_.push_back(Chunk{pa, size});
  }
}

std::optional<Duration> PcieLink::TranslateRange(uint64_t iova, size_t size,
                                                 Chunks& chunks, bool fault_eligible) {
  Duration cost = 0;
  size_t done = 0;
  while (done < size) {
    const uint64_t addr = iova + done;
    const uint64_t page_end = (addr & ~(Iommu::kPageSize - 1)) + Iommu::kPageSize;
    const size_t chunk_size = std::min<size_t>(size - done, page_end - addr);
    const auto t = iommu_.Translate(addr, chunk_size, fault_eligible);
    if (!t.has_value()) {
      return std::nullopt;
    }
    chunks.Append(t->pa, chunk_size);
    cost += t->cost;
    done += chunk_size;
  }
  return cost;
}

void PcieLink::HostMmioWrite(uint64_t offset, uint64_t value) {
  ++mmio_writes_;
  sim_.Schedule(config_.mmio_write, [this, offset, value]() {
    if (device_ != nullptr) {
      device_->OnMmioWrite(offset, value);
    }
  });
}

void PcieLink::HostMmioRead(uint64_t offset, Function<void(uint64_t)> on_done) {
  ++mmio_reads_;
  // Half the round trip to reach the device, the rest for the completion.
  sim_.Schedule(config_.mmio_read / 2, [this, offset, on_done = std::move(on_done)]() mutable {
    const uint64_t value = device_ != nullptr ? device_->OnMmioRead(offset) : ~0ULL;
    sim_.Schedule(config_.mmio_read / 2, [value, on_done = std::move(on_done)]() {
      on_done(value);
    });
  });
}

void PcieLink::DeviceDmaRead(uint64_t iova, size_t size,
                             Function<void(std::span<const uint8_t>)> on_done,
                             bool fault_eligible) {
  const auto fail = [&] {
    sim_.Schedule(config_.dma_read_latency,
                  [on_done = std::move(on_done)]() { on_done({}); });
  };
  if (fault_eligible && faults_ != nullptr && faults_->DmaShouldFail()) {
    ++dma_errors_;
    fail();
    return;
  }
  Chunks chunks;
  const std::optional<Duration> translate_cost =
      TranslateRange(iova, size, chunks, fault_eligible);
  if (!translate_cost.has_value()) {
    fail();
    return;
  }
  dma_read_bytes_ += size;
  const Duration total = config_.dma_read_latency + *translate_cost + ClaimBandwidth(size);
  sim_.Schedule(total, [this, chunks = std::move(chunks), size,
                        on_done = std::move(on_done)]() {
    read_buffer_.resize(size);
    const std::span<uint8_t> data(read_buffer_);
    size_t off = 0;
    chunks.ForEach([&](const Chunk& c) {
      host_memory_.ReadInto(c.pa, data.subspan(off, c.size));
      off += c.size;
    });
    on_done(data);
  });
}

void PcieLink::DeviceDmaWrite(uint64_t iova, std::span<const uint8_t> data,
                              Callback on_done, bool fault_eligible) {
  // A failed write TLP is still acknowledged: its payload is lost but the
  // completion fires, so descriptor/fill chains that wait on it make progress
  // (matters under transient injected IOMMU faults).
  const auto lost = [&] {
    if (on_done) {
      sim_.Schedule(config_.dma_write_latency, std::move(on_done));
    }
  };
  if (fault_eligible && faults_ != nullptr && faults_->DmaShouldFail()) {
    ++dma_errors_;
    lost();
    return;
  }
  Chunks chunks;
  const std::optional<Duration> translate_cost =
      TranslateRange(iova, data.size(), chunks, fault_eligible);
  if (!translate_cost.has_value()) {
    lost();  // the IOMMU already notified its fault handler
    return;
  }
  dma_write_bytes_ += data.size();
  const Duration total =
      config_.dma_write_latency + *translate_cost + ClaimBandwidth(data.size());
  // The payload waits in a pooled block, not a malloc'd one, until it lands.
  using StagedBytes = std::vector<uint8_t, spill::Allocator<uint8_t>>;
  sim_.Schedule(total, [this, chunks = std::move(chunks),
                        staged = StagedBytes(data.begin(), data.end()),
                        on_done = std::move(on_done)]() {
    size_t off = 0;
    chunks.ForEach([&](const Chunk& c) {
      host_memory_.WriteBytes(c.pa, std::span(staged).subspan(off, c.size));
      off += c.size;
    });
    if (on_done) {
      on_done();
    }
  });
}

void Msix::SetHandler(uint32_t vector, Handler handler) {
  if (handlers_.size() <= vector) {
    handlers_.resize(vector + 1);
  }
  handlers_[vector] = std::move(handler);
}

void Msix::Trigger(uint32_t vector) {
  sim_.Schedule(latency_, [this, vector]() {
    ++delivered_;
    if (vector < handlers_.size() && handlers_[vector]) {
      handlers_[vector]();
    }
  });
}

}  // namespace lauberhorn

#include "src/nic/dma_nic.h"

#include <cassert>
#include <utility>

#include "src/fault/fault.h"

namespace lauberhorn {

DmaNic::DmaNic(Simulator& sim, Config config, PcieLink& pcie, Msix& msix)
    : sim_(sim),
      config_(config),
      pcie_(pcie),
      msix_(msix),
      queues_(config.num_queues),
      interrupts_enabled_(config.interrupts_enabled) {
  pcie_.set_device(this);
}

void DmaNic::BindPort(uint16_t dst_port, uint32_t queue) {
  auto [it, inserted] = port_bindings_.emplace(dst_port, queue);
  if (!inserted && it->second != queue) {
    it->second = queue;
    ++stats_.rx_rebinds;
  }
}

void DmaNic::UnbindPort(uint16_t dst_port) { port_bindings_.erase(dst_port); }

uint32_t DmaNic::RssQueue(const Packet& packet) const {
  const auto& b = packet.bytes;
  if (b.size() < kAllHeadersSize) {
    return 0;
  }
  // The IPv4 4-tuple sits contiguously in wire (big-endian) order: src/dst
  // address at IP offsets 12/16, then the UDP ports — exactly the NDIS RSS
  // input layout.
  const uint8_t* tuple = b.data() + kEthernetHeaderSize + 12;
  // Explicit app->queue bindings override the hash (flow-director entry).
  const uint16_t dst_port =
      static_cast<uint16_t>((tuple[10] << 8) | tuple[11]);
  if (auto it = port_bindings_.find(dst_port); it != port_bindings_.end()) {
    return it->second % config_.num_queues;
  }
  return ToeplitzHash(config_.rss_key, tuple, 12) % config_.num_queues;
}

void DmaNic::ReceivePacket(Packet packet) {
  // Parsed once, at wire arrival: the hook gets the header and the pipeline
  // step below only needs the verdict.
  const auto frame = ParseUdpFrame(packet);
  if (on_wire_rx && frame.has_value()) {
    if (const auto header = PeekRpcHeader(frame->payload)) {
      on_wire_rx(*header);
    }
  }
  // Pipeline: MAC + header parsing + RSS hash before queue selection.
  const Duration pipeline_cost = config_.pipeline.mac_rx +
                                 3 * config_.pipeline.parse_per_header +
                                 config_.pipeline.rss_hash;
  sim_.Schedule(pipeline_cost, [this, valid = frame.has_value(),
                                packet = std::move(packet)]() mutable {
    if (faults_ != nullptr && !faults_->OsServiceUp()) {
      // OS crash window: nothing above the device will repost descriptors or
      // drain rings; arriving traffic is lost until the stack restarts.
      ++stats_.rx_drops_service_down;
      return;
    }
    // A real NIC validates the frame before DMA (L2 CRC; checksum offload).
    if (!valid) {
      ++stats_.rx_drops_bad_frame;
      return;
    }
    const uint32_t q = RssQueue(packet);
    Queue& queue = queues_[q];
    if (queue.rx_backlog.size() >= config_.rx_fifo_depth) {
      ++stats_.rx_drops_no_desc;  // device FIFO overflow
      return;
    }
    queue.rx_backlog.push_back(std::move(packet));
    StartRxDelivery(q);
  });
}

void DmaNic::StartRxDelivery(uint32_t q) {
  Queue& queue = queues_[q];
  if (queue.rx_busy || queue.rx_backlog.empty()) {
    return;
  }
  if (queue.rx_size == 0 || queue.rx_head == queue.rx_tail) {
    // No posted descriptors: drop from the head of the backlog, as hardware
    // does when the host is too slow.
    ++stats_.rx_drops_no_desc;
    queue.rx_backlog.pop_front();
    if (!queue.rx_backlog.empty()) {
      sim_.Schedule(0, [this, q]() { StartRxDelivery(q); });
    }
    return;
  }
  queue.rx_busy = true;
  Packet packet = std::move(queue.rx_backlog.front());
  queue.rx_backlog.pop_front();
  DeliverOne(q, std::move(packet));
}

void DmaNic::DeliverOne(uint32_t q, Packet packet) {
  Queue& queue = queues_[q];
  const uint32_t index = queue.rx_head % queue.rx_size;
  const uint64_t desc_iova = queue.rx_base + index * kDescriptorSize;

  // 1. Fetch the descriptor. Control-structure DMA is exempt from injected
  // faults: losing a descriptor access is fatal on real hardware (device
  // reset), not a recoverable per-packet error.
  pcie_.DeviceDmaRead(
      desc_iova, kDescriptorSize,
      [this, q, desc_iova, packet = std::move(packet)](std::span<const uint8_t> raw) mutable {
    Queue& queue = queues_[q];
    if (raw.empty()) {
      ++stats_.rx_drops_no_desc;  // IOMMU fault on the ring
      queue.rx_busy = false;
      return;
    }
    Descriptor desc = Descriptor::Decode(raw);
    if ((desc.flags & kDescReady) == 0 || desc.length < packet.size()) {
      ++stats_.rx_drops_no_desc;
      queue.rx_busy = false;
      StartRxDelivery(q);
      return;
    }
    // 2. DMA the payload into the posted buffer.
    const size_t len = packet.size();
    pcie_.DeviceDmaWrite(desc.buffer_iova, packet.bytes, [this, q, desc_iova, desc,
                                                          len]() mutable {
      // 3. Write back the completed descriptor.
      Descriptor done = desc;
      done.length = static_cast<uint32_t>(len);
      done.flags = kDescDone;
      pcie_.DeviceDmaWrite(
          desc_iova, done.Encode(),
          [this, q]() {
            Queue& queue = queues_[q];
            ++queue.rx_head;
            ++stats_.rx_packets;
            queue.rx_busy = false;
            MaybeInterrupt(q);
            StartRxDelivery(q);
          },
          /*fault_eligible=*/false);
    });
  },
      /*fault_eligible=*/false);
}

void DmaNic::MaybeInterrupt(uint32_t q) {
  if (!interrupts_enabled_) {
    return;
  }
  Queue& queue = queues_[q];
  if (queue.irq_scheduled) {
    return;  // will fire and cover this packet
  }
  // One interrupt covers every packet delivered before it fires.
  queue.irq_scheduled = true;
  sim_.Schedule(0, [this, q]() {
    queues_[q].irq_scheduled = false;
    msix_.Trigger(q);
  });
}

void DmaNic::StartTx(uint32_t q) {
  Queue& queue = queues_[q];
  if (queue.tx_busy || queue.tx_size == 0 || queue.tx_head == queue.tx_tail) {
    return;
  }
  queue.tx_busy = true;
  const uint32_t index = queue.tx_head % queue.tx_size;
  const uint64_t desc_iova = queue.tx_base + index * kDescriptorSize;
  pcie_.DeviceDmaRead(
      desc_iova, kDescriptorSize,
      [this, q, desc_iova](std::span<const uint8_t> raw) {
    Queue& queue = queues_[q];
    if (raw.empty()) {
      queue.tx_busy = false;
      return;
    }
    const Descriptor desc = Descriptor::Decode(raw);
    if ((desc.flags & kDescReady) == 0) {
      queue.tx_busy = false;
      return;
    }
    pcie_.DeviceDmaRead(desc.buffer_iova, desc.length, [this, q, desc_iova, desc](
                                                           std::span<const uint8_t> bytes) {
      sim_.Schedule(config_.pipeline.tx_fixed,
                    [this, q, desc_iova, desc,
                     frame = std::vector<uint8_t>(bytes.begin(), bytes.end())]() mutable {
        if (tx_wire_ != nullptr) {
          Packet out;
          out.bytes = std::move(frame);
          if (on_wire_tx) {
            if (const auto parsed = ParseUdpFrame(out)) {
              if (const auto header = PeekRpcHeader(parsed->payload)) {
                on_wire_tx(*header);
              }
            }
          }
          tx_wire_->Send(std::move(out));
        }
        ++stats_.tx_packets;
        Descriptor done = desc;
        done.flags = kDescDone;
        pcie_.DeviceDmaWrite(
            desc_iova, done.Encode(),
            [this, q]() {
              Queue& queue = queues_[q];
              ++queue.tx_head;
              queue.tx_busy = false;
              StartTx(q);  // drain any further posted descriptors
            },
            /*fault_eligible=*/false);
      });
    });
  },
      /*fault_eligible=*/false);
}

void DmaNic::OnMmioWrite(uint64_t offset, uint64_t value) {
  if (offset == kRegIntEnable) {
    interrupts_enabled_ = value != 0;
    return;
  }
  const uint32_t q = static_cast<uint32_t>(offset / kRegQueueStride);
  if (q >= queues_.size()) {
    return;
  }
  Queue& queue = queues_[q];
  switch (offset % kRegQueueStride) {
    case kRegRxBase:
      queue.rx_base = value;
      break;
    case kRegRxSize:
      queue.rx_size = static_cast<uint32_t>(value);
      break;
    case kRegRxTail:
      queue.rx_tail = static_cast<uint32_t>(value);
      StartRxDelivery(q);
      break;
    case kRegTxBase:
      queue.tx_base = value;
      break;
    case kRegTxSize:
      queue.tx_size = static_cast<uint32_t>(value);
      break;
    case kRegTxTail:
      queue.tx_tail = static_cast<uint32_t>(value);
      StartTx(q);
      break;
    default:
      break;
  }
}

uint64_t DmaNic::OnMmioRead(uint64_t offset) {
  const uint32_t q = static_cast<uint32_t>(offset / kRegQueueStride);
  if (offset == kRegIntEnable) {
    return interrupts_enabled_ ? 1 : 0;
  }
  if (q >= queues_.size()) {
    return ~0ULL;
  }
  Queue& queue = queues_[q];
  switch (offset % kRegQueueStride) {
    case kRegRxTail:
      return queue.rx_tail;
    case kRegTxTail:
      return queue.tx_tail;
    default:
      return ~0ULL;
  }
}

DmaNicDriver::DmaNicDriver(Simulator& sim, Config config, PcieLink& pcie, Iommu& iommu,
                           MemoryHomeAgent& memory)
    : sim_(sim), config_(config), pcie_(pcie), iommu_(iommu), memory_(memory) {
  queues_.resize(config_.num_queues);
  uint64_t cursor = config_.mem_base;
  auto align = [](uint64_t v) { return (v + 4095) & ~uint64_t{4095}; };
  for (auto& queue : queues_) {
    queue.rx_ring_base = cursor;
    cursor = align(cursor + config_.ring_entries * kDescriptorSize);
    queue.tx_ring_base = cursor;
    cursor = align(cursor + config_.ring_entries * kDescriptorSize);
    queue.rx_buffers = cursor;
    cursor = align(cursor + config_.ring_entries * config_.buffer_size);
    queue.tx_buffers = cursor;
    cursor = align(cursor + config_.ring_entries * config_.buffer_size);
  }
  // Identity-map the whole region for the device.
  const uint64_t map_base = config_.mem_base & ~uint64_t{4095};
  iommu_.Map(map_base, map_base, align(cursor) - map_base);
}

void DmaNicDriver::Setup() {
  for (uint32_t q = 0; q < config_.num_queues; ++q) {
    QueueState& queue = queues_[q];
    const uint64_t reg = q * kRegQueueStride;
    pcie_.HostMmioWrite(reg + kRegRxBase, queue.rx_ring_base);
    pcie_.HostMmioWrite(reg + kRegRxSize, config_.ring_entries);
    pcie_.HostMmioWrite(reg + kRegTxBase, queue.tx_ring_base);
    pcie_.HostMmioWrite(reg + kRegTxSize, config_.ring_entries);
    // Post all RX buffers but one (full ring is indistinguishable from empty
    // with head/tail indices).
    for (uint32_t i = 0; i + 1 < config_.ring_entries; ++i) {
      PostRx(q, i);
    }
    queue.rx_tail = config_.ring_entries - 1;
    pcie_.HostMmioWrite(reg + kRegRxTail, queue.rx_tail);
  }
}

void DmaNicDriver::PostRx(uint32_t q, uint32_t index) {
  QueueState& queue = queues_[q];
  Descriptor desc;
  desc.buffer_iova = queue.rx_buffers + (index % config_.ring_entries) * config_.buffer_size;
  desc.length = static_cast<uint32_t>(config_.buffer_size);
  desc.flags = kDescReady;
  RingView ring(memory_, queue.rx_ring_base, config_.ring_entries);
  ring.Write(index, desc);
}

bool DmaNicDriver::RxPending(uint32_t q) {
  QueueState& queue = queues_[q];
  RingView ring(memory_, queue.rx_ring_base, config_.ring_entries);
  const Descriptor desc = ring.Read(queue.rx_next);
  return (desc.flags & kDescDone) != 0;
}

size_t DmaNicDriver::RxOccupancy(uint32_t q) {
  QueueState& queue = queues_[q];
  RingView ring(memory_, queue.rx_ring_base, config_.ring_entries);
  size_t count = 0;
  uint32_t index = queue.rx_next;
  while (count < config_.ring_entries) {
    const Descriptor desc = ring.Read(index);
    if ((desc.flags & kDescDone) == 0) {
      break;
    }
    ++count;
    index = (index + 1) % config_.ring_entries;
  }
  return count;
}

std::vector<Packet> DmaNicDriver::Poll(uint32_t q, size_t budget) {
  QueueState& queue = queues_[q];
  RingView ring(memory_, queue.rx_ring_base, config_.ring_entries);
  std::vector<Packet> out;
  while (out.size() < budget) {
    const Descriptor desc = ring.Read(queue.rx_next);
    if ((desc.flags & kDescDone) == 0) {
      break;
    }
    Packet packet;
    packet.bytes = memory_.ReadBytes(desc.buffer_iova, desc.length);
    out.push_back(std::move(packet));
    // Repost a buffer at the tail slot (one slot is always left empty so
    // head==tail means empty) and advance the free-running doorbell index.
    PostRx(q, queue.rx_tail % config_.ring_entries);
    ++queue.rx_tail;
    queue.rx_next = (queue.rx_next + 1) % config_.ring_entries;
  }
  if (!out.empty()) {
    pcie_.HostMmioWrite(q * kRegQueueStride + kRegRxTail, queue.rx_tail);
  }
  return out;
}

bool DmaNicDriver::Transmit(uint32_t q, std::span<const uint8_t> bytes) {
  QueueState& queue = queues_[q];
  if (bytes.size() > config_.buffer_size) {
    return false;
  }
  const uint32_t index = queue.tx_tail % config_.ring_entries;
  RingView ring(memory_, queue.tx_ring_base, config_.ring_entries);
  if ((ring.Read(index).flags & kDescReady) != 0) {
    // The device has not completed this slot yet: the ring is full, and
    // overwriting the slot would lose its frame.
    ++stats_.tx_ring_full;
    return false;
  }
  const uint64_t buffer = queue.tx_buffers + index * config_.buffer_size;
  memory_.WriteBytes(buffer, bytes);
  Descriptor desc;
  desc.buffer_iova = buffer;
  desc.length = static_cast<uint32_t>(bytes.size());
  desc.flags = kDescReady;
  ring.Write(index, desc);
  ++queue.tx_tail;
  pcie_.HostMmioWrite(q * kRegQueueStride + kRegTxTail, queue.tx_tail);
  return true;
}

}  // namespace lauberhorn

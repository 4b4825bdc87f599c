// The traditional PCIe DMA NIC of Fig. 1: descriptor rings, RSS, DMA
// transfers through the IOMMU, and MSI-X interrupts. Both the Linux-baseline
// stack and the kernel-bypass runtime run on top of this device — they differ
// only in who owns the rings and whether interrupts are enabled.
#ifndef SRC_NIC_DMA_NIC_H_
#define SRC_NIC_DMA_NIC_H_

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/net/headers.h"
#include "src/net/link.h"
#include "src/nic/cost_model.h"
#include "src/nic/toeplitz.h"
#include "src/pcie/pcie_link.h"
#include "src/pcie/ring.h"
#include "src/proto/rpc_message.h"
#include "src/sim/simulator.h"
#include "src/stats/metrics.h"

namespace lauberhorn {

// MMIO register map (64-bit registers, byte offsets).
inline constexpr uint64_t kRegIntEnable = 0x00;
inline constexpr uint64_t kRegQueueStride = 0x100;
inline constexpr uint64_t kRegRxBase = 0x10;
inline constexpr uint64_t kRegRxSize = 0x18;
inline constexpr uint64_t kRegRxTail = 0x20;  // doorbell: host posted up to tail
inline constexpr uint64_t kRegTxBase = 0x30;
inline constexpr uint64_t kRegTxSize = 0x38;
inline constexpr uint64_t kRegTxTail = 0x40;  // doorbell

class DmaNic : public PacketSink, public MmioDevice {
 public:
  struct Config {
    uint32_t num_queues = 1;
    bool interrupts_enabled = true;
    // Secret key for the Toeplitz RSS hash (default = the NDIS verification
    // key so placement is reproducible).
    ToeplitzKey rss_key = kDefaultToeplitzKey;
    NicPipelineCosts pipeline;
    // Device-side RX FIFO (packets buffered ahead of descriptor DMA). Past
    // this the device tail-drops silently — the commodity NIC's only way to
    // say "no". Small values drop early instead of hiding milliseconds of
    // delay from the host's overload signals.
    size_t rx_fifo_depth = 4096;
  };

  struct Stats {
    uint64_t rx_packets = 0;
    uint64_t tx_packets = 0;
    uint64_t rx_drops_no_desc = 0;  // FIFO overflow, no descriptor, ring fault
    uint64_t rx_drops_bad_frame = 0;
    uint64_t rx_drops_service_down = 0;  // RX while the OS is crashed
    uint64_t rx_rebinds = 0;  // a bound port re-pointed at another queue
  };

  DmaNic(Simulator& sim, Config config, PcieLink& pcie, Msix& msix);

  void set_tx_wire(LinkDirection* wire) { tx_wire_ = wire; }
  // Optional fault injection (src/fault): OS crash windows blackhole RX —
  // nothing above the device consumes descriptors while the stack restarts.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Explicit application->queue binding (flow director style): bypass
  // runtimes program one entry per app port. Bindings take precedence over
  // the RSS hash, so retiring an app and reusing its queue is an explicit
  // table update instead of a stale hash artifact. Re-pointing a bound port
  // at a different queue counts as a rebind.
  void BindPort(uint16_t dst_port, uint32_t queue);
  void UnbindPort(uint16_t dst_port);
  size_t BoundPorts() const { return port_bindings_.size(); }

  // Queue selection for an arriving frame: explicit binding, else Toeplitz
  // RSS over the IPv4 4-tuple. Exposed for tests.
  uint32_t RssQueue(const Packet& packet) const;

  // PacketSink: a frame arrived from the wire.
  void ReceivePacket(Packet packet) override;

  // MmioDevice.
  void OnMmioWrite(uint64_t offset, uint64_t value) override;
  uint64_t OnMmioRead(uint64_t offset) override;

  // Observation hooks for latency tracking, handed the LRPC header of a
  // frame the moment it arrives from / departs to the wire (before any
  // queueing). The device forwards opaque bytes, so it parses each frame
  // once at each point itself; frames that do not parse, or carry no
  // well-formed LRPC header, are not reported.
  Function<void(const RpcHeaderPeek&)> on_wire_rx;
  Function<void(const RpcHeaderPeek&)> on_wire_tx;

  const Stats& stats() const { return stats_; }

 private:
  struct Queue {
    uint64_t rx_base = 0;
    uint32_t rx_size = 0;
    uint32_t rx_head = 0;  // next descriptor the NIC will consume
    uint32_t rx_tail = 0;  // host has posted descriptors up to here
    uint64_t tx_base = 0;
    uint32_t tx_size = 0;
    uint32_t tx_head = 0;
    uint32_t tx_tail = 0;
    bool rx_busy = false;            // an RX DMA chain is in flight
    std::deque<Packet> rx_backlog;   // parsed packets awaiting descriptors/DMA
    bool irq_scheduled = false;
    bool tx_busy = false;
  };

  void StartRxDelivery(uint32_t q);
  void DeliverOne(uint32_t q, Packet packet);
  void MaybeInterrupt(uint32_t q);
  void StartTx(uint32_t q);

  Simulator& sim_;
  Config config_;
  PcieLink& pcie_;
  Msix& msix_;
  LinkDirection* tx_wire_ = nullptr;
  FaultInjector* faults_ = nullptr;
  std::vector<Queue> queues_;
  std::unordered_map<uint16_t, uint32_t> port_bindings_;
  bool interrupts_enabled_;
  Stats stats_;
};

// Exported as dmanic/<name>.
inline constexpr StatsField<DmaNic::Stats> kDmaNicStatsFields[] = {
    {"rx_packets", &DmaNic::Stats::rx_packets},
    {"tx_packets", &DmaNic::Stats::tx_packets},
    {"rx_drops_no_desc", &DmaNic::Stats::rx_drops_no_desc},
    {"rx_drops_bad_frame", &DmaNic::Stats::rx_drops_bad_frame},
    {"rx_drops_service_down", &DmaNic::Stats::rx_drops_service_down},
    {"rx_rebinds", &DmaNic::Stats::rx_rebinds},
};
static_assert(CoversStats(kDmaNicStatsFields));

// Host-side driver: owns rings and buffers in host memory, posts RX
// descriptors, harvests completions, and submits TX. The CPU cost of driver
// work is charged by the *caller* (Linux softirq vs bypass poll differ).
class DmaNicDriver {
 public:
  struct Config {
    uint32_t num_queues = 1;
    uint32_t ring_entries = 256;
    size_t buffer_size = 2048;
    uint64_t mem_base = 0x100000;  // host memory region for rings + buffers
  };

  DmaNicDriver(Simulator& sim, Config config, PcieLink& pcie, Iommu& iommu,
               MemoryHomeAgent& memory);

  // Programs the device registers and posts all RX buffers.
  void Setup();

  // Harvests up to `budget` completed RX packets from queue `q`, reposting
  // their buffers. Pure data-structure work; charge CPU cost at the caller.
  std::vector<Packet> Poll(uint32_t q, size_t budget);

  // True if a completed descriptor is waiting (cheap peek for spin loops).
  bool RxPending(uint32_t q);

  // Number of completed-but-unharvested RX descriptors: the ring occupancy a
  // bypass runtime uses as its overload signal (rings carry no timestamps, so
  // occupancy is the only queue-delay proxy available in user space).
  size_t RxOccupancy(uint32_t q);

  // Copies `bytes` into a TX buffer, writes the descriptor, rings the doorbell.
  // Returns false, sending nothing, if `bytes` exceeds a buffer or the TX
  // ring is full (the next slot's descriptor is still owned by the device).
  bool Transmit(uint32_t q, std::span<const uint8_t> bytes);

  struct Stats {
    uint64_t tx_ring_full = 0;  // transmits refused because the TX ring was full
  };

  uint32_t num_queues() const { return config_.num_queues; }
  const Stats& stats() const { return stats_; }

 private:
  struct QueueState {
    uint64_t rx_ring_base = 0;
    uint64_t tx_ring_base = 0;
    uint64_t rx_buffers = 0;  // ring_entries contiguous buffers
    uint64_t tx_buffers = 0;
    uint32_t rx_next = 0;     // next descriptor to harvest
    uint32_t rx_tail = 0;     // posted up to here
    uint32_t tx_tail = 0;
  };

  void PostRx(uint32_t q, uint32_t index);

  Simulator& sim_;
  Config config_;
  PcieLink& pcie_;
  Iommu& iommu_;
  MemoryHomeAgent& memory_;
  std::vector<QueueState> queues_;
  Stats stats_;
};

// Exported as dmanic/<name>, next to the device's own counters.
inline constexpr StatsField<DmaNicDriver::Stats> kDmaNicDriverStatsFields[] = {
    {"tx_ring_full", &DmaNicDriver::Stats::tx_ring_full},
};
static_assert(CoversStats(kDmaNicDriverStatsFields));

}  // namespace lauberhorn

#endif  // SRC_NIC_DMA_NIC_H_

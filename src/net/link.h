// Point-to-point full-duplex link model with serialization delay, propagation
// delay and optional independent loss. Burst loss, bit corruption,
// duplication and reordering come from the cross-layer FaultInjector
// (src/fault, NetFaultPlan).
#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/stats/metrics.h"

namespace lauberhorn {

class FaultInjector;

// Anything that can accept a packet off a wire: NIC models, traffic sources.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void ReceivePacket(Packet packet) = 0;
};

struct LinkConfig {
  double bandwidth_gbps = 100.0;           // serialization rate
  Duration propagation = Nanoseconds(500);  // one-way wire + switch latency
  double loss_probability = 0.0;            // silently drop
  // Finite egress buffer, in packets awaiting or under serialization. A
  // packet arriving at a full buffer is dropped and counted in
  // Stats::queue_drops. 0 = unbounded (the seed behavior; machine wires keep it).
  size_t queue_limit = 0;
  // ECN marking threshold K, in packets (DCTCP-style instantaneous-depth
  // marking): an ECT packet arriving when the buffer already holds >= K
  // packets gets its CE codepoint set in flight. 0 = no marking. Non-ECT
  // traffic is never rewritten, so enabling a threshold is behavior-neutral
  // until a sender opts in.
  size_t ecn_threshold = 0;
  uint64_t seed = 1;  // loss draws and the bit a corruption flips
};

// One direction of a link. Packets serialize back to back: a packet starts
// transmitting when the previous one has finished, then arrives after the
// propagation delay. This models head-of-line blocking at the sender.
//
// A duplicated packet occupies the wire twice (back-to-back copies, as a
// misbehaving switch would emit). A reordered packet keeps its serialization
// slot but its delivery slips by NetFaultPlan::reorder_extra_delay, letting
// later packets overtake it in arrival order.
class LinkDirection {
 public:
  struct Stats {
    uint64_t packets_sent = 0;
    uint64_t packets_dropped = 0;  // LinkConfig loss and injected burst loss
    uint64_t packets_corrupted = 0;
    uint64_t packets_duplicated = 0;
    uint64_t packets_reordered = 0;
    uint64_t queue_drops = 0;  // tail drops at a full egress buffer
    uint64_t ecn_marked = 0;
    uint64_t bytes_sent = 0;
  };

  LinkDirection(Simulator& sim, const LinkConfig& config, uint64_t seed);

  void set_sink(PacketSink* sink) { sink_ = sink; }
  // Optional cross-layer injector consulted per packet after the LinkConfig
  // loss draw: burst loss, corruption, duplication and reordering.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Hands a packet to the wire.
  void Send(Packet packet);

  const Stats& stats() const { return stats_; }
  uint64_t packets_dropped() const { return stats_.packets_dropped; }
  // Packets currently buffered or serializing (0 when neither queue_limit
  // nor ecn_threshold is set, which skips occupancy tracking entirely).
  size_t queue_depth(SimTime now) const;
  // Tail drops attributed per (IPv4 src, dst) pair, so an incast victim can
  // tell *whose* traffic its full egress buffer discarded. Ordered map:
  // deterministic export order. Unparseable frames land under {0, 0}.
  const std::map<uint64_t, uint64_t>& pair_drops() const { return pair_drops_; }
  static uint64_t PairKey(uint32_t src, uint32_t dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }
  // Sets <prefix><src>-><dst> to each pair's tail drops.
  void ExportPairDrops(MetricsRegistry& metrics, const std::string& prefix) const;

 private:
  Duration SerializationDelay(size_t bytes) const;
  // Serializes one copy and schedules delivery `extra_delay` past arrival.
  void Transmit(Packet packet, Duration extra_delay);

  Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  PacketSink* sink_ = nullptr;
  FaultInjector* faults_ = nullptr;
  bool TracksOccupancy() const {
    return config_.queue_limit > 0 || config_.ecn_threshold > 0;
  }

  SimTime tx_free_at_ = 0;  // when the transmitter finishes the current packet
  // Serialization-finish times of buffered packets (only when occupancy is
  // tracked): entries <= now have left the buffer and are pruned lazily.
  std::deque<SimTime> busy_until_;
  std::map<uint64_t, uint64_t> pair_drops_;  // PairKey(src, dst) -> tail drops
  Stats stats_;
};

// A machine's wire exported as wire/<side>_egress_<name>.
inline constexpr StatsField<LinkDirection::Stats> kLinkStatsFields[] = {
    {"packets", &LinkDirection::Stats::packets_sent},
    {"loss_drops", &LinkDirection::Stats::packets_dropped},
    {"packets_corrupted", &LinkDirection::Stats::packets_corrupted},
    {"packets_duplicated", &LinkDirection::Stats::packets_duplicated},
    {"packets_reordered", &LinkDirection::Stats::packets_reordered},
    {"queue_drops", &LinkDirection::Stats::queue_drops},
    {"ecn_marked", &LinkDirection::Stats::ecn_marked},
    {"bytes", &LinkDirection::Stats::bytes_sent},
};
static_assert(CoversStats(kLinkStatsFields));

// A full-duplex link: direction A->B and B->A.
class Link {
 public:
  Link(Simulator& sim, const LinkConfig& config);

  LinkDirection& a_to_b() { return a_to_b_; }
  LinkDirection& b_to_a() { return b_to_a_; }

 private:
  LinkDirection a_to_b_;
  LinkDirection b_to_a_;
};

}  // namespace lauberhorn

#endif  // SRC_NET_LINK_H_

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
  // queue_drops(). 0 = unbounded (the seed behavior; machine wires keep it).
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
  LinkDirection(Simulator& sim, const LinkConfig& config, uint64_t seed);

  void set_sink(PacketSink* sink) { sink_ = sink; }
  // Optional cross-layer injector consulted per packet after the LinkConfig
  // loss draw: burst loss, corruption, duplication and reordering.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Hands a packet to the wire.
  void Send(Packet packet);

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t packets_corrupted() const { return packets_corrupted_; }
  uint64_t packets_duplicated() const { return packets_duplicated_; }
  uint64_t packets_reordered() const { return packets_reordered_; }
  uint64_t queue_drops() const { return queue_drops_; }
  uint64_t ecn_marked() const { return ecn_marked_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
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
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t packets_corrupted_ = 0;
  uint64_t packets_duplicated_ = 0;
  uint64_t packets_reordered_ = 0;
  uint64_t queue_drops_ = 0;
  uint64_t ecn_marked_ = 0;
  uint64_t bytes_sent_ = 0;
};

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

#include "src/net/link.h"

#include <algorithm>
#include <utility>

#include "src/fault/fault.h"
#include "src/net/headers.h"

namespace lauberhorn {

LinkDirection::LinkDirection(Simulator& sim, const LinkConfig& config, uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {}

Duration LinkDirection::SerializationDelay(size_t bytes) const {
  // bits / (Gbit/s) = ns; include Ethernet preamble + IFG (20 bytes) as real
  // MACs do.
  const double wire_bytes = static_cast<double>(bytes) + 20.0;
  return NanosecondsF(wire_bytes * 8.0 / config_.bandwidth_gbps);
}

size_t LinkDirection::queue_depth(SimTime now) const {
  size_t depth = busy_until_.size();
  for (SimTime done : busy_until_) {
    if (done <= now) {
      --depth;
    } else {
      break;  // finish times are monotonic
    }
  }
  return depth;
}

void LinkDirection::Transmit(Packet packet, Duration extra_delay) {
  const SimTime start = std::max(sim_.Now(), tx_free_at_);
  const SimTime done = start + SerializationDelay(packet.size());
  tx_free_at_ = done;
  if (TracksOccupancy()) {
    busy_until_.push_back(done);
  }
  const SimTime arrival = done + config_.propagation + extra_delay;
  sim_.ScheduleAt(arrival, [this, p = std::move(packet)]() mutable {
    if (sink_ != nullptr) {
      sink_->ReceivePacket(std::move(p));
    }
  });
}

void LinkDirection::Send(Packet packet) {
  packet.enqueued_at = sim_.Now();
  if (TracksOccupancy()) {
    while (!busy_until_.empty() && busy_until_.front() <= sim_.Now()) {
      busy_until_.pop_front();
    }
    if (config_.queue_limit > 0 && busy_until_.size() >= config_.queue_limit) {
      ++queue_drops_;
      // Attribute the drop to the (src, dst) pair so incast victims are
      // identifiable instead of vanishing into a per-port aggregate.
      const auto pair = PeekIpv4SrcDst(packet);
      ++pair_drops_[pair.has_value() ? PairKey(pair->src, pair->dst)
                                     : PairKey(0, 0)];
      return;  // tail drop at a full egress buffer, before any fault draws
    }
    // DCTCP-style marking on instantaneous depth: a packet that joins a
    // queue already K deep gets CE (ECT frames only; MarkEcnCe refuses the
    // rest). Marking happens before the fault draws — the mark is a property
    // of the queue, corruption of the marked frame a property of the wire.
    if (config_.ecn_threshold > 0 &&
        busy_until_.size() >= config_.ecn_threshold && MarkEcnCe(packet)) {
      ++ecn_marked_;
    }
  }
  ++packets_sent_;
  bytes_sent_ += packet.size();

  bool drop = config_.loss_probability > 0.0 && rng_.Bernoulli(config_.loss_probability);
  if (faults_ != nullptr && faults_->NetShouldDrop()) {
    drop = true;
  }
  if (drop) {
    ++packets_dropped_;
    return;
  }
  if (faults_ == nullptr) {
    Transmit(std::move(packet), 0);
    return;
  }
  if (faults_->NetShouldCorrupt() && !packet.bytes.empty()) {
    const size_t byte_index = rng_.UniformInt(0, packet.bytes.size() - 1);
    const auto bit = static_cast<uint8_t>(1u << rng_.UniformInt(0, 7));
    packet.bytes[byte_index] ^= bit;
    ++packets_corrupted_;
  }
  const bool duplicate = faults_->NetShouldDuplicate();
  const Duration extra = faults_->NetReorderDelay();
  if (extra > 0) {
    ++packets_reordered_;
  }

  if (duplicate) {
    ++packets_duplicated_;
    Transmit(packet, extra);  // copies; the duplicate serializes right behind
  }
  Transmit(std::move(packet), extra);
}

Link::Link(Simulator& sim, const LinkConfig& config)
    : a_to_b_(sim, config, config.seed * 2 + 1), b_to_a_(sim, config, config.seed * 2 + 2) {}

}  // namespace lauberhorn

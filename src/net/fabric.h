// Queued cluster fabric: an IP-routed switch whose egress side is modelled,
// not free. Every registered destination (a machine's NIC or client
// interface) owns a switch port with a Link-backed egress queue — finite
// depth, serialization delay, per-port drop counters — so multi-machine
// scale-out numbers include fabric contention instead of assuming an
// infinitely fast switch. Frames for unknown addresses are dropped and
// counted (a real switch would flood; our topologies are fully registered).
#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/headers.h"
#include "src/net/link.h"
#include "src/stats/metrics.h"

namespace lauberhorn {

struct FabricConfig {
  // Per-port egress serialization rate and switching latency (on top of the
  // sender's own wire serialization + propagation).
  double port_bandwidth_gbps = 100.0;
  Duration port_latency = Nanoseconds(100);
  // Egress buffer depth in packets; arrivals at a full buffer are dropped
  // and counted per port. 0 = unbounded.
  size_t port_queue_limit = 512;
  // ECN marking threshold K per egress queue (DCTCP-style, instantaneous
  // depth). Only ECT frames are rewritten, so the default is harmless for
  // traffic that never opts in. 0 disables marking.
  size_t port_ecn_threshold = 64;
};

class IpSwitch : public PacketSink {
 public:
  explicit IpSwitch(Simulator& sim, FabricConfig config = {});

  // Binds `ip` to a new egress port delivering to `sink`. Re-registering an
  // ip re-points its existing port.
  void Register(uint32_t ip, PacketSink* sink);

  void ReceivePacket(Packet packet) override;  // ingress from any machine

  // Frames routed into an egress queue (the queue may still drop them).
  uint64_t forwarded() const { return forwarded_; }
  // Unroutable or unparseable frames dropped at ingress.
  uint64_t dropped() const { return dropped_; }

  size_t num_ports() const { return ports_.size(); }
  uint32_t port_ip(size_t index) const { return ports_[index]->ip; }
  const LinkDirection& port(size_t index) const { return ports_[index]->egress; }

  // Snapshots fabric counters under `prefix`: forwarded, dropped and the ports'
  // summed queue_drops and ecn_marked, plus each port's forwarded, queue_drops,
  // ecn_marked, bytes and pair drops under "<prefix>port<i>/" (registration order).
  void ExportMetrics(MetricsRegistry& metrics,
                     const std::string& prefix = "fabric/") const;

 private:
  struct Port {
    explicit Port(Simulator& sim, const LinkConfig& config, uint64_t seed)
        : egress(sim, config, seed) {}
    uint32_t ip = 0;
    LinkDirection egress;
  };

  Simulator& sim_;
  FabricConfig config_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<uint32_t, size_t> routes_;  // ip -> port index
  uint64_t forwarded_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_NET_FABRIC_H_

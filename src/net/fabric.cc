#include "src/net/fabric.h"

#include <utility>

namespace lauberhorn {

IpSwitch::IpSwitch(Simulator& sim, FabricConfig config)
    : sim_(sim), config_(config) {}

void IpSwitch::Register(uint32_t ip, PacketSink* sink) {
  const auto it = routes_.find(ip);
  if (it != routes_.end()) {
    ports_[it->second]->egress.set_sink(sink);
    return;
  }
  LinkConfig link_config;
  link_config.bandwidth_gbps = config_.port_bandwidth_gbps;
  link_config.propagation = config_.port_latency;
  link_config.queue_limit = config_.port_queue_limit;
  link_config.ecn_threshold = config_.port_ecn_threshold;
  auto port = std::make_unique<Port>(sim_, link_config, /*seed=*/0);
  port->ip = ip;
  port->egress.set_sink(sink);
  routes_[ip] = ports_.size();
  ports_.push_back(std::move(port));
}

void IpSwitch::ReceivePacket(Packet packet) {
  const auto frame = ParseUdpFrame(packet);
  if (!frame.has_value()) {
    ++dropped_;
    return;
  }
  const auto it = routes_.find(frame->ip.dst);
  if (it == routes_.end()) {
    ++dropped_;
    return;
  }
  ++forwarded_;
  ports_[it->second]->egress.Send(std::move(packet));
}

void IpSwitch::ExportMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  LinkDirection::Stats total;
  for (size_t i = 0; i < ports_.size(); ++i) {
    const LinkDirection::Stats& port = ports_[i]->egress.stats();
    AddStats(total, port, kLinkStatsFields);
    const std::string base = prefix + "port" + std::to_string(i) + "/";
    metrics.SetCounter(base + "forwarded", port.packets_sent);
    metrics.SetCounter(base + "queue_drops", port.queue_drops);
    metrics.SetCounter(base + "ecn_marked", port.ecn_marked);
    metrics.SetCounter(base + "bytes", port.bytes_sent);
    ports_[i]->egress.ExportPairDrops(metrics, base + "pair_drop/");
  }
  metrics.SetCounter(prefix + "forwarded", forwarded_);
  metrics.SetCounter(prefix + "dropped", dropped_);
  metrics.SetCounter(prefix + "queue_drops", total.queue_drops);
  metrics.SetCounter(prefix + "ecn_marked", total.ecn_marked);
}

}  // namespace lauberhorn

#include "src/core/testbed.h"

#include <cassert>
#include <string>
#include <utility>

namespace lauberhorn {

Testbed::Testbed(FabricConfig fabric) : fabric_(sim_, fabric) {}

Machine& Testbed::AddMachine(MachineConfig config) {
  const auto index = static_cast<uint8_t>(machines_.size());
  config.server_ip = MakeIpv4(10, 0, index, 2);
  config.client_ip = MakeIpv4(10, 0, index, 1);
  config.machine_index = index;
  machines_.push_back(std::make_unique<Machine>(std::move(config), &sim_));
  Machine& machine = *machines_.back();

  // Both wire egresses feed the switch: the NIC side so responses and
  // nested RPCs route by destination ip, and the client side so a cluster
  // client can address any machine's services (its own included — local
  // traffic takes one switch hop like everything else).
  machine.wire().b_to_a().set_sink(&fabric_);
  machine.wire().a_to_b().set_sink(&fabric_);

  fabric_.Register(machine.config().client_ip, &machine.client());
  PacketSink* nic_sink = nullptr;
  if (machine.lauberhorn_nic() != nullptr) {
    nic_sink = machine.lauberhorn_nic();
  } else {
    nic_sink = machine.dma_nic();
  }
  assert(nic_sink != nullptr);
  fabric_.Register(machine.config().server_ip, nic_sink);
  return machine;
}

void Testbed::ExportMetrics(MetricsRegistry& metrics) const {
  for (size_t i = 0; i < machines_.size(); ++i) {
    machines_[i]->ExportMetrics(metrics, "m" + std::to_string(i) + "/");
  }
  fabric_.ExportMetrics(metrics, "fabric/");
  metrics.SetCounter("sim/pending", sim_.pending_events());
  metrics.SetCounter("sim/events_executed", sim_.events_executed());
}

}  // namespace lauberhorn

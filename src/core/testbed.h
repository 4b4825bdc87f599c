// Multi-machine testbed: several full machines share one sequential
// Simulator and a queued IP fabric (src/net/fabric.h), so a service on one
// machine can issue nested RPCs (§6 continuation endpoints) to services on
// another across the wire, and any machine's client can call any machine's
// services (the cluster dispatch plane in src/cluster builds on this).
#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <memory>
#include <vector>

#include "src/core/machine.h"
#include "src/net/fabric.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

class Testbed {
 public:
  Testbed() : Testbed(FabricConfig{}) {}
  explicit Testbed(FabricConfig fabric);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Simulator& sim() { return sim_; }
  IpSwitch& fabric() { return fabric_; }

  // Creates a machine on the shared simulator. `index` picks default
  // addresses: server 10.0.<index>.2, client 10.0.<index>.1. Both egress
  // directions of the machine's wire are re-pointed at the switch (so a
  // client can reach any machine's services, not just its own), and its
  // NIC + client are registered as switch destinations. The machine index
  // also seeds the client's request-id space so ids are cluster-unique.
  Machine& AddMachine(MachineConfig config);

  Machine& machine(size_t index) { return *machines_[index]; }
  size_t size() const { return machines_.size(); }

  // Snapshots every machine's metrics under "m<i>/", the fabric's counters
  // under "fabric/" (IpSwitch::ExportMetrics: per-port and per-pair drops
  // included), and the simulator's counters as "sim/pending" and
  // "sim/events_executed".
  void ExportMetrics(MetricsRegistry& metrics) const;

 private:
  Simulator sim_;
  IpSwitch fabric_;
  std::vector<std::unique_ptr<Machine>> machines_;
};

}  // namespace lauberhorn

#endif  // SRC_CORE_TESTBED_H_

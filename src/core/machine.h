// Machine: the top-level façade. Assembles a complete simulated server —
// coherent interconnect, host memory, IOMMU, PCIe, cores + kernel, the
// selected network stack — plus the wire and a client, and exposes uniform
// service registration and measurement across stacks.
//
// This is the public API examples and benches use:
//
//   MachineConfig config;
//   config.stack = StackKind::kLauberhorn;
//   Machine machine(config);
//   auto& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
//   machine.Start();
//   machine.client().Call(echo, 0, args, [](const RpcMessage& r, Duration rtt) {...});
//   machine.sim().RunUntil(Seconds(1));
#ifndef SRC_CORE_MACHINE_H_
#define SRC_CORE_MACHINE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/core/client.h"
#include "src/fault/fault.h"
#include "src/net/link.h"
#include "src/nic/bypass.h"
#include "src/nic/cost_model.h"
#include "src/nic/dma_nic.h"
#include "src/nic/lauberhorn_nic.h"
#include "src/nic/lauberhorn_runtime.h"
#include "src/nic/linux_stack.h"
#include "src/nic/shadow.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/pcie/iommu.h"
#include "src/pcie/pcie_link.h"
#include "src/proto/service.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/metrics.h"
#include "src/stats/span.h"

namespace lauberhorn {

enum class StackKind {
  kLinux,       // Fig. 1 DMA NIC + kernel net stack (Fig. 5 left)
  kBypass,      // DMA NIC + spin-polling user-space runtime
  kLauberhorn,  // the paper's NIC-as-part-of-the-OS design
};

std::string ToString(StackKind kind);

struct MachineConfig {
  PlatformSpec platform = PlatformSpec::EnzianEci();
  StackKind stack = StackKind::kLauberhorn;
  int num_cores = 8;
  // L3 identities (distinct per machine in multi-machine testbeds).
  uint32_t server_ip = MakeIpv4(10, 0, 0, 2);
  uint32_t client_ip = MakeIpv4(10, 0, 0, 1);
  // Position in a multi-machine testbed (Testbed::AddMachine sets it).
  // Seeds the client's request-id space and the runtime's nested-RPC id
  // space so ids never collide cluster-wide.
  uint32_t machine_index = 0;
  // DMA-NIC stacks: queue count; bypass dedicates cores[0..queues).
  uint32_t nic_queues = 2;
  // RX/TX descriptor ring entries and device RX FIFO depth for the DMA NIC
  // stacks (0 = defaults). Small values drop early at the device instead of
  // building hundreds of microseconds of residency that no host-side
  // overload signal can see.
  uint32_t nic_ring_entries = 0;
  size_t nic_rx_fifo_depth = 0;
  // Lauberhorn sizing.
  size_t lauberhorn_endpoints = 64;
  LargeTransferPolicy large_policy = LargeTransferPolicy::kAuto;
  std::optional<LauberhornParams> lauberhorn_params;  // overrides platform's
  LauberhornRuntime::Config runtime;
  LinuxRpcStack::Config linux_stack;
  // Transport encryption (§6): Lauberhorn opens/seals on its inline crypto
  // engine; the Linux and bypass stacks pay software AES costs per byte.
  bool encrypt_rpcs = false;
  uint64_t crypto_root_key = 0x4c61756265726e21ULL;
  // Client reliability: 0 disables retransmission (at-most-once sends).
  // With a timeout set, requests are retried with exponential backoff;
  // server-side dedup (below) upgrades the combination to at-most-once
  // execution with at-least-once delivery.
  Duration client_retransmit_timeout = 0;
  int client_max_retransmits = 3;
  double client_backoff_multiplier = 2.0;
  Duration client_max_retransmit_timeout = 0;  // 0 = uncapped
  double client_retransmit_jitter = 0.0;
  double client_retry_budget_per_sec = 0.0;  // 0 = unmetered
  // NIC-driven congestion control (DESIGN.md §15): the client sends ECT(0),
  // runs a per-destination DCTCP-style window fed by ECN echoes, and honors
  // receiver-issued grants while fresh. Off by default (seed behavior).
  bool client_congestion = false;
  double client_cc_initial_window = 8.0;
  double client_cc_max_window = 256.0;
  Duration client_cc_grant_ttl = Microseconds(200);
  // Server-side overload admission (src/overload), applied at the active
  // stack's shed point: the Lauberhorn RX pipeline, the Linux softirq
  // socket-backlog boundary, or the bypass poll loop. Disabled by default.
  AdmissionConfig admission;
  // Client reaction to kOverloaded push-back (distinct from loss backoff).
  double client_overload_token_cut = 0.5;
  int client_overload_breaker_threshold = 0;  // 0 = breaker disabled
  Duration client_overload_breaker_window = Microseconds(500);
  // Server-side at-most-once dedup (all stacks).
  bool server_dedup = true;
  size_t server_dedup_window = 1024;
  // Cross-layer fault injection (src/fault). Inactive unless faults.Any();
  // the injector is wired into the wire, interconnect, IOMMU, PCIe, and the
  // active NIC, with per-layer forked random streams.
  FaultPlan faults;
  // Per-request span tracing (src/stats/span): every stack stamps the same
  // eight stages, stitched by request id. Off by default — benches that
  // measure raw throughput stay unaffected.
  bool enable_spans = false;
  size_t span_capacity = 1 << 16;
  uint64_t seed = 1;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  // Multi-machine testbeds share one simulator across machines.
  Machine(MachineConfig config, Simulator* shared_sim);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  Simulator& sim() { return *sim_; }
  // The machine's Ethernet link (a = client side, b = NIC side); testbeds
  // re-point the NIC-egress sink at a switch.
  Link& wire() { return *wire_; }
  Kernel& kernel() { return *kernel_; }
  ServiceRegistry& services() { return services_; }
  RpcClient& client() { return *client_; }
  const MachineConfig& config() const { return config_; }

  // Registers a service with the active stack. For Lauberhorn, `max_cores`
  // endpoints are allocated on virtual function `vf` (0 = the physical
  // function; other stacks ignore it). Returns the stored definition.
  const ServiceDef& AddService(ServiceDef def, int max_cores = 1,
                               uint32_t vf = 0);

  // Lauberhorn only: carves a virtual function (tenant slice) out of the
  // NIC before services are added onto it. Returns the VF id (>= 1).
  uint32_t CreateVf(LauberhornNic::VfConfig config);

  // Finalizes setup (installs IRQ handlers / starts runtimes). Call after
  // every AddService and before traffic.
  void Start();

  // Lauberhorn: parks a core in the service's user-mode loop now (hot start).
  void StartHotLoop(const ServiceDef& service);
  // Lauberhorn: endpoint ids of a service.
  std::vector<uint32_t> EndpointsOf(const ServiceDef& service) const;

  // Stack internals (null when not the active stack).
  LauberhornNic* lauberhorn_nic() { return lauberhorn_nic_.get(); }
  LauberhornRuntime* lauberhorn_runtime() { return lauberhorn_runtime_.get(); }
  DmaNic* dma_nic() { return dma_nic_.get(); }
  DmaNicDriver* dma_driver() { return dma_driver_.get(); }
  LinuxRpcStack* linux_stack() { return linux_stack_.get(); }
  BypassRuntime* bypass() { return bypass_.get(); }
  // The Linux or bypass stack's serving core (null on Lauberhorn).
  const SoftwareRpcServer* software_server() const;
  // The active stack's at-most-once table (its stats count the duplicates)
  // and shed counts: one shape whichever stack runs.
  const RpcDedupCache& server_dedup() const;
  const ShedCounts& sheds() const;
  CoherentInterconnect& interconnect() { return *interconnect_; }
  PcieLink& pcie() { return *pcie_; }
  Iommu& iommu() { return iommu_; }
  MemoryHomeAgent& memory() { return *memory_; }
  // Null unless config.faults.Any().
  FaultInjector* fault_injector() { return faults_.get(); }
  // Null unless config.enable_spans.
  SpanCollector* spans() { return spans_.get(); }
  // Lauberhorn only: the OS's write-through NIC shadow (always present) and
  // the watchdog recovery manager (heartbeats + reset + shadow replay, with
  // NicRecoveryManager::Config's defaults; null unless the fault plan
  // schedules NIC crashes).
  NicShadow* nic_shadow() { return nic_shadow_.get(); }
  NicRecoveryManager* nic_recovery() { return nic_recovery_.get(); }

  // -- Measurement -----------------------------------------------------------

  // End-system latency: wire arrival of a request to wire departure of its
  // response at the server NIC (excludes propagation) — the paper's proxy
  // for software-stack efficiency (§1).
  const Histogram& end_system_latency() const { return end_system_; }
  // Completed RPCs observed at the server NIC.
  uint64_t server_rpcs() const { return server_rpcs_; }
  // CPU busy time (user+kernel+spin) across all cores.
  Duration TotalBusyTime() const { return kernel_->TotalBusyTime(); }
  // Busy cycles per completed RPC since the last ResetMeasurement().
  double CyclesPerRpc() const;
  void ResetMeasurement();

  // Snapshots every subsystem's counters/latencies into `metrics` under
  // "subsystem/name" keys (client, machine, the active stack, faults, spans).
  // Pull-style: call once after a run; nothing is maintained on the data
  // path. `prefix` namespaces the keys ("m0/client/sent", ...) so testbeds
  // can export several machines into one registry.
  void ExportMetrics(MetricsRegistry& metrics,
                     const std::string& prefix = "") const;

 private:
  void HookLatencyTracking();

  MachineConfig config_;
  std::unique_ptr<Simulator> owned_sim_;
  Simulator* sim_ = nullptr;
  std::unique_ptr<CoherentInterconnect> interconnect_;
  std::unique_ptr<MemoryHomeAgent> memory_;
  Iommu iommu_;
  std::unique_ptr<PcieLink> pcie_;
  std::unique_ptr<Msix> msix_;
  std::unique_ptr<Kernel> kernel_;
  ServiceRegistry services_;
  std::unique_ptr<Link> wire_;  // a = client, b = server NIC
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<SpanCollector> spans_;

  std::unique_ptr<DmaNic> dma_nic_;
  std::unique_ptr<DmaNicDriver> dma_driver_;
  std::unique_ptr<LinuxRpcStack> linux_stack_;
  std::unique_ptr<BypassRuntime> bypass_;
  std::unique_ptr<LauberhornNic> lauberhorn_nic_;
  std::unique_ptr<LauberhornRuntime> lauberhorn_runtime_;
  std::unique_ptr<NicShadow> nic_shadow_;
  std::unique_ptr<NicRecoveryManager> nic_recovery_;
  std::unique_ptr<RpcClient> client_;

  std::unordered_map<uint32_t, std::vector<uint32_t>> service_endpoints_;
  std::unordered_map<uint64_t, SimTime> request_arrivals_;
  Histogram end_system_;
  uint64_t server_rpcs_ = 0;
  Duration busy_at_reset_ = 0;
  uint64_t rpcs_at_reset_ = 0;
  bool started_ = false;
};

}  // namespace lauberhorn

#endif  // SRC_CORE_MACHINE_H_

#include "src/core/machine.h"

#include <cassert>
#include <utility>

namespace lauberhorn {
namespace {

// Host physical memory: [0, 1 GiB). Device-homed lines live above this.
constexpr uint64_t kHostMemorySize = 1ULL << 30;
constexpr LineAddr kLauberhornBase = 0x1'0000'0000ULL;  // 4 GiB
constexpr uint64_t kDriverMemBase = 0x10'0000;          // rings + buffers
constexpr uint64_t kDmaRegionBase = 0x400'0000;         // Lauberhorn DMA buffers

}  // namespace

std::string ToString(StackKind kind) {
  switch (kind) {
    case StackKind::kLinux:
      return "linux";
    case StackKind::kBypass:
      return "bypass";
    case StackKind::kLauberhorn:
      return "lauberhorn";
  }
  return "?";
}

Machine::Machine(MachineConfig config) : Machine(std::move(config), nullptr) {}

Machine::Machine(MachineConfig config, Simulator* shared_sim)
    : config_(std::move(config)) {
  if (shared_sim != nullptr) {
    sim_ = shared_sim;
  } else {
    owned_sim_ = std::make_unique<Simulator>();
    sim_ = owned_sim_.get();
  }
  const PlatformSpec& platform = config_.platform;
  interconnect_ = std::make_unique<CoherentInterconnect>(*sim_, platform.coherence);
  memory_ = std::make_unique<MemoryHomeAgent>(*sim_, *interconnect_, 0, kHostMemorySize);
  pcie_ = std::make_unique<PcieLink>(*sim_, platform.pcie, *memory_, iommu_);
  msix_ = std::make_unique<Msix>(*sim_, platform.pcie.msix_latency);

  Kernel::Config kernel_config;
  kernel_config.num_cores = config_.num_cores;
  kernel_config.costs = platform.os;
  kernel_ = std::make_unique<Kernel>(*sim_, *interconnect_, kernel_config);

  LinkConfig wire_config = platform.wire;
  wire_config.seed = config_.seed;
  wire_ = std::make_unique<Link>(*sim_, wire_config);

  if (config_.faults.Any()) {
    FaultPlan plan = config_.faults;
    // Fold the machine seed in so per-trial seeds vary the fault streams
    // while keeping each configuration fully deterministic.
    plan.seed = plan.seed * 1000003ULL + config_.seed;
    faults_ = std::make_unique<FaultInjector>(*sim_, plan);
    wire_->a_to_b().set_fault_injector(faults_.get());
    wire_->b_to_a().set_fault_injector(faults_.get());
    interconnect_->set_fault_injector(faults_.get());
    iommu_.set_fault_injector(faults_.get());
    pcie_->set_fault_injector(faults_.get());
  }

  // Crypto, dedup and admission: the same policy on every stack.
  const RpcServeConfig serve_config{
      .crypto = config_.encrypt_rpcs,
      .crypto_root_key = config_.crypto_root_key,
      .dedup = config_.server_dedup,
      .dedup_window = config_.server_dedup_window,
      .admission = config_.admission,
  };
  switch (config_.stack) {
    case StackKind::kLinux:
    case StackKind::kBypass: {
      DmaNic::Config nic_config;
      nic_config.num_queues = config_.nic_queues;
      nic_config.interrupts_enabled = config_.stack == StackKind::kLinux;
      nic_config.pipeline = platform.pipeline;
      if (config_.nic_rx_fifo_depth > 0) {
        nic_config.rx_fifo_depth = config_.nic_rx_fifo_depth;
      }
      dma_nic_ = std::make_unique<DmaNic>(*sim_, nic_config, *pcie_, *msix_);
      if (faults_ != nullptr) {
        dma_nic_->set_fault_injector(faults_.get());
      }
      dma_nic_->set_tx_wire(&wire_->b_to_a());
      wire_->a_to_b().set_sink(dma_nic_.get());

      DmaNicDriver::Config driver_config;
      driver_config.num_queues = config_.nic_queues;
      if (config_.nic_ring_entries > 0) {
        driver_config.ring_entries = config_.nic_ring_entries;
      }
      driver_config.mem_base = kDriverMemBase;
      // Jumbo-capable RX/TX buffers (the benches sweep payloads past 9000 B).
      driver_config.buffer_size = 64 * 1024;
      dma_driver_ = std::make_unique<DmaNicDriver>(*sim_, driver_config, *pcie_, iommu_,
                                                   *memory_);
      if (config_.stack == StackKind::kLinux) {
        linux_stack_ = std::make_unique<LinuxRpcStack>(*sim_, *kernel_, *dma_nic_,
                                                       *dma_driver_, *msix_, services_,
                                                       config_.linux_stack, serve_config);
      } else {
        BypassRuntime::Config bypass_config;
        for (uint32_t q = 0; q < config_.nic_queues; ++q) {
          bypass_config.cores.push_back(static_cast<int>(q));
        }
        bypass_ = std::make_unique<BypassRuntime>(*sim_, *kernel_, *dma_driver_, services_,
                                                  bypass_config, serve_config);
      }
      break;
    }
    case StackKind::kLauberhorn: {
      LauberhornNic::Config nic_config;
      nic_config.base = kLauberhornBase;
      nic_config.num_endpoints = config_.lauberhorn_endpoints;
      nic_config.num_kernel_channels = static_cast<size_t>(config_.num_cores);
      nic_config.pipeline = platform.pipeline;
      nic_config.params = config_.lauberhorn_params.value_or(platform.lauberhorn);
      nic_config.serve = serve_config;
      nic_config.large_policy = config_.large_policy;
      nic_config.own_ip = config_.server_ip;
      lauberhorn_nic_ = std::make_unique<LauberhornNic>(*sim_, *interconnect_, *pcie_,
                                                        services_, nic_config);
      if (faults_ != nullptr) {
        lauberhorn_nic_->set_fault_injector(faults_.get());
      }
      lauberhorn_nic_->set_tx_wire(&wire_->b_to_a());
      wire_->a_to_b().set_sink(lauberhorn_nic_.get());

      // §16: the OS's authoritative shadow of the NIC's control-plane state,
      // written through on every mutation. The watchdog (heartbeat + reset +
      // replay) runs only when a crash can actually happen.
      nic_shadow_ = std::make_unique<NicShadow>();
      nic_shadow_->RecordAdmission(serve_config.admission);
      lauberhorn_nic_->set_shadow(nic_shadow_.get());
      if (faults_ != nullptr && config_.faults.nic_crash.Any()) {
        nic_recovery_ = std::make_unique<NicRecoveryManager>(
            *sim_, *lauberhorn_nic_, *nic_shadow_, faults_.get(),
            NicRecoveryManager::Config{});
      }

      LauberhornRuntime::Config runtime_config = config_.runtime;
      runtime_config.dma_region_base = kDmaRegionBase;
      runtime_config.machine_index = config_.machine_index;
      if (runtime_config.dispatcher_threads <= 0) {
        runtime_config.dispatcher_threads = config_.num_cores;
      }
      lauberhorn_runtime_ = std::make_unique<LauberhornRuntime>(
          *sim_, *kernel_, *lauberhorn_nic_, *memory_, iommu_, services_, runtime_config);
      break;
    }
  }

  RpcClient::Config client_config;
  client_config.client_ip = config_.client_ip;
  client_config.server_ip = config_.server_ip;
  client_config.client_index = config_.machine_index;
  client_config.retransmit_timeout = config_.client_retransmit_timeout;
  client_config.max_retransmits = config_.client_max_retransmits;
  client_config.backoff_multiplier = config_.client_backoff_multiplier;
  client_config.max_retransmit_timeout = config_.client_max_retransmit_timeout;
  client_config.retransmit_jitter = config_.client_retransmit_jitter;
  client_config.retry_budget_per_sec = config_.client_retry_budget_per_sec;
  client_config.overload_token_cut = config_.client_overload_token_cut;
  client_config.overload_breaker_threshold = config_.client_overload_breaker_threshold;
  client_config.overload_breaker_window = config_.client_overload_breaker_window;
  client_config.encrypt = config_.encrypt_rpcs;
  client_config.root_key = config_.crypto_root_key;
  client_config.seed = 0x5eed ^ config_.seed;
  client_config.cc_enabled = config_.client_congestion;
  client_config.cc_initial_window = config_.client_cc_initial_window;
  client_config.cc_max_window = config_.client_cc_max_window;
  client_config.cc_grant_ttl = config_.client_cc_grant_ttl;
  client_ = std::make_unique<RpcClient>(*sim_, wire_->a_to_b(), client_config);
  wire_->b_to_a().set_sink(client_.get());
  if (faults_ != nullptr) {
    client_->set_fault_injector(faults_.get());
  }

  if (config_.enable_spans) {
    spans_ = std::make_unique<SpanCollector>(config_.span_capacity);
    client_->set_span_collector(spans_.get());
    if (lauberhorn_nic_ != nullptr) {
      lauberhorn_nic_->set_span_collector(spans_.get());
    }
    if (lauberhorn_runtime_ != nullptr) {
      lauberhorn_runtime_->set_span_collector(spans_.get());
    }
    if (linux_stack_ != nullptr) {
      linux_stack_->set_span_collector(spans_.get());
    }
    if (bypass_ != nullptr) {
      bypass_->set_span_collector(spans_.get());
    }
  }
  HookLatencyTracking();
}

Machine::~Machine() {
  if (bypass_ != nullptr) {
    bypass_->Stop();
  }
}

void Machine::HookLatencyTracking() {
  auto on_rx = [this](const Packet& packet) {
    const auto frame = ParseUdpFrame(packet);
    if (!frame.has_value()) {
      return;
    }
    const auto msg = PeekRpcHeader(frame->payload);
    if (msg.has_value() && msg->kind == MessageKind::kRequest) {
      request_arrivals_[msg->request_id] = sim_->Now();
      if (spans_ != nullptr) {
        // Spans open here: wire arrival at the server NIC. Retransmits of an
        // in-flight id are counted by the collector, not re-opened.
        spans_->Record(msg->request_id, SpanStage::kWireRx, sim_->Now());
      }
    }
  };
  auto on_tx = [this](const Packet& packet) {
    const auto frame = ParseUdpFrame(packet);
    if (!frame.has_value()) {
      return;
    }
    const auto msg = PeekRpcHeader(frame->payload);
    if (!msg.has_value() || msg->kind != MessageKind::kResponse) {
      return;
    }
    if (spans_ != nullptr) {
      // Before the arrivals-map early return: dedup replays still stamp TX.
      spans_->Record(msg->request_id, SpanStage::kWireTx, sim_->Now());
    }
    auto it = request_arrivals_.find(msg->request_id);
    if (it == request_arrivals_.end()) {
      return;
    }
    end_system_.Record(sim_->Now() - it->second);
    request_arrivals_.erase(it);
    ++server_rpcs_;
  };
  if (dma_nic_ != nullptr) {
    dma_nic_->on_wire_rx = std::move(on_rx);
    dma_nic_->on_wire_tx = std::move(on_tx);
  } else if (lauberhorn_nic_ != nullptr) {
    lauberhorn_nic_->on_wire_rx = std::move(on_rx);
    lauberhorn_nic_->on_wire_tx = std::move(on_tx);
  }
}

const ServiceDef& Machine::AddService(ServiceDef def, int max_cores,
                                      uint32_t vf) {
  assert(!started_ && "AddService must precede Start");
  ServiceDef* stored = services_.Add(std::move(def));
  switch (config_.stack) {
    case StackKind::kLinux:
      linux_stack_->RegisterServiceProcess(*stored);
      break;
    case StackKind::kBypass:
      break;  // registry-driven, nothing to do
    case StackKind::kLauberhorn: {
      const uint32_t first =
          lauberhorn_runtime_->RegisterService(*stored, max_cores, vf);
      auto& list = service_endpoints_[stored->service_id];
      for (int i = 0; i < max_cores; ++i) {
        list.push_back(first + static_cast<uint32_t>(i));
      }
      break;
    }
  }
  return *stored;
}

uint32_t Machine::CreateVf(LauberhornNic::VfConfig config) {
  assert(config_.stack == StackKind::kLauberhorn &&
         "VFs are a Lauberhorn NIC feature");
  return lauberhorn_nic_->CreateVf(std::move(config));
}

void Machine::Start() {
  assert(!started_);
  started_ = true;
  switch (config_.stack) {
    case StackKind::kLinux:
      dma_driver_->Setup();
      linux_stack_->Start();
      break;
    case StackKind::kBypass:
      // Static assignment (§2): while every app can own dedicated queues,
      // flows spread by Toeplitz RSS; once apps outnumber queues, each app
      // is pinned to one queue — still the rigidity the paper criticizes,
      // but now an explicit flow-director table (round-robin over queues)
      // instead of a hash artifact, so retiring an app frees its entry and
      // reusing the queue is a counted rebind rather than a stale binding.
      if (services_.size() > config_.nic_queues) {
        uint32_t next_queue = 0;
        for (const ServiceDef* def : services_.All()) {
          dma_nic_->BindPort(def->udp_port, next_queue++ % config_.nic_queues);
        }
      }
      dma_driver_->Setup();
      bypass_->Start();
      break;
    case StackKind::kLauberhorn:
      lauberhorn_runtime_->Start();
      break;
  }
}

void Machine::StartHotLoop(const ServiceDef& service) {
  assert(config_.stack == StackKind::kLauberhorn);
  const auto it = service_endpoints_.find(service.service_id);
  assert(it != service_endpoints_.end());
  for (uint32_t ep : it->second) {
    lauberhorn_runtime_->StartUserLoop(ep);
  }
}

std::vector<uint32_t> Machine::EndpointsOf(const ServiceDef& service) const {
  const auto it = service_endpoints_.find(service.service_id);
  return it != service_endpoints_.end() ? it->second : std::vector<uint32_t>{};
}

const SoftwareRpcServer* Machine::software_server() const {
  if (linux_stack_ != nullptr) {
    return &linux_stack_->server();
  }
  return bypass_ != nullptr ? &bypass_->server() : nullptr;
}

const RpcDedupCache& Machine::server_dedup() const {
  return lauberhorn_nic_ != nullptr ? lauberhorn_nic_->dedup()
                                    : software_server()->dedup();
}

const ShedCounts& Machine::sheds() const {
  return lauberhorn_nic_ != nullptr ? lauberhorn_nic_->stats().sheds
                                    : software_server()->sheds();
}

double Machine::CyclesPerRpc() const {
  const uint64_t rpcs = server_rpcs_ - rpcs_at_reset_;
  if (rpcs == 0) {
    return 0.0;
  }
  const Duration busy = kernel_->TotalBusyTime() - busy_at_reset_;
  return ToCycles(busy, config_.platform.os.frequency_ghz) / static_cast<double>(rpcs);
}

void Machine::ResetMeasurement() {
  end_system_.Reset();
  busy_at_reset_ = kernel_->TotalBusyTime();
  rpcs_at_reset_ = server_rpcs_;
}

void Machine::ExportMetrics(MetricsRegistry& metrics,
                            const std::string& prefix) const {
  const auto C = [&](const char* name, uint64_t value) {
    metrics.SetCounter(prefix + name, value);
  };
  const auto G = [&](const char* name, double value) {
    metrics.SetGauge(prefix + name, value);
  };
  const auto H = [&](const std::string& name) -> Histogram& {
    return metrics.Histo(prefix + name);
  };

  C("client/sent", client_->sent());
  C("client/completed", client_->completed());
  C("client/errors", client_->errors());
  C("client/retransmits", client_->retransmits());
  C("client/retransmits_suppressed", client_->retransmits_suppressed());
  C("client/retransmits_suppressed_breaker", client_->retransmits_suppressed_breaker());
  C("client/timeouts", client_->timeouts());
  C("client/late_responses", client_->late_responses());
  C("client/overloaded", client_->overloaded());
  C("client/breaker_openings", client_->breaker_openings());
  C("client/cc_deferrals", client_->cc_deferrals());
  C("client/cc_marks_seen", client_->cc_marks_seen());
  C("client/cc_grants_received", client_->cc_grants_received());
  C("client/cc_shed_refunds", client_->cc_shed_refunds());
  H("client/rtt").Merge(client_->rtt());
  // Every device DMA translates through the IOMMU, one lookup per page.
  C("pcie/iotlb_hits", iommu_.iotlb_hits());
  C("pcie/iotlb_misses", iommu_.iotlb_misses());
  C("pcie/iommu_faults", iommu_.faults());
  C("pcie/mmio_reads", pcie_->mmio_reads());
  C("pcie/mmio_writes", pcie_->mmio_writes());
  C("pcie/dma_read_bytes", pcie_->dma_read_bytes());
  C("pcie/dma_write_bytes", pcie_->dma_write_bytes());
  C("pcie/dma_errors", pcie_->dma_errors());
  C("pcie/msix_interrupts", msix_->interrupts_delivered());
  // Not "os/context_switches" or "os/preemptions": perfbench adds those keys
  // from the scheduler itself, and would count exported ones twice.
  const Scheduler& scheduler = kernel_->scheduler();
  C("sched/context_switches", scheduler.context_switches());
  C("sched/thread_switches", scheduler.thread_switches());
  C("sched/preemptions", scheduler.preemptions());
  // Coherence traffic by message type, and the cores' cache accesses.
  const CoherenceStats& coherence = interconnect_->stats();
  for (int type = 0; type < kNumCoherenceMsgTypes; ++type) {
    metrics.SetCounter(prefix + "coherence/msgs_" + kCoherenceMsgTypeNames[type],
                       coherence.messages[type]);
  }
  // Not "coherence/data_messages": perfbench adds that key from the
  // interconnect itself, and would count an exported one twice.
  C("coherence/data_msgs", coherence.data_messages);
  C("coherence/bus_errors", coherence.bus_errors);
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t loads_through = 0;
  for (size_t i = 0; i < kernel_->num_cores(); ++i) {
    const CacheAgent& cache = kernel_->core(i).cache();
    cache_hits += cache.hits();
    cache_misses += cache.misses();
    loads_through += cache.loads_through();
  }
  C("coherence/cache_hits", cache_hits);
  C("coherence/cache_misses", cache_misses);
  C("coherence/loads_through", loads_through);

  C("machine/server_rpcs", server_rpcs_);
  G("machine/cycles_per_rpc", CyclesPerRpc());
  G("machine/busy_time_us", static_cast<double>(TotalBusyTime()) /
                                static_cast<double>(Microseconds(1)));
  H("machine/end_system_latency").Merge(end_system_);

  // Fabric-facing wire counters: what this machine offered to (and dropped
  // on) its own egress queues, visible even outside a testbed.
  C("wire/client_egress_packets", wire_->a_to_b().packets_sent());
  C("wire/client_egress_queue_drops", wire_->a_to_b().queue_drops());
  C("wire/nic_egress_packets", wire_->b_to_a().packets_sent());
  C("wire/nic_egress_queue_drops", wire_->b_to_a().queue_drops());
  C("wire/client_egress_ecn_marked", wire_->a_to_b().ecn_marked());
  C("wire/nic_egress_ecn_marked", wire_->b_to_a().ecn_marked());
  // Loss drops (LinkConfig loss and injected faults); perfbench sums both
  // directions under its own "wire/loss_drops".
  C("wire/client_egress_loss_drops", wire_->a_to_b().packets_dropped());
  C("wire/nic_egress_loss_drops", wire_->b_to_a().packets_dropped());
  // Tail drops attributed per (src, dst) pair: who lost packets to whom.
  const auto export_pair_drops = [&](const char* side, const LinkDirection& dir) {
    for (const auto& [key, count] : dir.pair_drops()) {
      const uint32_t src = static_cast<uint32_t>(key >> 32);
      const uint32_t dst = static_cast<uint32_t>(key);
      metrics.SetCounter(prefix + "wire/" + side + "_pair_drop/" +
                             FormatIpv4(src) + "->" + FormatIpv4(dst),
                         count);
    }
  };
  export_pair_drops("client_egress", wire_->a_to_b());
  export_pair_drops("nic_egress", wire_->b_to_a());

  if (lauberhorn_nic_ != nullptr) {
    const LauberhornNic::Stats& s = lauberhorn_nic_->stats();
    C("nic/hot_dispatches", s.hot_dispatches);
    C("nic/queued_dispatches", s.queued_dispatches);
    C("nic/cold_dispatches", s.cold_dispatches);
    C("nic/cold_queued", s.cold_queued);
    C("nic/tryagains", s.tryagains);
    C("nic/retires", s.retires);
    C("nic/responses_sent", s.responses_sent);
    C("nic/dma_fallback_rx", s.dma_fallback_rx);
    C("nic/dma_fallback_tx", s.dma_fallback_tx);
    const RpcDedupCache::Stats& dedup = lauberhorn_nic_->dedup().stats();
    C("nic/dup_drops_in_flight", dedup.duplicates_in_flight);
    C("nic/dup_replays", dedup.duplicates_replayed);
    C("nic/dedup_evictions", dedup.evictions);
    C("nic/degradations", s.degradations);
    C("nic/grants_issued", s.grants_issued);
    C("nic/ecn_echoes", s.ecn_echoes);
    C("nic/drops_nic_down", s.drops_nic_down);
    C("nic/crashed_polls", s.crashed_polls);
    C("nic/resets", s.nic_resets);
    C("nic/drops_bad_frame", s.drops_bad_frame);
    C("nic/drops_no_endpoint", s.drops_no_endpoint);
    C("nic/drops_bad_args", s.drops_bad_args);
    C("nic/drops_service_down", s.drops_service_down);
    C("nic/crypto_failures", s.crypto_failures);
    C("nic/wedged_polls", s.wedged_polls);
    C("nic/degraded_dispatches", s.degraded_dispatches);
    C("nic/dispatcher_wakeups", s.dispatcher_wakeups);
    C("overload/sheds_queue", s.sheds.queue);
    C("overload/sheds_quota", s.sheds.quota);
    C("overload/sheds_sojourn", s.sheds.sojourn);
    C("overload/sheds_vf_quota", s.sheds.vf_quota);
    // Per-core occupancy: where the NIC's dispatch decisions actually landed
    // (§18). busy_ns is delivered-to-collected time, queue_depth the live
    // private backlog of the endpoint active on that core.
    for (const auto& [core, occ] : lauberhorn_nic_->CoreOccupancySnapshot()) {
      const std::string base = "nic/core" + std::to_string(core) + "/";
      metrics.SetCounter(prefix + base + "dispatches", occ.dispatches);
      metrics.SetCounter(prefix + base + "busy_ns",
                         static_cast<uint64_t>(ToNanoseconds(occ.busy_time)));
      metrics.SetGauge(prefix + base + "queue_depth",
                       static_cast<double>(occ.queue_depth));
    }
    // Per-discipline dispatch counters, keyed by policy name.
    for (const auto& [kind, ps] : lauberhorn_nic_->PolicyStatsSnapshot()) {
      ExportDispatchPolicyStats(metrics, prefix, kind, ps);
    }
    // Per-tenant (VF) slices; VF 0 is the PF and carries no tenant quota.
    for (uint32_t vf = 1; vf < lauberhorn_nic_->NumVfs(); ++vf) {
      const LauberhornNic::VfStats& v = lauberhorn_nic_->vf_stats(vf);
      const std::string base = "nic/vf" + std::to_string(vf) + "/";
      metrics.SetCounter(prefix + base + "rx_requests", v.rx_requests);
      metrics.SetCounter(prefix + base + "responses", v.responses);
      metrics.SetCounter(prefix + base + "sheds_queue", v.sheds.queue);
      metrics.SetCounter(prefix + base + "sheds_quota", v.sheds.quota);
      metrics.SetCounter(prefix + base + "sheds_sojourn", v.sheds.sojourn);
      metrics.SetCounter(prefix + base + "sheds_vf_quota", v.sheds.vf_quota);
      metrics.SetCounter(prefix + base + "rss_steered", v.rss_steered);
      metrics.SetCounter(prefix + base + "rss_fallbacks", v.rss_fallbacks);
      metrics.SetCounter(prefix + base + "endpoints", v.endpoints);
    }
  }
  if (dma_nic_ != nullptr) {
    C("dmanic/rx_packets", dma_nic_->rx_packets());
    C("dmanic/tx_packets", dma_nic_->tx_packets());
    C("dmanic/rx_drops_no_desc", dma_nic_->rx_drops_no_desc());
    C("dmanic/rx_drops_bad_frame", dma_nic_->rx_drops_bad_frame());
    C("dmanic/rx_drops_service_down", dma_nic_->rx_drops_service_down());
    C("dmanic/tx_ring_full", dma_driver_->tx_ring_full());
    C("dmanic/rx_rebinds", dma_nic_->rx_rebinds());
    G("dmanic/bound_ports", static_cast<double>(dma_nic_->BoundPorts()));
  }
  if (lauberhorn_runtime_ != nullptr) {
    C("runtime/rpcs_hot", lauberhorn_runtime_->rpcs_hot());
    C("runtime/rpcs_cold", lauberhorn_runtime_->rpcs_cold());
    C("runtime/loops_started", lauberhorn_runtime_->loops_started());
    C("runtime/loops_exited", lauberhorn_runtime_->loops_exited());
    C("runtime/nested_issued", lauberhorn_runtime_->nested_issued());
    C("runtime/nested_failed", lauberhorn_runtime_->nested_failed());
    C("overload/scale_suppressed", lauberhorn_runtime_->scale_suppressed());
  }
  if (const SoftwareRpcServer* server = software_server()) {
    server->ExportMetrics(metrics, prefix, ToString(config_.stack));
  }
  if (bypass_ != nullptr) {
    C("bypass/empty_polls", bypass_->empty_polls());
  }
  if (faults_ != nullptr) {
    const FaultInjector::Stats& f = faults_->stats();
    C("fault/net_drops", f.net_drops);
    C("fault/net_duplicates", f.net_duplicates);
    C("fault/net_reorders", f.net_reorders);
    C("fault/net_corruptions", f.net_corruptions);
    C("fault/coherence_fill_delays", f.coherence_fill_delays);
    C("fault/coherence_fill_drops", f.coherence_fill_drops);
    C("fault/iommu_faults", f.iommu_faults);
    C("fault/dma_errors", f.dma_errors);
    C("fault/os_crashes", f.os_crashes);
    C("fault/nic_wedges", f.nic_wedges);
    C("fault/nic_crashes", f.nic_crashes);
    C("fault/cc_grant_losses", f.cc_grant_losses);
    C("fault/cc_ecn_corruptions", f.cc_ecn_corruptions);
  }
  if (nic_shadow_ != nullptr) {
    C("recovery/shadow_writes", nic_shadow_->writes());
    G("recovery/shadow_vfs", static_cast<double>(nic_shadow_->vf_count()));
    G("recovery/shadow_endpoints", static_cast<double>(nic_shadow_->endpoint_count()));
    // The name predates the single dedup table; perfbench reads it.
    G("recovery/shadow_dedup_entries", static_cast<double>(lauberhorn_nic_->dedup().size()));
  }
  if (nic_recovery_ != nullptr) {
    const NicRecoveryManager::Stats& r = nic_recovery_->stats();
    C("recovery/heartbeats", r.heartbeats);
    C("recovery/watchdog_fires", r.watchdog_fires);
    C("recovery/recoveries", r.recoveries);
    C("recovery/replayed_vfs", r.replayed_vfs);
    C("recovery/replayed_endpoints", r.replayed_endpoints);
    C("recovery/replayed_kernel_channels", r.replayed_kernel_channels);
    C("recovery/replayed_continuations", r.replayed_continuations);
    C("recovery/replayed_dedup_completed", r.replayed_dedup_completed);
    C("recovery/replayed_dedup_in_flight", r.replayed_dedup_in_flight);
    C("recovery/dropped_undelivered", r.dropped_undelivered);
    G("recovery/last_blackout_us", static_cast<double>(r.last_blackout) /
                                       static_cast<double>(Microseconds(1)));
    G("recovery/total_blackout_us", static_cast<double>(r.total_blackout) /
                                        static_cast<double>(Microseconds(1)));
  }
  if (spans_ != nullptr) {
    C("span/completed", spans_->completed().size());
    C("span/open", spans_->open_count());
    C("span/dropped", spans_->dropped());
    C("span/orphan_marks", spans_->orphan_marks());
    C("span/reopened", spans_->reopened());
    const SpanCollector::StageBudget budget = spans_->Aggregate();
    for (size_t i = 0; i < kSpanSegmentCount; ++i) {
      H(std::string("span/seg_") + SpanSegmentName(i)).Merge(budget.segments[i]);
    }
    H("span/total").Merge(budget.total);
  }
}

}  // namespace lauberhorn

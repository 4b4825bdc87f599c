// Host-side Lauberhorn runtime: the user-mode poll loops, the kernel
// dispatcher threads that serve cold requests, and the NIC-driven core
// allocation policy (§5.2, Fig. 5 right).
//
// A user-mode loop occupies a core with a blocking load on its endpoint's
// CONTROL line; the load returns a DispatchLine and the handler runs with
// essentially zero dispatch overhead. Cold requests reach a dispatcher
// kernel thread through a kernel control channel; the dispatcher handles the
// request in software (paying the context switch) and then hands the core to
// the process's own loop, making subsequent requests hot.
#ifndef SRC_NIC_LAUBERHORN_RUNTIME_H_
#define SRC_NIC_LAUBERHORN_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/coherence/memory_home.h"
#include "src/nic/lauberhorn_nic.h"
#include "src/os/kernel.h"
#include "src/pcie/iommu.h"
#include "src/proto/service.h"

namespace lauberhorn {

class LauberhornRuntime : public SchedStateListener {
 public:
  struct Config {
    // Kernel dispatcher threads (each with its own kernel control channel).
    // <= 0 means one per core (§5.2 parks a kernel channel on any core
    // running the dispatcher kthread).
    int dispatcher_threads = 0;
    // Cost of entering the handler from the returned DispatchLine: load the
    // code pointer and jump — "essentially zero" (§1, §4).
    Duration handler_entry = Nanoseconds(20);
    // Software fixed cost around a cold (kernel-mediated) request.
    Duration cold_handling_overhead = Nanoseconds(400);
    // Host memory region carved into per-endpoint DMA buffers
    // (kDmaBufferSize, 192 KiB, each).
    uint64_t dma_region_base = 0x4000000;
    // Period of the policy that releases idle cores when others starve (§5.2).
    Duration policy_interval = Microseconds(100);
    // Cores never parked in user loops, so dispatchers and other kernel work
    // always find a core quickly (§5.2 assumes hot services < cores).
    int reserved_cores = 1;
    // After a cold dispatch, only pin a core to the endpoint's loop if it is
    // actually hot: queued work exists or its arrival rate exceeds this.
    double hot_rate_threshold_rps = 20000.0;
    // Release surplus cores of a multi-endpoint service when the idlest
    // endpoint's arrival rate falls below this.
    double scale_down_rate_rps = 10000.0;
    // Surge hardening (src/overload): minimum gap between scale actions
    // (loop start or retire) per endpoint, and consecutive below-threshold
    // policy ticks required before a scale-down. The defaults reproduce the
    // un-dampened policy.
    ScaleGovernor::Config scale;
    // Seeds the nested-RPC request-id space (bit 63 | machine_index << 40)
    // so frontends on different machines never issue colliding ids at the
    // same backend. Machine threads MachineConfig::machine_index here.
    uint32_t machine_index = 0;
  };

  struct Stats {
    uint64_t rpcs_hot = 0;
    uint64_t rpcs_cold = 0;
    uint64_t loops_started = 0;
    uint64_t loops_exited = 0;
    uint64_t nested_issued = 0;
    uint64_t nested_failed = 0;
  };

  LauberhornRuntime(Simulator& sim, Kernel& kernel, LauberhornNic& nic,
                    MemoryHomeAgent& memory, Iommu& iommu, ServiceRegistry& services,
                    Config config);

  // Creates the process and `max_cores` endpoints (+ loop threads) for a
  // service, allocating from `vf`'s endpoint slice (0 = PF). Returns the
  // first endpoint id.
  uint32_t RegisterService(const ServiceDef& service, int max_cores = 1,
                           uint32_t vf = 0);

  // Creates dispatcher threads + kernel channels and hooks the NIC.
  void Start();

  // Schedules the endpoint's loop thread (hot start); `core_hint` >= 0
  // prefers that core.
  void StartUserLoop(uint32_t endpoint, int core_hint = -1);

  // Per-request span tracing: the runtime stamps handler start/end.
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }

  // §5.2: reclaim the endpoint's core (IPI + RETIRE handshake).
  void Deschedule(uint32_t endpoint);

  // SchedStateListener: the kernel reports every placement change; loop
  // threads' moves are mirrored to the NIC over the interconnect.
  void OnPlacement(Thread* thread, int core, bool running) override;

  const Stats& stats() const { return stats_; }
  // Scale actions withheld by the hysteresis governor (cooldown hits).
  uint64_t scale_suppressed() const { return governor_.suppressed(); }

 private:
  struct EndpointRt {
    uint32_t endpoint = 0;
    const ServiceDef* service = nullptr;
    Process* process = nullptr;
    Thread* thread = nullptr;  // the loop thread bound to this endpoint
    uint64_t dma_buffer = 0;   // host address == IOVA (identity-mapped)
    int parity = 0;
    bool in_loop = false;
    bool stop_requested = false;
    size_t stores_pending = 0;  // response-line stores still in flight
  };
  // One process's in-loop endpoints, as PolicyTick's scale-down sees them.
  struct ScaleCandidate {
    Process* process;
    uint32_t lowest;  // lowest endpoint id: the walk order
    uint32_t idlest;
    int count;
  };

  void LoopIter(EndpointRt& rt, Core& core);
  void HandleDispatch(EndpointRt& rt, Core& core, const DispatchLine& dispatch);
  // §6 nested RPC: runs the first handler phase, issues the nested call
  // through a continuation endpoint, parks on it for the reply, and hands the
  // combined response to `done` (with the finish phase's CPU cost to charge).
  // `response` arrives with the outer request's ids set and no payload.
  void IssueNested(Core& core, const MethodDef& method, RpcMessage response,
                   std::vector<WireValue> values,
                   Function<void(RpcMessage, Duration)> done);
  void WriteResponse(EndpointRt& rt, Core& core, uint64_t request_id,
                     RpcMessage response, Duration user_cost);
  void ExitLoop(EndpointRt& rt, Core& core);

  void DispatcherIter(size_t slot, Core& core);
  void HandleColdDispatch(size_t slot, Core& core, const DispatchLine& dispatch,
                          std::span<const uint8_t> args);
  // Charges the cold handler's `user_cost`, sends `response` through the
  // kernel channel, and frees the dispatcher.
  void FinishColdDispatch(size_t slot, Core& core, EndpointRt& rt, RpcMessage response,
                          Duration user_cost);
  void WakeDispatcher();
  void PolicyTick();
  // §1: the NIC asks the OS to reschedule in response to arriving packets:
  // when no core is free for a dispatcher, retire the coldest parked loop.
  void RetireVictim();
  int ActiveLoops() const;

  // Builds the full marshalled args: inline + the AUX lines of the parity
  // the dispatch came on + DMA, with costs charged on `core`, then invokes
  // `done(args_bytes, extra_user_cost)`. The span is valid only during the
  // call; args that fit inline are handed over straight from the line,
  // without a copy.
  using ArgsFn = Function<void(std::span<const uint8_t>, Duration)>;
  void GatherArgs(uint32_t line_owner_endpoint, int parity, Core& core,
                  const DispatchLine& dispatch, ArgsFn done);

  Simulator& sim_;
  Kernel& kernel_;
  LauberhornNic& nic_;
  MemoryHomeAgent& memory_;
  Iommu& iommu_;
  ServiceRegistry& services_;
  Config config_;
  SpanCollector* spans_ = nullptr;

  std::unordered_map<uint32_t, std::unique_ptr<EndpointRt>> endpoints_;
  struct DispatcherRt {
    uint32_t channel = 0;
    Thread* thread = nullptr;
    bool armed = false;  // parked on (or heading to) its kernel channel
  };
  std::vector<DispatcherRt> dispatchers_;
  std::vector<ScaleCandidate> scale_candidates_;  // PolicyTick scratch
  uint64_t next_dma_buffer_ = 0;
  uint64_t next_nested_id_ = 1;
  Stats stats_;
  // Hysteresis + cooldown on the scale-up/RETIRE feedback loop so core
  // reallocation converges under surge instead of thrashing.
  ScaleGovernor governor_;
};

// Exported as runtime/<name>.
inline constexpr StatsField<LauberhornRuntime::Stats> kRuntimeStatsFields[] = {
    {"rpcs_hot", &LauberhornRuntime::Stats::rpcs_hot},
    {"rpcs_cold", &LauberhornRuntime::Stats::rpcs_cold},
    {"loops_started", &LauberhornRuntime::Stats::loops_started},
    {"loops_exited", &LauberhornRuntime::Stats::loops_exited},
    {"nested_issued", &LauberhornRuntime::Stats::nested_issued},
    {"nested_failed", &LauberhornRuntime::Stats::nested_failed},
};
static_assert(CoversStats(kRuntimeStatsFields));

}  // namespace lauberhorn

#endif  // SRC_NIC_LAUBERHORN_RUNTIME_H_

// The Lauberhorn NIC: a network interface that is part of the OS (§4-§5).
//
// The NIC is a home agent on the coherent interconnect. Each RPC endpoint is
// a pair of CONTROL cache lines plus AUX lines homed on the NIC (Fig. 4):
//
//  * A core issues a (non-caching, blocking) load on CONTROL[p]; the NIC
//    defers the fill until a request is ready, then answers with a
//    DispatchLine: code pointer, data pointer, and the arguments.
//  * The core runs the handler, stores the ResponseLine into CONTROL[p]
//    (acquiring ownership from the NIC), and loads CONTROL[1-p] for the next
//    request. The NIC interprets that load as "response ready": it pulls
//    CONTROL[p] with a coherence fetch-exclusive and transmits the response.
//  * A fill deferred close to the coherence timeout is answered with
//    TRYAGAIN (§5.1); a RETIRE answer gives the core back to the OS (§5.2).
//
// The NIC mirrors OS scheduling state (pushed over the same interconnect) to
// decide, per packet, between the hot path (fill a stalled core), queueing
// (endpoint active but busy), and the cold path (deliver to a kernel control
// channel so the OS can schedule the process). It keeps per-endpoint load
// statistics and asks the OS for more or fewer cores.
//
// Large payloads revert to DMA through the PCIe substrate (§6).
#ifndef SRC_NIC_LAUBERHORN_NIC_H_
#define SRC_NIC_LAUBERHORN_NIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/coherence/interconnect.h"
#include "src/net/headers.h"
#include "src/net/link.h"
#include "src/nic/cost_model.h"
#include "src/nic/dispatch_line.h"
#include "src/nic/dispatch_policy/dispatch_policy.h"
#include "src/nic/serve_config.h"
#include "src/nic/toeplitz.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/pcie/pcie_link.h"
#include "src/proto/cipher.h"
#include "src/proto/dedup.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/sim/ring_deque.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/span.h"
#include "src/stats/trace.h"

namespace lauberhorn {

// How the NIC moves payloads that exceed the AUX capacity.
enum class LargeTransferPolicy {
  kAuto,            // cache lines up to dma_fallback_bytes, then DMA (§6)
  kForceCacheline,  // always cache lines (for the crossover experiment)
  kForceDma,        // always DMA
};

// An endpoint's DMA buffer: request args in the first 64 KiB region, then
// one 64 KiB response region per CONTROL parity.
inline constexpr uint64_t kDmaRegionBytes = 64 * 1024;
inline constexpr uint64_t kDmaBufferSize = 3 * kDmaRegionBytes;
inline constexpr uint64_t DmaResponseOffset(int parity) {
  return (1 + static_cast<uint64_t>(parity)) * kDmaRegionBytes;
}

class LauberhornNic : public HomeAgent, public PacketSink {
 public:
  struct Config {
    LineAddr base = 0x1'0000'0000;  // must not overlap host memory
    // Service endpoints. Together with the kernel channels and the
    // continuations they must not exceed TraceRing::kMaxEndpoints (65,536).
    size_t num_endpoints = 64;
    size_t num_kernel_channels = 8;  // kernel control channels (≈ #cores)
    // Continuation endpoints (§6): lightweight one-shot endpoints a handler
    // grabs to receive the reply of a nested RPC.
    size_t num_continuations = 32;
    uint16_t continuation_port_base = 50000;
    // This NIC's own L3 identity; nested RPCs addressed to it hairpin
    // through the TX/RX pipelines instead of the wire.
    uint32_t own_ip = MakeIpv4(10, 0, 0, 2);
    Duration hairpin_latency = Nanoseconds(150);
    // Inline crypto engine (§6), dedup stage and RX-pipeline admission: a
    // shed answers with a NIC-generated kOverloaded reply at zero host-CPU
    // cost.
    RpcServeConfig serve;
    NicPipelineCosts pipeline;
    LauberhornParams params;
    LargeTransferPolicy large_policy = LargeTransferPolicy::kAuto;
    // Receiver-driven congestion control (DESIGN.md §15): every successful
    // response to an ECN-capable sender carries a grant — the endpoint
    // queue's free headroom divided by the senders seen within
    // grant_sender_window — capping that sender's window at the share of the
    // receive queue it can actually use. Sheds carry no grant (a shed is the
    // opposite of an invitation to send). ECN-blind senders are unaffected.
    Duration grant_sender_window = Microseconds(100);
    uint16_t grant_max = 64;
    // Post-reset grant ramp (DESIGN.md §16): after a crash recovery, grants
    // are capped at the unscheduled window (the client's cc_initial_window)
    // for grant_ramp_window, so stale credits issued by the dead NIC plus
    // fresh ones cannot jointly over-admit into the reborn queues.
    uint16_t grant_reset_cap = 8;
    Duration grant_ramp_window = Microseconds(100);
    // Secret key for the per-VF Toeplitz RSS demux (§17). Defaults to the
    // NDIS verification key so flow placement is reproducible run to run.
    ToeplitzKey rss_key = kDefaultToeplitzKey;
  };

  // -- SR-IOV-style virtualization (§17) -----------------------------------
  // VF 0 is the physical function (PF): the device-wide trust domain every
  // pre-existing caller lives in (unlimited endpoint slice, device-wide
  // admission, legacy demux). CreateVf carves a virtual function with its
  // own endpoint-table slice cap, its own AdmissionConfig (token-bucket
  // quota + sojourn gate enforced on the NIC before any host work), a
  // private dedup namespace (the VF id is folded into every dedup flow key,
  // so identical (src, request id) pairs on two tenants can never collide),
  // and Toeplitz RSS spreading the tenant's flows across its polling cores.
  struct VfConfig {
    std::string name;           // tenant label (metrics/debug only)
    AdmissionConfig admission;  // per-VF gate, on top of the per-service one
    size_t endpoint_limit = 0;  // max service endpoints owned; 0 = unlimited
    // Tenant-default dispatch discipline (§18): applied to the VF's services
    // whose ServiceDef leaves the policy at kLegacy. A non-legacy ServiceDef
    // setting always wins (the service owner knows its workload best).
    std::optional<DispatchPolicyConfig> dispatch;
  };
  struct VfStats {
    uint64_t rx_requests = 0;      // requests demuxed into this VF
    uint64_t responses = 0;        // responses transmitted for this VF
    ShedCounts sheds;              // inside the VF slice; vf_quota = its own bucket
    uint64_t rss_steered = 0;      // demux decided by the Toeplitz hash
    uint64_t rss_fallbacks = 0;    // hashed endpoint unusable: legacy picker
    uint64_t endpoints = 0;        // service endpoints currently owned
  };

  struct Stats {
    uint64_t hot_dispatches = 0;     // filled a stalled load directly
    uint64_t queued_dispatches = 0;  // endpoint active but busy: NIC-side queue
    uint64_t cold_dispatches = 0;    // delivered via a kernel channel
    uint64_t cold_queued = 0;        // waiting for a dispatcher to arrive
    uint64_t tryagains = 0;
    uint64_t retires = 0;
    uint64_t drops_bad_frame = 0;
    uint64_t drops_no_endpoint = 0;
    uint64_t drops_bad_args = 0;
    uint64_t responses_sent = 0;
    uint64_t dma_fallback_rx = 0;
    uint64_t dma_fallback_tx = 0;
    uint64_t dispatcher_wakeups = 0;
    uint64_t crypto_failures = 0;
    // Reliability layer (duplicates are counted by dedup().stats()).
    uint64_t degradations = 0;         // endpoint demoted to the cold path
    uint64_t degraded_dispatches = 0;  // requests routed cold while demoted
    uint64_t wedged_polls = 0;         // deliveries withheld by a wedge fault
    uint64_t drops_service_down = 0;   // RX while the OS/service is crashed
    // Overload control: requests shed with an explicit kOverloaded reply,
    // by reason. sheds.queue also covers the bounded cold queue.
    ShedCounts sheds;
    // Congestion control (§15): grants attached to responses, and CE marks
    // observed on request frames echoed back to the sender.
    uint64_t grants_issued = 0;
    uint64_t ecn_echoes = 0;
    // Whole-NIC crash recovery (§16): packets blackholed while the device is
    // dead, CONTROL polls answered only by the bus-timeout TRYAGAIN path
    // (the watchdog's wedged-poll signal), and completed host-driven resets.
    uint64_t drops_nic_down = 0;
    uint64_t crashed_polls = 0;
    uint64_t nic_resets = 0;
    uint64_t wiped_requests = 0;  // queued requests a crash discarded
  };

  LauberhornNic(Simulator& sim, CoherentInterconnect& interconnect, PcieLink& pcie,
                ServiceRegistry& services, Config config);

  const Config& config() const { return config_; }

  void set_tx_wire(LinkDirection* wire) { tx_wire_ = wire; }
  // Optional fault injection (src/fault): wedged endpoint CONTROL lines and
  // OS crash windows (RX blackhole while the service stack is down).
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  // Per-request span tracing: the NIC stamps admission/dispatch/delivery.
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }

  // -- Crash / recovery (§16) ----------------------------------------------
  // The NIC's fields are of two kinds. Control state is the OS's: VF
  // configs, endpoint bindings, kernel-channel and continuation allocations,
  // the admission config and the dedup table. A crash keeps it. Device state
  // (queues, lines, grants, quota buckets, statistics of the VFs) dies with
  // the firmware.

  // Watchdog probe: a live device answers (true). The probe also performs
  // the lazy crash check against the fault plan, so a crash whose instant
  // has passed is detected here even on an idle machine.
  bool HeartbeatProbe() { return CheckDeviceUp(); }
  bool device_up() const { return device_up_; }
  // Host-driven reset completion: the device comes back with the control
  // state the crash kept and grants ramping from grant_reset_cap. The caller
  // (NicRecoveryManager) applies the dedup table's crash-replay rules
  // immediately after.
  void CompleteReset();
  // An endpoint's binding: control state, kept by a crash. The id and the
  // kind are the address map's and never change.
  struct EndpointBinding {
    bool in_use = false;
    bool is_kernel = false;
    bool is_continuation = false;
    uint32_t id = 0;
    uint32_t service_id = 0;
    uint32_t vf = 0;  // owning virtual function (0 = PF)
    Pid pid = kNoPid;
    uint64_t code_ptr = 0;
    uint64_t data_ptr = 0;
    uint64_t dma_buffer_iova = 0;

    bool operator==(const EndpointBinding&) const = default;
  };
  const EndpointBinding& binding(uint32_t endpoint) const {
    return endpoints_[endpoint];
  }
  // What the control state holds, counted in the recovery statistics.
  struct ControlCounts {
    uint64_t vfs = 0;  // created VFs; the PF is not counted
    uint64_t endpoints = 0;
    uint64_t kernel_channels = 0;
    uint64_t continuations = 0;  // currently allocated
  };
  ControlCounts CountControlState() const;
  // Applies the dedup table's crash-replay rules (src/proto/dedup.h).
  RpcDedupCache::ReplayCounts ReplayDedup();
  const RpcDedupCache& dedup() const { return dedup_; }

  // -- Address layout ------------------------------------------------------

  size_t line_size() const { return interconnect_.config().line_size; }
  // Lines per endpoint: 2 control, then one set of aux lines per parity.
  size_t EndpointStrideLines() const { return 2 + 2 * config_.params.aux_lines; }
  LineAddr CtrlAddr(uint32_t endpoint, int parity) const;
  // AUX line `index` of CONTROL parity `parity` (kernel channels and
  // continuations use parity 0 only).
  LineAddr AuxAddr(uint32_t endpoint, int parity, size_t index) const;
  size_t AuxCapacityBytes() const {
    return config_.params.aux_lines * line_size();
  }
  // Named memory bound of the line store: its heap once every CONTROL and
  // AUX line of every endpoint has been touched. Each line costs one hash
  // node (a next pointer, the address and the line's bytes) and at most two
  // bucket pointers: the table doubles to the next prime when it passes one
  // line per bucket.
  size_t LineStoreMaxHeapBytes() const {
    const size_t lines = endpoints_.size() * EndpointStrideLines();
    return lines * (kLineNodeBytes + 2 * sizeof(void*));
  }
  static constexpr size_t kLineNodeBytes =
      sizeof(void*) + sizeof(std::pair<const LineAddr, LineData>);

  // -- Host-facing control interface (§5.2) ----------------------------------
  // These model uncached register writes from the kernel/runtime; each call
  // takes effect after one device hop.

  // Carves a virtual function. Its config is control state, so the
  // partition survives a device crash. Returns the VF id (>= 1; VF 0 is the
  // PF and always exists).
  uint32_t CreateVf(VfConfig config);
  size_t NumVfs() const { return vfs_.size(); }  // including the PF slot
  const VfConfig& vf_config(uint32_t vf) const { return vfs_[vf].config; }
  const VfStats& vf_stats(uint32_t vf) const { return vfs_[vf].stats; }

  // Binds a service endpoint inside a VF's endpoint-table slice (VF 0 is the
  // PF). `dma_buffer_iova` is a host buffer (mapped in the IOMMU by the
  // runtime) for large-payload fallback; 0 disables DMA. Returns the
  // endpoint id, or nullopt when the VF's slice cap or the global table is
  // exhausted — a tenant cannot grow past its partition, only fail loudly at
  // its own allocation.
  std::optional<uint32_t> AllocateEndpointOnVf(uint32_t vf, uint32_t service_id,
                                               Pid pid, uint64_t code_ptr,
                                               uint64_t data_ptr,
                                               uint64_t dma_buffer_iova);

  // The process entered (left) its user-mode poll loop on this endpoint.
  void ActivateEndpoint(uint32_t endpoint, int core);
  void DeactivateEndpoint(uint32_t endpoint);

  // §5.2: the kernel pushes scheduling-state changes as they happen ("keep
  // the NIC updated with the current OS scheduling state"). This only
  // refreshes which core currently runs the endpoint's thread; loop
  // entry/exit remains explicit via Activate/Deactivate.
  void NoteThreadPlacement(uint32_t endpoint, int core, bool running);
  int EndpointCore(uint32_t endpoint) const { return endpoints_[endpoint].active_core; }

  // Allocates a kernel control channel (id in [0, num_kernel_channels)).
  uint32_t AllocateKernelChannel();

  // §5.2: ask the parked core on this endpoint to return to the OS. If a
  // load is waiting it is answered with RETIRE now; otherwise the next one is.
  void RequestRetire(uint32_t endpoint);

  // Software response path used for cold (kernel-mediated) requests: the
  // runtime marshals in software and hands the payload to the NIC TX engine.
  void SoftwareTransmit(uint64_t request_id, RpcMessage response);

  // -- Continuation endpoints for nested RPCs (§6) ----------------------------

  // Grabs a continuation endpoint from the NIC's free list ("rapidly create a
  // dedicated end-point for an RPC reply"). Returns its id, or nullopt if the
  // pool is exhausted. The caller parks on CtrlAddr(id, 0) for the reply.
  std::optional<uint32_t> AllocateContinuation();
  void FreeContinuation(uint32_t endpoint);

  // Sends a nested RPC request whose reply is routed to `continuation`.
  // Requests addressed at this machine (dst_ip == 0 or own_ip) hairpin
  // through the RX pipeline; others go out on the wire.
  void ClientTransmit(uint32_t continuation, uint32_t dst_ip, uint16_t dst_port,
                      RpcMessage request);

  // -- OS-side hooks -----------------------------------------------------------

  // Invoked (as a model of an interrupt to the OS) when a cold request is
  // queued and no kernel channel is armed.
  Callback on_need_dispatcher;
  // Observation hooks for latency tracking, handed the LRPC header of a
  // frame the moment it arrives from the wire (frames that parse, both
  // checksums included) or departs to it. The RX pipeline parses each frame
  // once, so the header costs the observer nothing.
  Function<void(const RpcHeaderPeek&)> on_wire_rx;
  Function<void(const RpcHeaderPeek&)> on_wire_tx;

  // -- Interfaces ---------------------------------------------------------------

  void ReceivePacket(Packet packet) override;  // wire RX

  void OnHomeRead(AgentId requester, LineAddr addr, bool exclusive, FillFn fill) override;
  void OnHomeWriteBack(AgentId from, LineAddr addr, const LineData& data) override;
  void OnHomeUncachedWrite(AgentId from, LineAddr addr, size_t offset,
                           std::span<const uint8_t> data) override;

  // -- Introspection -------------------------------------------------------------

  const Stats& stats() const { return stats_; }
  // Event trace ring (§6: tracing/statistics integration).
  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }
  // The demux table: the endpoints a UDP port's requests may go to, in the
  // order the demux stage considers them (empty for an unbound port).
  const std::vector<uint32_t>& DemuxCandidates(uint16_t port) const;
  // Instantaneous queue depth of an endpoint (NIC-side pending requests).
  size_t QueueDepth(uint32_t endpoint) const;
  // Policy-aware backlog behind this endpoint: its private queue plus the
  // service's central queue (c-FCFS / JBSQ). This is the signal the scale
  // governor consumes — under a central discipline an endpoint's private
  // queue is empty by design, yet the core is anything but idle.
  size_t DispatchBacklog(uint32_t endpoint) const;
  // Aggregate backlog of a whole service: every member endpoint's private
  // queue plus the central queue, counted once. Reads the service's backlog
  // register (below); 0 for a service that never had an endpoint.
  size_t ServiceBacklog(uint32_t service_id) const;
  // The service's backlog register itself (DESIGN.md §13): kept equal to
  // ServiceBacklog by every enqueue and dequeue, and at a stable address for
  // the life of the NIC (crashes zero it, never move it). The cluster
  // least-loaded probe captures it once and then reads it in O(1).
  const size_t& BacklogRegister(uint32_t service_id) {
    return service_backlog_[service_id];
  }
  // Depth of the service's central queue alone (0 for per-endpoint
  // disciplines, which never populate it).
  size_t CentralQueueDepth(uint32_t service_id) const;
  // Resolved discipline for a service (ServiceDef wins, then the owning
  // VF's default, then legacy).
  DispatchPolicyConfig ServicePolicy(uint32_t service_id);
  // Per-policy counters summed over the services running each discipline,
  // exported as dispatch/<policy>/*. Every discipline some service has
  // resolved to appears, with or without traffic.
  std::map<DispatchPolicyKind, DispatchPolicyStats> PolicyStatsSnapshot() const;
  // Per-core occupancy (§18 satellite): dispatches delivered to the core,
  // handler-busy nanoseconds, and the instantaneous depth of the private
  // queues owned by endpoints the core is polling. Keyed by core id;
  // ordered, so metric export is deterministic.
  struct CoreOccupancy {
    uint64_t dispatches = 0;
    Duration busy_time = 0;  // delivered-to-collected, simulated picoseconds
    size_t queue_depth = 0;
  };
  std::map<int, CoreOccupancy> CoreOccupancySnapshot() const;
  // EWMA arrival rate (requests/s) per endpoint, for the scaling policy.
  double ArrivalRate(uint32_t endpoint) const;
  size_t ColdQueueDepth() const { return cold_queue_.size(); }
  bool EndpointActive(uint32_t endpoint) const;
  // NIC-maintained per-endpoint end-system latency (empty histogram until
  // the endpoint served a request).
  const Histogram& EndpointLatency(uint32_t endpoint);

 private:
  struct PreparedRequest {
    uint32_t endpoint = 0;
    uint32_t service_id = 0;
    uint16_t method_id = 0;
    uint64_t request_id = 0;
    std::vector<uint8_t> args;  // marshalled & NIC-validated argument bytes
    // Response addressing.
    EthernetHeader eth;
    Ipv4Header ip;
    UdpHeader udp;
    SimTime wire_arrival = 0;
  };

 public:
  // A NIC-side request queue, with the CoDel-style gate over its head, and
  // optionally mirrored into a service backlog register. Its mutators are
  // the only way requests enter or leave a service endpoint's private queue
  // or a central queue, so the register cannot drift from the queues it
  // sums. An unbound queue (the cold queue, kernel channels, continuations)
  // is not counted. Every endpoint and service owns one, so an idle queue
  // holds no heap (kIdleHeapBytes); public so tests can check that bound.
  class BacklogQueue {
   public:
    static constexpr size_t kIdleHeapBytes = 0;

    void Bind(size_t* backlog);
    bool empty() const { return items_.empty(); }
    size_t size() const { return items_.size(); }
    void Push(PreparedRequest request, bool at_front = false);
    PreparedRequest Pop(bool from_front = true);
    // Removes every request at once (degradation drain, crash wipe), front
    // first. The gate keeps its state.
    std::vector<PreparedRequest> TakeAll();
    // Sojourn check for an arrival that would join this queue: the age of
    // its head (wire arrival to now) against `config`. True = shed.
    bool ShouldShed(SimTime now, const SojournConfig& config);
    void ResetGate() { gate_ = SojournGate{}; }

   private:
    RingDeque<PreparedRequest> items_;
    size_t* backlog_ = nullptr;
    SojournGate gate_;
  };

 private:
  struct WaitingLoad {
    FillFn fill;
    AgentId requester = kNoAgent;
    int parity = 0;
    EventId tryagain_event = kInvalidEventId;
  };

  struct OutstandingRequest {
    int parity = 0;  // line holding the delivered request / awaited response
    PreparedRequest request;
    // Core-occupancy accounting (§18): who got the dispatch and when, so
    // response collection can credit the busy interval to the right core.
    SimTime delivered_at = 0;
    int core = -1;
  };

  // The binding plus the endpoint's device state, which a crash wipes.
  struct Endpoint : EndpointBinding {
    bool active = false;           // a core is in (or entering) the user loop
    int active_core = -1;
    bool cold_dispatch_inflight = false;
    bool retire_requested = false;
    std::optional<WaitingLoad> waiting;
    std::optional<OutstandingRequest> outstanding;
    // Each CONTROL parity owns its AUX lines and its DMA response region.
    // A parity is collected from the poll that hands its response back
    // until the NIC has pulled the response out; a poll on it meanwhile
    // waits in deferred_poll and runs when the collection ends.
    bool collecting[2] = {false, false};
    std::unique_ptr<WaitingLoad> deferred_poll;
    BacklogQueue pending;  // bound to the service's register when allocated
    // Graceful degradation (§5.1 fallout): consecutive TRYAGAINs fired while
    // work was pending mean the hot path is not making progress (a wedged
    // CONTROL line); past the threshold the endpoint is demoted to the cold
    // kernel channel for a backoff window instead of stalling the core.
    uint32_t tryagain_streak = 0;
    SimTime degraded_until = 0;
    // Load statistics (§5.2): EWMA of arrival rate.
    Ewma arrival_rate{0.2};
    SimTime last_arrival = 0;
    uint64_t arrivals = 0;
    // Per-endpoint end-system latency (§6 statistics): wire arrival to
    // response transmission, kept by the NIC itself. Lazily allocated.
    std::unique_ptr<Histogram> latency;
  };

  // Per-VF state. The config is control state; the quota bucket and stats
  // are device state and die with the firmware.
  struct VfState {
    VfConfig config;
    std::optional<TokenBucket> quota;  // built from config.admission
    VfStats stats;
  };

  // Per-service dispatch-discipline state (§18). The config is *derived*
  // volatile state: it is re-resolved from the OS's ServiceDef / VfConfig
  // (both of which survive a crash) on first use, so CrashNow only has to
  // wipe the queue contents. Counters persist across resets like stats_.
  struct DispatchGroup {
    DispatchPolicyConfig config;
    BacklogQueue central;  // c-FCFS / JBSQ shared queue
    DispatchPolicyStats stats;

    // The group hands `request` to endpoint `id`, counting a retarget when
    // the demux had attributed it elsewhere.
    void Retarget(PreparedRequest& request, uint32_t id) {
      if (request.endpoint != id) {
        ++stats.retargets;
        request.endpoint = id;
      }
    }
  };

  LineData& StoredLine(LineAddr addr);

  void HandleCtrlPoll(Endpoint& ep, int parity, AgentId requester, FillFn fill);
  // Delivers `request` to the load parked on `ep`: a service or
  // continuation endpoint runs it as an RPC dispatch (it becomes the
  // outstanding request), a kernel channel as a cold dispatch (it waits in
  // cold_inflight_ for SoftwareTransmit).
  void DeliverToWaiting(Endpoint& ep, PreparedRequest request);
  // Removes ep's parked load, cancelling its TRYAGAIN deadline.
  WaitingLoad TakeWaiting(Endpoint& ep);
  void FillWaiting(Endpoint& ep, LineKind kind);  // TRYAGAIN / RETIRE
  void ArmTryagain(Endpoint& ep);
  void CollectResponse(Endpoint& ep, OutstandingRequest outstanding);
  void TransmitResponse(const PreparedRequest& meta, RpcMessage response);
  // Demotes a non-progressing endpoint to the cold path for a backoff window
  // and drains its NIC-side backlog through the kernel channels.
  void DegradeEndpoint(Endpoint& ep);
  void DispatchPrepared(PreparedRequest request);
  // Hot delivery to the load parked on `target`. The overload gates never
  // fire here — a parked core means the system has headroom — but the
  // tenant's rate contract still binds. `group` (null for a continuation)
  // takes the request and counts the dispatch. False when the VF quota shed
  // the request instead.
  bool DispatchHot(Endpoint& target, DispatchGroup* group,
                   PreparedRequest request);
  // Admit-and-enqueue onto `queue` (ep's private queue or the central
  // queue): sheds at `limit` entries or on an admission refusal, otherwise
  // hands the request to `ep`, counts it in `counter` and queues it.
  void Enqueue(Endpoint& ep, DispatchGroup& group, BacklogQueue& queue,
               size_t limit, uint64_t& counter, PreparedRequest request);
  void RouteCold(PreparedRequest request);
  // Sheds `request` with a NIC-generated kOverloaded reply: bumps the device
  // and VF counters and emits exactly one kDrop trace entry
  // (a = endpoint, b = reason) before handing off to TransmitResponse (which
  // aborts the dedup entry so a retransmit may run later).
  void Shed(Endpoint& ep, const PreparedRequest& request, ShedReason reason);
  // Tightest bound on an endpoint queue: endpoint_queue_depth, then the
  // device-wide admission limit, then the owning VF's limit.
  size_t EffectiveDepthLimit(const Endpoint& ep) const;
  // Admission policy, when any gate applies to ep (the device-wide config or
  // the owning VF's): per-VF tenant quota first (the outer trust boundary),
  // then per-service quota, then `sojourn` over the head of `queue`, the
  // queue this request would join. A refusal sheds the request: false.
  bool Admit(Endpoint& ep, const PreparedRequest& request, BacklogQueue& queue,
             const SojournConfig& sojourn);
  // The VF tenant bucket alone. Unlike the overload gates, this is a rate
  // contract: it also meters the hot path, where a parked core would
  // otherwise let a surging tenant dispatch for free. kNone = admit.
  ShedReason VfQuotaCheck(Endpoint& ep);
  // Dedup namespace key: the owning VF id folded into the high bits of the
  // 48-bit (src ip, src port) flow key, so tenants can never collide.
  uint64_t VfFlowKey(uint32_t endpoint, uint32_t src_ip,
                     uint16_t src_port) const;
  // Demux: choose which of a service's endpoints receives this request.
  // Inside a VF (slice endpoints share one vf id per service) the Toeplitz
  // hash of the 4-tuple picks the core, keeping flow affinity; the PF keeps
  // the legacy stalled-core-first heuristic. d-FCFS forces the pure hash
  // (no migration); central disciplines also hash, but only for arrival
  // attribution — the real placement happens at dispatch time.
  uint32_t PickEndpoint(const std::vector<uint32_t>& candidates,
                        const Ipv4Header& ip, const UdpHeader& udp);
  // -- Dispatch disciplines (§18) ------------------------------------------
  // Lazily resolves the group for ep's service: ServiceDef.dispatch wins,
  // then the owning VF's default, then legacy.
  DispatchGroup& EnsureGroup(const Endpoint& ep);
  // A discipline that routes through the central queue.
  static bool IsCentral(const DispatchPolicyConfig& config) {
    return config.kind == DispatchPolicyKind::kCFcfs ||
           config.kind == DispatchPolicyKind::kJbsq;
  }
  // The group of a service endpoint whose service runs a central discipline,
  // if that group has been resolved; null otherwise.
  const DispatchGroup* CentralGroup(const Endpoint& ep) const;
  DispatchGroup* CentralGroup(const Endpoint& ep) {
    return const_cast<DispatchGroup*>(std::as_const(*this).CentralGroup(ep));
  }
  // All service endpoints sharing ep's service (the demux candidates).
  const std::vector<uint32_t>& GroupMembers(const Endpoint& ep);
  // Requests resident at an endpoint's core: in-flight + private queue.
  static size_t Resident(const Endpoint& ep) {
    return (ep.outstanding.has_value() ? 1 : 0) + ep.pending.size();
  }
  // True when some member holds (or is acquiring) a core and can make
  // forward progress on new work.
  bool AnyUsable(const std::vector<uint32_t>& members) const;
  // c-FCFS / JBSQ dispatch of a prepared request. Returns false (leaving
  // `request` untouched) when the group has no usable endpoint at all, in
  // which case the caller falls back to the cold path (which recruits a
  // core).
  bool CentralDispatch(Endpoint& ep, DispatchGroup& group,
                       PreparedRequest& request);
  // JBSQ credit refill: move central-queue heads into ep's private queue
  // until the endpoint holds k resident requests.
  void ReplenishJbsq(Endpoint& ep);
  // A retired/deactivated core returns its private queue (its unspent JBSQ
  // credits) to the *front* of the central queue, preserving FCFS order.
  void ReturnLocalQueue(Endpoint& ep);
  // The core left ep's loop (deactivated or retired): hand back its queue.
  void ReleaseCore(Endpoint& ep);
  // After an endpoint loses its core, queued work must not strand: its
  // private queue restarts via the cold path, and when no group endpoint can
  // serve the central queue (all retired or degraded), its contents drain
  // through the kernel path instead of stranding behind cores that will
  // never poll again.
  void MaybeRestartCold(Endpoint& ep);
  // The DispatchLine describing the delivery of `request`: inline
  // arguments, a count of AUX lines, or the DMA buffer.
  DispatchLine BuildDispatch(const PreparedRequest& request, bool kernel_channel);
  // Writes `overflow`, the arguments past the inline bytes, into the AUX
  // lines of endpoint `ep_id`'s parity, one line_size chunk per line.
  void WriteAuxArgs(uint32_t ep_id, int parity, std::span<const uint8_t> overflow);
  // Ends the collection of endpoint `ep_id`'s parity, begun while wipes_ was
  // `epoch`, and runs the poll deferred on that parity, if any. No-op when a
  // NIC reset has wiped the endpoint since.
  void EndCollection(uint32_t ep_id, int parity, uint64_t epoch);
  // Receiver-driven credit (§15): free queue headroom of this endpoint
  // divided across the ECN-capable senders active within
  // grant_sender_window. Prunes stale senders as a side effect.
  uint16_t ComputeGrant(const Endpoint& ep);
  // Lazy crash detection (§16): consults the fault plan and, on the first
  // sighting of a new crash instant, wipes the device. Returns device_up_.
  bool CheckDeviceUp();
  // The firmware died: answer every parked load with TRYAGAIN (the
  // bus-timeout model keeps cores from stranding), then wipe the device
  // state. The control state is host-owned and survives.
  void CrashNow();
  // Returns the device state to power-on (endpoint queues and loads, line
  // store, cold queue, quota buckets, grant state, VF statistics), then
  // rebuilds the indexes derived from the control state.
  void WipeVolatileState();
  // Rebuilds, in id order, what the device derives from the control state:
  // the demux table, the continuation free list, the allocation cursors,
  // each VF's endpoint count and each endpoint queue's backlog register.
  void RebuildIndexes();
  // Indexes one bound service endpoint: its queue's register, its demux
  // entry, its VF's endpoint count and the allocation cursor.
  void BindEndpoint(Endpoint& ep);
  // Continuation endpoints follow the service endpoints; each owns a fixed
  // reply port.
  uint32_t FirstContinuation() const {
    return static_cast<uint32_t>(config_.num_kernel_channels +
                                 config_.num_endpoints);
  }
  uint16_t ContinuationPort(uint32_t id) const {
    return static_cast<uint16_t>(config_.continuation_port_base +
                                 (id - FirstContinuation()));
  }

  Simulator& sim_;
  CoherentInterconnect& interconnect_;
  PcieLink& pcie_;
  ServiceRegistry& services_;
  Config config_;
  AgentId home_id_ = kNoAgent;
  LinkDirection* tx_wire_ = nullptr;
  FaultInjector* faults_ = nullptr;
  SpanCollector* spans_ = nullptr;
  RpcDedupCache dedup_;
  // §16: false between a crash and the host-driven CompleteReset().
  bool device_up_ = true;
  // Grants are clamped to grant_reset_cap until this instant (post-reset
  // ramp); 0 = no ramp active.
  SimTime grant_ramp_until_ = 0;

  std::vector<Endpoint> endpoints_;  // [0, num_kernel_channels) are kernel
  // WipeVolatileState calls so far: a response collection that outlives a
  // wipe must not touch the reborn endpoint.
  uint64_t wipes_ = 0;
  // A service may have several endpoints (one per core it can occupy); the
  // demux stage picks among them per packet.
  std::unordered_map<uint16_t, std::vector<uint32_t>> port_to_endpoints_;
  std::unordered_map<LineAddr, LineData> line_store_;
  // Shared spillover queue of the cold path, gated device-wide.
  BacklogQueue cold_queue_;
  // Cold requests handed to a dispatcher, awaiting SoftwareTransmit.
  std::unordered_map<uint64_t, PreparedRequest> cold_inflight_;
  uint32_t next_service_endpoint_ = 0;
  uint32_t next_kernel_channel_ = 0;
  std::vector<uint32_t> free_continuations_;
  // Overload control: per-service quota buckets (lazily created from
  // config_.admission).
  std::unordered_map<uint32_t, TokenBucket> service_quota_;
  // VF partitions; slot 0 is the PF.
  std::vector<VfState> vfs_;
  // ECN-capable senders (src ip -> last request arrival), the denominator of
  // the per-sender grant.
  std::unordered_map<uint32_t, SimTime> cc_senders_;
  // Dispatch-discipline groups, keyed by service id (§18). Queue contents
  // are volatile (wiped by CrashNow); counters persist like stats_.
  std::unordered_map<uint32_t, DispatchGroup> groups_;
  // Backlog register per service id (§13). Node-based so the addresses the
  // queues and cluster probes hold stay valid; entries are never erased.
  std::unordered_map<uint32_t, size_t> service_backlog_;
  // Per-core occupancy counters (§18 satellite). Keyed by core id; kept
  // across NIC resets like the other statistics.
  std::map<int, CoreOccupancy> core_stats_;
  Stats stats_;
  TraceRing trace_;
};

// Exported as nic/<name>; `sheds` goes out as overload/sheds_<reason>.
inline constexpr StatsField<LauberhornNic::Stats> kLauberhornNicStatsFields[] = {
    {"hot_dispatches", &LauberhornNic::Stats::hot_dispatches},
    {"queued_dispatches", &LauberhornNic::Stats::queued_dispatches},
    {"cold_dispatches", &LauberhornNic::Stats::cold_dispatches},
    {"cold_queued", &LauberhornNic::Stats::cold_queued},
    {"tryagains", &LauberhornNic::Stats::tryagains},
    {"retires", &LauberhornNic::Stats::retires},
    {"drops_bad_frame", &LauberhornNic::Stats::drops_bad_frame},
    {"drops_no_endpoint", &LauberhornNic::Stats::drops_no_endpoint},
    {"drops_bad_args", &LauberhornNic::Stats::drops_bad_args},
    {"responses_sent", &LauberhornNic::Stats::responses_sent},
    {"dma_fallback_rx", &LauberhornNic::Stats::dma_fallback_rx},
    {"dma_fallback_tx", &LauberhornNic::Stats::dma_fallback_tx},
    {"dispatcher_wakeups", &LauberhornNic::Stats::dispatcher_wakeups},
    {"crypto_failures", &LauberhornNic::Stats::crypto_failures},
    {"degradations", &LauberhornNic::Stats::degradations},
    {"degraded_dispatches", &LauberhornNic::Stats::degraded_dispatches},
    {"wedged_polls", &LauberhornNic::Stats::wedged_polls},
    {"drops_service_down", &LauberhornNic::Stats::drops_service_down},
    {"grants_issued", &LauberhornNic::Stats::grants_issued},
    {"ecn_echoes", &LauberhornNic::Stats::ecn_echoes},
    {"drops_nic_down", &LauberhornNic::Stats::drops_nic_down},
    {"crashed_polls", &LauberhornNic::Stats::crashed_polls},
    {"resets", &LauberhornNic::Stats::nic_resets},
    {"wiped_requests", &LauberhornNic::Stats::wiped_requests},
};
static_assert(CoversStats(kLauberhornNicStatsFields, sizeof(ShedCounts)));

// Exported as nic/vf<i>/<name>; `sheds` goes out as nic/vf<i>/sheds_<reason>.
inline constexpr StatsField<LauberhornNic::VfStats> kVfStatsFields[] = {
    {"rx_requests", &LauberhornNic::VfStats::rx_requests},
    {"responses", &LauberhornNic::VfStats::responses},
    {"rss_steered", &LauberhornNic::VfStats::rss_steered},
    {"rss_fallbacks", &LauberhornNic::VfStats::rss_fallbacks},
    {"endpoints", &LauberhornNic::VfStats::endpoints},
};
static_assert(CoversStats(kVfStatsFields, sizeof(ShedCounts)));

}  // namespace lauberhorn

#endif  // SRC_NIC_LAUBERHORN_NIC_H_

#include "src/nic/lauberhorn_nic.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/fault/fault.h"

namespace lauberhorn {

LauberhornNic::LauberhornNic(Simulator& sim, CoherentInterconnect& interconnect,
                             PcieLink& pcie, ServiceRegistry& services, Config config)
    : sim_(sim),
      interconnect_(interconnect),
      pcie_(pcie),
      services_(services),
      config_(config),
      dedup_(config.serve.dedup_window) {
  assert(FirstContinuation() + config_.num_continuations <= TraceRing::kMaxEndpoints &&
         "more endpoints than a trace entry can name");
  endpoints_.resize(FirstContinuation() + config_.num_continuations);
  for (uint32_t id = 0; id < endpoints_.size(); ++id) {
    endpoints_[id].id = id;
    endpoints_[id].is_kernel = id < config_.num_kernel_channels;
    endpoints_[id].is_continuation = id >= FirstContinuation();
  }
  vfs_.resize(1);  // the PF
  WipeVolatileState();
  const uint64_t homed_bytes = endpoints_.size() * EndpointStrideLines() * line_size();
  home_id_ = interconnect_.RegisterHomeAgent(this, config_.base, homed_bytes,
                                             /*is_device=*/true);
}

uint32_t LauberhornNic::CreateVf(VfConfig config) {
  const auto vf = static_cast<uint32_t>(vfs_.size());
  vfs_.push_back(VfState{std::move(config), std::nullopt, VfStats{}});
  return vf;
}

std::optional<uint32_t> LauberhornNic::AllocateContinuation() {
  if (free_continuations_.empty()) {
    return std::nullopt;
  }
  const uint32_t id = free_continuations_.back();
  free_continuations_.pop_back();
  endpoints_[id].in_use = true;
  return id;
}

void LauberhornNic::FreeContinuation(uint32_t endpoint) {
  Endpoint& ep = endpoints_[endpoint];
  assert(ep.is_continuation);
  ep.in_use = false;
  ep.active = false;
  ep.pending.TakeAll();
  ep.outstanding.reset();
  free_continuations_.push_back(endpoint);
}

void LauberhornNic::ClientTransmit(uint32_t continuation, uint32_t dst_ip,
                                   uint16_t dst_port, RpcMessage request) {
  if (!CheckDeviceUp()) {
    // Nested-RPC TX on a dead device: the request is lost. Nested requests
    // have no retransmit layer, so the caller, parked on its continuation
    // line, fails the call after one TRYAGAIN deadline (§16 limitation —
    // recovery benches avoid nested calls).
    ++stats_.drops_nic_down;
    return;
  }
  const Endpoint& cont = endpoints_[continuation];
  assert(cont.is_continuation && cont.in_use);
  const bool local = dst_ip == 0 || dst_ip == config_.own_ip;
  if (config_.serve.crypto) {
    uint32_t service_id = request.service_id;  // remote: caller-provided
    const std::vector<uint32_t>& targets = DemuxCandidates(dst_port);
    if (local && !targets.empty()) {
      service_id = endpoints_[targets.front()].service_id;
    }
    request.service_id = service_id;
    request.payload = SealPayload(DeriveKey(config_.serve.crypto_root_key, service_id),
                                  request.request_id, request.payload);
  }
  EthernetHeader eth;
  eth.src = {0x02, 0, 0, 0, 0, 0x02};
  eth.dst = {0x02, 0, 0, 0, 0, 0x02};
  Ipv4Header ip;
  ip.src = config_.own_ip;
  ip.dst = local ? config_.own_ip : dst_ip;
  UdpHeader udp;
  udp.src_port = ContinuationPort(continuation);
  udp.dst_port = dst_port;
  Packet out = BuildRpcFrame(eth, ip, udp, request);
  if (local) {
    sim_.Schedule(config_.pipeline.tx_fixed + config_.hairpin_latency,
                  [this, out = std::move(out)]() mutable {
                    ReceivePacket(std::move(out));
                  });
    return;
  }
  sim_.Schedule(config_.pipeline.tx_fixed, [this, out = std::move(out)]() mutable {
    if (tx_wire_ != nullptr) {
      tx_wire_->Send(std::move(out));
    }
  });
}

LineAddr LauberhornNic::CtrlAddr(uint32_t endpoint, int parity) const {
  return config_.base +
         (static_cast<uint64_t>(endpoint) * EndpointStrideLines() +
          static_cast<uint64_t>(parity)) *
             line_size();
}

LineAddr LauberhornNic::AuxAddr(uint32_t endpoint, int parity, size_t index) const {
  return config_.base +
         (static_cast<uint64_t>(endpoint) * EndpointStrideLines() + 2 +
          static_cast<uint64_t>(parity) * config_.params.aux_lines + index) *
             line_size();
}

LineData& LauberhornNic::StoredLine(LineAddr addr) {
  LineData& line = line_store_[addr];
  if (line.empty()) {
    line.resize(line_size());
  }
  return line;
}

// -- Host-facing control interface ---------------------------------------------

std::optional<uint32_t> LauberhornNic::AllocateEndpointOnVf(
    uint32_t vf, uint32_t service_id, Pid pid, uint64_t code_ptr,
    uint64_t data_ptr, uint64_t dma_buffer_iova) {
  assert(vf < vfs_.size() && "endpoint on unknown VF");
  if (next_service_endpoint_ >= config_.num_endpoints) {
    return std::nullopt;  // global endpoint table exhausted
  }
  VfState& owner = vfs_[vf];
  if (owner.config.endpoint_limit > 0 &&
      owner.stats.endpoints >= owner.config.endpoint_limit) {
    return std::nullopt;  // the tenant's slice is full; it cannot spill over
  }
  Endpoint& ep =
      endpoints_[config_.num_kernel_channels + next_service_endpoint_];
  ep.in_use = true;
  ep.service_id = service_id;
  ep.vf = vf;
  ep.pid = pid;
  ep.code_ptr = code_ptr;
  ep.data_ptr = data_ptr;
  ep.dma_buffer_iova = dma_buffer_iova;
  BindEndpoint(ep);
  return ep.id;
}

uint32_t LauberhornNic::AllocateKernelChannel(uint64_t args_iova) {
  assert(next_kernel_channel_ < config_.num_kernel_channels && "out of channels");
  assert(args_iova != 0 && "a kernel channel needs its own args region");
  const uint32_t id = next_kernel_channel_++;
  endpoints_[id].in_use = true;
  endpoints_[id].dma_buffer_iova = args_iova;
  return id;
}

// -- Crash / recovery (§16) ----------------------------------------------------

bool LauberhornNic::CheckDeviceUp() {
  if (device_up_ && faults_ != nullptr && faults_->NicDeviceCrashed()) {
    CrashNow();
  }
  return device_up_;
}

void LauberhornNic::CrashNow() {
  device_up_ = false;
  trace_.Emit(sim_.Now(), TraceEvent::kNicCrash, 0, 0);
  // Parked loads must not strand their cores: the coherence bus-timeout path
  // answers them with TRYAGAIN, exactly as a wedged line would. The runtime
  // loops re-park and keep getting TRYAGAINs (counted as crashed_polls)
  // until the host resets the device.
  for (Endpoint& ep : endpoints_) {
    if (ep.deferred_poll != nullptr) {
      ep.waiting = std::move(*ep.deferred_poll);
      ep.deferred_poll.reset();
    }
    if (ep.waiting.has_value()) {
      FillWaiting(ep, LineKind::kTryAgain);
    }
  }
  WipeVolatileState();
}

void LauberhornNic::WipeVolatileState() {
  ++wipes_;
  for (Endpoint& ep : endpoints_) {
    stats_.wiped_requests += ep.pending.TakeAll().size();
    const EndpointBinding binding = ep;
    ep = Endpoint{};
    static_cast<EndpointBinding&>(ep) = binding;
  }
  line_store_.clear();
  stats_.wiped_requests += cold_queue_.TakeAll().size();
  cold_inflight_.clear();
  service_quota_.clear();
  cc_senders_.clear();
  // Dispatch-discipline queues are device state; their contents die here.
  // The *configs* are derived from the OS's ServiceDef/VfConfig, which a
  // crash keeps, and the counters persist like stats_.
  for (auto& [service_id, group] : groups_) {
    stats_.wiped_requests += group.central.TakeAll().size();
    group.central.ResetGate();
  }
  for (const auto& [service_id, backlog] : service_backlog_) {
    assert(backlog == 0 && "backlog register drifted from its queues");
  }
  grant_ramp_until_ = 0;
  // Tenants keep their configs; their buckets restart full.
  for (VfState& state : vfs_) {
    state.quota.reset();
    state.stats = VfStats{};
  }
  RebuildIndexes();
}

void LauberhornNic::RebuildIndexes() {
  port_to_endpoints_.clear();
  free_continuations_.clear();
  next_service_endpoint_ = 0;
  next_kernel_channel_ = 0;
  for (Endpoint& ep : endpoints_) {
    if (ep.is_continuation) {
      port_to_endpoints_[ContinuationPort(ep.id)].push_back(ep.id);
      if (!ep.in_use) {
        free_continuations_.push_back(ep.id);
      }
    } else if (ep.in_use && ep.is_kernel) {
      next_kernel_channel_ = ep.id + 1;
    } else if (ep.in_use) {
      BindEndpoint(ep);
    }
  }
}

void LauberhornNic::BindEndpoint(Endpoint& ep) {
  assert(ep.vf < vfs_.size() && "endpoint on unknown VF");
  ++vfs_[ep.vf].stats.endpoints;
  ep.pending.Bind(&service_backlog_[ep.service_id]);
  const ServiceDef* service = services_.Find(ep.service_id);
  assert(service != nullptr && "endpoint for unknown service");
  port_to_endpoints_[service->udp_port].push_back(ep.id);
  next_service_endpoint_ =
      ep.id - static_cast<uint32_t>(config_.num_kernel_channels) + 1;
}

void LauberhornNic::CompleteReset() {
  device_up_ = true;
  ++stats_.nic_resets;
  grant_ramp_until_ = sim_.Now() + config_.grant_ramp_window;
  trace_.Emit(sim_.Now(), TraceEvent::kNicReset, 0, 0);
}

LauberhornNic::ControlCounts LauberhornNic::CountControlState() const {
  ControlCounts counts;
  counts.vfs = vfs_.size() - 1;
  for (const Endpoint& ep : endpoints_) {
    if (ep.in_use) {
      ++(ep.is_kernel         ? counts.kernel_channels
         : ep.is_continuation ? counts.continuations
                              : counts.endpoints);
    }
  }
  return counts;
}

RpcDedupCache::ReplayCounts LauberhornNic::ReplayDedup() {
  return dedup_.ReplayAfterCrash();
}

void LauberhornNic::ActivateEndpoint(uint32_t endpoint, int core) {
  sim_.Schedule(interconnect_.config().cpu_device_hop, [this, endpoint, core]() {
    Endpoint& ep = endpoints_[endpoint];
    ep.active = true;
    ep.active_core = core;
    ep.cold_dispatch_inflight = false;
  });
}

void LauberhornNic::DeactivateEndpoint(uint32_t endpoint) {
  sim_.Schedule(interconnect_.config().cpu_device_hop, [this, endpoint]() {
    ReleaseCore(endpoints_[endpoint]);
  });
}

void LauberhornNic::NoteThreadPlacement(uint32_t endpoint, int core, bool running) {
  sim_.Schedule(interconnect_.config().cpu_device_hop,
                [this, endpoint, core, running]() {
                  Endpoint& ep = endpoints_[endpoint];
                  if (!ep.active) {
                    return;  // not in a loop; nothing to mirror
                  }
                  ep.active_core = running ? core : -1;
                });
}

void LauberhornNic::NoteSpareCores(int delta) {
  SpareCores();  // keep only the pushes still in flight
  spare_pushes_.push_back({sim_.Now() + interconnect_.config().cpu_device_hop, delta});
}

int64_t LauberhornNic::SpareCores() {
  while (!spare_pushes_.empty() && spare_pushes_.front().lands <= sim_.Now()) {
    spare_cores_ += spare_pushes_.pop_front().delta;
  }
  return spare_cores_;
}

void LauberhornNic::RequestRetire(uint32_t endpoint) {
  sim_.Schedule(interconnect_.config().cpu_device_hop, [this, endpoint]() {
    Endpoint& ep = endpoints_[endpoint];
    if (ep.waiting.has_value()) {
      FillWaiting(ep, LineKind::kRetire);
      ReleaseCore(ep);
    } else {
      ep.retire_requested = true;
    }
  });
}

void LauberhornNic::SoftwareTransmit(uint64_t request_id, RpcMessage response) {
  // Models the uncached-write handoff from the dispatcher runtime to the TX
  // engine: one device hop, then regular TX.
  sim_.Schedule(interconnect_.config().cpu_device_hop,
                [this, request_id, response = std::move(response)]() mutable {
                  auto it = cold_inflight_.find(request_id);
                  if (it == cold_inflight_.end()) {
                    return;  // duplicate or unknown; drop
                  }
                  PreparedRequest meta = std::move(it->second);
                  cold_inflight_.erase(it);
                  // The cold dispatch is complete. If the runtime did not (or
                  // could not) enter the user loop, drain any queued work for
                  // this endpoint through the cold path again.
                  Endpoint& ep = endpoints_[meta.endpoint];
                  ep.cold_dispatch_inflight = false;
                  TransmitResponse(meta, std::move(response));
                  MaybeRestartCold(ep);
                });
}

// -- RX pipeline ---------------------------------------------------------------

void LauberhornNic::ReceivePacket(Packet packet) {
  // The frame is parsed once, here at wire arrival; the pipeline step below
  // charges the parse time and works from this result. `frame` points into
  // the bytes, which the step owns.
  const std::optional<ParsedFrame> frame = ParseUdpFrame(packet);
  if (on_wire_rx && frame.has_value()) {
    if (const auto header = PeekRpcHeader(frame->payload)) {
      on_wire_rx(*header);
    }
  }
  const SimTime arrival = sim_.Now();
  const Duration front_cost = config_.pipeline.mac_rx +
                              3 * config_.pipeline.parse_per_header +
                              config_.pipeline.demux_lookup;
  sim_.Schedule(front_cost, [this, arrival, frame,
                             bytes = std::move(packet.bytes)]() mutable {
    if (!CheckDeviceUp()) {
      // NIC firmware crash (§16): the whole device blackholes — endpoints,
      // admission, grants. The host watchdog's reset ends the outage;
      // client retransmits carry the RPCs over it.
      ++stats_.drops_nic_down;
      return;
    }
    if (faults_ != nullptr && !faults_->OsServiceUp()) {
      // OS crash window: the NIC is alive but nothing above it is. Inbound
      // traffic blackholes until the service stack restarts; the client's
      // retransmit/backoff layer carries RPCs over the outage.
      ++stats_.drops_service_down;
      return;
    }
    if (!frame.has_value()) {
      ++stats_.drops_bad_frame;
      return;
    }
    const std::vector<uint32_t>& candidates = DemuxCandidates(frame->udp.dst_port);
    if (candidates.empty()) {
      ++stats_.drops_no_endpoint;
      return;
    }
    const uint32_t ep_id = PickEndpoint(candidates, frame->ip, frame->udp);
    Endpoint& ep = endpoints_[ep_id];
    trace_.Emit(sim_.Now(), TraceEvent::kWireRx, ep_id, 0);
    // The step owns the frame and needs none of its bytes past the LRPC
    // header, so the frame's buffer becomes the payload.
    const size_t offset = frame->payload.data() - bytes.data();
    auto request = DecodeRpcMessageFrom(std::move(bytes), offset, frame->payload.size());
    if (!request.has_value()) {
      ++stats_.drops_bad_frame;
      return;
    }
    PreparedRequest prepared;
    prepared.endpoint = ep_id;
    prepared.service_id = request->service_id;
    prepared.method_id = request->method_id;
    prepared.request_id = request->request_id;
    prepared.args = std::move(request->payload);
    prepared.eth = frame->eth;
    prepared.ip = frame->ip;
    prepared.udp = frame->udp;
    prepared.wire_arrival = arrival;
    // A continuation receives a nested RPC's reply (§6): its payload goes to
    // whoever parks on the continuation's control line, with no
    // service/method demux.
    const bool reply = ep.is_continuation;
    const MethodDef* method = nullptr;
    if (reply) {
      if (request->kind != MessageKind::kResponse || !ep.in_use) {
        ++stats_.drops_no_endpoint;
        return;
      }
    } else {
      if (request->kind != MessageKind::kRequest) {
        ++stats_.drops_bad_frame;
        return;
      }
      ++vfs_[ep.vf].stats.rx_requests;
      const ServiceDef* service = services_.Find(ep.service_id);
      method = service != nullptr ? service->FindMethod(request->method_id) : nullptr;
      if (method == nullptr) {
        ++stats_.drops_no_endpoint;
        return;
      }
    }
    // Inline crypto engine: open the sealed payload (§6) under the service's
    // key; a reply may carry no payload at all. Without it the decoded
    // payload is the plaintext and moves on as it is.
    Duration crypto_cost = 0;
    if (config_.serve.crypto && !(reply && prepared.args.empty())) {
      auto opened = OpenPayload(
          DeriveKey(config_.serve.crypto_root_key, reply ? request->service_id : ep.service_id),
          prepared.args);
      if (!opened.has_value()) {
        ++stats_.crypto_failures;
        return;
      }
      if (!reply) {
        crypto_cost = config_.pipeline.CryptoCost(prepared.args.size());
      }
      prepared.args = std::move(*opened);
    }

    if (!reply) {
      // NIC-side unmarshal/validation (the deserialization accelerator).
      if (!ValidateArgs(method->request_sig, prepared.args)) {
        ++stats_.drops_bad_args;
        return;
      }
      // At-most-once admission, after every validation step that can drop
      // the request (an entry only becomes in-flight once the request is
      // certain to reach a handler or an explicit overload response).
      if (config_.serve.dedup) {
        const uint64_t flow = VfFlowKey(ep_id, frame->ip.src, frame->udp.src_port);
        switch (dedup_.Admit(flow, request->request_id)) {
          case RpcDedupCache::Verdict::kNew:
            break;
          case RpcDedupCache::Verdict::kInFlight:
            // The original is still executing; its response answers this copy.
            return;
          case RpcDedupCache::Verdict::kCompleted:
            prepared.wire_arrival = 0;  // replays stay out of the latency histogram
            TransmitResponse(prepared, dedup_.Replay(flow, *request));
            return;
        }
      }
      // ECN-capable sender: remember it for the grant denominator (§15).
      if (frame->ip.ecn != kEcnNotEct) {
        cc_senders_[frame->ip.src] = sim_.Now();
      }
      // Arrival-rate EWMA for the scaling policy (§5.2).
      if (ep.arrivals > 0) {
        const Duration gap = sim_.Now() - ep.last_arrival;
        if (gap > 0) {
          ep.arrival_rate.Update(static_cast<double>(kSecond) / static_cast<double>(gap));
        }
      }
      ep.last_arrival = sim_.Now();
      ++ep.arrivals;
    }

    const Duration tail_cost = crypto_cost +
                               config_.pipeline.UnmarshalCost(prepared.args.size()) +
                               config_.pipeline.dispatch_decide;
    sim_.Schedule(tail_cost, [this, prepared = std::move(prepared)]() mutable {
      DispatchPrepared(std::move(prepared));
    });
  });
}

uint64_t LauberhornNic::VfFlowKey(uint32_t endpoint, uint32_t src_ip,
                                  uint16_t src_port) const {
  // DedupFlowKey occupies 48 bits; the owning VF id lands in the top 16, so
  // identical (src ip, src port, request id) tuples aimed at two tenants
  // live in disjoint dedup namespaces by construction.
  return (static_cast<uint64_t>(endpoints_[endpoint].vf) << 48) ^
         DedupFlowKey(src_ip, src_port);
}

uint32_t LauberhornNic::PickEndpoint(const std::vector<uint32_t>& candidates,
                                     const Ipv4Header& ip, const UdpHeader& udp) {
  if (candidates.size() == 1) {
    return candidates[0];
  }
  const Endpoint& first = endpoints_[candidates[0]];
  // d-FCFS (§18): the hash *is* the discipline — one flow, one core, no
  // migration and no saturation fallback; head-of-line blocking behind a
  // long request is exactly the behavior under measurement. Central
  // disciplines hash too, but only to attribute the arrival (EWMA,
  // admission): real placement happens at dispatch time.
  const bool policy_hash = !first.is_continuation && !first.is_kernel &&
                           EnsureGroup(first).config.kind != DispatchPolicyKind::kLegacy;
  // Tenant slice (§17): under the legacy discipline, Toeplitz RSS over the
  // flow's 4-tuple picks the polling core — one flow keeps cache/core
  // affinity while the tenant's flows spread across its slice. Fall back to
  // the legacy picker when the hashed endpoint cannot absorb the request
  // (degraded, or queue already at the spillover threshold): isolation must
  // not cost availability inside the slice.
  if (policy_hash || first.vf != 0) {
    const uint32_t hash = ToeplitzHash4Tuple(config_.rss_key, ip.src, ip.dst,
                                             udp.src_port, udp.dst_port);
    const uint32_t chosen = candidates[hash % candidates.size()];
    const Endpoint& ep = endpoints_[chosen];
    const bool saturated = !policy_hash &&
                           (ep.degraded_until > sim_.Now() ||
                            ep.pending.size() >= config_.params.spillover_queue_depth);
    if (!saturated) {
      if (ep.vf != 0) {
        ++vfs_[ep.vf].stats.rss_steered;
      }
      return chosen;
    }
    ++vfs_[first.vf].stats.rss_fallbacks;
  }
  // PF / fallback: prefer a stalled core (zero-latency dispatch), then the
  // active endpoint with the shortest NIC-side queue. If even that queue is
  // deep, spill to an inactive endpoint — the cold path recruits another
  // core (§5.2's dynamic scaling, driven by the NIC's own load statistics).
  // Every scan breaks ties by the smallest endpoint id: the candidate list
  // is rebuilt in replay order after a NIC crash, and a first-seen winner
  // would make pre- and post-replay runs diverge (the pick must be a pure
  // function of endpoint state).
  uint32_t parked = UINT32_MAX;
  for (uint32_t id : candidates) {
    if (endpoints_[id].waiting.has_value() && id < parked) {
      parked = id;
    }
  }
  if (parked != UINT32_MAX) {
    return parked;
  }
  uint32_t best = UINT32_MAX;
  size_t best_depth = SIZE_MAX;
  for (uint32_t id : candidates) {
    const Endpoint& ep = endpoints_[id];
    if ((ep.active || ep.cold_dispatch_inflight) &&
        (ep.pending.size() < best_depth ||
         (ep.pending.size() == best_depth && id < best))) {
      best = id;
      best_depth = ep.pending.size();
    }
  }
  if (best != UINT32_MAX && best_depth >= config_.params.spillover_queue_depth) {
    uint32_t recruit = UINT32_MAX;
    for (uint32_t id : candidates) {
      const Endpoint& ep = endpoints_[id];
      if (!ep.active && !ep.cold_dispatch_inflight && id < recruit) {
        recruit = id;
      }
    }
    if (recruit != UINT32_MAX) {
      return recruit;  // recruit another core
    }
  }
  if (best != UINT32_MAX) {
    return best;
  }
  return candidates[0];
}

void LauberhornNic::MaybeRestartCold(Endpoint& ep) {
  if (!ep.active && !ep.cold_dispatch_inflight && !ep.pending.empty()) {
    RouteCold(ep.pending.Pop());
  }
  // Central disciplines: if this endpoint was the group's last usable core,
  // the central queue must drain through the kernel path now.
  DispatchGroup* group = ep.in_use ? CentralGroup(ep) : nullptr;
  if (group == nullptr || group->central.empty() ||
      AnyUsable(GroupMembers(ep))) {
    return;
  }
  while (!group->central.empty()) {
    ++group->stats.drained_cold;
    RouteCold(group->central.Pop());
  }
}

void LauberhornNic::ReleaseCore(Endpoint& ep) {
  ep.active = false;
  ep.active_core = -1;
  // A released core must not keep requests hostage: unspent JBSQ / c-FCFS
  // credits go back to the central queue for the surviving cores.
  ReturnLocalQueue(ep);
  MaybeRestartCold(ep);
}

// -- Dispatch disciplines (§18) -------------------------------------------------

LauberhornNic::DispatchGroup& LauberhornNic::EnsureGroup(const Endpoint& ep) {
  auto it = groups_.find(ep.service_id);
  if (it != groups_.end()) {
    return it->second;
  }
  DispatchGroup group;
  group.central.Bind(&service_backlog_[ep.service_id]);
  const ServiceDef* service = services_.Find(ep.service_id);
  if (service != nullptr &&
      service->dispatch.kind != DispatchPolicyKind::kLegacy) {
    group.config = service->dispatch;
  } else if (ep.vf != 0 && vfs_[ep.vf].config.dispatch.has_value()) {
    group.config = *vfs_[ep.vf].config.dispatch;
  }
  return groups_.emplace(ep.service_id, std::move(group)).first->second;
}

const std::vector<uint32_t>& LauberhornNic::GroupMembers(const Endpoint& ep) {
  static const std::vector<uint32_t> kNoMembers;
  const ServiceDef* service = services_.Find(ep.service_id);
  return service != nullptr ? DemuxCandidates(service->udp_port) : kNoMembers;
}

const std::vector<uint32_t>& LauberhornNic::DemuxCandidates(uint16_t port) const {
  static const std::vector<uint32_t> kNone;
  auto it = port_to_endpoints_.find(port);
  return it != port_to_endpoints_.end() ? it->second : kNone;
}

const LauberhornNic::DispatchGroup* LauberhornNic::CentralGroup(
    const Endpoint& ep) const {
  if (ep.is_kernel || ep.is_continuation) {
    return nullptr;
  }
  auto it = groups_.find(ep.service_id);
  return it != groups_.end() && IsCentral(it->second.config) ? &it->second
                                                             : nullptr;
}

bool LauberhornNic::AnyUsable(const std::vector<uint32_t>& members) const {
  const SimTime now = sim_.Now();
  return std::any_of(members.begin(), members.end(), [&](uint32_t id) {
    const Endpoint& ep = endpoints_[id];
    return ep.in_use && ep.degraded_until <= now && !ep.retire_requested &&
           (ep.active || ep.waiting.has_value() || ep.cold_dispatch_inflight ||
            ep.outstanding.has_value());
  });
}

bool LauberhornNic::CentralDispatch(Endpoint& ep, DispatchGroup& group,
                                    PreparedRequest& request) {
  const SimTime now = sim_.Now();
  const std::vector<uint32_t>& members = GroupMembers(ep);
  // Hot path first: any parked core in the group takes the request now
  // (lowest id wins, for replay determinism). This is what makes c-FCFS
  // work-conserving: a core only parks when it is provably idle.
  uint32_t parked = UINT32_MAX;
  for (uint32_t id : members) {
    const Endpoint& member = endpoints_[id];
    if (member.waiting.has_value() && !member.retire_requested &&
        member.degraded_until <= now && id < parked &&
        !(faults_ != nullptr && faults_->NicEndpointWedgedNow(id))) {
      parked = id;
    }
  }
  if (parked != UINT32_MAX) {
    Endpoint& target = endpoints_[parked];
    if (DispatchHot(target, &group, std::move(request))) {
      ReplenishJbsq(target);  // top the core's runway back up to k
    }
    return true;
  }
  // JBSQ(k): a busy core with spare credit takes the request onto its
  // private runway — fewest resident requests wins, ties to the lowest id.
  if (group.config.kind == DispatchPolicyKind::kJbsq) {
    uint32_t best = UINT32_MAX;
    size_t best_resident = SIZE_MAX;
    for (uint32_t id : members) {
      const Endpoint& member = endpoints_[id];
      if (!member.active || member.retire_requested ||
          member.degraded_until > now) {
        continue;
      }
      const size_t resident = Resident(member);
      if (resident < group.config.jbsq_k &&
          (resident < best_resident ||
           (resident == best_resident && id < best))) {
        best = id;
        best_resident = resident;
      }
    }
    if (best != UINT32_MAX) {
      Endpoint& target = endpoints_[best];
      Enqueue(target, group, target.pending, EffectiveDepthLimit(target),
              group.stats.local_queued, std::move(request));
      return true;
    }
  }
  // Central queue, as long as someone in the group holds (or is acquiring)
  // a core. Nobody attached → the caller routes cold, which recruits one.
  if (!AnyUsable(members)) {
    return false;
  }
  // The shared queue absorbs what the per-endpoint queues would have held
  // jointly: one endpoint budget per member.
  Enqueue(ep, group, group.central,
          EffectiveDepthLimit(ep) * std::max<size_t>(1, members.size()),
          group.stats.central_queued, std::move(request));
  return true;
}

void LauberhornNic::ReplenishJbsq(Endpoint& ep) {
  DispatchGroup* group = CentralGroup(ep);
  if (group == nullptr || group->config.kind != DispatchPolicyKind::kJbsq ||
      !ep.active || ep.retire_requested || ep.degraded_until > sim_.Now()) {
    return;
  }
  while (Resident(ep) < group->config.jbsq_k && !group->central.empty()) {
    PreparedRequest request = group->central.Pop();
    group->Retarget(request, ep.id);
    ++group->stats.jbsq_replenished;
    ep.pending.Push(std::move(request));
  }
}

void LauberhornNic::ReturnLocalQueue(Endpoint& ep) {
  DispatchGroup* group = CentralGroup(ep);
  if (group == nullptr || ep.pending.empty()) {
    return;
  }
  // The unspent credits go back to the *front* of the central queue in
  // their original order: they are older than anything queued behind them,
  // and FCFS across the group is the discipline's whole contract.
  group->stats.returned_on_retire += ep.pending.size();
  while (!ep.pending.empty()) {
    group->central.Push(ep.pending.Pop(/*from_front=*/false), /*at_front=*/true);
  }
}

void LauberhornNic::DispatchPrepared(PreparedRequest request) {
  if (!CheckDeviceUp()) {
    // The crash landed between the RX front end and dispatch: this request
    // died inside the device pipeline. Its dedup entry is still in flight,
    // so the crash replay erases it and a retransmit executes fresh.
    ++stats_.drops_nic_down;
    return;
  }
  Endpoint& ep = endpoints_[request.endpoint];
  if (ep.is_continuation) {
    // One-shot reply delivery: fill the parked load, or hold until the core
    // parks (the reply can race the park by a few hops). Never cold.
    if (ep.waiting.has_value()) {
      DispatchHot(ep, /*group=*/nullptr, std::move(request));
    } else {
      ep.pending.Push(std::move(request));
    }
    return;
  }
  DispatchGroup& group = EnsureGroup(ep);
  bool overflow = false;
  if (IsCentral(group.config)) {
    if (CentralDispatch(ep, group, request)) {
      return;
    }
    // No group endpoint holds (or is acquiring) a core: recruit one
    // through the kernel path, exactly like the per-endpoint bootstrap.
  } else if (ep.degraded_until > sim_.Now()) {
    // Demoted: the hot path was not making progress, so bypass it entirely
    // and let the kernel channels carry this request.
    ++stats_.degraded_dispatches;
  } else if (ep.waiting.has_value() &&
             !(faults_ != nullptr && faults_->NicEndpointWedgedNow(ep.id))) {
    DispatchHot(ep, &group, std::move(request));
    return;
  } else if (ep.active && group.config.kind == DispatchPolicyKind::kLegacy &&
             ep.pending.size() >= config_.params.spillover_queue_depth &&
             ColdPathHasRoom()) {
    // §5.2: this endpoint's own core is saturated while the kernel path
    // has a core to spare. The request runs there through a kernel channel
    // rather than queueing behind the busy core. d-FCFS keeps its
    // head-of-line blocking: that is the behaviour the discipline exists to
    // measure.
    overflow = true;
  } else if (ep.active || ep.outstanding.has_value() || !ep.pending.empty() ||
             ep.cold_dispatch_inflight || ep.waiting.has_value()) {
    Enqueue(ep, group, ep.pending, EffectiveDepthLimit(ep),
            group.stats.local_queued, std::move(request));
    return;
  }
  if (Admit(ep, request, cold_queue_, config_.serve.admission.sojourn)) {
    RouteCold(std::move(request), overflow);
  }
}

bool LauberhornNic::DispatchHot(Endpoint& target, DispatchGroup* group,
                                PreparedRequest request) {
  const ShedReason vf_reason = VfQuotaCheck(target);
  if (vf_reason != ShedReason::kNone) {
    Shed(target, request, vf_reason);
    return false;
  }
  ++stats_.hot_dispatches;
  if (group != nullptr) {
    group->Retarget(request, target.id);
    ++group->stats.hot_dispatches;
  }
  trace_.Emit(sim_.Now(), TraceEvent::kDispatchHot, target.id,
              static_cast<uint32_t>(request.request_id));
  if (spans_ != nullptr && !target.is_continuation) {
    spans_->RecordDispatch(request.request_id, SpanDispatch::kHot, target.id,
                           sim_.Now());
  }
  DeliverToWaiting(target, std::move(request));
  return true;
}

void LauberhornNic::Enqueue(Endpoint& ep, DispatchGroup& group,
                            BacklogQueue& queue, size_t limit,
                            uint64_t& counter, PreparedRequest request) {
  if (queue.size() >= limit) {
    Shed(ep, request, ShedReason::kQueueFull);
    return;
  }
  // A VF endpoint's gate runs with the tenant's own sojourn targets; PF
  // endpoints keep the device-wide config.
  const AdmissionConfig& adm =
      (ep.vf != 0 && vfs_[ep.vf].config.admission.enabled)
          ? vfs_[ep.vf].config.admission
          : config_.serve.admission;
  if (!Admit(ep, request, queue, adm.sojourn)) {
    return;
  }
  group.Retarget(request, ep.id);
  ++stats_.queued_dispatches;
  ++counter;
  trace_.Emit(sim_.Now(), TraceEvent::kDispatchQueued, ep.id,
              static_cast<uint32_t>(request.request_id));
  if (spans_ != nullptr) {
    spans_->RecordDispatch(request.request_id, SpanDispatch::kQueued, ep.id,
                           sim_.Now());
  }
  queue.Push(std::move(request));
}

size_t LauberhornNic::EffectiveDepthLimit(const Endpoint& ep) const {
  size_t limit = config_.params.endpoint_queue_depth;
  if (config_.serve.admission.enabled && config_.serve.admission.queue_depth_limit > 0) {
    limit = std::min(limit, config_.serve.admission.queue_depth_limit);
  }
  if (ep.vf != 0) {
    const AdmissionConfig& adm = vfs_[ep.vf].config.admission;
    if (adm.enabled && adm.queue_depth_limit > 0) {
      limit = std::min(limit, adm.queue_depth_limit);
    }
  }
  return limit;
}

ShedReason LauberhornNic::VfQuotaCheck(Endpoint& ep) {
  // Tenant boundary: the VF's own bucket meters the aggregate rate of
  // everything inside the slice, so one tenant's surge exhausts *its*
  // tokens, never a neighbor's (or the device-wide pool's) budget.
  if (ep.vf != 0) {
    VfState& owner = vfs_[ep.vf];
    const AdmissionConfig& adm = owner.config.admission;
    if (adm.enabled && adm.quota_rps > 0) {
      if (!owner.quota.has_value()) {
        owner.quota.emplace(adm.quota_rps, adm.quota_burst);
      }
      if (!owner.quota->TryTake(sim_.Now())) {
        return ShedReason::kVfQuota;
      }
    }
  }
  return ShedReason::kNone;
}

bool LauberhornNic::Admit(Endpoint& ep, const PreparedRequest& request,
                          BacklogQueue& queue, const SojournConfig& sojourn) {
  if (!config_.serve.admission.enabled &&
      !(ep.vf != 0 && vfs_[ep.vf].config.admission.enabled)) {
    return true;
  }
  const SimTime now = sim_.Now();
  ShedReason reason = VfQuotaCheck(ep);
  if (reason == ShedReason::kNone && config_.serve.admission.enabled &&
      config_.serve.admission.quota_rps > 0) {
    TokenBucket& bucket =
        service_quota_
            .try_emplace(ep.service_id, config_.serve.admission.quota_rps,
                         config_.serve.admission.quota_burst)
            .first->second;
    if (!bucket.TryTake(now)) {
      reason = ShedReason::kQuota;
    }
  }
  // CoDel-style check over the queue this request would join.
  if (reason == ShedReason::kNone && queue.ShouldShed(now, sojourn)) {
    reason = ShedReason::kSojourn;
  }
  if (reason == ShedReason::kNone) {
    return true;
  }
  Shed(ep, request, reason);
  return false;
}

void LauberhornNic::Shed(Endpoint& ep, const PreparedRequest& request,
                         ShedReason reason) {
  stats_.sheds.Count(reason);
  vfs_[ep.vf].stats.sheds.Count(reason);
  trace_.Emit(sim_.Now(), TraceEvent::kDrop, ep.id,
              static_cast<uint32_t>(reason));
  RpcMessage overload =
      ResponseHeader(request.service_id, request.method_id, request.request_id);
  overload.status = RpcStatus::kOverloaded;
  // TransmitResponse aborts the dedup entry on kOverloaded, so a later
  // retransmit of this id may still execute (at most once).
  TransmitResponse(request, std::move(overload));
}

uint16_t LauberhornNic::ComputeGrant(const Endpoint& ep) {
  const SimTime now = sim_.Now();
  // Prune senders whose last request predates the window, then count the
  // survivors — the grant denominator. The map stays small (one entry per
  // live sender machine), so the linear sweep is cheap.
  size_t active = 0;
  for (auto it = cc_senders_.begin(); it != cc_senders_.end();) {
    if (now - it->second > config_.grant_sender_window) {
      it = cc_senders_.erase(it);
    } else {
      ++active;
      ++it;
    }
  }
  const size_t limit = EffectiveDepthLimit(ep);
  // Under a central discipline the backlog a new sender would join lives in
  // the service's shared queue, so grants must see it; per-endpoint
  // disciplines keep the private-queue depth.
  const size_t depth = DispatchBacklog(ep.id);
  const size_t headroom = depth >= limit ? 0 : limit - depth;
  size_t share = headroom / std::max<size_t>(1, active);
  if (grant_ramp_until_ > now) {
    // Post-reset ramp (§16): senders may still hold grants issued by the
    // pre-crash NIC against queues that no longer exist. Capping fresh
    // grants at the unscheduled window until the ramp expires bounds the
    // combined over-admission to one window per sender.
    share = std::min<size_t>(share, config_.grant_reset_cap);
  }
  return static_cast<uint16_t>(
      std::min<size_t>(share, config_.grant_max));
}

LauberhornNic::Endpoint* LauberhornNic::WaitingKernelChannel() {
  for (size_t i = 0; i < config_.num_kernel_channels; ++i) {
    Endpoint& channel = endpoints_[i];
    if (channel.in_use && channel.waiting.has_value()) {
      return &channel;
    }
  }
  return nullptr;
}

bool LauberhornNic::ColdPathHasRoom() {
  if (WaitingKernelChannel() != nullptr) {
    return true;
  }
  const int64_t claimed = static_cast<int64_t>(cold_queue_.size() + cold_inflight_.size());
  return claimed < std::min<int64_t>(SpareCores(), next_kernel_channel_);
}

void LauberhornNic::RouteCold(PreparedRequest request, bool overflow) {
  Endpoint& ep = endpoints_[request.endpoint];
  if (spans_ != nullptr) {
    // First-write-wins keeps the original stamps when a queued request is
    // drained here after a degradation or a core retire.
    spans_->RecordDispatch(request.request_id, SpanDispatch::kCold, ep.id,
                           sim_.Now());
  }
  if (Endpoint* channel = WaitingKernelChannel()) {
    ep.cold_dispatch_inflight = true;
    trace_.Emit(sim_.Now(), TraceEvent::kDispatchCold, ep.id,
                static_cast<uint32_t>(request.request_id));
    ++stats_.cold_dispatches;
    stats_.overflow_dispatches += overflow;
    DeliverToWaiting(*channel, std::move(request));
    return;
  }
  // The shared spillover queue is bounded: past the limit the NIC sheds
  // rather than queueing without bound (the cold path is already the slow
  // path; unbounded growth just manufactures timeouts). The admission depth
  // limit applies here too — a request admitted into a long cold queue still
  // pays its full drain time, which no later gate can undo.
  size_t cold_limit = config_.params.cold_queue_depth;
  if (config_.serve.admission.enabled && config_.serve.admission.queue_depth_limit > 0) {
    cold_limit = std::min(cold_limit, config_.serve.admission.queue_depth_limit);
  }
  if (cold_queue_.size() >= cold_limit) {
    Shed(ep, request, ShedReason::kQueueFull);
    return;
  }
  ep.cold_dispatch_inflight = true;
  trace_.Emit(sim_.Now(), TraceEvent::kDispatchCold, ep.id,
              static_cast<uint32_t>(request.request_id));
  ++stats_.cold_queued;
  stats_.overflow_dispatches += overflow;
  cold_queue_.Push(std::move(request));
  if (on_need_dispatcher) {
    ++stats_.dispatcher_wakeups;
    on_need_dispatcher();
  }
}

DispatchLine LauberhornNic::BuildDispatch(const Endpoint& delivering,
                                          const PreparedRequest& request) {
  const Endpoint& target = endpoints_[request.endpoint];
  DispatchLine line;
  line.kind = delivering.is_kernel ? LineKind::kKernelDispatch : LineKind::kRpcDispatch;
  line.method_id = request.method_id;
  line.service_id = target.service_id;
  line.request_id = request.request_id;
  line.code_ptr = target.code_ptr;
  line.data_ptr = target.data_ptr;
  line.arg_len = static_cast<uint32_t>(request.args.size());
  line.endpoint_id = static_cast<uint16_t>(request.endpoint);
  line.pid = target.pid;

  const size_t inline_cap = DispatchLine::InlineCapacity(line_size());
  const size_t total_cap = inline_cap + AuxCapacityBytes();
  bool use_dma = false;
  switch (config_.large_policy) {
    case LargeTransferPolicy::kForceDma:
      use_dma = request.args.size() > inline_cap;
      break;
    case LargeTransferPolicy::kForceCacheline:
      use_dma = false;
      break;
    case LargeTransferPolicy::kAuto:
      use_dma = request.args.size() > config_.params.dma_fallback_bytes ||
                request.args.size() > total_cap;
      break;
  }
  // The delivering endpoint's args region: a kernel channel has its own, as
  // a cold dispatch may run while the target's loop reads the target's.
  if (use_dma && delivering.dma_buffer_iova == 0) {
    use_dma = false;  // no buffer registered; fall back to lines
  }
  if (use_dma) {
    line.via_dma = true;
    line.data_ptr = delivering.dma_buffer_iova;
    return line;
  }
  assert(request.args.size() <= total_cap && "args exceed AUX capacity");
  const size_t inline_bytes = std::min(inline_cap, request.args.size());
  line.inline_args.assign(request.args.begin(), request.args.begin() + inline_bytes);
  line.aux_lines = static_cast<uint8_t>(
      (request.args.size() - inline_bytes + line_size() - 1) / line_size());
  return line;
}

void LauberhornNic::WriteAuxArgs(uint32_t ep_id, int parity,
                                 std::span<const uint8_t> overflow) {
  for (size_t aux = 0; !overflow.empty(); ++aux) {
    const size_t chunk = std::min(overflow.size(), line_size());
    LineData& aux_line = StoredLine(AuxAddr(ep_id, parity, aux));
    std::fill(aux_line.begin(), aux_line.end(), 0);
    std::copy_n(overflow.begin(), chunk, aux_line.begin());
    overflow = overflow.subspan(chunk);
  }
}

void LauberhornNic::EndCollection(uint32_t ep_id, int parity, uint64_t epoch) {
  Endpoint& ep = endpoints_[ep_id];
  if (epoch != wipes_) {
    return;
  }
  ep.collecting[parity] = false;
  if (ep.deferred_poll != nullptr && ep.deferred_poll->parity == parity) {
    const std::unique_ptr<WaitingLoad> poll = std::move(ep.deferred_poll);
    HandleCtrlPoll(ep, parity, poll->requester, std::move(poll->fill));
  }
}

void LauberhornNic::DeliverToWaiting(Endpoint& ep, PreparedRequest request) {
  if (spans_ != nullptr && !ep.is_continuation) {
    spans_->Record(request.request_id, SpanStage::kDelivered, sim_.Now());
  }
  if (config_.serve.dedup && !ep.is_continuation) {
    // The request is about to reach a handler: from here on a crash must
    // pin it in flight (executed-but-response-lost), never re-run it.
    dedup_.MarkDelivered(
        VfFlowKey(request.endpoint, request.ip.src, request.udp.src_port),
        request.request_id);
  }
  ep.tryagain_streak = 0;  // the hot path is making progress
  WaitingLoad waiting = TakeWaiting(ep);
  const DispatchLine dispatch = BuildDispatch(ep, request);
  const LineData& line = StoredLine(CtrlAddr(ep.id, waiting.parity)) =
      dispatch.Encode(line_size());
  const std::vector<uint8_t>* args = nullptr;
  if (ep.is_kernel) {
    PreparedRequest& inflight = cold_inflight_[request.request_id];
    inflight = std::move(request);
    args = &inflight.args;
  } else {
    const int core = static_cast<int>(waiting.requester);
    if (!ep.is_continuation) {
      ++core_stats_[core].dispatches;
    }
    ep.outstanding =
        OutstandingRequest{waiting.parity, std::move(request), sim_.Now(), core};
    args = &ep.outstanding->request.args;
  }
  if (dispatch.via_dma) {
    ++stats_.dma_fallback_rx;
    // Push the args into host memory before releasing the core.
    pcie_.DeviceDmaWrite(dispatch.data_ptr, *args,
                         [fill = std::move(waiting.fill), line]() mutable { fill(line); });
    return;
  }
  // Overflow goes into the AUX lines of the endpoint and parity whose
  // CONTROL line carries this delivery (the kernel channel's for cold
  // dispatch).
  WriteAuxArgs(ep.id, waiting.parity,
               std::span<const uint8_t>(*args).subspan(dispatch.inline_args.size()));
  waiting.fill(line);
}

LauberhornNic::WaitingLoad LauberhornNic::TakeWaiting(Endpoint& ep) {
  assert(ep.waiting.has_value());
  WaitingLoad waiting = std::move(*ep.waiting);
  ep.waiting.reset();
  if (waiting.tryagain_event != kInvalidEventId) {
    sim_.Cancel(waiting.tryagain_event);
  }
  return waiting;
}

void LauberhornNic::FillWaiting(Endpoint& ep, LineKind kind) {
  WaitingLoad waiting = TakeWaiting(ep);
  DispatchLine line;
  line.kind = kind;
  line.endpoint_id = static_cast<uint16_t>(ep.id);
  if (kind == LineKind::kTryAgain) {
    ++stats_.tryagains;
    trace_.Emit(sim_.Now(), TraceEvent::kTryAgain, ep.id);
  } else if (kind == LineKind::kRetire) {
    ++stats_.retires;
    trace_.Emit(sim_.Now(), TraceEvent::kRetire, ep.id);
  }
  waiting.fill(line.Encode(line_size()));
}

void LauberhornNic::ArmTryagain(Endpoint& ep) {
  assert(ep.waiting.has_value());
  const Duration timeout = ep.is_kernel ? config_.params.kernel_tryagain_timeout
                                        : config_.params.tryagain_timeout;
  const uint32_t ep_id = ep.id;
  ep.waiting->tryagain_event = sim_.Schedule(timeout, [this, ep_id]() {
    Endpoint& endpoint = endpoints_[ep_id];
    if (!endpoint.waiting.has_value()) {
      return;  // already answered
    }
    endpoint.waiting->tryagain_event = kInvalidEventId;
    if (!endpoint.is_kernel) {
      if (DispatchBacklog(ep_id) > 0) {
        // TRYAGAIN with work queued — on the endpoint's own queue or (for
        // c-FCFS / JBSQ) the service's central queue: the hot path is not
        // delivering (the wedge signature). Consecutive occurrences demote
        // the endpoint.
        ++endpoint.tryagain_streak;
        if (endpoint.tryagain_streak >= config_.params.degrade_tryagain_threshold) {
          DegradeEndpoint(endpoint);
        }
      } else {
        endpoint.tryagain_streak = 0;  // idle endpoint, not a wedge
      }
    }
    FillWaiting(endpoint, LineKind::kTryAgain);
    if (endpoint.is_kernel) {
      // The dispatcher kthread will yield back to the scheduler.
      endpoint.active = false;
    }
  });
}

void LauberhornNic::DegradeEndpoint(Endpoint& ep) {
  ep.degraded_until = sim_.Now() + config_.params.degrade_backoff;
  trace_.Emit(sim_.Now(), TraceEvent::kDegrade, ep.id, ep.tryagain_streak);
  ep.tryagain_streak = 0;
  ++stats_.degradations;
  // Central disciplines: hand the local runway back to healthy group
  // members first (degraded_until is already set, so this endpoint no
  // longer counts as usable). Whatever remains drains via the kernel path.
  ReturnLocalQueue(ep);
  // Drain the backlog through the kernel path so requests stop waiting on a
  // hot path that is not progressing. New arrivals follow via the
  // degraded_until check in DispatchPrepared until the backoff expires.
  for (PreparedRequest& request : ep.pending.TakeAll()) {
    RouteCold(std::move(request));
  }
  MaybeRestartCold(ep);
}

// -- Coherence-side (home agent) --------------------------------------------------

void LauberhornNic::OnHomeRead(AgentId requester, LineAddr addr, bool exclusive,
                               FillFn fill) {
  const uint64_t offset_lines = (addr - config_.base) / line_size();
  const uint64_t index = offset_lines / EndpointStrideLines();
  const uint64_t within = offset_lines % EndpointStrideLines();  // 0, 1: CONTROL
  if (index >= endpoints_.size()) {
    fill(LineData(line_size(), 0));
    return;
  }
  if (exclusive || within >= 2) {
    // RFO for a response write, or an AUX-line read: answer from the store.
    fill(StoredLine(addr));
    return;
  }
  HandleCtrlPoll(endpoints_[index], static_cast<int>(within), requester,
                 std::move(fill));
}

void LauberhornNic::HandleCtrlPoll(Endpoint& ep, int parity, AgentId requester,
                                   FillFn fill) {
  if (!CheckDeviceUp()) {
    // Dead device: the fill engine is gone, but the bus-timeout machinery
    // still answers parked loads with TRYAGAIN, so polling cores spin
    // through the outage instead of stranding. The burst of crashed_polls
    // is the watchdog's second detection signal.
    ++stats_.crashed_polls;
    ep.waiting = WaitingLoad{std::move(fill), requester, parity, kInvalidEventId};
    ArmTryagain(ep);
    return;
  }
  // A load on the *other* control line signals that the response to the
  // outstanding request is ready in its line: collect and transmit it.
  if (ep.outstanding.has_value() && ep.outstanding->parity != parity) {
    OutstandingRequest done = std::move(*ep.outstanding);
    ep.outstanding.reset();
    if (done.core >= 0) {
      // Handler-busy interval for the per-core occupancy metrics (§18).
      core_stats_[done.core].busy_time += sim_.Now() - done.delivered_at;
    }
    CollectResponse(ep, std::move(done));
  }
  if (ep.collecting[parity]) {
    // This parity's previous response is still being pulled out of its AUX
    // lines or DMA region; filling it now would overwrite that response.
    ep.deferred_poll = std::make_unique<WaitingLoad>(
        WaitingLoad{std::move(fill), requester, parity, kInvalidEventId});
    return;
  }
  if (ep.retire_requested) {
    ep.retire_requested = false;
    ep.waiting = WaitingLoad{std::move(fill), requester, parity, kInvalidEventId};
    FillWaiting(ep, LineKind::kRetire);
    ReleaseCore(ep);
    return;
  }
  // The NIC can infer from the load that this core is polling here (§4).
  ep.active = true;
  ep.active_core = static_cast<int>(requester);

  ep.waiting = WaitingLoad{std::move(fill), requester, parity, kInvalidEventId};
  if (ep.is_kernel) {
    if (!cold_queue_.empty()) {
      ++stats_.cold_dispatches;
      DeliverToWaiting(ep, cold_queue_.Pop());
      return;
    }
  } else if (faults_ != nullptr && faults_->NicEndpointWedged(ep.id)) {
    // Wedge fault: the fill engine for this endpoint's CONTROL lines is
    // stuck. Work stays queued (DispatchPrepared sees the wedge too) and the
    // parked core times out with TRYAGAIN; enough of those in a row trips
    // the degradation detector.
    ++stats_.wedged_polls;
  } else {
    // JBSQ: response collection freed a credit — refill the private runway
    // from the central queue before serving, so the core stays k-deep.
    ReplenishJbsq(ep);
    if (!ep.pending.empty()) {
      ++stats_.hot_dispatches;
      DeliverToWaiting(ep, ep.pending.Pop());
      return;
    }
    // c-FCFS / JBSQ: an idle parked core pulls the central head directly.
    DispatchGroup* group = CentralGroup(ep);
    if (group != nullptr && !group->central.empty() &&
        ep.degraded_until <= sim_.Now()) {
      PreparedRequest request = group->central.Pop();
      group->Retarget(request, ep.id);
      ++group->stats.central_pulled;
      ++stats_.hot_dispatches;
      DeliverToWaiting(ep, std::move(request));
      ReplenishJbsq(ep);
      return;
    }
  }
  ArmTryagain(ep);
}

void LauberhornNic::CollectResponse(Endpoint& ep, OutstandingRequest outstanding) {
  const int parity = outstanding.parity;
  const LineAddr ctrl = CtrlAddr(ep.id, parity);
  const uint32_t ep_id = ep.id;
  // Whether the response left anything in the parity's AUX lines or DMA
  // region is only known once its CONTROL line is back, so the collection
  // holds the parity from here.
  ep.collecting[parity] = true;
  const uint64_t epoch = wipes_;
  interconnect_.FetchExclusive(
      home_id_, ctrl, StoredLine(ctrl),
      [this, ep_id, parity, epoch, ctrl,
       outstanding = std::move(outstanding)](const LineData& data) mutable {
        const auto response_line = ResponseLine::Decode(data);
        StoredLine(ctrl) = data;
        RpcMessage response =
            ResponseHeader(outstanding.request.service_id, outstanding.request.method_id,
                           outstanding.request.request_id);
        if (!response_line.has_value() ||
            response_line->kind != LineKind::kResponse) {
          EndCollection(ep_id, parity, epoch);
          response.status = RpcStatus::kInternal;
          TransmitResponse(outstanding.request, std::move(response));
          return;
        }
        response.status = static_cast<RpcStatus>(response_line->status);
        Endpoint& ep2 = endpoints_[ep_id];

        if (response_line->via_dma) {
          ++stats_.dma_fallback_tx;
          pcie_.DeviceDmaRead(
              ep2.dma_buffer_iova + DmaResponseOffset(parity), response_line->resp_len,
              [this, ep_id, parity, epoch, outstanding = std::move(outstanding),
               response = std::move(response)](std::span<const uint8_t> payload) mutable {
                response.payload.assign(payload.begin(), payload.end());
                EndCollection(ep_id, parity, epoch);
                TransmitResponse(outstanding.request, std::move(response));
              });
          return;
        }

        const LineData& inline_payload = response_line->inline_payload;
        const size_t remaining = response_line->resp_len > inline_payload.size()
                                     ? response_line->resp_len - inline_payload.size()
                                     : 0;
        if (remaining == 0) {
          EndCollection(ep_id, parity, epoch);
          response.payload.assign(inline_payload.begin(), inline_payload.end());
          TransmitResponse(outstanding.request, std::move(response));
          return;
        }
        // Pull the AUX lines the CPU wrote, keeping at most
        // device_fetch_window transactions in flight (the fetch engine's
        // parallelism bounds multi-line response bandwidth, §6).
        const size_t aux_count = (remaining + line_size() - 1) / line_size();
        // Sized once for the inline bytes plus every AUX line.
        response.payload.reserve(inline_payload.size() + aux_count * line_size());
        response.payload.assign(inline_payload.begin(), inline_payload.end());
        auto payload_parts = std::make_shared<std::vector<LineData>>(aux_count);
        auto pending = std::make_shared<size_t>(aux_count);
        auto next_index = std::make_shared<size_t>(0);
        auto meta = std::make_shared<PreparedRequest>(outstanding.request);
        auto resp = std::make_shared<RpcMessage>(std::move(response));
        const size_t resp_len = response_line->resp_len;
        auto issue = std::make_shared<Callback>();
        *issue = [this, ep_id, parity, epoch, aux_count, payload_parts, pending, next_index,
                  meta, resp, resp_len, issue]() {
          if (*next_index >= aux_count) {
            return;
          }
          const size_t i = (*next_index)++;
          const LineAddr aux_addr = AuxAddr(ep_id, parity, i);
          interconnect_.FetchExclusive(
              home_id_, aux_addr, StoredLine(aux_addr),
              [this, ep_id, parity, epoch, i, payload_parts, pending, meta, resp, resp_len,
               aux_addr, issue](const LineData& aux_data) {
                StoredLine(aux_addr) = aux_data;
                (*payload_parts)[i] = aux_data;
                if (--*pending == 0) {
                  EndCollection(ep_id, parity, epoch);
                  for (const LineData& part : *payload_parts) {
                    resp->payload.insert(resp->payload.end(), part.begin(), part.end());
                  }
                  resp->payload.resize(resp_len);
                  TransmitResponse(*meta, std::move(*resp));
                  return;
                }
                (*issue)();  // refill the window
              });
        };
        const size_t window =
            std::min(aux_count, interconnect_.config().device_fetch_window);
        for (size_t w = 0; w < window; ++w) {
          (*issue)();
        }
      });
}

void LauberhornNic::TransmitResponse(const PreparedRequest& meta, RpcMessage response) {
  if (!CheckDeviceUp()) {
    // A response path (cold SoftwareTransmit, DMA completion, AUX fetch)
    // that outlived the firmware: the TX engine is dead, the response is
    // lost. The dedup table's delivered rule keeps at-most-once intact.
    ++stats_.drops_nic_down;
    return;
  }
  if (!endpoints_[meta.endpoint].is_continuation &&
      response.kind == MessageKind::kResponse) {
    ++vfs_[endpoints_[meta.endpoint].vf].stats.responses;
  }
  if (config_.serve.dedup && !endpoints_[meta.endpoint].is_continuation &&
      response.kind == MessageKind::kResponse) {
    const uint64_t flow = VfFlowKey(meta.endpoint, meta.ip.src, meta.udp.src_port);
    if (response.status == RpcStatus::kOverloaded) {
      // Shed, not executed: forget the entry so a retransmit runs fresh.
      dedup_.Abort(flow, response.request_id);
    } else {
      // Cache pre-seal so replays re-seal with a fresh pass through this
      // function. Idempotent for replayed responses.
      dedup_.Complete(flow, response.request_id, response);
    }
  }
  // Congestion feedback (§15), attached after dedup caching so a replayed
  // response carries the grant/echo of its *replay* time, not a stale one.
  if (meta.ip.ecn != kEcnNotEct && response.kind == MessageKind::kResponse &&
      !endpoints_[meta.endpoint].is_continuation) {
    if (meta.ip.ecn == kEcnCe) {
      // The request crossed a congested fabric queue: echo the mark so the
      // sender's DCTCP loop sees it (the mark itself stays on the request).
      response.flags |= kLrpcFlagEcnEcho;
      ++stats_.ecn_echoes;
    }
    if (response.status != RpcStatus::kOverloaded) {
      // A shed is push-back, not an invitation: grants ride only on
      // successful responses.
      response.flags |= kLrpcFlagGrant;
      response.grant = ComputeGrant(endpoints_[meta.endpoint]);
      ++stats_.grants_issued;
    }
  }
  Duration crypto_cost = 0;
  if (config_.serve.crypto && !response.payload.empty()) {
    const uint32_t service_id = endpoints_[meta.endpoint].is_continuation
                                    ? response.service_id
                                    : endpoints_[meta.endpoint].service_id;
    response.payload = SealPayload(DeriveKey(config_.serve.crypto_root_key, service_id),
                                   response.request_id ^ 0x5a5a, response.payload);
    crypto_cost = config_.pipeline.CryptoCost(response.payload.size());
  }
  Packet out = ReplyFrame(meta.eth, meta.ip, meta.udp, response);
  trace_.Emit(sim_.Now(), TraceEvent::kWireTx, meta.endpoint,
              static_cast<uint32_t>(response.request_id));
  if (meta.wire_arrival > 0) {
    Endpoint& ep = endpoints_[meta.endpoint];
    if (ep.latency == nullptr) {
      ep.latency = std::make_unique<Histogram>();
    }
    ep.latency->Record(sim_.Now() - meta.wire_arrival);
  }
  if (meta.ip.src == config_.own_ip) {
    // Reply to a nested (hairpinned) request: back through the RX pipeline.
    sim_.Schedule(crypto_cost + config_.pipeline.tx_fixed + config_.hairpin_latency,
                  [this, out = std::move(out)]() mutable {
                    ++stats_.responses_sent;
                    ReceivePacket(std::move(out));
                  });
    return;
  }
  sim_.Schedule(crypto_cost + config_.pipeline.tx_fixed,
                [this, header = RpcHeaderPeek{response.kind, response.request_id},
                 out = std::move(out)]() mutable {
    ++stats_.responses_sent;
    if (on_wire_tx) {
      on_wire_tx(header);
    }
    if (tx_wire_ != nullptr) {
      tx_wire_->Send(std::move(out));
    }
  });
}

void LauberhornNic::OnHomeWriteBack(AgentId /*from*/, LineAddr addr,
                                    const LineData& data) {
  LineData& line = line_store_[addr];
  line = data;
  line.resize(line_size());
}

void LauberhornNic::OnHomeUncachedWrite(AgentId /*from*/, LineAddr addr, size_t offset,
                                        std::span<const uint8_t> data) {
  LineData& line = StoredLine(addr);
  assert(offset + data.size() <= line.size());
  std::copy(data.begin(), data.end(), line.begin() + static_cast<long>(offset));
}

void LauberhornNic::BacklogQueue::Bind(size_t* backlog) {
  assert(items_.empty() && "rebinding a queue that holds requests");
  backlog_ = backlog;
}

void LauberhornNic::BacklogQueue::Push(PreparedRequest request, bool at_front) {
  if (at_front) {
    items_.push_front(std::move(request));
  } else {
    items_.push_back(std::move(request));
  }
  if (backlog_ != nullptr) {
    ++*backlog_;
  }
}

LauberhornNic::PreparedRequest LauberhornNic::BacklogQueue::Pop(bool from_front) {
  if (backlog_ != nullptr) {
    --*backlog_;
  }
  return from_front ? items_.pop_front() : items_.pop_back();
}

std::vector<LauberhornNic::PreparedRequest> LauberhornNic::BacklogQueue::TakeAll() {
  if (backlog_ != nullptr) {
    *backlog_ -= items_.size();
  }
  return items_.TakeAll();
}

bool LauberhornNic::BacklogQueue::ShouldShed(SimTime now,
                                             const SojournConfig& config) {
  const Duration oldest = items_.empty() ? 0 : now - items_.front().wire_arrival;
  return gate_.ShouldShed(now, oldest, config);
}

size_t LauberhornNic::QueueDepth(uint32_t endpoint) const {
  return endpoints_[endpoint].pending.size();
}

size_t LauberhornNic::DispatchBacklog(uint32_t endpoint) const {
  const Endpoint& ep = endpoints_[endpoint];
  const DispatchGroup* group = CentralGroup(ep);
  return ep.pending.size() + (group != nullptr ? group->central.size() : 0);
}

size_t LauberhornNic::CentralQueueDepth(uint32_t service_id) const {
  auto it = groups_.find(service_id);
  return it != groups_.end() ? it->second.central.size() : 0;
}

size_t LauberhornNic::ServiceBacklog(uint32_t service_id) const {
  auto it = service_backlog_.find(service_id);
  return it != service_backlog_.end() ? it->second : 0;
}

DispatchPolicyConfig LauberhornNic::ServicePolicy(uint32_t service_id) {
  const ServiceDef* service = services_.Find(service_id);
  if (service == nullptr) {
    return DispatchPolicyConfig{};
  }
  const std::vector<uint32_t>& members = DemuxCandidates(service->udp_port);
  return members.empty() ? service->dispatch
                         : EnsureGroup(endpoints_[members.front()]).config;
}

std::map<DispatchPolicyKind, DispatchPolicyStats> LauberhornNic::PolicyStatsSnapshot() const {
  std::map<DispatchPolicyKind, DispatchPolicyStats> by_kind;
  for (const auto& [service_id, group] : groups_) {
    AddStats(by_kind[group.config.kind], group.stats, kDispatchPolicyStatsFields);
  }
  return by_kind;
}

std::map<int, LauberhornNic::CoreOccupancy>
LauberhornNic::CoreOccupancySnapshot() const {
  std::map<int, CoreOccupancy> out = core_stats_;
  for (const Endpoint& ep : endpoints_) {
    if (ep.in_use && ep.active && ep.active_core >= 0) {
      out[ep.active_core].queue_depth += ep.pending.size();
    }
  }
  return out;
}

double LauberhornNic::ArrivalRate(uint32_t endpoint) const {
  return endpoints_[endpoint].arrival_rate.value();
}

bool LauberhornNic::EndpointActive(uint32_t endpoint) const {
  return endpoints_[endpoint].active;
}

const Histogram& LauberhornNic::EndpointLatency(uint32_t endpoint) {
  Endpoint& ep = endpoints_[endpoint];
  if (ep.latency == nullptr) {
    ep.latency = std::make_unique<Histogram>();
  }
  return *ep.latency;
}

}  // namespace lauberhorn

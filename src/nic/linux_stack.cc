#include "src/nic/linux_stack.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lauberhorn {

LinuxRpcStack::LinuxRpcStack(Simulator& sim, Kernel& kernel, DmaNic& nic,
                             DmaNicDriver& driver, Msix& msix, ServiceRegistry& services,
                             Config config, RpcServeConfig server)
    : sim_(sim),
      kernel_(kernel),
      nic_(nic),
      driver_(driver),
      msix_(msix),
      services_(services),
      config_(config),
      server_(kernel.costs(), std::move(server)) {}

void LinuxRpcStack::RegisterServiceProcess(const ServiceDef& service) {
  auto state = std::make_unique<ServiceState>();
  state->def = &service;
  state->process = kernel_.CreateProcess(service.name);
  for (int i = 0; i < config_.worker_threads_per_service; ++i) {
    state->workers.push_back(
        kernel_.AddThread(state->process, service.name + "-w" + std::to_string(i)));
  }
  state->socket = kernel_.CreateSocket(service.udp_port, state->workers[0]);
  const AdmissionConfig& admission = server_.config().admission;
  if (admission.enabled && admission.quota_rps > 0) {
    state->quota = TokenBucket(admission.quota_rps, admission.quota_burst);
  }
  by_port_[service.udp_port] = std::move(state);
}

void LinuxRpcStack::Start() {
  const size_t num_cores = kernel_.num_cores();
  for (uint32_t q = 0; q < driver_.num_queues(); ++q) {
    Thread* napi = kernel_.AddThread(kernel_.kernel_process(),
                                     "napi-" + std::to_string(q),
                                     /*kernel_priority=*/true);
    const int irq_core = static_cast<int>(q % num_cores);
    napi->PinTo(irq_core);
    softirq_threads_.push_back(napi);
    msix_.SetHandler(q, [this, q, irq_core]() {
      // Top half on the IRQ-steered core: ack the device, raise the softirq.
      kernel_.core(static_cast<size_t>(irq_core)).RaiseIrq([this, q, irq_core]() {
        Thread* napi = softirq_threads_[q];
        if (!napi->HasWork()) {
          napi->PushWork([this, q](Core& core) { NapiPoll(q, core); });
        }
        kernel_.scheduler().Wake(napi, irq_core);
      });
    });
  }
}

void LinuxRpcStack::NapiPoll(uint32_t q, Core& core) {
  const OsCostModel& costs = kernel_.costs();
  std::vector<Packet> packets = driver_.Poll(q, config_.napi_budget);
  if (packets.empty()) {
    core.Run(costs.napi_poll_fixed, CoreMode::kKernel,
             [this, &core]() { kernel_.scheduler().OnWorkDone(core); });
    return;
  }
  const Duration per_packet = costs.driver_rx_per_packet + costs.protocol_processing +
                              costs.socket_lookup + costs.socket_wakeup;
  const Duration total = costs.softirq_entry +
                         static_cast<Duration>(packets.size()) * per_packet;
  core.Run(total, CoreMode::kKernel, [this, q, &core,
                                      packets = std::move(packets)]() mutable {
    Duration shed_cost = 0;
    for (Packet& packet : packets) {
      const auto frame = ParseUdpFrame(packet);
      if (!frame.has_value()) {
        server_.CountBadRequest();
        continue;
      }
      auto it = by_port_.find(frame->udp.dst_port);
      if (it == by_port_.end()) {
        server_.CountBadRequest();  // no socket bound: ICMP unreachable in real life
        continue;
      }
      ServiceState& state = *it->second;
      if (server_.config().admission.enabled) {
        const ShedReason reason = AdmissionCheck(state);
        if (reason != ShedReason::kNone) {
          // Unlike the Lauberhorn NIC, saying "no" here still burns kernel
          // CPU: the softirq core decodes the request and transmits the
          // kOverloaded reply itself.
          shed_cost += ShedFrame(q, *frame, reason);
          continue;
        }
      }
      if (spans_ != nullptr) {
        // Decode before the bytes move into the socket (the parsed frame's
        // payload views them). Softirq delivery to the socket is this stack's
        // admission verdict and dispatch decision in one step.
        const auto msg = DecodeRpcMessage(frame->payload);
        if (msg.has_value() && msg->kind == MessageKind::kRequest) {
          spans_->RecordDispatch(msg->request_id, SpanDispatch::kWorker, q,
                                 sim_.Now());
        }
      }
      // Deliver the whole frame so the worker can address the response.
      if (state.socket->Enqueue(std::move(packet.bytes), sim_.Now())) {
        PostWorkerWork(state);
      }
    }
    // More completions waiting: keep the NAPI thread polling (it yields the
    // core between rounds, so regular scheduling still happens - step (3) in
    // Fig. 5's traditional loop).
    auto finish = [this, q, &core]() {
      Thread* napi = softirq_threads_[q];
      if (driver_.RxPending(q) && !napi->HasWork()) {
        napi->PushWork([this, q](Core& inner) { NapiPoll(q, inner); });
      }
      kernel_.scheduler().OnWorkDone(core);
      if (napi->HasWork()) {
        kernel_.scheduler().Wake(napi, core.index());
      }
    };
    if (shed_cost > 0) {
      core.Run(shed_cost, CoreMode::kKernel, std::move(finish));
    } else {
      finish();
    }
  });
}

ShedReason LinuxRpcStack::AdmissionCheck(ServiceState& state) {
  const AdmissionConfig& admission = server_.config().admission;
  const SimTime now = sim_.Now();
  size_t depth_limit = state.socket->max_depth();
  if (admission.queue_depth_limit > 0) {
    depth_limit = std::min(depth_limit, admission.queue_depth_limit);
  }
  if (state.socket->depth() >= depth_limit) {
    return ShedReason::kQueueFull;
  }
  if (state.quota.metered() && !state.quota.TryTake(now)) {
    return ShedReason::kQuota;
  }
  if (state.sojourn.ShouldShed(now, state.socket->OldestAge(now), admission.sojourn)) {
    return ShedReason::kSojourn;
  }
  return ShedReason::kNone;
}

Duration LinuxRpcStack::ShedFrame(uint32_t q, const ParsedFrame& frame,
                                  ShedReason reason) {
  const OsCostModel& costs = kernel_.costs();
  // Decode enough of the request to address the reply. Invalid requests are
  // dropped without a reply (same as the worker path would).
  const auto request = DecodeRpcMessage(frame.payload);
  if (!request.has_value() || request->kind != MessageKind::kRequest) {
    server_.CountBadRequest();
    return costs.protocol_processing;
  }
  const Duration cost = costs.protocol_processing + costs.driver_tx_per_packet;
  // A full TX ring drops the shed reply (DmaNicDriver::tx_ring_full).
  driver_.Transmit(q, server_.Shed(frame, *request, reason, cost).bytes);
  return cost;
}

void LinuxRpcStack::PostWorkerWork(ServiceState& state) {
  if (!state.socket->HasData()) {
    return;
  }
  for (size_t i = 0; i < state.workers.size(); ++i) {
    Thread* worker = state.workers[state.next_worker];
    state.next_worker = (state.next_worker + 1) % state.workers.size();
    if (worker->state() == ThreadState::kBlocked && !worker->HasWork()) {
      worker->PushWork([this, &state](Core& core) { WorkerStep(state, core); });
      kernel_.scheduler().Wake(worker);
      return;
    }
  }
  // All workers busy: the message waits in the socket queue.
}

void LinuxRpcStack::WorkerStep(ServiceState& state, Core& core) {
  if (!state.socket->HasData()) {
    kernel_.scheduler().OnWorkDone(core);
    return;
  }
  const OsCostModel& costs = kernel_.costs();
  std::vector<uint8_t> frame_bytes = state.socket->Dequeue();
  Packet packet;
  packet.bytes = std::move(frame_bytes);
  const auto frame = ParseUdpFrame(packet);
  if (!frame.has_value()) {
    server_.CountBadRequest();
    kernel_.scheduler().OnWorkDone(core);
    return;
  }
  auto request = DecodeRpcMessage(frame->payload);
  if (spans_ != nullptr && request.has_value() &&
      request->kind == MessageKind::kRequest) {
    spans_->Record(request->request_id, SpanStage::kDelivered, sim_.Now());
  }

  // Step 1: recvmsg syscall + copyout of the payload.
  const Duration recv_cost = costs.syscall + costs.socket_syscall_path +
                             costs.CopyCost(frame->payload.size());
  // Capture addressing for the response before the spans go out of scope.
  const EthernetHeader req_eth = frame->eth;
  const Ipv4Header req_ip = frame->ip;
  const UdpHeader req_udp = frame->udp;

  core.Run(recv_cost, CoreMode::kKernel, [this, &state, &core, request = std::move(request),
                                          req_eth, req_ip, req_udp]() mutable {
    if (!request.has_value() || request->kind != MessageKind::kRequest) {
      server_.CountBadRequest();
      kernel_.scheduler().OnWorkDone(core);
      return;
    }
    // Software transport decryption, charged below as user time. A failed
    // attempt is dropped before any user time is charged.
    Duration crypto_cost = 0;
    if (!server_.Open(state.def->service_id, *request, crypto_cost)) {
      server_.CountBadRequest();
      kernel_.scheduler().OnWorkDone(core);
      return;
    }
    SoftwareRpcServer::Result served = server_.Serve(state.def, req_ip, req_udp, *request);
    if (served.outcome == SoftwareRpcServer::Outcome::kDropped) {
      kernel_.scheduler().OnWorkDone(core);
      return;
    }
    const bool replay = served.outcome == SoftwareRpcServer::Outcome::kReplayed;
    if (spans_ != nullptr && !replay) {
      spans_->Record(request->request_id, SpanStage::kHandlerStart, sim_.Now());
    }

    core.Run(crypto_cost + served.cost, CoreMode::kUser,
             [this, &state, &core, response = std::move(served.response), replay, req_eth,
              req_ip, req_udp]() mutable {
      if (spans_ != nullptr && !replay) {
        spans_->Record(response.request_id, SpanStage::kHandlerEnd, sim_.Now());
      }
      // Step 3: sendmsg syscall + copyin + driver TX.
      const OsCostModel& costs = kernel_.costs();
      const Duration send_cost = costs.syscall + costs.socket_syscall_path +
                                 costs.CopyCost(response.WireSize()) +
                                 costs.driver_tx_per_packet;
      Packet out = SoftwareRpcServer::Reply(req_eth, req_ip, req_udp, std::move(response));
      core.Run(send_cost, CoreMode::kKernel,
               [this, &state, &core, out = std::move(out), replay]() {
        const uint32_t txq =
            static_cast<uint32_t>(core.index()) % driver_.num_queues();
        driver_.Transmit(txq, out.bytes);  // a full TX ring drops the reply
        if (!replay) {
          server_.CountCompleted();
        }
        // More messages? Re-arm this worker before yielding.
        Thread* self = core.current_thread();
        if (state.socket->HasData() && self != nullptr && !self->HasWork()) {
          self->PushWork([this, &state](Core& inner) { WorkerStep(state, inner); });
        }
        kernel_.scheduler().OnWorkDone(core);
      });
    });
  });
}

}  // namespace lauberhorn

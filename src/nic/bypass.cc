#include "src/nic/bypass.h"

#include <cassert>
#include <utility>

namespace lauberhorn {

BypassRuntime::BypassRuntime(Simulator& sim, Kernel& kernel, DmaNicDriver& driver,
                             ServiceRegistry& services, Config config,
                             SoftwareRpcServer::Config server)
    : sim_(sim),
      kernel_(kernel),
      driver_(driver),
      services_(services),
      config_(std::move(config)),
      server_(kernel.costs(), std::move(server)) {
  assert(config_.cores.size() >= driver_.num_queues() &&
         "bypass needs one dedicated core per queue");
}

void BypassRuntime::Start() {
  running_ = true;
  empty_streak_.assign(driver_.num_queues(), 0);
  sojourn_.assign(driver_.num_queues(), SojournGate{});
  process_ = kernel_.CreateProcess("bypass-app");
  for (uint32_t q = 0; q < driver_.num_queues(); ++q) {
    Core& core = kernel_.core(static_cast<size_t>(config_.cores[q]));
    // The dedicated core is owned by the bypass process outright; it never
    // returns to the scheduler (the static-binding assumption of §2).
    Thread* t = kernel_.AddThread(process_, "bypass-poll-" + std::to_string(q));
    t->set_state(ThreadState::kRunning);
    core.set_current_thread(t);
    core.set_loaded_pid(process_->pid);
    sim_.Schedule(0, [this, q, &core]() { Loop(q, core); });
  }
}

void BypassRuntime::Loop(uint32_t q, Core& core) {
  if (!running_) {
    return;
  }
  std::vector<Packet> packets = driver_.Poll(q, config_.poll_batch);
  if (packets.empty()) {
    ++empty_polls_;
    const Duration step = ++empty_streak_[q] > config_.idle_backoff_after
                              ? config_.idle_poll_interval
                              : config_.poll_iteration;
    core.Run(step, CoreMode::kSpin, [this, q, &core]() { Loop(q, core); });
    return;
  }
  empty_streak_[q] = 0;
  core.Run(config_.rx_batch_fixed, CoreMode::kUser,
           [this, q, &core, packets = std::move(packets)]() mutable {
             ProcessBatch(q, core, std::move(packets), 0);
           });
}

void BypassRuntime::ProcessBatch(uint32_t q, Core& core, std::vector<Packet> packets,
                                 size_t index) {
  if (index >= packets.size()) {
    Loop(q, core);
    return;
  }
  Step step = ServePacket(q, packets[index], packets.size() - index);
  const Duration work = step.work;
  core.Run(work, CoreMode::kUser,
           [this, q, &core, step = std::move(step), packets = std::move(packets),
            index]() mutable {
             if (spans_ != nullptr && step.executed) {
               spans_->Record(step.request_id, SpanStage::kHandlerEnd, sim_.Now());
             }
             if (step.reply.has_value()) {
               driver_.Transmit(q, step.reply->bytes);  // a full TX ring drops it
             }
             if (step.executed) {
               server_.CountCompleted();
             }
             ProcessBatch(q, core, std::move(packets), index + 1);
           });
}

BypassRuntime::Step BypassRuntime::ServePacket(uint32_t q, const Packet& packet,
                                               size_t batch_remaining) {
  Step step;
  step.work = config_.per_packet;
  const auto frame = ParseUdpFrame(packet);
  if (!frame.has_value()) {
    server_.CountBadRequest();
    return step;
  }
  auto request = DecodeRpcMessage(frame->payload);
  const ServiceDef* service =
      request.has_value() ? services_.FindByPort(frame->udp.dst_port) : nullptr;

  if (server_.config().admission.enabled && request.has_value() &&
      request->kind == MessageKind::kRequest && service != nullptr) {
    const ShedReason reason = AdmissionCheck(q, service->service_id, batch_remaining);
    if (reason != ShedReason::kNone) {
      // Saying "no" skips crypto, dedup, and the handler, but still burns
      // user CPU on the polling core for the decode + reply TX.
      step.work += config_.tx_per_packet;
      step.reply = server_.Shed(*frame, *request, reason, step.work);
      return step;
    }
  }
  if (request.has_value() && service != nullptr) {
    Duration crypto_cost = 0;
    if (!server_.Open(service->service_id, *request, crypto_cost)) {
      request.reset();  // authentication failure: treated as a bad request
    }
    step.work += crypto_cost;  // a failed attempt costs the same
  }
  if (!request.has_value() || request->kind != MessageKind::kRequest) {
    server_.CountBadRequest();
    return step;
  }
  SoftwareRpcServer::Result served =
      server_.Serve(service, frame->ip, frame->udp, *request);
  if (served.outcome == SoftwareRpcServer::Outcome::kDropped) {
    return step;
  }
  step.executed = served.outcome == SoftwareRpcServer::Outcome::kExecuted;
  step.request_id = request->request_id;
  if (spans_ != nullptr && step.executed) {
    // Run-to-completion: admission, dispatch, pickup, and handler entry
    // all collapse into this single poll-loop decision point.
    spans_->RecordDispatch(step.request_id, SpanDispatch::kPolled, q,
                           sim_.Now());
    spans_->Record(step.request_id, SpanStage::kDelivered, sim_.Now());
    spans_->Record(step.request_id, SpanStage::kHandlerStart, sim_.Now());
  }
  step.work += served.cost + config_.tx_per_packet;
  step.reply =
      SoftwareRpcServer::Reply(frame->eth, frame->ip, frame->udp, std::move(served.response));
  return step;
}

ShedReason BypassRuntime::AdmissionCheck(uint32_t q, uint32_t service_id,
                                         size_t batch_remaining) {
  const AdmissionConfig& admission = server_.config().admission;
  const SimTime now = sim_.Now();
  // Ring occupancy: completed-but-unharvested descriptors plus the tail of
  // the current batch still waiting for this core.
  const size_t occupancy = driver_.RxOccupancy(q) + batch_remaining;
  if (admission.queue_depth_limit > 0 && occupancy >= admission.queue_depth_limit) {
    return ShedReason::kQueueFull;
  }
  if (admission.quota_rps > 0) {
    TokenBucket& bucket =
        service_quota_.try_emplace(service_id, admission.quota_rps, admission.quota_burst)
            .first->second;
    if (!bucket.TryTake(now)) {
      return ShedReason::kQuota;
    }
  }
  // No timestamps in the ring: estimate the head's sojourn as occupancy
  // times the per-request driver cost floor (an underestimate once handlers
  // run, so this gate is conservative — the depth bound backstops it).
  const Duration estimated =
      static_cast<Duration>(occupancy) *
      (config_.per_packet + config_.tx_per_packet);
  if (sojourn_[q].ShouldShed(now, estimated, admission.sojourn)) {
    return ShedReason::kSojourn;
  }
  return ShedReason::kNone;
}

}  // namespace lauberhorn

#include "src/core/client.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/fault/fault.h"

namespace lauberhorn {

RpcClient::RpcClient(Simulator& sim, LinkDirection& to_server)
    : RpcClient(sim, to_server, Config{}) {}

RpcClient::RpcClient(Simulator& sim, LinkDirection& to_server, Config config)
    : sim_(sim),
      to_server_(to_server),
      config_(config),
      rng_(config.seed),
      next_request_id_((static_cast<uint64_t>(config.client_index) << 40) | 1),
      retry_tokens_(config.retry_budget_burst) {}

uint64_t RpcClient::Call(const ServiceDef& service, uint16_t method_id,
                         std::span<const WireValue> args, ResponseFn on_done) {
  const MethodDef* method = service.FindMethod(method_id);
  assert(method != nullptr && "calling unknown method");
  RpcMessage msg;
  msg.kind = MessageKind::kRequest;
  msg.service_id = service.service_id;
  msg.method_id = method_id;
  const bool ok = MarshalArgs(method->request_sig, args, msg.payload);
  assert(ok && "arguments do not match the method signature");
  (void)ok;
  return CallRaw(service.udp_port, service.service_id, method_id,
                 std::move(msg.payload), std::move(on_done));
}

uint64_t RpcClient::CallRaw(uint16_t dst_port, uint32_t service_id, uint16_t method_id,
                            std::vector<uint8_t> payload, ResponseFn on_done) {
  return CallRawTo(config_.server_ip, dst_port, service_id, method_id,
                   std::move(payload), std::move(on_done));
}

uint64_t RpcClient::CallRawTo(uint32_t dst_ip, uint16_t dst_port,
                              uint32_t service_id, uint16_t method_id,
                              std::vector<uint8_t> payload, ResponseFn on_done) {
  const uint64_t request_id = next_request_id_++;
  Pending pending;
  pending.sent_at = sim_.Now();
  pending.on_done = std::move(on_done);
  pending.dst_ip = dst_ip;
  pending.dst_port = dst_port;
  pending.request.kind = MessageKind::kRequest;
  pending.request.service_id = service_id;
  pending.request.method_id = method_id;
  pending.request.request_id = request_id;
  pending.request.payload = std::move(payload);
  pending.rto = config_.retransmit_timeout;
  auto [it, inserted] = pending_.emplace(request_id, std::move(pending));
  ++stats_.sent;
  if (config_.cc_enabled) {
    CcState& cc = CcFor(dst_ip != 0 ? dst_ip : config_.server_ip);
    if (cc.outstanding >= CcEffectiveWindow(cc)) {
      // Window full: park the request. It is injected (and its retransmit
      // timer armed) when a slot frees up, so pacing never turns into
      // spurious timeouts.
      it->second.cc_deferred = true;
      cc.deferred.push_back(request_id);
      ++stats_.cc_deferrals;
      return request_id;
    }
    CcNoteSend(cc, it->second);
  }
  SendFrame(it->second);
  ArmTimer(request_id);
  return request_id;
}

RpcClient::CcState& RpcClient::CcFor(uint32_t dst_ip) {
  auto [it, inserted] = cc_.try_emplace(dst_ip);
  if (inserted) {
    it->second.window = config_.cc_initial_window;
    it->second.round_size =
        std::max<uint64_t>(1, static_cast<uint64_t>(config_.cc_initial_window));
  }
  return it->second;
}

size_t RpcClient::CcEffectiveWindow(const CcState& cc) const {
  double window = cc.window;
  if (sim_.Now() < cc.grant_expires) {
    // A fresh grant caps the window at the receiver's provisioned headroom;
    // the min-window floor keeps one request in flight even on a zero grant
    // so the feedback loop (and the retransmit fallback) stays ack-clocked.
    window = std::min(
        window, std::max(static_cast<double>(cc.grant), config_.cc_min_window));
  } else if (cc.grant_expires != 0) {
    // The receiver has granted before but the credit has gone stale (e.g.
    // an idle gap between request rounds). Homa-style: scheduled capacity
    // needs a live grant, so fall back to the unscheduled budget — the
    // initial window — until the first response of the new round re-grants.
    // Without this clamp a synchronized round restart would blast the full
    // accumulated DCTCP window from every sender at once.
    window = std::min(window, config_.cc_initial_window);
  }
  return std::max<size_t>(1, static_cast<size_t>(window));
}

void RpcClient::CcNoteSend(CcState& cc, Pending& pending) {
  ++cc.outstanding;
  pending.cc_holds_slot = true;
  pending.cc_sent_under_grant = sim_.Now() < cc.grant_expires;
}

void RpcClient::CcDrainDeferred(uint32_t dst_ip) {
  const auto ccit = cc_.find(dst_ip);
  if (ccit == cc_.end()) {
    return;
  }
  CcState& cc = ccit->second;
  while (!cc.deferred.empty() && cc.outstanding < CcEffectiveWindow(cc)) {
    const uint64_t request_id = cc.deferred.front();
    cc.deferred.pop_front();
    auto it = pending_.find(request_id);
    if (it == pending_.end()) {
      continue;  // already finished while parked (defensive)
    }
    Pending& pending = it->second;
    pending.cc_deferred = false;
    pending.sent_at = sim_.Now();  // rtt measured from actual injection
    CcNoteSend(cc, pending);
    SendFrame(pending);
    ArmTimer(request_id);
  }
}

void RpcClient::CcOnResponse(const Pending& pending, const RpcMessage& msg,
                             uint8_t response_ecn) {
  const uint32_t dst_ip =
      pending.dst_ip != 0 ? pending.dst_ip : config_.server_ip;
  const auto ccit = cc_.find(dst_ip);
  if (ccit == cc_.end()) {
    return;
  }
  CcState& cc = ccit->second;
  if (msg.status != RpcStatus::kOverloaded) {
    // Grant register write; the cc fault layer can lose it, in which case
    // the stale (or absent) credit simply expires and the local DCTCP
    // window takes over — graceful degradation, not a stall.
    if ((msg.flags & kLrpcFlagGrant) != 0 &&
        !(faults_ != nullptr && faults_->CcShouldLoseGrant())) {
      cc.grant = msg.grant;
      cc.grant_expires = sim_.Now() + config_.cc_grant_ttl;
      ++stats_.cc_grants_received;
    }
    // Congestion mark: the receiver echoing CE on the request path, or the
    // response itself marked on the way back. The fault layer can flip the
    // observation (a corrupted doorbell read).
    bool marked =
        (msg.flags & kLrpcFlagEcnEcho) != 0 || response_ecn == kEcnCe;
    if (faults_ != nullptr && faults_->CcShouldCorruptEcn()) {
      marked = !marked;
    }
    if (marked) {
      ++stats_.cc_marks_seen;
    }
    ++cc.round_acks;
    cc.round_marks += marked ? 1 : 0;
    if (cc.round_acks >= cc.round_size) {
      // DCTCP per-round update: alpha tracks the marked fraction, the
      // window cuts in proportion to it (or grows additively when clean).
      const double fraction = static_cast<double>(cc.round_marks) /
                              static_cast<double>(cc.round_acks);
      cc.alpha = (1.0 - config_.cc_gain) * cc.alpha + config_.cc_gain * fraction;
      if (cc.round_marks > 0) {
        cc.window = std::max(config_.cc_min_window,
                             cc.window * (1.0 - cc.alpha / 2.0));
      } else {
        cc.window = std::min(config_.cc_max_window, cc.window + 1.0);
      }
      cc.round_acks = 0;
      cc.round_marks = 0;
      cc.round_size = std::max<uint64_t>(1, static_cast<uint64_t>(cc.window));
    }
  }
  // kOverloaded: excluded from the DCTCP round — explicit push-back is
  // handled by the overload machinery (token cut / breaker), and counting it
  // as a congestion mark too would double-penalize one shed.
  if (pending.cc_holds_slot && cc.outstanding > 0) {
    --cc.outstanding;
  }
  CcDrainDeferred(dst_ip);
}

void RpcClient::CcOnExpired(const Pending& pending) {
  const uint32_t dst_ip =
      pending.dst_ip != 0 ? pending.dst_ip : config_.server_ip;
  const auto ccit = cc_.find(dst_ip);
  if (ccit == cc_.end()) {
    return;
  }
  CcState& cc = ccit->second;
  // A request that exhausted its retransmits is a loss-grade congestion
  // signal: halve the window (classic cut, stronger than the mark-driven
  // proportional one).
  cc.window = std::max(config_.cc_min_window, cc.window / 2.0);
  cc.round_acks = 0;
  cc.round_marks = 0;
  cc.round_size = std::max<uint64_t>(1, static_cast<uint64_t>(cc.window));
  if (pending.cc_holds_slot && cc.outstanding > 0) {
    --cc.outstanding;
  }
  CcDrainDeferred(dst_ip);
}

double RpcClient::cc_window(uint32_t dst_ip) const {
  const auto it = cc_.find(dst_ip);
  return it != cc_.end() ? it->second.window : 0.0;
}

size_t RpcClient::cc_outstanding(uint32_t dst_ip) const {
  const auto it = cc_.find(dst_ip);
  return it != cc_.end() ? it->second.outstanding : 0;
}

size_t RpcClient::cc_deferred_count(uint32_t dst_ip) const {
  const auto it = cc_.find(dst_ip);
  return it != cc_.end() ? it->second.deferred.size() : 0;
}

void RpcClient::SendFrame(const Pending& pending) {
  EthernetHeader eth;
  eth.src = config_.client_mac;
  eth.dst = config_.server_mac;
  Ipv4Header ip;
  ip.src = config_.client_ip;
  ip.dst = pending.dst_ip != 0 ? pending.dst_ip : config_.server_ip;
  if (config_.cc_enabled) {
    ip.ecn = kEcnEct0;  // ECN-capable: fabric queues may CE-mark us
  }
  const RpcMessage& request = pending.request;
  UdpHeader udp;
  // Spread flows over source ports so RSS distributes queues.
  udp.src_port = static_cast<uint16_t>(config_.base_src_port + (request.request_id % 1024));
  udp.dst_port = pending.dst_port;
  if (!config_.encrypt) {
    to_server_.Send(BuildRpcFrame(eth, ip, udp, request));
    return;
  }
  RpcMessage sealed;
  sealed.kind = request.kind;
  sealed.service_id = request.service_id;
  sealed.method_id = request.method_id;
  sealed.request_id = request.request_id;
  sealed.payload = SealPayload(DeriveKey(config_.root_key, request.service_id),
                               request.request_id, request.payload);
  to_server_.Send(BuildRpcFrame(eth, ip, udp, sealed));
}

void RpcClient::ArmTimer(uint64_t request_id) {
  if (config_.retransmit_timeout <= 0) {
    return;
  }
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;
  }
  Duration delay = it->second.rto;
  if (config_.retransmit_jitter > 0.0) {
    const double spread = config_.retransmit_jitter * (2.0 * rng_.NextDouble() - 1.0);
    delay = static_cast<Duration>(static_cast<double>(delay) * (1.0 + spread));
    delay = std::max<Duration>(delay, 1);
  }
  it->second.timer =
      sim_.Schedule(delay, [this, request_id]() { OnTimeout(request_id); });
}

void RpcClient::RefillRetryTokens() {
  const SimTime now = sim_.Now();
  retry_tokens_ += ToSeconds(now - retry_refill_at_) * config_.retry_budget_per_sec;
  retry_tokens_ = std::min(retry_tokens_, config_.retry_budget_burst);
  retry_refill_at_ = now;
}

bool RpcClient::SpendRetryToken() {
  if (config_.retry_budget_per_sec <= 0.0) {
    return true;
  }
  RefillRetryTokens();
  if (retry_tokens_ < 1.0) {
    return false;
  }
  retry_tokens_ -= 1.0;
  return true;
}

void RpcClient::OnTimeout(uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;  // answered meanwhile
  }
  Pending& pending = it->second;
  if (pending.attempts > config_.max_retransmits) {
    ++stats_.timeouts;
    Pending expired = std::move(pending);
    pending_.erase(it);
    retired_.Insert(request_id);  // a response may still straggle in
    if (config_.cc_enabled) {
      CcOnExpired(expired);
    }
    if (expired.on_done) {
      RpcMessage msg;
      msg.kind = MessageKind::kResponse;
      msg.status = kTimedOut;
      msg.request_id = request_id;
      expired.on_done(msg, sim_.Now() - expired.sent_at);
    }
    return;
  }
  ++pending.attempts;
  // Back off whether or not the budget lets this copy onto the wire: the
  // point of the budget is to shed load, not to queue it up.
  pending.rto = static_cast<Duration>(static_cast<double>(pending.rto) *
                                      config_.backoff_multiplier);
  if (config_.max_retransmit_timeout > 0) {
    pending.rto = std::min(pending.rto, config_.max_retransmit_timeout);
  }
  pending.rto = std::max<Duration>(pending.rto, 1);
  if (sim_.Now() < breaker_until_) {
    // Circuit breaker open: the server said "overloaded" explicitly, so
    // retry copies are withheld outright (the backoff above still runs).
    ++stats_.retransmits_suppressed;
    ++stats_.retransmits_suppressed_breaker;
  } else if (SpendRetryToken()) {
    ++stats_.retransmits;
    ++pending.tokens_spent;
    SendFrame(pending);
  } else {
    ++stats_.retransmits_suppressed;
  }
  ArmTimer(request_id);
}

void RpcClient::ReceivePacket(Packet packet) {
  const auto frame = ParseUdpFrame(packet);
  if (!frame.has_value()) {
    ++stats_.errors;
    return;
  }
  // The client owns the frame, so its buffer becomes the payload.
  const size_t offset = frame->payload.data() - packet.bytes.data();
  auto msg = DecodeRpcMessageFrom(std::move(packet.bytes), offset, frame->payload.size());
  if (!msg.has_value() || msg->kind != MessageKind::kResponse) {
    ++stats_.errors;
    return;
  }
  auto it = pending_.find(msg->request_id);
  if (it == pending_.end()) {
    if (retired_.Contains(msg->request_id)) {
      // The original (or a duplicate) arriving after a retransmit already
      // completed the request — expected under retransmission, not an error.
      ++stats_.late_responses;
    } else {
      ++stats_.errors;  // stray: an id we never issued or long since forgot
    }
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  retired_.Insert(msg->request_id);
  if (pending.timer != kInvalidEventId) {
    sim_.Cancel(pending.timer);
  }
  const Duration rtt = sim_.Now() - pending.sent_at;
  ++stats_.completed;
  if (spans_ != nullptr) {
    spans_->Record(msg->request_id, SpanStage::kClientRx, sim_.Now());
  }
  if (msg->status == RpcStatus::kOverloaded) {
    // Explicit server push-back: its own bucket (not errors, not timeouts),
    // excluded from the admitted-RTT histogram, and a multiplicative cut of
    // the retry budget — congestion response to a congestion signal.
    ++stats_.overloaded;
    const bool granted_shed = config_.cc_enabled && pending.cc_sent_under_grant;
    if (config_.retry_budget_per_sec > 0.0) {
      RefillRetryTokens();
      if (granted_shed) {
        // Granted-but-shed (§15 audit): the receiver promised headroom and
        // shed anyway — a control-plane inconsistency, not sender greed.
        // Refund the retry tokens this request consumed and skip the
        // multiplicative cut so one NIC-side race does not double-penalize
        // the sender's budget.
        retry_tokens_ = std::min(
            retry_tokens_ + static_cast<double>(pending.tokens_spent),
            config_.retry_budget_burst);
      } else {
        retry_tokens_ *= config_.overload_token_cut;
      }
    }
    if (granted_shed) {
      ++stats_.cc_shed_refunds;
    }
    if (config_.overload_breaker_threshold > 0 &&
        ++overload_streak_ >=
            static_cast<uint32_t>(config_.overload_breaker_threshold)) {
      overload_streak_ = 0;
      breaker_until_ = sim_.Now() + config_.overload_breaker_window;
      ++stats_.breaker_openings;
    }
  } else {
    overload_streak_ = 0;
    rtt_.Record(rtt);
    if (msg->status != RpcStatus::kOk) {
      ++stats_.errors;
    }
  }
  if (config_.cc_enabled) {
    CcOnResponse(pending, *msg, frame->ip.ecn);
  }
  RpcMessage opened = std::move(*msg);
  if (config_.encrypt && !opened.payload.empty()) {
    auto plain = OpenPayload(DeriveKey(config_.root_key, pending.request.service_id),
                             opened.payload);
    if (!plain.has_value()) {
      ++stats_.errors;
      opened.status = RpcStatus::kInternal;
      opened.payload.clear();
    } else {
      opened.payload = std::move(*plain);
    }
  }
  if (pending.on_done) {
    pending.on_done(opened, rtt);
  }
}

}  // namespace lauberhorn

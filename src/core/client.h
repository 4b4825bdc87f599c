// RPC client: sits at the far end of the wire, issues LRPC requests, matches
// responses, and records round-trip times. Used by examples, tests, and the
// workload generators.
//
// Reliability (LRPC-over-UDP): an unanswered request is retransmitted with
// exponential backoff and jitter, metered by a global token-bucket retry
// budget so a lossy burst cannot turn into a synchronized retransmit storm.
// Completed (or expired) request ids are remembered in a bounded window so a
// late original response — the copy that raced a successful retransmit — is
// accounted as `late_responses`, not as a protocol error.
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/net/headers.h"
#include "src/net/link.h"
#include "src/proto/cipher.h"
#include "src/proto/id_window.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/metrics.h"
#include "src/stats/span.h"

namespace lauberhorn {

class RpcClient : public PacketSink {
 public:
  struct Config {
    uint32_t client_ip = MakeIpv4(10, 0, 0, 1);
    uint32_t server_ip = MakeIpv4(10, 0, 0, 2);
    // Seeds the request-id space at (client_index << 40) | 1 so every client
    // in a multi-machine testbed draws from a disjoint id range — span
    // stitching, server arrival maps, and dedup keys stay collision-free
    // cluster-wide. Nested-RPC ids set bit 63, so indices below 2^23 can
    // never collide with those either.
    uint32_t client_index = 0;
    uint16_t base_src_port = 40000;
    MacAddress client_mac = {0x02, 0, 0, 0, 0, 0x01};
    MacAddress server_mac = {0x02, 0, 0, 0, 0, 0x02};
    // LRPC-over-UDP reliability: retransmit an unanswered request after this
    // long (0 disables), up to max_retransmits times, then report kTimedOut.
    Duration retransmit_timeout = 0;
    int max_retransmits = 3;
    // Each successive timeout multiplies the interval (capped below), and the
    // armed deadline is jittered by +/- retransmit_jitter of itself so
    // concurrent requests do not retransmit in lockstep.
    double backoff_multiplier = 2.0;
    Duration max_retransmit_timeout = 0;  // 0 = uncapped
    double retransmit_jitter = 0.0;       // fraction in [0, 1)
    // Global retry budget (token bucket, shared across requests): a
    // retransmit consumes one token; with no token it is suppressed (the
    // timer still backs off, so the request can still expire). 0 = unmetered.
    double retry_budget_per_sec = 0.0;
    double retry_budget_burst = 16.0;
    uint64_t seed = 0x5eed;  // jitter stream
    // Transport encryption (§6): seal request payloads / open responses with
    // per-service keys derived from root_key.
    bool encrypt = false;
    uint64_t root_key = 0;
    // Overload reaction, distinct from the loss-driven backoff above: a
    // kOverloaded reply is explicit server push-back, so each one
    // multiplicatively cuts the retry-token balance, and
    // `overload_breaker_threshold` consecutive ones open a circuit breaker
    // that suppresses retransmits for `overload_breaker_window` (new calls
    // still go out; only retry copies are withheld). 0 disables the breaker.
    double overload_token_cut = 0.5;
    int overload_breaker_threshold = 0;
    Duration overload_breaker_window = Microseconds(500);
    // NIC-driven congestion control (DESIGN.md §15). When enabled, requests
    // go out ECT(0), a per-destination window bounds the number in flight
    // (surplus calls are deferred, not dropped), ECN echoes feed a
    // DCTCP-style multiplicative cut, and receiver-issued grants cap the
    // window directly while fresh. Disabled = the seed behavior.
    bool cc_enabled = false;
    double cc_initial_window = 8.0;
    double cc_min_window = 1.0;
    double cc_max_window = 256.0;
    double cc_gain = 0.0625;  // DCTCP g: alpha <- (1-g) alpha + g F per round
    // A grant is a promise about *current* queue headroom; it expires so a
    // stale credit cannot keep a window open against a congested receiver.
    Duration cc_grant_ttl = Microseconds(200);
  };

  struct Stats {
    uint64_t sent = 0;
    uint64_t completed = 0;
    uint64_t errors = 0;
    uint64_t retransmits = 0;
    uint64_t retransmits_suppressed = 0;
    uint64_t retransmits_suppressed_breaker = 0;  // of those, by the breaker
    uint64_t timeouts = 0;
    uint64_t late_responses = 0;
    uint64_t overloaded = 0;  // kOverloaded replies: neither errors nor timeouts
    uint64_t breaker_openings = 0;
    uint64_t cc_deferrals = 0;  // congestion control (cc_*)
    uint64_t cc_marks_seen = 0;
    uint64_t cc_grants_received = 0;
    uint64_t cc_shed_refunds = 0;
  };

  using ResponseFn = Function<void(const RpcMessage&, Duration rtt)>;

  RpcClient(Simulator& sim, LinkDirection& to_server);  // default config
  RpcClient(Simulator& sim, LinkDirection& to_server, Config config);

  // Issues one call. `on_done` (optional) fires when the response arrives.
  // Returns the request id.
  uint64_t Call(const ServiceDef& service, uint16_t method_id,
                std::span<const WireValue> args, ResponseFn on_done = nullptr);

  // Pre-marshalled variant (used by generators that reuse payloads).
  uint64_t CallRaw(uint16_t dst_port, uint32_t service_id, uint16_t method_id,
                   std::vector<uint8_t> payload, ResponseFn on_done = nullptr);

  // Explicit-destination variant for cluster dispatch (src/cluster): the
  // request goes to `dst_ip` instead of the configured server, and
  // retransmits stay pinned to that destination (the server-side dedup cache
  // is per machine, so a retry must not wander).
  uint64_t CallRawTo(uint32_t dst_ip, uint16_t dst_port, uint32_t service_id,
                     uint16_t method_id, std::vector<uint8_t> payload,
                     ResponseFn on_done = nullptr);

  void ReceivePacket(Packet packet) override;

  // RTT histogram of *admitted* requests (kOverloaded replies are excluded —
  // a shed is not a served RPC).
  const Histogram& rtt() const { return rtt_; }
  const Stats& stats() const { return stats_; }
  uint64_t completed() const { return stats_.completed; }
  size_t outstanding() const { return pending_.size(); }
  bool breaker_open() const { return sim_.Now() < breaker_until_; }
  double retry_tokens() const { return retry_tokens_; }

  // Per-request span tracing: the client closes each span (kClientRx).
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }
  // Optional cross-layer injector (src/fault): grant-loss and ECN-corruption
  // draws at the response-processing edge.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Congestion-control introspection (0 / empty until traffic to `dst_ip`).
  double cc_window(uint32_t dst_ip) const;
  size_t cc_outstanding(uint32_t dst_ip) const;
  size_t cc_deferred_count(uint32_t dst_ip) const;

 private:
  struct Pending {
    SimTime sent_at = 0;
    ResponseFn on_done;
    // For retransmission.
    uint32_t dst_ip = 0;
    uint16_t dst_port = 0;
    RpcMessage request;  // kind, ids and plaintext payload, sent as framed
    int attempts = 1;
    int tokens_spent = 0;  // retry tokens this request's retransmits consumed
    Duration rto = 0;  // current (backed-off) retransmit interval
    EventId timer = kInvalidEventId;
    // Congestion-control bookkeeping.
    bool cc_holds_slot = false;        // occupies a window slot (on the wire)
    bool cc_deferred = false;          // parked awaiting a window slot
    bool cc_sent_under_grant = false;  // send admitted by a fresh grant
  };

  // Per-destination congestion state (only populated when cc_enabled).
  struct CcState {
    double window = 1.0;
    double alpha = 0.0;        // DCTCP mark-fraction EWMA
    uint64_t round_acks = 0;   // responses in the current window round
    uint64_t round_marks = 0;  // of which carried a congestion mark
    uint64_t round_size = 1;   // responses per alpha/window update
    uint16_t grant = 0;        // latest receiver credit
    SimTime grant_expires = 0;
    size_t outstanding = 0;    // requests holding a window slot
    std::deque<uint64_t> deferred;  // request ids awaiting a slot
  };

  void SendFrame(const Pending& pending);
  void ArmTimer(uint64_t request_id);
  void OnTimeout(uint64_t request_id);
  // Token-bucket draw; true when this retransmit may hit the wire.
  bool SpendRetryToken();
  // Brings the retry-token balance up to date (refill-on-demand).
  void RefillRetryTokens();
  // -- Congestion control (all no-ops unless config_.cc_enabled) --
  CcState& CcFor(uint32_t dst_ip);
  // Window currently governing sends to this destination: the local DCTCP
  // window, capped by a fresh grant (floored at cc_min_window so a zero or
  // lost grant degrades to the retransmit ladder instead of deadlocking).
  size_t CcEffectiveWindow(const CcState& cc) const;
  void CcNoteSend(CcState& cc, Pending& pending);
  // Applies grant / ECN-echo feedback from a response and releases the slot.
  void CcOnResponse(const Pending& pending, const RpcMessage& msg,
                    uint8_t response_ecn);
  // Final retransmit expiry: loss-grade signal — halve the window.
  void CcOnExpired(const Pending& pending);
  void CcDrainDeferred(uint32_t dst_ip);

  Simulator& sim_;
  LinkDirection& to_server_;
  Config config_;
  SpanCollector* spans_ = nullptr;
  FaultInjector* faults_ = nullptr;
  Rng rng_;
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, Pending> pending_;
  // The last IdWindow::kCapacity completed or expired request ids,
  // remembered for late-response accounting; the oldest retired goes first.
  IdWindow retired_;
  double retry_tokens_ = 0.0;
  SimTime retry_refill_at_ = 0;
  Histogram rtt_;
  Stats stats_;
  uint32_t overload_streak_ = 0;
  SimTime breaker_until_ = 0;
  std::unordered_map<uint32_t, CcState> cc_;  // dst ip -> window state
};

// Exported as client/<name>.
inline constexpr StatsField<RpcClient::Stats> kClientStatsFields[] = {
    {"sent", &RpcClient::Stats::sent},
    {"completed", &RpcClient::Stats::completed},
    {"errors", &RpcClient::Stats::errors},
    {"retransmits", &RpcClient::Stats::retransmits},
    {"retransmits_suppressed", &RpcClient::Stats::retransmits_suppressed},
    {"retransmits_suppressed_breaker", &RpcClient::Stats::retransmits_suppressed_breaker},
    {"timeouts", &RpcClient::Stats::timeouts},
    {"late_responses", &RpcClient::Stats::late_responses},
    {"overloaded", &RpcClient::Stats::overloaded},
    {"breaker_openings", &RpcClient::Stats::breaker_openings},
    {"cc_deferrals", &RpcClient::Stats::cc_deferrals},
    {"cc_marks_seen", &RpcClient::Stats::cc_marks_seen},
    {"cc_grants_received", &RpcClient::Stats::cc_grants_received},
    {"cc_shed_refunds", &RpcClient::Stats::cc_shed_refunds},
};
static_assert(CoversStats(kClientStatsFields));

// Status delivered to on_done when every retransmit attempt expires. The
// RpcMessage carries this status and the request id; payload is empty.
inline constexpr RpcStatus kTimedOut = static_cast<RpcStatus>(0xfffe);

}  // namespace lauberhorn

#endif  // SRC_CORE_CLIENT_H_

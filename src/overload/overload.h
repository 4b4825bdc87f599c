// Overload-control primitives shared by all three stacks (§5.2): the NIC (or
// its stand-in) is the first element that sees every request, so it is the
// natural place to *reject* work the host cannot serve. This header provides
// the policy pieces — a token-bucket per-service quota, a CoDel-style
// sojourn-time admission gate, and a hysteresis governor for the NIC→OS core
// (re)allocation loop — while each stack supplies its own shed mechanism:
//
//   Lauberhorn  sheds in the NIC RX pipeline (zero host-CPU cost per shed),
//   Linux       sheds in the NAPI softirq before the socket queue (kernel CPU),
//   bypass      sheds in the poll loop on estimated ring occupancy (user CPU).
//
// All sheds answer with an explicit RpcStatus::kOverloaded reply so clients
// can distinguish push-back from loss, and all are counted by ShedReason.
#ifndef SRC_OVERLOAD_OVERLOAD_H_
#define SRC_OVERLOAD_OVERLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/sim/time.h"
#include "src/stats/metrics.h"

namespace lauberhorn {

// Why a request was shed. Values double as the `b` payload of
// TraceEvent::kDrop entries in the NIC trace ring (a = endpoint id).
enum class ShedReason : uint32_t {
  kNone = 0,
  kQueueFull = 1,  // bounded queue (endpoint/cold/socket/ring) at capacity
  kQuota = 2,      // per-service token-bucket quota exhausted
  kSojourn = 3,    // CoDel-style sojourn gate: standing delay above target
  kVfQuota = 4,    // per-VF (tenant) token-bucket quota exhausted
};

std::string ToString(ShedReason reason);

// Sheds by reason: the one counter set kept wherever sheds are attributed
// (the NIC as a whole, each VF, each endpoint, and the software stacks).
struct ShedCounts {
  uint64_t queue = 0;
  uint64_t quota = 0;
  uint64_t sojourn = 0;
  uint64_t vf_quota = 0;

  // Counts one shed; kNone counts nothing.
  void Count(ShedReason reason);
  uint64_t total() const { return queue + quota + sojourn + vf_quota; }
};

// Exported under "<...>sheds_" prefixes: overload/sheds_queue, and so on.
inline constexpr StatsField<ShedCounts> kShedCountsFields[] = {
    {"queue", &ShedCounts::queue},
    {"quota", &ShedCounts::quota},
    {"sojourn", &ShedCounts::sojourn},
    {"vf_quota", &ShedCounts::vf_quota},
};
static_assert(CoversStats(kShedCountsFields));

// Refill-on-demand token bucket. Unmetered (rate <= 0) buckets always admit,
// so a default-constructed bucket is a no-op and stacks can keep one per
// service unconditionally.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst);

  bool metered() const { return rate_per_sec_ > 0.0; }

  // Draws one token; true = admit. Always true when unmetered.
  bool TryTake(SimTime now);

  double available(SimTime now);

 private:
  void Refill(SimTime now);

  double rate_per_sec_ = 0.0;
  double burst_ = 1.0;
  double tokens_ = 0.0;
  SimTime refill_at_ = 0;
};

// CoDel-style control law adapted for RPC admission: shed when the queue-head
// sojourn time has stayed above `target` for a full `interval` (the CoDel
// entry condition, RFC 8289), then shed *every* arrival until the standing
// delay drains below target again. The drop-spacing ramp of router CoDel is
// deliberately absent: it relies on TCP reducing the offered load per drop,
// while open-loop RPC arrivals do not react per-shed — only shedding outright
// bounds the admitted sojourn near `target` under a flash crowd.
struct SojournConfig {
  Duration target = Microseconds(30);
  Duration interval = Microseconds(300);
};

class SojournGate {
 public:
  // `oldest_age` is the sojourn time of the current queue head (0 if empty).
  // Returns true when this arrival should be shed.
  bool ShouldShed(SimTime now, Duration oldest_age, const SojournConfig& config);

  bool dropping() const { return dropping_; }

 private:
  SimTime first_above_ = -1;  // -1: delay currently below target
  bool dropping_ = false;
};

// Admission policy threaded from MachineConfig into each stack's shed point.
// Disabled by default: the seed behavior (silent tail drop at the stack's own
// bound) is preserved unless a bench/test opts in.
struct AdmissionConfig {
  bool enabled = false;
  // Per-service token-bucket rate; 0 = no quota.
  double quota_rps = 0.0;
  double quota_burst = 64.0;
  SojournConfig sojourn;
  // Queue-depth bound enforced at the shed point (entries); 0 = the stack's
  // own default (endpoint_queue_depth / socket max_depth / ring size).
  size_t queue_depth_limit = 0;
};

// Hysteresis + cooldown for the NIC→OS scale-up/RETIRE feedback loop. Under
// surge the un-dampened policy thrashes: the dispatcher retires a loop to free
// a core, the cold-dispatch tail immediately re-starts it, and the core never
// does useful work. The governor enforces a minimum gap between scale actions
// per endpoint and requires several consecutive idle policy ticks before a
// scale-down. Defaults (cooldown 0, down_ticks 1) reproduce the un-dampened
// seed policy exactly.
class ScaleGovernor {
 public:
  struct Config {
    Duration cooldown = 0;
    int down_ticks = 1;
  };

  ScaleGovernor() = default;
  explicit ScaleGovernor(Config config) : config_(config) {}

  // False while `key` is inside the cooldown window of its last scale action.
  bool CanChange(uint32_t key, SimTime now) const;
  void NoteChange(uint32_t key, SimTime now);

  // Records one policy-tick observation for `key`. Returns true once
  // `down_ticks` consecutive below-threshold ticks have accumulated (and
  // resets the streak); a !below tick resets the streak.
  bool IdleTick(uint32_t key, bool below);

  void NoteSuppressed() { ++suppressed_; }
  uint64_t suppressed() const { return suppressed_; }

 private:
  Config config_;
  std::unordered_map<uint32_t, SimTime> last_change_;
  std::unordered_map<uint32_t, int> idle_streak_;
  uint64_t suppressed_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_OVERLOAD_OVERLOAD_H_

// RPC workload generators driving a Machine's client.
//
// OpenLoopGenerator models datacenter traffic: Poisson (or fixed-interval)
// arrivals at a target rate, each request picking a service by a Zipf
// popularity distribution — arrival times do not depend on completions, so
// overload shows up as queueing, as in production. ClosedLoopGenerator keeps
// a fixed number of outstanding requests (classic latency-vs-throughput
// sweeps). PhasedWorkload re-weights service popularity over time to model
// dynamic mixes (§4: "more dynamic application mixes").
#ifndef SRC_WORKLOAD_GENERATOR_H_
#define SRC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "src/core/client.h"
#include "src/proto/service.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"

namespace lauberhorn {

struct WorkloadTarget {
  const ServiceDef* service = nullptr;
  uint16_t method_id = 0;
  size_t payload_bytes = 64;
  double weight = 1.0;  // relative popularity
};

// -- Heavy-tailed service-time distributions (§18, nanoPU-style) ------------
//
// The dispatch-discipline experiments need service times whose *dispersion*
// is the independent variable: exponential (SCV = 1), a 99.5/0.5 bimodal
// split (most requests are cheap, a rare one is 100-1000x dearer), and a
// bounded Pareto (continuous heavy tail). MakeServiceTimeFn builds a
// MethodDef::service_time that is a PURE function of the request content —
// the first u64 scalar argument hashed with `seed` drives an inverse-CDF
// draw — so the same request costs the same nanoseconds no matter which
// policy, core, or retransmit executes it. That keeps policy comparisons
// apples-to-apples.

enum class ServiceTimeDist {
  kFixed,
  kExponential,
  kBimodal,
  kBoundedPareto,
};

const char* ToString(ServiceTimeDist dist);

struct ServiceTimeSpec {
  ServiceTimeDist dist = ServiceTimeDist::kFixed;
  Duration mean = Microseconds(1);  // kFixed / kExponential
  // kBimodal: heavy_fraction of requests take `bimodal_long`, the rest
  // `bimodal_short` (nanoPU's 99.5/0.5 split by default).
  double heavy_fraction = 0.005;
  Duration bimodal_short = Microseconds(1);
  Duration bimodal_long = Microseconds(100);
  // kBoundedPareto: shape alpha over the support [lo, hi].
  double pareto_alpha = 1.2;
  Duration pareto_lo = Nanoseconds(500);
  Duration pareto_hi = Microseconds(200);
  // Folded into the hash so distinct services draw decorrelated sequences
  // from identical request ids.
  uint64_t seed = 1;
};

// Deterministic per-request service time (see above). The returned function
// inspects args[0].scalar when present (the canonical u64 sequence-number
// convention used by the benches); requests without one fall back to a hash
// of the argument count, which keeps the function total.
std::function<Duration(const std::vector<WireValue>&)> MakeServiceTimeFn(
    const ServiceTimeSpec& spec);

// Analytic mean of the distribution, for offered-load calibration
// (capacity ≈ cores / mean).
Duration ServiceTimeMean(const ServiceTimeSpec& spec);

class OpenLoopGenerator {
 public:
  struct Config {
    double rate_rps = 100000.0;   // offered load
    bool poisson = true;          // exponential vs fixed inter-arrival
    double zipf_skew = 0.0;       // >0: Zipf over targets (overrides weights)
    uint64_t seed = 7;
    SimTime start = 0;
    SimTime stop = 0;  // 0 = run until Stop()
  };

  OpenLoopGenerator(Simulator& sim, RpcClient& client,
                    std::vector<WorkloadTarget> targets, Config config);

  void Start();
  void Stop() { running_ = false; }

  // Completed-request RTTs as seen by the client.
  const Histogram& rtt() const { return rtt_; }
  uint64_t sent() const { return sent_; }
  uint64_t completed() const { return completed_; }
  // Per-target completion counts.
  const std::vector<uint64_t>& per_target_completed() const {
    return per_target_completed_;
  }

  // Replaces target weights (for phase shifts); takes effect immediately.
  void SetWeights(const std::vector<double>& weights);

  // Changes the offered rate; the next inter-arrival gap uses the new rate
  // (for surge/recovery phase schedules).
  void SetRate(double rate_rps) { config_.rate_rps = rate_rps; }

  // Optional per-response hook, invoked for every completion alongside the
  // generator's own accounting (status-aware benches key phases off this).
  using ResponseHook = Function<void(const RpcMessage&, Duration rtt)>;
  ResponseHook on_response;

 private:
  void ScheduleNext();
  void Fire();
  size_t PickTarget();

  Simulator& sim_;
  RpcClient& client_;
  std::vector<WorkloadTarget> targets_;
  Config config_;
  Rng rng_;
  std::vector<double> cumulative_;  // prefix weights
  bool running_ = false;
  Histogram rtt_;
  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
  std::vector<uint64_t> per_target_completed_;
};

class ClosedLoopGenerator {
 public:
  struct Config {
    int concurrency = 1;           // outstanding requests
    Duration think_time = 0;       // delay between completion and next send
    uint64_t seed = 7;
    uint64_t max_requests = 0;     // 0 = unlimited
  };

  ClosedLoopGenerator(Simulator& sim, RpcClient& client,
                      std::vector<WorkloadTarget> targets, Config config);

  void Start();
  void Stop() { running_ = false; }

  const Histogram& rtt() const { return rtt_; }
  uint64_t sent() const { return sent_; }
  uint64_t completed() const { return completed_; }
  // Fires when max_requests completions have been observed.
  Callback on_finished;

 private:
  void FireOne();

  Simulator& sim_;
  RpcClient& client_;
  std::vector<WorkloadTarget> targets_;
  Config config_;
  Rng rng_;
  bool running_ = false;
  Histogram rtt_;
  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
};

// Drives phase shifts: every `interval`, rotates which subset of targets is
// "hot", concentrating `hot_fraction` of the load on `hot_count` services.
class PhasedWorkload {
 public:
  struct Config {
    Duration interval = Milliseconds(10);
    size_t hot_count = 2;
    double hot_fraction = 0.9;
    uint64_t seed = 21;
  };

  PhasedWorkload(Simulator& sim, OpenLoopGenerator& generator, size_t num_targets,
                 Config config);

  void Start();
  void Stop() { running_ = false; }
  uint64_t phase_shifts() const { return shifts_; }

 private:
  void Shift();

  Simulator& sim_;
  OpenLoopGenerator& generator_;
  size_t num_targets_;
  Config config_;
  Rng rng_;
  size_t phase_ = 0;
  bool running_ = false;
  uint64_t shifts_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_WORKLOAD_GENERATOR_H_

// Tests for the NIC dispatch-discipline subsystem (src/nic/dispatch_policy,
// §18): the deterministic heavy-tailed service-time generators, policy
// selection and parsing, end-to-end correctness of d-FCFS / c-FCFS / JBSQ(k)
// (everything completes, nothing executes twice), the JBSQ outstanding bound,
// credit return when a core retires mid-load, central-queue visibility through
// DispatchBacklog/ServiceBacklog, the per-service backlog register matching
// its queues at every tick, TryAgain not stranding central requests,
// at-most-once across NIC crashes under central disciplines, and bit-identical
// determinism across runs.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/cluster/directory.h"
#include "src/core/machine.h"
#include "src/nic/dispatch_policy/dispatch_policy.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"

namespace lauberhorn {
namespace {

// --- Policy kind parsing -----------------------------------------------------

TEST(DispatchPolicyKindTest, ToStringParseRoundTrip) {
  for (DispatchPolicyKind kind :
       {DispatchPolicyKind::kLegacy, DispatchPolicyKind::kDFcfs,
        DispatchPolicyKind::kCFcfs, DispatchPolicyKind::kJbsq}) {
    const auto parsed = ParseDispatchPolicyKind(ToString(kind));
    ASSERT_TRUE(parsed.has_value()) << ToString(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(ParseDispatchPolicyKind("dfcfs"), DispatchPolicyKind::kDFcfs);
  EXPECT_EQ(ParseDispatchPolicyKind("cfcfs"), DispatchPolicyKind::kCFcfs);
  EXPECT_FALSE(ParseDispatchPolicyKind("bogus").has_value());
}

TEST(DispatchPolicyStatsTest, EveryFieldExportsUnderItsPolicy) {
  DispatchPolicyStats stats;
  stats.hot_dispatches = 101;
  stats.local_queued = 102;
  stats.central_queued = 103;
  stats.central_pulled = 104;
  stats.jbsq_replenished = 105;
  stats.retargets = 106;
  stats.returned_on_retire = 107;
  stats.drained_cold = 108;
  MetricsRegistry metrics;
  ExportStats(metrics, "m0/dispatch/jbsq/", stats, kDispatchPolicyStatsFields);
  const std::map<std::string, uint64_t> expected = {
      {"m0/dispatch/jbsq/hot_dispatches", 101},
      {"m0/dispatch/jbsq/local_queued", 102},
      {"m0/dispatch/jbsq/central_queued", 103},
      {"m0/dispatch/jbsq/central_pulled", 104},
      {"m0/dispatch/jbsq/jbsq_replenished", 105},
      {"m0/dispatch/jbsq/retargets", 106},
      {"m0/dispatch/jbsq/returned_on_retire", 107},
      {"m0/dispatch/jbsq/drained_cold", 108},
  };
  EXPECT_EQ(metrics.counters(), expected);
}

// --- Service-time distributions ----------------------------------------------

std::vector<WireValue> SeqArgs(uint64_t seq) {
  return {WireValue::U64(seq)};
}

TEST(ServiceTimeDistTest, PureFunctionOfRequestContent) {
  // The same request must cost the same nanoseconds no matter which function
  // instance (policy, core, retransmit) evaluates it.
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kExponential;
  spec.mean = Microseconds(2);
  spec.seed = 42;
  const auto a = MakeServiceTimeFn(spec);
  const auto b = MakeServiceTimeFn(spec);
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    EXPECT_EQ(a(SeqArgs(seq)), b(SeqArgs(seq)));
  }
  // Distinct seeds decorrelate services fed identical sequence numbers.
  spec.seed = 43;
  const auto c = MakeServiceTimeFn(spec);
  int differing = 0;
  for (uint64_t seq = 0; seq < 100; ++seq) {
    differing += a(SeqArgs(seq)) != c(SeqArgs(seq));
  }
  EXPECT_GT(differing, 90);
}

TEST(ServiceTimeDistTest, ExponentialSampleMeanMatchesAnalytic) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kExponential;
  spec.mean = Microseconds(5);
  const auto fn = MakeServiceTimeFn(spec);
  double sum = 0.0;
  const int n = 50000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const Duration d = fn(SeqArgs(seq));
    ASSERT_GE(d, Nanoseconds(1));
    sum += static_cast<double>(d);
  }
  const double sample_mean = sum / n;
  const double analytic = static_cast<double>(ServiceTimeMean(spec));
  EXPECT_NEAR(sample_mean / analytic, 1.0, 0.05);
}

TEST(ServiceTimeDistTest, BimodalSplitHitsHeavyFraction) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kBimodal;
  spec.heavy_fraction = 0.005;
  spec.bimodal_short = Microseconds(1);
  spec.bimodal_long = Microseconds(100);
  const auto fn = MakeServiceTimeFn(spec);
  int heavy = 0;
  const int n = 100000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const Duration d = fn(SeqArgs(seq));
    ASSERT_TRUE(d == spec.bimodal_short || d == spec.bimodal_long);
    heavy += d == spec.bimodal_long;
  }
  const double observed = static_cast<double>(heavy) / n;
  EXPECT_NEAR(observed, spec.heavy_fraction, 0.002);
  // Analytic mean: (1-f)*short + f*long.
  EXPECT_NEAR(static_cast<double>(ServiceTimeMean(spec)),
              0.995 * static_cast<double>(spec.bimodal_short) +
                  0.005 * static_cast<double>(spec.bimodal_long),
              static_cast<double>(Nanoseconds(2)));
}

TEST(ServiceTimeDistTest, BoundedParetoStaysInSupport) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kBoundedPareto;
  spec.pareto_alpha = 1.2;
  spec.pareto_lo = Nanoseconds(500);
  spec.pareto_hi = Microseconds(200);
  const auto fn = MakeServiceTimeFn(spec);
  double sum = 0.0;
  Duration max_seen = 0;
  const int n = 100000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const Duration d = fn(SeqArgs(seq));
    ASSERT_GE(d, spec.pareto_lo);
    ASSERT_LE(d, spec.pareto_hi);
    max_seen = std::max(max_seen, d);
    sum += static_cast<double>(d);
  }
  // Heavy tail: the support's top decade is actually reached...
  EXPECT_GT(max_seen, Microseconds(100));
  // ...and the sample mean agrees with the analytic bounded-Pareto mean.
  EXPECT_NEAR(sum / n / static_cast<double>(ServiceTimeMean(spec)), 1.0, 0.10);
}

// --- End-to-end harness ------------------------------------------------------

// Counted service running a chosen dispatch discipline on a Lauberhorn
// machine; tracks per-sequence execution counts so tests can assert
// at-most-once alongside completion accounting.
class DispatchHarness {
 public:
  // With `vf` set, the service's endpoints live on a virtual function
  // carved with that config; otherwise on the physical function.
  DispatchHarness(MachineConfig config, DispatchPolicyConfig policy,
                  ServiceTimeSpec service_time, int max_cores = 3,
                  std::optional<LauberhornNic::VfConfig> vf = std::nullopt)
      : machine_(std::move(config)) {
    ServiceDef def;
    def.service_id = 1;
    def.name = "disp-counted";
    def.udp_port = 7000;
    def.dispatch = policy;
    MethodDef method;
    method.method_id = 0;
    method.name = "count";
    method.request_sig.args = {WireType::kU64};
    method.response_sig.args = {WireType::kU64};
    method.handler = [this](const std::vector<WireValue>& args) {
      ++execs_[args.at(0).scalar];
      return std::vector<WireValue>{args.at(0)};
    };
    method.service_time = MakeServiceTimeFn(service_time);
    def.methods[0] = std::move(method);
    const uint32_t vf_id =
        vf.has_value() ? machine_.CreateVf(std::move(*vf)) : 0;
    service_ = &machine_.AddService(std::move(def), max_cores, vf_id);
    machine_.Start();
    machine_.StartHotLoop(*service_);
    machine_.sim().RunUntil(Microseconds(100));
  }

  void Flood(int count, Duration gap, Duration drain = Milliseconds(5)) {
    auto fire = std::make_shared<Function<void()>>();
    int remaining = count;
    *fire = [this, fire, &remaining, gap]() {
      if (remaining-- <= 0) {
        return;
      }
      std::vector<WireValue> args = {WireValue::U64(next_seq_++)};
      machine_.client().Call(*service_, 0, args,
                             [this](const RpcMessage& response, Duration rtt) {
                               if (response.status == RpcStatus::kOk) {
                                 ++ok_;
                                 rtt_.Record(rtt);
                               }
                             });
      machine_.sim().Schedule(gap, [fire]() { (*fire)(); });
    };
    (*fire)();
    machine_.sim().RunUntil(machine_.sim().Now() + gap * count + drain);
  }

  uint64_t sent() const { return next_seq_; }
  uint64_t ok() const { return ok_; }
  const Histogram& rtt() const { return rtt_; }
  uint64_t DuplicateExecutions() const {
    uint64_t dups = 0;
    for (const auto& [seq, count] : execs_) {
      dups += count > 1;
    }
    return dups;
  }
  uint64_t TotalExecutions() const {
    uint64_t total = 0;
    for (const auto& [seq, count] : execs_) {
      total += count;
    }
    return total;
  }
  Machine& machine() { return machine_; }
  const ServiceDef& service() const { return *service_; }
  LauberhornNic& nic() { return *machine_.lauberhorn_nic(); }

 private:
  Machine machine_;
  const ServiceDef* service_ = nullptr;
  std::unordered_map<uint64_t, uint32_t> execs_;
  uint64_t next_seq_ = 0;
  uint64_t ok_ = 0;
  Histogram rtt_;
};

MachineConfig DispatchConfig() {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  return config;
}

DispatchPolicyConfig Policy(DispatchPolicyKind kind, uint32_t k = 2) {
  DispatchPolicyConfig policy;
  policy.kind = kind;
  policy.jbsq_k = k;
  return policy;
}

ServiceTimeSpec FixedSpec(Duration d) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kFixed;
  spec.mean = d;
  return spec;
}

class DispatchE2eTest : public ::testing::TestWithParam<DispatchPolicyKind> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, DispatchE2eTest,
                         ::testing::Values(DispatchPolicyKind::kDFcfs,
                                           DispatchPolicyKind::kCFcfs,
                                           DispatchPolicyKind::kJbsq),
                         [](const auto& info) {
                           return std::string(
                               info.param == DispatchPolicyKind::kDFcfs ? "dFcfs"
                               : info.param == DispatchPolicyKind::kCFcfs
                                   ? "cFcfs"
                                   : "Jbsq");
                         });

TEST_P(DispatchE2eTest, EveryRequestCompletesExactlyOnce) {
  DispatchHarness harness(DispatchConfig(), Policy(GetParam()),
                          FixedSpec(Microseconds(2)));
  harness.Flood(300, Microseconds(1));
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  EXPECT_EQ(harness.machine().client().stats().errors, 0u);
  // The policy actually ran: its counters (not legacy's) carry the traffic.
  bool found = false;
  for (const auto& [kind, stats] : harness.nic().PolicyStatsSnapshot()) {
    if (kind == GetParam()) {
      found = true;
      EXPECT_GT(stats.hot_dispatches + stats.local_queued +
                    stats.central_queued,
                0u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(harness.nic().ServicePolicy(1).kind, GetParam());
}

TEST(DispatchCentralTest, CentralQueuePopulatesAndDrains) {
  // c-FCFS at ~2x capacity: the central queue must hold standing backlog
  // mid-run, DispatchBacklog/ServiceBacklog must see it, and it must be
  // fully drained (everything completes) once arrivals stop.
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kCFcfs),
                          FixedSpec(Microseconds(6)));
  size_t max_central = 0;
  size_t max_service_backlog = 0;
  size_t max_ep_backlog = 0;
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  ASSERT_FALSE(endpoints.empty());
  auto probe = std::make_shared<Function<void()>>();
  *probe = [&, probe]() {
    max_central = std::max(max_central, harness.nic().CentralQueueDepth(1));
    max_service_backlog =
        std::max(max_service_backlog, harness.nic().ServiceBacklog(1));
    max_ep_backlog =
        std::max(max_ep_backlog, harness.nic().DispatchBacklog(endpoints[0]));
    harness.machine().sim().Schedule(Microseconds(5), [probe]() { (*probe)(); });
  };
  (*probe)();
  harness.Flood(200, Microseconds(1));

  EXPECT_GT(max_central, 0u);
  // Backlog views include the central queue (the governor/cluster signal).
  EXPECT_GE(max_service_backlog, max_central);
  EXPECT_GE(max_ep_backlog, 1u);
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.nic().CentralQueueDepth(1), 0u);
}

TEST(DispatchCentralTest, JbsqBoundsOutstandingPerCore) {
  // JBSQ(k=2): no endpoint's private queue may ever exceed k (one in the
  // handler + at most k-1 queued behind it, so pending <= k).
  const uint32_t k = 2;
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kJbsq, k),
                          FixedSpec(Microseconds(6)));
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  size_t max_pending = 0;
  auto probe = std::make_shared<Function<void()>>();
  *probe = [&, probe]() {
    for (uint32_t ep : endpoints) {
      max_pending = std::max(max_pending, harness.nic().QueueDepth(ep));
    }
    harness.machine().sim().Schedule(Microseconds(2), [probe]() { (*probe)(); });
  };
  (*probe)();
  harness.Flood(200, Microseconds(1));
  EXPECT_LE(max_pending, static_cast<size_t>(k));
  EXPECT_EQ(harness.ok(), harness.sent());
}

TEST(DispatchCentralTest, RetiredCoreReturnsJbsqCreditsToCentralQueue) {
  // A core retired mid-load while holding JBSQ credits must hand its queued
  // requests back to the central queue — not strand them — and the surviving
  // cores must finish every one of them.
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kJbsq, /*k=*/4),
                          FixedSpec(Microseconds(8)));
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  ASSERT_GE(endpoints.size(), 2u);
  harness.machine().sim().Schedule(Microseconds(150), [&]() {
    harness.nic().RequestRetire(endpoints[0]);
  });
  harness.Flood(200, Microseconds(1), /*drain=*/Milliseconds(10));

  uint64_t returned = 0;
  for (const auto& [kind, stats] : harness.nic().PolicyStatsSnapshot()) {
    if (kind == DispatchPolicyKind::kJbsq) {
      returned = stats.returned_on_retire;
    }
  }
  EXPECT_GT(returned, 0u);
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

TEST(DispatchCentralTest, TryAgainDoesNotStrandCentralRequests) {
  // A lone request arriving while every core is parked on an armed TryAgain
  // deadline must still be delivered hot (the central hot path retargets to
  // a parked member); and a request arriving during the TryAgain *gap* must
  // be picked up by the next CONTROL poll, never stranded in the central
  // queue. Sparse arrivals exercise both races.
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kCFcfs),
                          FixedSpec(Microseconds(1)));
  harness.Flood(50, Microseconds(40), /*drain=*/Milliseconds(5));
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.nic().CentralQueueDepth(1), 0u);
  uint64_t hot = 0;
  for (const auto& [kind, stats] : harness.nic().PolicyStatsSnapshot()) {
    if (kind == DispatchPolicyKind::kCFcfs) {
      hot = stats.hot_dispatches;
    }
  }
  EXPECT_GT(hot, 0u);
}

TEST(DispatchChaosTest, AtMostOnceAcrossNicCrashesUnderCentralPolicies) {
  // NIC crash wipes the central queue along with every other volatile
  // structure; the control state survives and retransmits re-run admission
  // fresh. No sequence number may execute twice.
  for (DispatchPolicyKind kind :
       {DispatchPolicyKind::kCFcfs, DispatchPolicyKind::kJbsq}) {
    MachineConfig config = DispatchConfig();
    config.faults.nic_crash.first_crash_at = Microseconds(300);
    config.faults.nic_crash.crash_period = Milliseconds(1);
    config.faults.nic_crash.reset_latency = Microseconds(50);
    config.client_retransmit_timeout = Microseconds(200);
    config.client_max_retransmits = 8;
    config.client_backoff_multiplier = 2.0;
    config.client_max_retransmit_timeout = Milliseconds(2);
    config.server_dedup = true;
    DispatchHarness harness(std::move(config), Policy(kind),
                            FixedSpec(Microseconds(3)));
    harness.Flood(200, Microseconds(10), /*drain=*/Milliseconds(15));

    EXPECT_EQ(harness.DuplicateExecutions(), 0u) << ToString(kind);
    EXPECT_GT(harness.machine().lauberhorn_nic()->stats().nic_resets, 0u);
    EXPECT_GT(harness.machine().client().stats().retransmits, 0u);
    EXPECT_GT(harness.ok(), 0u);
    EXPECT_EQ(harness.ok() + harness.machine().client().stats().timeouts,
              harness.sent())
        << ToString(kind);
  }
}

// --- Backlog register (§13) ----------------------------------------------------

// gtest lists an unprintable parameter as a dump of its bytes, and ctest
// takes that listing into the test's name. The name is stored inline and the
// fields leave no padding, so those bytes hold no address and the name stays
// the same from one build to the next.
struct BacklogCell {
  DispatchPolicyKind kind;
  bool nic_crash;
  char name[14];
};
static_assert(sizeof(BacklogCell) == 16);

class BacklogRegisterTest : public ::testing::TestWithParam<BacklogCell> {};

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, BacklogRegisterTest,
    ::testing::Values(BacklogCell{DispatchPolicyKind::kLegacy, false, "Legacy"},
                      BacklogCell{DispatchPolicyKind::kDFcfs, false, "dFcfs"},
                      BacklogCell{DispatchPolicyKind::kCFcfs, false, "cFcfs"},
                      BacklogCell{DispatchPolicyKind::kJbsq, false, "Jbsq"},
                      BacklogCell{DispatchPolicyKind::kJbsq, true, "JbsqNicCrash"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(BacklogRegisterTest, EqualsQueueSumAtEveryTick) {
  // The NIC keeps ServiceBacklog as an incremental register; here the sum it
  // stands for is recomputed from the public per-queue accessors every 1 us.
  // Overload builds standing queues; wedged CONTROL lines degrade endpoints
  // (their backlog drains cold); a mid-load retire returns a private queue
  // to the central queue (or restarts it cold); retiring every core leaves
  // no usable member, so the central queue drains to the cold path.
  MachineConfig config = DispatchConfig();
  config.faults.nic.wedge_probability = 0.05;
  config.faults.nic.wedge_duration = Microseconds(100);
  LauberhornParams params = config.platform.lauberhorn;
  params.tryagain_timeout = Microseconds(20);
  params.degrade_tryagain_threshold = 2;
  params.degrade_backoff = Microseconds(100);
  config.lauberhorn_params = params;
  if (GetParam().nic_crash) {
    config.faults.nic_crash.first_crash_at = Microseconds(400);
    config.faults.nic_crash.crash_period = Milliseconds(1);
    config.faults.nic_crash.reset_latency = Microseconds(50);
    config.client_retransmit_timeout = Microseconds(200);
    config.client_max_retransmits = 8;
    config.server_dedup = true;
  }
  DispatchHarness harness(std::move(config), Policy(GetParam().kind),
                          FixedSpec(Microseconds(6)));
  LauberhornNic& nic = harness.nic();
  Simulator& sim = harness.machine().sim();
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  ASSERT_EQ(endpoints.size(), 3u);
  const std::function<size_t()> probe =
      MakeLauberhornDepthProbe(harness.machine(), harness.service());

  uint64_t ticks = 0;
  uint64_t mismatches = 0;
  size_t max_backlog = 0;
  auto tick = std::make_shared<Function<void()>>();
  *tick = [&, tick]() {
    size_t sum = nic.CentralQueueDepth(1);
    for (uint32_t ep : endpoints) {
      sum += nic.QueueDepth(ep);
    }
    const size_t backlog = nic.ServiceBacklog(1);
    if (backlog != sum || probe() != nic.ColdQueueDepth() + sum) {
      ADD_FAILURE() << "register " << backlog << " != queue sum " << sum
                    << " at " << sim.Now();
      ++mismatches;
    }
    max_backlog = std::max(max_backlog, backlog);
    ++ticks;
    sim.Schedule(Microseconds(1), [tick]() { (*tick)(); });
  };
  (*tick)();
  sim.Schedule(Microseconds(200), [&]() { nic.RequestRetire(endpoints[0]); });
  sim.Schedule(Microseconds(700), [&]() {
    for (uint32_t ep : endpoints) {
      nic.RequestRetire(ep);
    }
  });
  harness.Flood(800, Microseconds(1));

  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(ticks, 5000u);
  EXPECT_GT(max_backlog, 0u);
  const LauberhornNic::Stats& stats = nic.stats();
  EXPECT_GT(stats.retires, 0u);
  EXPECT_GT(stats.degradations, 0u);
  if (GetParam().nic_crash) {
    EXPECT_GT(stats.nic_resets, 0u);
  }
  DispatchPolicyStats policy;
  for (const auto& [kind, s] : nic.PolicyStatsSnapshot()) {
    if (kind == GetParam().kind) {
      policy = s;
    }
  }
  if (GetParam().kind == DispatchPolicyKind::kCFcfs ||
      GetParam().kind == DispatchPolicyKind::kJbsq) {
    EXPECT_GT(policy.drained_cold, 0u);
  }
  if (GetParam().kind == DispatchPolicyKind::kJbsq) {
    EXPECT_GT(policy.returned_on_retire, 0u);
  }
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

TEST(DispatchDeterminismTest, IdenticalRunsProduceIdenticalResults) {
  // Every group scan breaks ties by smallest endpoint id, so two identical
  // runs (including per-core dispatch placement) must agree bit-for-bit.
  auto run = [](DispatchPolicyKind kind) {
    DispatchHarness harness(DispatchConfig(), Policy(kind),
                            FixedSpec(Microseconds(4)));
    harness.Flood(200, Microseconds(1));
    std::vector<uint64_t> per_core;
    for (const auto& [core, occ] : harness.nic().CoreOccupancySnapshot()) {
      per_core.push_back(occ.dispatches);
      per_core.push_back(static_cast<uint64_t>(occ.busy_time));
    }
    return std::tuple(harness.ok(), harness.TotalExecutions(), per_core,
                      harness.nic().stats().hot_dispatches,
                      harness.nic().stats().queued_dispatches);
  };
  for (DispatchPolicyKind kind :
       {DispatchPolicyKind::kDFcfs, DispatchPolicyKind::kCFcfs,
        DispatchPolicyKind::kJbsq}) {
    EXPECT_EQ(run(kind), run(kind)) << ToString(kind);
  }
}

TEST(DispatchMetricsTest, PerCoreOccupancyTracksDeliveries) {
  DispatchHarness harness(DispatchConfig(), Policy(DispatchPolicyKind::kJbsq),
                          FixedSpec(Microseconds(2)));
  harness.Flood(200, Microseconds(1));
  const auto cores = harness.nic().CoreOccupancySnapshot();
  ASSERT_FALSE(cores.empty());
  uint64_t total_dispatches = 0;
  Duration total_busy = 0;
  for (const auto& [core, occ] : cores) {
    total_dispatches += occ.dispatches;
    total_busy += occ.busy_time;
  }
  // Every completed request was delivered to some core and burned handler
  // time there.
  EXPECT_GE(total_dispatches, harness.ok());
  EXPECT_GE(total_busy,
            static_cast<Duration>(harness.ok()) * Microseconds(2));

  // And the metrics export surfaces them under nic/core<i>/.
  MetricsRegistry metrics;
  harness.machine().ExportMetrics(metrics, "m0/");
  bool any_core_metric = false;
  for (const auto& [name, value] : metrics.counters()) {
    if (name.find("m0/nic/core") != std::string::npos &&
        name.find("/dispatches") != std::string::npos) {
      any_core_metric = true;
    }
  }
  EXPECT_TRUE(any_core_metric);
}

// --- Dispatch outcomes, pinned exactly ---------------------------------------

// One overloaded cell per dispatch path: the device-wide admission gate
// (service quota, sojourn gate, depth limit) is on everywhere, the VF cell
// adds the tenant's own gate, and one endpoint retires mid-run. The wedge
// cells stall CONTROL fills until endpoints degrade to the kernel path.
struct OutcomeCell {
  DispatchPolicyKind kind;
  bool on_vf;
  bool wedge;
  const char* name;
};

void PrintTo(const OutcomeCell& cell, std::ostream* os) { *os << cell.name; }

using Outcome = std::map<std::string, uint64_t>;

// Nonzero values only: the count of each NIC trace event kind ("trace/..."),
// of each span dispatch annotation ("span/..."), and every nic/*,
// overload/sheds_* and dispatch/* counter the machine exports.
Outcome RunOutcomeCell(const OutcomeCell& cell) {
  MachineConfig config = DispatchConfig();
  config.enable_spans = true;
  config.admission.enabled = true;
  config.admission.quota_rps = 700'000;
  config.admission.quota_burst = 32;
  config.admission.sojourn.target = Microseconds(10);
  config.admission.sojourn.interval = Microseconds(40);
  config.admission.queue_depth_limit = 8;
  if (cell.wedge) {
    config.faults.nic.wedge_probability = 0.05;
    config.faults.nic.wedge_duration = Microseconds(100);
    LauberhornParams params = config.platform.lauberhorn;
    params.tryagain_timeout = Microseconds(20);
    params.degrade_tryagain_threshold = 2;
    params.degrade_backoff = Microseconds(100);
    config.lauberhorn_params = params;
  }
  std::optional<LauberhornNic::VfConfig> vf;
  if (cell.on_vf) {
    vf.emplace();
    vf->name = "tenant";
    vf->admission.enabled = true;
    vf->admission.quota_rps = 600'000;
    vf->admission.quota_burst = 16;
    vf->admission.sojourn.target = Microseconds(8);
    vf->admission.sojourn.interval = Microseconds(30);
    vf->admission.queue_depth_limit = 6;
  }
  ServiceTimeSpec service_time;
  service_time.dist = ServiceTimeDist::kExponential;
  service_time.mean = Microseconds(5);
  DispatchHarness harness(std::move(config), Policy(cell.kind),
                          service_time, /*max_cores=*/3, std::move(vf));
  LauberhornNic& nic = harness.nic();
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  harness.machine().sim().Schedule(Microseconds(150), [&]() {
    nic.RequestRetire(endpoints[0]);
  });
  harness.Flood(400, Microseconds(1), /*drain=*/Milliseconds(2));
  EXPECT_EQ(nic.trace().dropped(), 0u) << "trace ring too small for the run";
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);

  Outcome observed;
  for (const TraceRing::Entry& entry : nic.trace().Snapshot()) {
    ++observed["trace/" + ToString(entry.event)];
  }
  const SpanCollector& spans = *harness.machine().spans();
  for (const RequestSpan& span : spans.completed()) {
    ++observed["span/" + ToString(span.dispatch)];
  }
  observed["span/open"] = spans.open_count();
  MetricsRegistry metrics;
  harness.machine().ExportMetrics(metrics, "");
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("nic/", 0) == 0 || name.rfind("overload/sheds_", 0) == 0 ||
        name.rfind("dispatch/", 0) == 0) {
      observed[name] = value;
    }
  }
  std::erase_if(observed, [](const auto& item) { return item.second == 0; });
  return observed;
}

const std::map<std::string, Outcome>& ExpectedOutcomes() {
  static const auto* expected = new std::map<std::string, Outcome>{
      {"LegacyPf",
       {{"dispatch/legacy/hot_dispatches", 4},
        {"dispatch/legacy/local_queued", 177}, {"nic/cold_dispatches", 21},
        {"nic/cold_queued", 21}, {"nic/core0/busy_ns", 150378},
        {"nic/core0/dispatches", 23}, {"nic/core1/busy_ns", 419996},
        {"nic/core1/dispatches", 60}, {"nic/core2/busy_ns", 399809},
        {"nic/core2/dispatches", 52}, {"nic/core3/busy_ns", 269068},
        {"nic/core3/dispatches", 43}, {"nic/dedup_admitted", 400},
        {"nic/dispatcher_wakeups", 21}, {"nic/hot_dispatches", 178},
        {"nic/overflow_dispatches", 17}, {"nic/queued_dispatches", 177},
        {"nic/responses_sent", 400}, {"nic/retires", 2},
        {"overload/sheds_queue", 7}, {"overload/sheds_quota", 80},
        {"overload/sheds_sojourn", 114}, {"span/cold", 18}, {"span/hot", 4},
        {"span/queued", 177}, {"span/unknown", 201},
        {"trace/dispatch-cold", 21}, {"trace/dispatch-hot", 4},
        {"trace/dispatch-queued", 177}, {"trace/drop", 201},
        {"trace/loop-enter", 5}, {"trace/loop-exit", 2}, {"trace/retire", 2},
        {"trace/wire-rx", 400}, {"trace/wire-tx", 400}}},
      {"LegacyVf",
       {{"dispatch/legacy/hot_dispatches", 13},
        {"dispatch/legacy/local_queued", 190}, {"nic/cold_dispatches", 9},
        {"nic/cold_queued", 9}, {"nic/core0/busy_ns", 154331},
        {"nic/core0/dispatches", 20}, {"nic/core1/busy_ns", 398277},
        {"nic/core1/dispatches", 72}, {"nic/core2/busy_ns", 414041},
        {"nic/core2/dispatches", 65}, {"nic/core3/busy_ns", 276242},
        {"nic/core3/dispatches", 43}, {"nic/dedup_admitted", 400},
        {"nic/dispatcher_wakeups", 9}, {"nic/hot_dispatches", 200},
        {"nic/overflow_dispatches", 5}, {"nic/queued_dispatches", 190},
        {"nic/responses_sent", 400}, {"nic/retires", 2},
        {"nic/vf1/endpoints", 3}, {"nic/vf1/responses", 400},
        {"nic/vf1/rss_fallbacks", 97}, {"nic/vf1/rss_steered", 303},
        {"nic/vf1/rx_requests", 400}, {"nic/vf1/sheds_sojourn", 46},
        {"nic/vf1/sheds_vf_quota", 145}, {"overload/sheds_sojourn", 46},
        {"overload/sheds_vf_quota", 145}, {"span/cold", 6}, {"span/hot", 13},
        {"span/queued", 190}, {"span/unknown", 191}, {"trace/dispatch-cold", 9},
        {"trace/dispatch-hot", 13}, {"trace/dispatch-queued", 190},
        {"trace/drop", 191}, {"trace/loop-enter", 5}, {"trace/loop-exit", 2},
        {"trace/retire", 2}, {"trace/wire-rx", 400}, {"trace/wire-tx", 400}}},
      {"dFcfs",
       {{"dispatch/d-fcfs/hot_dispatches", 7},
        {"dispatch/d-fcfs/local_queued", 182}, {"nic/cold_dispatches", 4},
        {"nic/cold_queued", 4}, {"nic/core0/busy_ns", 150366},
        {"nic/core0/dispatches", 17}, {"nic/core1/busy_ns", 425147},
        {"nic/core1/dispatches", 71}, {"nic/core2/busy_ns", 402064},
        {"nic/core2/dispatches", 61}, {"nic/core3/busy_ns", 279148},
        {"nic/core3/dispatches", 37}, {"nic/dedup_admitted", 400}, {"nic/dispatcher_wakeups", 4},
        {"nic/hot_dispatches", 186}, {"nic/queued_dispatches", 182},
        {"nic/responses_sent", 400}, {"nic/retires", 2},
        {"overload/sheds_queue", 71}, {"overload/sheds_quota", 12},
        {"overload/sheds_sojourn", 127}, {"span/cold", 1}, {"span/hot", 7},
        {"span/queued", 182}, {"span/unknown", 210},
        {"trace/dispatch-cold", 4}, {"trace/dispatch-hot", 7},
        {"trace/dispatch-queued", 182}, {"trace/drop", 210},
        {"trace/loop-enter", 5}, {"trace/loop-exit", 2}, {"trace/retire", 2},
        {"trace/wire-rx", 400}, {"trace/wire-tx", 400}}},
      {"cFcfs",
       {{"dispatch/c-fcfs/central_pulled", 151},
        {"dispatch/c-fcfs/central_queued", 151},
        {"dispatch/c-fcfs/hot_dispatches", 5},
        {"dispatch/c-fcfs/retargets", 105}, {"nic/core0/busy_ns", 366027},
        {"nic/core0/dispatches", 47}, {"nic/core1/busy_ns", 407653},
        {"nic/core1/dispatches", 66}, {"nic/core2/busy_ns", 317226},
        {"nic/core2/dispatches", 43}, {"nic/dedup_admitted", 400}, {"nic/hot_dispatches", 156},
        {"nic/queued_dispatches", 151}, {"nic/responses_sent", 400},
        {"nic/retires", 2}, {"overload/sheds_queue", 14},
        {"overload/sheds_quota", 72}, {"overload/sheds_sojourn", 158},
        {"span/hot", 5}, {"span/queued", 151}, {"span/unknown", 244},
        {"trace/dispatch-hot", 5}, {"trace/dispatch-queued", 151},
        {"trace/drop", 244}, {"trace/loop-enter", 5}, {"trace/loop-exit", 2},
        {"trace/retire", 2}, {"trace/wire-rx", 400}, {"trace/wire-tx", 400}}},
      {"Jbsq2",
       {{"dispatch/jbsq/central_queued", 156},
        {"dispatch/jbsq/hot_dispatches", 3},
        {"dispatch/jbsq/jbsq_replenished", 157},
        {"dispatch/jbsq/local_queued", 6}, {"dispatch/jbsq/retargets", 106},
        {"dispatch/jbsq/returned_on_retire", 1},
        {"nic/core0/busy_ns", 387683}, {"nic/core0/dispatches", 64},
        {"nic/core1/busy_ns", 434268}, {"nic/core1/dispatches", 57},
        {"nic/core2/busy_ns", 337571}, {"nic/core2/dispatches", 44},
        {"nic/dedup_admitted", 400}, {"nic/hot_dispatches", 165}, {"nic/queued_dispatches", 162},
        {"nic/responses_sent", 400}, {"nic/retires", 2},
        {"overload/sheds_queue", 21}, {"overload/sheds_quota", 67},
        {"overload/sheds_sojourn", 147}, {"span/hot", 3},
        {"span/queued", 162}, {"span/unknown", 235},
        {"trace/dispatch-hot", 3}, {"trace/dispatch-queued", 162},
        {"trace/drop", 235}, {"trace/loop-enter", 5}, {"trace/loop-exit", 2},
        {"trace/retire", 2}, {"trace/wire-rx", 400}, {"trace/wire-tx", 400}}},
      {"LegacyWedge",
       {{"dispatch/legacy/hot_dispatches", 5},
        {"dispatch/legacy/local_queued", 72}, {"nic/cold_dispatches", 30},
        {"nic/cold_queued", 30}, {"nic/core0/busy_ns", 23739},
        {"nic/core0/dispatches", 5}, {"nic/core1/busy_ns", 151984},
        {"nic/core1/dispatches", 23}, {"nic/core2/busy_ns", 163818},
        {"nic/core2/dispatches", 19}, {"nic/dedup_admitted", 400},
        {"nic/degradations", 4}, {"nic/degraded_dispatches", 132},
        {"nic/dispatcher_wakeups", 30}, {"nic/hot_dispatches", 47},
        {"nic/overflow_dispatches", 4}, {"nic/queued_dispatches", 72},
        {"nic/responses_sent", 400}, {"nic/retires", 8}, {"nic/tryagains", 219},
        {"nic/wedged_polls", 48}, {"overload/sheds_queue", 132},
        {"overload/sheds_quota", 39}, {"overload/sheds_sojourn", 152},
        {"span/cold", 45}, {"span/hot", 5}, {"span/queued", 72},
        {"span/unknown", 278}, {"trace/degrade", 4},
        {"trace/dispatch-cold", 30}, {"trace/dispatch-hot", 5},
        {"trace/dispatch-queued", 72}, {"trace/drop", 323},
        {"trace/loop-enter", 13}, {"trace/loop-exit", 11}, {"trace/retire", 8},
        {"trace/tryagain", 219}, {"trace/wire-rx", 400},
        {"trace/wire-tx", 400}}},
      {"Jbsq2Wedge",
       {{"dispatch/jbsq/central_queued", 74},
        {"dispatch/jbsq/drained_cold", 8},
        {"dispatch/jbsq/hot_dispatches", 3},
        {"dispatch/jbsq/jbsq_replenished", 73},
        {"dispatch/jbsq/local_queued", 5}, {"dispatch/jbsq/retargets", 55},
        {"dispatch/jbsq/returned_on_retire", 7}, {"nic/cold_dispatches", 19},
        {"nic/cold_queued", 19}, {"nic/core0/busy_ns", 129688},
        {"nic/core0/dispatches", 28}, {"nic/core1/busy_ns", 215394},
        {"nic/core1/dispatches", 33}, {"nic/core2/busy_ns", 99027},
        {"nic/core2/dispatches", 13}, {"nic/dedup_admitted", 400}, {"nic/degradations", 9},
        {"nic/dispatcher_wakeups", 19}, {"nic/hot_dispatches", 74},
        {"nic/queued_dispatches", 79}, {"nic/responses_sent", 400},
        {"nic/retires", 7}, {"nic/tryagains", 323}, {"nic/wedged_polls", 77},
        {"overload/sheds_queue", 58}, {"overload/sheds_quota", 54},
        {"overload/sheds_sojourn", 195}, {"span/cold", 28}, {"span/hot", 3},
        {"span/queued", 79}, {"span/unknown", 290}, {"trace/degrade", 9},
        {"trace/dispatch-cold", 19}, {"trace/dispatch-hot", 3},
        {"trace/dispatch-queued", 79}, {"trace/drop", 307},
        {"trace/loop-enter", 11}, {"trace/loop-exit", 8},
        {"trace/retire", 7}, {"trace/tryagain", 323}, {"trace/wire-rx", 400},
        {"trace/wire-tx", 400}}},
  };
  return *expected;
}

class DispatchOutcomeTest : public ::testing::TestWithParam<OutcomeCell> {};

INSTANTIATE_TEST_SUITE_P(
    Cells, DispatchOutcomeTest,
    ::testing::Values(
        OutcomeCell{DispatchPolicyKind::kLegacy, false, false, "LegacyPf"},
        OutcomeCell{DispatchPolicyKind::kLegacy, true, false, "LegacyVf"},
        OutcomeCell{DispatchPolicyKind::kDFcfs, false, false, "dFcfs"},
        OutcomeCell{DispatchPolicyKind::kCFcfs, false, false, "cFcfs"},
        OutcomeCell{DispatchPolicyKind::kJbsq, false, false, "Jbsq2"},
        OutcomeCell{DispatchPolicyKind::kLegacy, false, true, "LegacyWedge"},
        OutcomeCell{DispatchPolicyKind::kJbsq, false, true, "Jbsq2Wedge"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(DispatchOutcomeTest, MatchesPinnedCounts) {
  const Outcome observed = RunOutcomeCell(GetParam());
  const auto cell = ExpectedOutcomes().find(GetParam().name);
  ASSERT_NE(cell, ExpectedOutcomes().end());
  const Outcome& expected = cell->second;
  for (const auto& [name, value] : expected) {
    const auto it = observed.find(name);
    EXPECT_EQ(it == observed.end() ? 0 : it->second, value) << name;
  }
  for (const auto& [name, value] : observed) {
    EXPECT_TRUE(expected.count(name) != 0) << name << " = " << value;
  }
  // Per-endpoint disciplines, legacy included, count every traced hot and
  // queued dispatch in the service's group.
  if (GetParam().kind == DispatchPolicyKind::kLegacy ||
      GetParam().kind == DispatchPolicyKind::kDFcfs) {
    const std::string base =
        std::string("dispatch/") + ToString(GetParam().kind) + "/";
    EXPECT_EQ(expected.at(base + "hot_dispatches"),
              expected.at("trace/dispatch-hot"));
    EXPECT_EQ(expected.at(base + "local_queued"),
              expected.at("trace/dispatch-queued"));
  }
}

}  // namespace
}  // namespace lauberhorn

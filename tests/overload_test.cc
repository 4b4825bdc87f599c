// Tests for the overload-control subsystem (src/overload) and its shed points
// in all three stacks: token-bucket quotas, the CoDel-style sojourn gate, the
// scale-loop hysteresis governor, NIC-side shedding with kOverloaded replies
// and kDrop trace records, the client's overload accounting (own stat bucket,
// retry-token cut, circuit breaker), and composition with fault injection
// (at-most-once execution must hold while the server is actively shedding).
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/machine.h"
#include "src/fault/fault.h"
#include "src/overload/overload.h"
#include "src/sim/simulator.h"
#include "src/stats/trace.h"

namespace lauberhorn {
namespace {

// --- TokenBucket -------------------------------------------------------------

TEST(ShedCountsTest, CountsEachReasonInItsOwnField) {
  ShedCounts sheds;
  sheds.Count(ShedReason::kNone);
  EXPECT_EQ(sheds.total(), 0u);
  sheds.Count(ShedReason::kQueueFull);
  sheds.Count(ShedReason::kQuota);
  sheds.Count(ShedReason::kQuota);
  sheds.Count(ShedReason::kSojourn);
  sheds.Count(ShedReason::kSojourn);
  sheds.Count(ShedReason::kSojourn);
  sheds.Count(ShedReason::kVfQuota);
  sheds.Count(ShedReason::kVfQuota);
  sheds.Count(ShedReason::kVfQuota);
  sheds.Count(ShedReason::kVfQuota);
  EXPECT_EQ(sheds.queue, 1u);
  EXPECT_EQ(sheds.quota, 2u);
  EXPECT_EQ(sheds.sojourn, 3u);
  EXPECT_EQ(sheds.vf_quota, 4u);
  EXPECT_EQ(sheds.total(), 10u);
}

TEST(TokenBucketTest, UnmeteredAlwaysAdmits) {
  TokenBucket bucket;  // default: rate 0 = unmetered
  EXPECT_FALSE(bucket.metered());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.TryTake(Microseconds(i)));
  }
}

TEST(TokenBucketTest, MeteredDrainsAndRefills) {
  // 1M tokens/s, burst 4: the burst drains immediately, then one token
  // becomes available every microsecond.
  TokenBucket bucket(1e6, 4.0);
  EXPECT_TRUE(bucket.metered());
  const SimTime t0 = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.TryTake(t0)) << i;
  }
  EXPECT_FALSE(bucket.TryTake(t0));
  EXPECT_FALSE(bucket.TryTake(t0 + Nanoseconds(500)));
  EXPECT_TRUE(bucket.TryTake(t0 + Microseconds(1)));   // refilled one
  EXPECT_FALSE(bucket.TryTake(t0 + Microseconds(1)));  // and only one
  // Refill caps at the burst, not the elapsed time.
  EXPECT_GE(bucket.available(t0 + Seconds(1)), 3.9);
  EXPECT_LE(bucket.available(t0 + Seconds(1)), 4.0);
}

TEST(TokenBucketTest, LongIdleGapRefillsExactlyToBurst) {
  // Regression: the old refill added `elapsed * rate` before clamping, so a
  // long idle gap accumulated a huge intermediate that the clamp then had to
  // rescue; with pathological rates the addition itself could overflow to
  // +inf and poison `tokens_`. The refill now clamps before adding. After 10
  // idle minutes the bucket holds exactly its burst — no more, no less — and
  // admits exactly `burst` requests.
  TokenBucket bucket(1e6, 8.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(bucket.TryTake(0));
  }
  EXPECT_FALSE(bucket.TryTake(0));
  const SimTime later = Seconds(600);
  EXPECT_DOUBLE_EQ(bucket.available(later), 8.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(bucket.TryTake(later)) << i;
  }
  EXPECT_FALSE(bucket.TryTake(later));
  // And the next token still arrives on schedule after the burst drains.
  EXPECT_TRUE(bucket.TryTake(later + Microseconds(1)));
}

TEST(TokenBucketTest, ExtremeRateSurvivesIdleGap) {
  // With clamp-before-add, even rate * gap products far beyond double
  // precision leave the bucket exactly full.
  TokenBucket bucket(1e18, 2.0);
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  const SimTime later = Seconds(600);
  EXPECT_DOUBLE_EQ(bucket.available(later), 2.0);
  EXPECT_TRUE(bucket.TryTake(later));
}

// --- SojournGate -------------------------------------------------------------

TEST(SojournGateTest, BelowTargetNeverSheds) {
  SojournGate gate;
  SojournConfig config;  // target 30us, interval 300us
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(gate.ShouldShed(Microseconds(i), Microseconds(29), config));
  }
  EXPECT_FALSE(gate.dropping());
}

TEST(SojournGateTest, RequiresFullIntervalAboveTarget) {
  // The CoDel entry condition: a transient spike shorter than `interval`
  // never sheds; only *standing* delay does.
  SojournGate gate;
  SojournConfig config;
  EXPECT_FALSE(gate.ShouldShed(Microseconds(0), Microseconds(100), config));
  EXPECT_FALSE(gate.ShouldShed(Microseconds(100), Microseconds(100), config));
  EXPECT_FALSE(gate.ShouldShed(Microseconds(299), Microseconds(100), config));
  // A dip below target resets the clock.
  EXPECT_FALSE(gate.ShouldShed(Microseconds(300), Microseconds(5), config));
  EXPECT_FALSE(gate.ShouldShed(Microseconds(301), Microseconds(100), config));
  EXPECT_FALSE(gate.ShouldShed(Microseconds(600), Microseconds(100), config));
  // Sustained for the full interval: dropping engages.
  EXPECT_TRUE(gate.ShouldShed(Microseconds(602), Microseconds(100), config));
  EXPECT_TRUE(gate.dropping());
}

TEST(SojournGateTest, ShedsEveryArrivalWhileDroppingThenRecovers) {
  // Open-loop arrivals do not back off per drop the way TCP does, so there
  // is no drop-spacing ramp: once dropping, every arrival is shed until the
  // standing delay drains below target.
  SojournGate gate;
  SojournConfig config;
  gate.ShouldShed(Microseconds(0), Microseconds(100), config);
  ASSERT_TRUE(gate.ShouldShed(Microseconds(301), Microseconds(100), config));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(
        gate.ShouldShed(Microseconds(302 + i), Microseconds(40), config));
  }
  // Queue drained below target: admit again immediately, state reset.
  EXPECT_FALSE(gate.ShouldShed(Microseconds(400), Microseconds(10), config));
  EXPECT_FALSE(gate.dropping());
  EXPECT_FALSE(gate.ShouldShed(Microseconds(401), Microseconds(100), config));
}

// --- ScaleGovernor -----------------------------------------------------------

TEST(ScaleGovernorTest, CooldownGatesChanges) {
  ScaleGovernor governor({/*cooldown=*/Microseconds(100), /*down_ticks=*/1});
  EXPECT_TRUE(governor.CanChange(7, Microseconds(0)));
  governor.NoteChange(7, Microseconds(0));
  EXPECT_FALSE(governor.CanChange(7, Microseconds(50)));
  EXPECT_TRUE(governor.CanChange(8, Microseconds(50)));  // per-key windows
  EXPECT_TRUE(governor.CanChange(7, Microseconds(100)));
  governor.NoteSuppressed();
  governor.NoteSuppressed();
  EXPECT_EQ(governor.suppressed(), 2u);
}

TEST(ScaleGovernorTest, DownTicksRequireConsecutiveIdleObservations) {
  ScaleGovernor governor({/*cooldown=*/0, /*down_ticks=*/3});
  EXPECT_FALSE(governor.IdleTick(1, true));
  EXPECT_FALSE(governor.IdleTick(1, true));
  EXPECT_FALSE(governor.IdleTick(1, false));  // busy tick resets the streak
  EXPECT_FALSE(governor.IdleTick(1, true));
  EXPECT_FALSE(governor.IdleTick(1, true));
  EXPECT_TRUE(governor.IdleTick(1, true));
  // The streak resets after firing.
  EXPECT_FALSE(governor.IdleTick(1, true));
}

TEST(ScaleGovernorTest, DefaultsReproduceUndampenedPolicy) {
  // cooldown 0 + down_ticks 1 must behave exactly like the seed policy:
  // every change allowed, every idle observation an immediate scale-down.
  ScaleGovernor governor;
  governor.NoteChange(3, Microseconds(10));
  EXPECT_TRUE(governor.CanChange(3, Microseconds(10)));
  EXPECT_TRUE(governor.IdleTick(3, true));
  EXPECT_FALSE(governor.IdleTick(3, false));
}

// --- TraceRing kDrop reason codes -------------------------------------------

TEST(TraceRingTest, DropReasonCodesSurviveOverflow) {
  TraceRing ring(8);
  for (uint32_t i = 0; i < 20; ++i) {
    ring.Emit(Microseconds(i), TraceEvent::kDrop, /*a=*/100 + i,
              /*b=*/1 + (i % 3));  // cycle kQueueFull/kQuota/kSojourn
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);  // oldest entries evicted, counted
  const auto entries = ring.Snapshot();
  ASSERT_EQ(entries.size(), 8u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].event, TraceEvent::kDrop);
    // Overflow keeps the *newest* records: 12..19.
    EXPECT_EQ(entries[i].a, 100u + 12 + i);
    const auto reason = static_cast<ShedReason>(entries[i].b);
    EXPECT_TRUE(reason == ShedReason::kQueueFull || reason == ShedReason::kQuota ||
                reason == ShedReason::kSojourn);
    EXPECT_FALSE(ToString(reason).empty());
  }
}

// --- End-to-end shed behavior ------------------------------------------------

// Floods one slow service and counts executions per sequence number, so tests
// can assert both overload accounting and at-most-once execution.
class OverloadHarness {
 public:
  explicit OverloadHarness(MachineConfig config,
                           Duration service_time = Microseconds(5))
      : machine_(std::move(config)) {
    ServiceDef def;
    def.service_id = 1;
    def.name = "slow-counted";
    def.udp_port = 7000;
    MethodDef method;
    method.method_id = 0;
    method.name = "count";
    method.request_sig.args = {WireType::kU64};
    method.response_sig.args = {WireType::kU64};
    method.handler = [this](const std::vector<WireValue>& args) {
      ++execs_[args.at(0).scalar];
      return std::vector<WireValue>{args.at(0)};
    };
    method.SetFixedServiceTime(service_time);
    def.methods[0] = std::move(method);
    service_ = &machine_.AddService(
        std::move(def),
        machine_.config().stack == StackKind::kLauberhorn ? 2 : 1);
    machine_.Start();
    if (machine_.config().stack == StackKind::kLauberhorn) {
      machine_.StartHotLoop(*service_);
    }
    machine_.sim().RunUntil(Microseconds(100));
  }

  // Sends `count` requests spaced `gap` apart, then drains.
  void Flood(int count, Duration gap, Duration drain = Milliseconds(5)) {
    auto fire = std::make_shared<Function<void()>>();
    int remaining = count;
    *fire = [this, fire, &remaining, gap]() {
      if (remaining-- <= 0) {
        return;
      }
      std::vector<WireValue> args = {WireValue::U64(next_seq_++)};
      machine_.client().Call(*service_, 0, args,
                             [this](const RpcMessage& response, Duration) {
                               if (response.status == RpcStatus::kOk) {
                                 ++ok_;
                               }
                             });
      machine_.sim().Schedule(gap, [fire]() { (*fire)(); });
    };
    (*fire)();
    machine_.sim().RunUntil(machine_.sim().Now() + gap * count + drain);
  }

  uint64_t sent() const { return next_seq_; }
  uint64_t ok() const { return ok_; }
  uint64_t DuplicateExecutions() const {
    uint64_t dups = 0;
    for (const auto& [seq, count] : execs_) {
      if (count > 1) {
        ++dups;
      }
    }
    return dups;
  }
  Machine& machine() { return machine_; }
  const ServiceDef& service() const { return *service_; }

 private:
  Machine machine_;
  const ServiceDef* service_ = nullptr;
  std::unordered_map<uint64_t, uint32_t> execs_;
  uint64_t next_seq_ = 0;
  uint64_t ok_ = 0;
};

MachineConfig OverloadedConfig(StackKind stack) {
  MachineConfig config;
  config.stack = stack;
  config.num_cores = 4;
  // Tiny quota: 20k rps with burst 4 against a much faster flood.
  config.admission.enabled = true;
  config.admission.quota_rps = 20000.0;
  config.admission.quota_burst = 4.0;
  config.admission.queue_depth_limit = 4;
  return config;
}

class OverloadE2eTest : public ::testing::TestWithParam<StackKind> {};

INSTANTIATE_TEST_SUITE_P(AllStacks, OverloadE2eTest,
                         ::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                           StackKind::kLauberhorn),
                         [](const auto& info) { return ToString(info.param); });

TEST_P(OverloadE2eTest, DisabledByDefaultPreservesSeedBehavior) {
  MachineConfig config;
  config.stack = GetParam();
  config.num_cores = 4;
  ASSERT_FALSE(config.admission.enabled);
  OverloadHarness harness(config, /*service_time=*/Microseconds(1));
  harness.Flood(50, Microseconds(5));
  EXPECT_EQ(harness.machine().sheds().total(), 0u);
  EXPECT_EQ(harness.machine().client().stats().overloaded, 0u);
  EXPECT_EQ(harness.ok(), harness.sent());
}

TEST_P(OverloadE2eTest, QuotaShedsAnswerWithOverloadedReplies) {
  OverloadHarness harness(OverloadedConfig(GetParam()));
  harness.Flood(300, Microseconds(1));
  Machine& m = harness.machine();

  EXPECT_GT(m.sheds().total(), 0u);
  // Every shed is an explicit kOverloaded reply, never silence or an error:
  // the client can tell push-back from loss.
  EXPECT_GT(m.client().stats().overloaded, 0u);
  EXPECT_EQ(m.client().stats().errors, 0u);
  EXPECT_EQ(m.client().stats().overloaded + harness.ok(), harness.sent());
  // Admitted-only RTT histogram: overloaded replies complete the request but
  // never enter the latency story.
  EXPECT_EQ(m.client().rtt().count() + m.client().stats().overloaded,
            m.client().completed());

  // The cost asymmetry that motivates NIC-side admission: Linux and bypass
  // burn host CPU to say "no" (decode + reply TX on a host core); the
  // Lauberhorn NIC sheds before any host core is disturbed.
  EXPECT_GT(m.sheds().quota, 0u);
  if (GetParam() != StackKind::kLauberhorn) {
    EXPECT_GT(m.software_server()->shed_cpu_time(), 0);
  }
}

TEST(OverloadLauberhornTest, ShedsEmitDropTraceRecordsWithReasonCodes) {
  OverloadHarness harness(OverloadedConfig(StackKind::kLauberhorn));
  harness.Flood(300, Microseconds(1));
  Machine& m = harness.machine();
  const auto endpoints = m.EndpointsOf(harness.service());
  ASSERT_FALSE(endpoints.empty());

  uint64_t drops_seen = 0;
  for (const auto& entry : m.lauberhorn_nic()->trace().Snapshot()) {
    if (entry.event != TraceEvent::kDrop) {
      continue;
    }
    ++drops_seen;
    const auto reason = static_cast<ShedReason>(entry.b);
    EXPECT_TRUE(reason == ShedReason::kQueueFull ||
                reason == ShedReason::kQuota || reason == ShedReason::kSojourn)
        << entry.b;
    EXPECT_TRUE(std::find(endpoints.begin(), endpoints.end(), entry.a) !=
                endpoints.end())
        << "drop attributed to foreign endpoint " << entry.a;
  }
  EXPECT_GT(drops_seen, 0u);
}

TEST(OverloadLauberhornTest, QueueDepthLimitTripsQueueFullSheds) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.admission.enabled = true;
  config.admission.queue_depth_limit = 2;  // no quota: depth only
  OverloadHarness harness(std::move(config), /*service_time=*/Microseconds(20));
  harness.Flood(100, Microseconds(1));
  EXPECT_GT(harness.machine().lauberhorn_nic()->stats().sheds.queue, 0u);
  EXPECT_EQ(harness.machine().client().stats().errors, 0u);
}

// --- Client overload reaction ------------------------------------------------

TEST(ClientOverloadTest, OverloadCutsRetryTokens) {
  MachineConfig config = OverloadedConfig(StackKind::kLauberhorn);
  config.client_retransmit_timeout = Microseconds(200);
  config.client_retry_budget_per_sec = 1000.0;
  config.client_overload_token_cut = 0.5;
  OverloadHarness harness(std::move(config));
  const double tokens_before = harness.machine().client().retry_tokens();
  harness.Flood(300, Microseconds(1));
  // Each kOverloaded reply multiplicatively cuts the retry-token balance:
  // push-back tightens the client's own retry budget, distinct from loss
  // backoff (which only spends tokens).
  EXPECT_GT(harness.machine().client().stats().overloaded, 0u);
  EXPECT_LT(harness.machine().client().retry_tokens(), tokens_before);
}

TEST(ClientOverloadTest, BreakerOpensOnOverloadStreakAndSuppressesRetries) {
  // Linux, not Lauberhorn: its softirq checks the quota for *every* frame
  // (no hot-path exemption), so the kOverloaded streak is uninterrupted by
  // admits and the breaker threshold is actually reachable.
  MachineConfig config = OverloadedConfig(StackKind::kLinux);
  config.admission.quota_rps = 1000.0;  // near-total shed
  config.admission.quota_burst = 1.0;
  // Sub-RTT timeout with a deep retransmit budget: timers fire before the
  // (congested) shed reply arrives, giving the open breaker attempts to
  // withhold, while the request stays pending long enough for the reply to
  // complete it as kOverloaded and feed the streak.
  config.client_retransmit_timeout = Microseconds(5);
  config.client_max_retransmits = 8;
  config.client_overload_breaker_threshold = 8;
  config.client_overload_breaker_window = Microseconds(500);
  OverloadHarness harness(std::move(config));
  harness.Flood(400, Microseconds(1));
  Machine& m = harness.machine();
  EXPECT_GT(m.client().stats().overloaded, 0u);
  EXPECT_GT(m.client().stats().breaker_openings, 0u);
  // While open, retry copies are withheld (new calls still go out).
  EXPECT_GT(m.client().stats().retransmits_suppressed_breaker, 0u);
  EXPECT_EQ(m.client().stats().errors, 0u);
}

TEST(ClientOverloadTest, LateOverloadedAfterRetransmitIsBenign) {
  // Race (satellite): the client times out and retransmits, then the
  // kOverloaded reply to the *original* copy arrives. The first reply
  // completes the request as overloaded; the second is retired as a late
  // response — never an error, never a double completion.
  MachineConfig config = OverloadedConfig(StackKind::kLauberhorn);
  config.client_retransmit_timeout = Microseconds(2);  // well below the RTT
  config.client_max_retransmits = 2;
  OverloadHarness harness(std::move(config));
  harness.Flood(200, Microseconds(1));
  Machine& m = harness.machine();
  EXPECT_GT(m.client().stats().retransmits, 0u);
  EXPECT_GT(m.client().stats().overloaded, 0u);
  EXPECT_GT(m.client().stats().late_responses, 0u);
  EXPECT_EQ(m.client().stats().errors, 0u);
  // Each request resolved exactly once across both copies: either a reply
  // completed it, or it exhausted its (deliberately tiny) retransmit budget
  // and timed out before any copy's reply arrived. Never both.
  EXPECT_EQ(m.client().completed() + m.client().stats().timeouts, harness.sent());
}

// --- Overload + faults: at-most-once must survive shedding -------------------

class OverloadFaultComposeTest : public ::testing::TestWithParam<StackKind> {};

INSTANTIATE_TEST_SUITE_P(AllStacks, OverloadFaultComposeTest,
                         ::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                           StackKind::kLauberhorn),
                         [](const auto& info) { return ToString(info.param); });

TEST_P(OverloadFaultComposeTest, ZeroDuplicateExecutionsWhileShedding) {
  MachineConfig config = OverloadedConfig(GetParam());
  config.faults = FaultPlan::Canonical(1.0, 11);
  config.client_retransmit_timeout = Microseconds(100);
  config.client_max_retransmits = 6;
  config.client_backoff_multiplier = 2.0;
  config.server_dedup = true;
  OverloadHarness harness(std::move(config));
  harness.Flood(250, Microseconds(2), /*drain=*/Milliseconds(10));
  Machine& m = harness.machine();

  // The shed path must not break the dedup invariant: aborting an entry on a
  // kOverloaded reply re-opens the id for a retransmit, but no id ever
  // executes twice.
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_GT(m.sheds().total(), 0u);
  EXPECT_GT(m.client().stats().overloaded, 0u);
  EXPECT_GT(harness.ok(), 0u);  // shedding degrades, it does not blackhole
}

// --- Scale-loop hysteresis e2e -----------------------------------------------

TEST(GovernorE2eTest, HysteresisReducesLoopChurn) {
  // Same bursty load twice: the governed run (cooldown + consecutive-idle
  // requirement) must start strictly fewer user loops than the un-dampened
  // seed policy, and must suppress at least one scale action.
  auto churn = [](Duration cooldown, int down_ticks, uint64_t* suppressed) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.num_cores = 4;
    config.runtime.scale.cooldown = cooldown;
    config.runtime.scale.down_ticks = down_ticks;
    // Hair-trigger release threshold: every policy tick sees the idlest
    // endpoint of the two-loop service as below-rate, so the un-dampened
    // policy releases a core each tick and the next burst restarts it.
    config.runtime.scale_down_rate_rps = 1e9;
    OverloadHarness harness(std::move(config), /*service_time=*/Microseconds(3));
    // On/off bursts keep crossing the scale-up/down thresholds.
    for (int burst = 0; burst < 6; ++burst) {
      harness.Flood(40, Microseconds(1), /*drain=*/Microseconds(400));
    }
    if (suppressed != nullptr) {
      *suppressed = harness.machine().lauberhorn_runtime()->scale_suppressed();
    }
    return harness.machine().lauberhorn_runtime()->stats().loops_started;
  };
  uint64_t suppressed = 0;
  const uint64_t undampened = churn(0, 1, nullptr);
  const uint64_t governed = churn(Microseconds(500), 3, &suppressed);
  EXPECT_LT(governed, undampened);
  EXPECT_GT(suppressed, 0u);
}

}  // namespace
}  // namespace lauberhorn

// Tests for NIC hot recovery (DESIGN.md §16): the whole-NIC crash fault
// layer, the NIC's control state kept across a crash and its dedup replay,
// the watchdog-driven reset path end to end,
// and the cluster directory's kDegraded publication during recovery. Also
// the PR's satellite coverage: exported CC fault counters, dedup replay
// across an OS crash window, and the FaultInjector periodic-crash
// arithmetic.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/cluster/directory.h"
#include "src/coherence/memory_home.h"
#include "src/core/machine.h"
#include "src/fault/fault.h"
#include "src/nic/recovery.h"
#include "src/sim/simulator.h"
#include "src/stats/metrics.h"

namespace lauberhorn {
namespace {

// --- FaultInjector crash-schedule arithmetic ---------------------------------

TEST(FaultInjectorTest, NicCrashPersistsUntilHostRecovery) {
  Simulator sim;
  FaultPlan plan;
  plan.nic_crash.first_crash_at = Milliseconds(1);
  plan.nic_crash.crash_period = Milliseconds(2);
  FaultInjector faults(sim, plan);

  auto crashed_at = [&](Duration t) {
    bool crashed = false;
    sim.Schedule(t - sim.Now(),
                 [&faults, &crashed]() { crashed = faults.NicDeviceCrashed(); });
    sim.RunUntilIdle();
    return crashed;
  };
  EXPECT_FALSE(crashed_at(Microseconds(500)));  // before the first crash
  EXPECT_TRUE(crashed_at(Microseconds(1100)));  // crash instant 1 passed
  // Unlike an OS crash window, the outage does NOT end on its own — the
  // device stays dead arbitrarily long until the host recovers it.
  EXPECT_TRUE(crashed_at(Microseconds(2900)));
  EXPECT_EQ(faults.stats().nic_crashes, 1u);  // one distinct instant so far

  sim.Schedule(Microseconds(50), [&faults]() { faults.NicDeviceRecovered(); });
  sim.RunUntilIdle();
  EXPECT_FALSE(crashed_at(Microseconds(2960)));  // recovered, next instant 3ms
  EXPECT_TRUE(crashed_at(Microseconds(3200)));   // periodic re-fire
  EXPECT_EQ(faults.stats().nic_crashes, 2u);
}

// Satellite: regression for the periodic OS crash schedule — crash_period > 0
// must count each window exactly once no matter how often callers query
// inside it, and the windows must land at first + k*period.
TEST(FaultInjectorTest, PeriodicOsCrashCountsEachWindowOnce) {
  Simulator sim;
  FaultPlan plan;
  plan.os.first_crash_at = Milliseconds(1);
  plan.os.crash_period = Milliseconds(3);
  plan.os.restart_delay = Milliseconds(1);
  FaultInjector faults(sim, plan);

  auto up_at = [&](Duration t) {
    bool up = true;
    sim.Schedule(t - sim.Now(), [&faults, &up]() { up = faults.OsServiceUp(); });
    sim.RunUntilIdle();
    return up;
  };
  // Window k covers [1ms + 3ms*k, 2ms + 3ms*k).
  for (int window = 0; window < 3; ++window) {
    const Duration base = Milliseconds(1) + window * Milliseconds(3);
    EXPECT_FALSE(up_at(base + Microseconds(100)));
    EXPECT_FALSE(up_at(base + Microseconds(500)));  // re-query: counted once
    EXPECT_FALSE(up_at(base + Microseconds(900)));
    EXPECT_TRUE(up_at(base + Microseconds(1100)));  // restarted
    EXPECT_TRUE(up_at(base + Microseconds(2900)));  // gap before next window
    EXPECT_EQ(faults.stats().os_crashes, static_cast<uint64_t>(window + 1));
  }
}

// --- The NIC's control state across a crash ----------------------------------

TEST(NicControlStateTest, CrashKeepsControlStateAndRebuildsIndexes) {
  // A standalone NIC: two services, each with one endpoint on the PF and
  // one on a tenant VF, allocated alternately so neither port's candidates
  // are one run of ids; two kernel channels; one held continuation and one
  // returned. The fault plan crashes it, and the test resets it by hand.
  Simulator sim;
  CoherentInterconnect interconnect(sim, CoherenceConfig{});
  MemoryHomeAgent memory(sim, interconnect, 0, uint64_t{1} << 30);
  Iommu iommu;
  PcieLink pcie(sim, PcieConfig{}, memory, iommu);
  ServiceRegistry services;
  services.Add(ServiceRegistry::MakeEchoService(1, 7000));
  services.Add(ServiceRegistry::MakeEchoService(2, 7100));
  FaultPlan plan;
  plan.nic_crash.first_crash_at = Microseconds(10);
  FaultInjector faults(sim, plan);
  LauberhornNic nic(sim, interconnect, pcie, services, LauberhornNic::Config{});
  nic.set_fault_injector(&faults);

  LauberhornNic::VfConfig tenant;
  tenant.name = "tenant";
  tenant.admission.enabled = true;
  tenant.endpoint_limit = 2;
  const uint32_t vf = nic.CreateVf(tenant);
  for (const uint32_t owner : {0u, vf}) {
    for (const uint32_t service : {1u, 2u}) {
      ASSERT_TRUE(nic.AllocateEndpointOnVf(owner, service, /*pid=*/owner + 7,
                                           0x5000 + service, 0x7000 + service,
                                           0x10000 * (owner + 1))
                      .has_value());
    }
  }
  EXPECT_EQ(nic.AllocateKernelChannel(/*args_iova=*/0x100000), 0u);
  EXPECT_EQ(nic.AllocateKernelChannel(/*args_iova=*/0x110000), 1u);
  const std::optional<uint32_t> held = nic.AllocateContinuation();
  const std::optional<uint32_t> returned = nic.AllocateContinuation();
  ASSERT_TRUE(held.has_value() && returned.has_value());
  nic.FreeContinuation(*returned);

  const std::vector<uint32_t> port_a = nic.DemuxCandidates(7000);
  const std::vector<uint32_t> port_b = nic.DemuxCandidates(7100);
  ASSERT_EQ(port_a.size(), 2u);
  ASSERT_EQ(port_b.size(), 2u);
  const size_t num_endpoints = nic.config().num_kernel_channels +
                               nic.config().num_endpoints +
                               nic.config().num_continuations;
  std::vector<LauberhornNic::EndpointBinding> bindings;
  for (uint32_t id = 0; id < num_endpoints; ++id) {
    bindings.push_back(nic.binding(id));
  }

  sim.RunUntil(Microseconds(20));
  ASSERT_FALSE(nic.HeartbeatProbe());  // the crash wiped the device state
  faults.NicDeviceRecovered();
  nic.CompleteReset();
  ASSERT_TRUE(nic.device_up());

  // The VF configs, every binding and the demux order came back.
  ASSERT_EQ(nic.NumVfs(), 2u);
  EXPECT_EQ(nic.vf_config(vf).name, "tenant");
  EXPECT_TRUE(nic.vf_config(vf).admission.enabled);
  EXPECT_EQ(nic.vf_config(vf).endpoint_limit, 2u);
  for (uint32_t id = 0; id < num_endpoints; ++id) {
    EXPECT_EQ(nic.binding(id), bindings[id]) << "endpoint " << id;
  }
  EXPECT_EQ(nic.DemuxCandidates(7000), port_a);
  EXPECT_EQ(nic.DemuxCandidates(7100), port_b);
  const LauberhornNic::ControlCounts counts = nic.CountControlState();
  EXPECT_EQ(counts.vfs, 1u);
  EXPECT_EQ(counts.endpoints, 4u);
  EXPECT_EQ(counts.kernel_channels, 2u);
  EXPECT_EQ(counts.continuations, 1u);

  // The derived indexes follow the bindings: each VF counts its endpoints
  // again (the tenant's slice is full), the kernel-channel cursor moved on,
  // and the pool hands out every continuation but the held one.
  EXPECT_EQ(nic.vf_stats(0).endpoints, 2u);
  EXPECT_EQ(nic.vf_stats(vf).endpoints, 2u);
  EXPECT_FALSE(nic.AllocateEndpointOnVf(vf, 1, 0, 0, 0, 0).has_value());
  EXPECT_EQ(nic.AllocateKernelChannel(/*args_iova=*/0x120000), 2u);
  std::set<uint32_t> handed_out;
  while (const auto id = nic.AllocateContinuation()) {
    EXPECT_NE(*id, *held);
    EXPECT_TRUE(handed_out.insert(*id).second) << "continuation " << *id;
  }
  EXPECT_EQ(handed_out.size(), nic.config().num_continuations - 1);
}

// --- End-to-end recovery through Machine -------------------------------------

// Slim copy of fault_test.cc's harness: uniquely-numbered RPCs, per-seq
// execution counts — the observable for at-most-once across a NIC crash.
class RecoveryHarness {
 public:
  explicit RecoveryHarness(
      MachineConfig config,
      std::optional<LauberhornNic::VfConfig> vf_config = std::nullopt,
      Duration service_time = Nanoseconds(500))
      : machine_(std::move(config)) {
    ServiceDef def;
    def.service_id = 1;
    def.name = "counted";
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
    uint32_t vf = 0;
    if (vf_config.has_value()) {
      vf = machine_.CreateVf(*std::move(vf_config));
    }
    service_ = &machine_.AddService(std::move(def), 2, vf);
    machine_.Start();
    machine_.StartHotLoop(*service_);
    machine_.sim().RunUntil(Microseconds(100));
  }

  void Run(int count, Duration gap, Duration drain = Milliseconds(10)) {
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
  uint64_t TotalExecutions() const {
    uint64_t total = 0;
    for (const auto& [seq, count] : execs_) {
      total += count;
    }
    return total;
  }
  Machine& machine() { return machine_; }

 private:
  Machine machine_;
  const ServiceDef* service_ = nullptr;
  std::unordered_map<uint64_t, uint32_t> execs_;
  uint64_t next_seq_ = 0;
  uint64_t ok_ = 0;
};

MachineConfig RecoveryConfig() {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(200);
  config.client_max_retransmits = 8;
  config.client_backoff_multiplier = 2.0;
  config.client_max_retransmit_timeout = Milliseconds(2);
  config.server_dedup = true;
  return config;
}

TEST(NicControlStateTest, ReplayRulesAcrossTwoResets) {
  // Three requests 10 us apart reach one hot 100 us handler; 150 us in, the
  // NIC's dedup table holds one entry per state: the first completed, the
  // second delivered (its handler still running), the third still queued.
  // The crash-replay rules run on that live NIC twice and report the
  // table's rule counts.
  RecoveryHarness harness(RecoveryConfig(), std::nullopt, Microseconds(100));
  harness.Run(3, Microseconds(10), Microseconds(120));
  LauberhornNic& nic = *harness.machine().lauberhorn_nic();

  const RpcDedupCache::ReplayCounts first = nic.ReplayDedup();
  EXPECT_EQ(first.completed, 1u);
  EXPECT_EQ(first.pinned, 1u);
  EXPECT_EQ(first.dropped, 1u);
  EXPECT_EQ(nic.dedup().size(), 2u);  // the undelivered entry is gone

  // The pinned entry gets a synthetic terminal: a second reset replays it
  // as completed instead of re-pinning it forever.
  const RpcDedupCache::ReplayCounts second = nic.ReplayDedup();
  EXPECT_EQ(second.completed, 2u);
  EXPECT_EQ(second.pinned, 0u);
  EXPECT_EQ(second.dropped, 0u);
  EXPECT_EQ(nic.dedup().size(), 2u);
}

TEST(RecoveryE2eTest, WatchdogRecoversNicMidLoadAtMostOnce) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);  // one crash
  config.faults.nic_crash.reset_latency = Microseconds(50);
  RecoveryHarness harness(config);

  // Publish recovery into a directory the way a cluster plane would: the
  // replica degrades while the NIC resets and comes back up after —
  // never kDown, so a hash ring would keep its keys.
  ServiceDirectory directory;
  directory.AddReplica(1, ReplicaInfo{});
  NicRecoveryManager* recovery = harness.machine().nic_recovery();
  ASSERT_NE(recovery, nullptr);
  recovery->on_recovery_begin = [&]() { directory.MarkDegraded(1, 0); };
  recovery->on_recovery_end = [&]() { directory.MarkUp(1, 0); };

  harness.Run(100, Microseconds(10));

  // The watchdog detected the dead device and drove the reset.
  const auto& stats = recovery->stats();
  EXPECT_EQ(stats.watchdog_fires, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.replayed_endpoints, 0u);
  EXPECT_GT(stats.replayed_kernel_channels, 0u);
  EXPECT_GT(stats.last_blackout, 0);
  const auto& nic = harness.machine().lauberhorn_nic()->stats();
  EXPECT_EQ(nic.nic_resets, 1u);
  EXPECT_GT(nic.crashed_polls, 0u);  // the hot loop polled a dead device

  // At-most-once across the crash: every request executed exactly once —
  // delivered-but-unanswered requests stay pinned in flight (the client
  // times out; goodput loss, never a second execution).
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  RpcClient& client = harness.machine().client();
  EXPECT_EQ(harness.ok() + client.stats().timeouts, harness.sent());
  EXPECT_GE(harness.ok(), harness.sent() - stats.replayed_dedup_in_flight);
  EXPECT_GT(client.stats().retransmits, 0u);

  // Degraded during the reset, up after, and the marked_down path never ran.
  EXPECT_EQ(directory.stats().marked_degraded, 1u);
  EXPECT_EQ(directory.stats().marked_up, 1u);
  EXPECT_EQ(directory.stats().marked_down, 0u);
  EXPECT_EQ(directory.replica(1, 0).health, ReplicaHealth::kUp);
}

TEST(RecoveryE2eTest, CrashDuringHandlerPinsTheRequest) {
  // One request whose 100 us handler is running when the NIC dies: the
  // response dies with the device, and the crash replay must pin the
  // delivered entry so no retransmit runs the handler a second time.
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(150);
  config.faults.nic_crash.reset_latency = Microseconds(50);
  RecoveryHarness harness(config, std::nullopt, Microseconds(100));
  harness.Run(1, Microseconds(10), Milliseconds(20));

  const auto& stats = harness.machine().nic_recovery()->stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.replayed_dedup_in_flight, 1u);
  EXPECT_EQ(harness.TotalExecutions(), 1u);
  RpcClient& client = harness.machine().client();
  EXPECT_GT(client.stats().retransmits, 0u);
  EXPECT_GT(harness.machine().server_dedup().stats().duplicates_in_flight, 0u);
  EXPECT_EQ(harness.ok() + client.stats().timeouts, 1u);
}

TEST(RecoveryE2eTest, PeriodicCrashesRecoverEveryTime) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);
  config.faults.nic_crash.crash_period = Milliseconds(1);
  config.faults.nic_crash.reset_latency = Microseconds(50);
  RecoveryHarness harness(config);
  harness.Run(200, Microseconds(10), /*drain=*/Milliseconds(15));

  const auto& stats = harness.machine().nic_recovery()->stats();
  EXPECT_GE(stats.recoveries, 2u);
  EXPECT_EQ(stats.recoveries, harness.machine().fault_injector()->stats().nic_crashes);
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  EXPECT_EQ(harness.ok() + harness.machine().client().stats().timeouts,
            harness.sent());
}

TEST(RecoveryE2eTest, DeterministicAcrossRuns) {
  auto run = [&]() {
    MachineConfig config = RecoveryConfig();
    config.faults.nic_crash.first_crash_at = Microseconds(300);
    config.faults.nic_crash.crash_period = Milliseconds(1);
    RecoveryHarness harness(config);
    harness.Run(150, Microseconds(8));
    const NicRecoveryManager::Stats& stats =
        harness.machine().nic_recovery()->stats();
    return std::tuple(harness.ok(), harness.TotalExecutions(),
                      harness.machine().client().stats().retransmits,
                      stats.recoveries, stats.replayed_vfs,
                      stats.replayed_endpoints, stats.replayed_kernel_channels,
                      stats.replayed_continuations,
                      stats.replayed_dedup_completed,
                      stats.replayed_dedup_in_flight);
  };
  EXPECT_EQ(run(), run());
}

// Tentpole: a tenant's whole NIC slice — the VF partition, its admission
// quota, and its endpoint allocations — is OS state, so it survives a NIC
// crash like the rest of the control state, with at-most-once intact.
TEST(RecoveryE2eTest, VfPartitionAndQuotaSurviveNicCrash) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);
  config.faults.nic_crash.reset_latency = Microseconds(50);
  LauberhornNic::VfConfig vf;
  vf.name = "tenant-a";
  vf.admission.enabled = true;
  vf.admission.quota_rps = 5e5;  // generous: no sheds at this offered load
  vf.admission.quota_burst = 64;
  vf.endpoint_limit = 2;
  RecoveryHarness harness(config, vf);

  harness.Run(100, Microseconds(10));

  const auto& stats = harness.machine().nic_recovery()->stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.replayed_vfs, 1u);
  EXPECT_EQ(stats.replayed_endpoints, 2u);

  // The partition came back: VF 1 exists on the reborn device, carries its
  // admission config, its endpoint slice is fully restored, and traffic
  // kept flowing through it after the reset.
  LauberhornNic& nic = *harness.machine().lauberhorn_nic();
  ASSERT_EQ(nic.NumVfs(), 2u);
  EXPECT_EQ(nic.vf_config(1).name, "tenant-a");
  EXPECT_TRUE(nic.vf_config(1).admission.enabled);
  EXPECT_EQ(nic.vf_config(1).endpoint_limit, 2u);
  EXPECT_EQ(nic.vf_stats(1).endpoints, 2u);
  EXPECT_GT(nic.vf_stats(1).rx_requests, 0u);

  // At-most-once held across the crash: no request executed twice.
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  EXPECT_EQ(harness.ok() + harness.machine().client().stats().timeouts,
            harness.sent());

  MetricsRegistry metrics;
  harness.machine().ExportMetrics(metrics);
  EXPECT_EQ(metrics.Counter("recovery/replayed_vfs"), 1u);
  EXPECT_EQ(metrics.Counter("nic/vf1/endpoints"), 2u);
}

// Satellite: an OS crash/restart window does not wipe the NIC's dedup cache
// (the NIC outlives the host software stack) — a retransmit of an
// already-executed request that crosses the window is answered from the
// cache, never re-executed.
TEST(RecoveryE2eTest, DedupReplaysAcrossOsCrashWindow) {
  MachineConfig config = RecoveryConfig();
  config.faults.net.good_loss = 0.3;  // lose responses too -> forced replays
  config.faults.os.first_crash_at = Microseconds(400);
  config.faults.os.crash_period = 0;
  config.faults.os.restart_delay = Microseconds(400);
  RecoveryHarness harness(config);
  harness.Run(150, Microseconds(8), /*drain=*/Milliseconds(20));

  // Heavy loss can exhaust a retransmit budget (a timeout, accounted), but
  // at-most-once must hold and the bulk of goodput must survive.
  EXPECT_EQ(harness.ok() + harness.machine().client().stats().timeouts,
            harness.sent());
  EXPECT_GE(harness.ok(), harness.sent() * 95 / 100);
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_LE(harness.TotalExecutions(), harness.sent());
  const auto& nic = harness.machine().lauberhorn_nic()->stats();
  // Cached responses served duplicates.
  EXPECT_GT(harness.machine().server_dedup().stats().duplicates_replayed, 0u);
  EXPECT_GT(nic.drops_service_down, 0u);    // the window was actually hit
  EXPECT_GT(harness.machine().client().stats().retransmits, 0u);
}

// Satellite: the PR-7 CC fault counters and the recovery counters must be
// visible through Machine::ExportMetrics.
TEST(RecoveryE2eTest, ExportsFaultAndRecoveryMetrics) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);
  RecoveryHarness harness(config);
  harness.Run(50, Microseconds(10));

  MetricsRegistry metrics;
  harness.machine().ExportMetrics(metrics);
  EXPECT_TRUE(metrics.HasCounter("fault/cc_grant_losses"));
  EXPECT_TRUE(metrics.HasCounter("fault/cc_ecn_corruptions"));
  EXPECT_TRUE(metrics.HasCounter("fault/nic_crashes"));
  EXPECT_EQ(metrics.Counter("fault/nic_crashes"), 1u);
  EXPECT_TRUE(metrics.HasCounter("nic/resets"));
  EXPECT_EQ(metrics.Counter("nic/resets"), 1u);
  // perfbench reads the dedup table's size under its historical name.
  ASSERT_EQ(metrics.gauges().count("recovery/shadow_dedup_entries"), 1u);
  EXPECT_GT(metrics.Gauge("recovery/shadow_dedup_entries"), 0.0);
  EXPECT_EQ(metrics.Gauge("recovery/shadow_dedup_entries"),
            static_cast<double>(harness.machine().lauberhorn_nic()->dedup().size()));
  EXPECT_EQ(metrics.Counter("recovery/recoveries"), 1u);
  EXPECT_GT(metrics.Gauge("recovery/last_blackout_us"), 0.0);
}

// Twenty requests 1 us apart reach one service whose two hot cores take
// 100 us per request, so most of them wait in the endpoint queues when the
// NIC crashes. The wipe counts each queued request once, and the queues are
// empty afterwards.
TEST(RecoveryE2eTest, CrashCountsTheQueuedRequestsItDiscards) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(150);
  RecoveryHarness harness(config, std::nullopt, Microseconds(100));
  harness.Run(20, Microseconds(1), /*drain=*/0);
  LauberhornNic& nic = *harness.machine().lauberhorn_nic();
  ASSERT_TRUE(nic.device_up());
  size_t queued = 0;
  while (nic.device_up()) {
    queued = nic.ServiceBacklog(1) + nic.ColdQueueDepth();
    ASSERT_TRUE(harness.machine().sim().Step());
  }
  EXPECT_GE(queued, 10u);
  EXPECT_EQ(nic.stats().wiped_requests, queued);
  EXPECT_EQ(nic.ServiceBacklog(1), 0u);
  EXPECT_EQ(nic.ColdQueueDepth(), 0u);

  // The client's retransmits bring every discarded request back after the
  // reset, and each still runs at most once.
  harness.machine().sim().RunUntil(harness.machine().sim().Now() + Milliseconds(20));
  EXPECT_GE(harness.ok(), queued);
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

}  // namespace
}  // namespace lauberhorn

// Tests for export by field table (src/stats/metrics.h): every table writes
// exactly its rows, and a Machine exports every row of every subsystem it
// runs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/machine.h"

namespace lauberhorn {
namespace {

// Gives row i the value 101 + i (a gauge row 101 + i µs), exports the table
// under "p/" and checks that exactly those keys carry exactly those values.
template <typename S, size_t N>
void ExpectExportsEveryRowOnce(const StatsField<S> (&fields)[N]) {
  S stats{};
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  for (size_t i = 0; i < N; ++i) {
    const uint64_t value = 101 + i;
    const std::string key = std::string("p/") + fields[i].name;
    if (fields[i].counter != nullptr) {
      stats.*fields[i].counter = value;
      counters[key] = value;
    } else {
      stats.*fields[i].gauge_us = Microseconds(static_cast<int64_t>(value));
      gauges[key] = static_cast<double>(value);
    }
  }
  EXPECT_EQ(counters.size() + gauges.size(), N) << "two rows share a name";
  MetricsRegistry metrics;
  ExportStats(metrics, "p/", stats, fields);
  EXPECT_EQ(metrics.counters(), counters);
  EXPECT_EQ(metrics.gauges(), gauges);

  S sum = stats;
  AddStats(sum, stats, fields);
  for (size_t i = 0; i < N; ++i) {
    if (fields[i].counter != nullptr) {
      EXPECT_EQ(sum.*fields[i].counter, 2 * (101 + i)) << fields[i].name;
    } else {
      EXPECT_EQ(sum.*fields[i].gauge_us, stats.*fields[i].gauge_us) << fields[i].name;
    }
  }
}

TEST(StatsTableTest, EveryTableExportsEachRowUnderItsOwnName) {
  ExpectExportsEveryRowOnce(kDispatchPolicyStatsFields);
  ExpectExportsEveryRowOnce(kShedCountsFields);
  ExpectExportsEveryRowOnce(kDedupStatsFields);
  ExpectExportsEveryRowOnce(kFaultStatsFields);
  ExpectExportsEveryRowOnce(kRecoveryStatsFields);
  ExpectExportsEveryRowOnce(kLinkStatsFields);
  ExpectExportsEveryRowOnce(kLauberhornNicStatsFields);
  ExpectExportsEveryRowOnce(kVfStatsFields);
  ExpectExportsEveryRowOnce(kClientStatsFields);
  ExpectExportsEveryRowOnce(kDmaNicStatsFields);
  ExpectExportsEveryRowOnce(kDmaNicDriverStatsFields);
  ExpectExportsEveryRowOnce(kRuntimeStatsFields);
}

// Checks that every row of `fields` is in `metrics` under `prefix`, with the
// value `stats` holds.
template <typename S, size_t N>
void ExpectRowsExported(const MetricsRegistry& metrics, const std::string& prefix,
                        const S& stats, const StatsField<S> (&fields)[N]) {
  for (const StatsField<S>& field : fields) {
    const std::string key = prefix + field.name;
    if (field.counter != nullptr) {
      ASSERT_TRUE(metrics.HasCounter(key)) << key;
      EXPECT_EQ(metrics.Counter(key), stats.*field.counter) << key;
    } else {
      ASSERT_EQ(metrics.gauges().count(key), 1u) << key;
      EXPECT_EQ(metrics.Gauge(key), static_cast<double>(stats.*field.gauge_us) /
                                        static_cast<double>(Microseconds(1)))
          << key;
    }
  }
}

class MachineExportTest : public ::testing::TestWithParam<StackKind> {};

INSTANTIATE_TEST_SUITE_P(AllStacks, MachineExportTest,
                         ::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                           StackKind::kLauberhorn),
                         [](const auto& info) { return ToString(info.param); });

// A faulty run on every stack (a crashing, recovering NIC and a tenant VF
// on Lauberhorn): each table row of each live subsystem reaches the
// registry with the subsystem's value.
TEST_P(MachineExportTest, EveryTableRowOfEveryLiveSubsystemIsExported) {
  const StackKind stack = GetParam();
  MachineConfig config;
  config.stack = stack;
  config.num_cores = 4;
  config.faults = FaultPlan::Chaos(1.0, 7);
  config.faults.net.p_good_to_bad = 0.02;  // a few loss bursts in 800 packets
  config.faults.nic_crash.first_crash_at = Microseconds(1500);
  config.client_retransmit_timeout = Microseconds(200);
  config.client_max_retransmits = 8;
  config.server_dedup = true;
  config.enable_spans = true;
  Machine machine(config);
  std::vector<const ServiceDef*> services = {
      &machine.AddService(ServiceRegistry::MakeEchoService(1, 7000))};
  if (stack == StackKind::kLauberhorn) {
    LauberhornNic::VfConfig tenant;
    tenant.name = "tenant";
    const uint32_t vf = machine.CreateVf(tenant);
    ServiceDef jbsq = ServiceRegistry::MakeEchoService(2, 7001);
    jbsq.dispatch.kind = DispatchPolicyKind::kJbsq;
    services.push_back(&machine.AddService(std::move(jbsq), 2, vf));
  }
  machine.Start();
  if (stack == StackKind::kLauberhorn) {
    for (const ServiceDef* service : services) {
      machine.StartHotLoop(*service);
    }
  }
  machine.sim().RunUntil(Microseconds(100));
  for (int i = 0; i < 400; ++i) {
    machine.client().Call(*services[static_cast<size_t>(i) % services.size()], 0,
                          std::vector<WireValue>{WireValue::Bytes({1, 2, 3})});
    machine.sim().RunUntil(machine.sim().Now() + Microseconds(10));
  }
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(20));

  MetricsRegistry metrics;
  machine.ExportMetrics(metrics, "m0/");
  ExpectRowsExported(metrics, "m0/client/", machine.client().stats(), kClientStatsFields);
  ExpectRowsExported(metrics, "m0/wire/client_egress_", machine.wire().a_to_b().stats(),
                     kLinkStatsFields);
  ExpectRowsExported(metrics, "m0/wire/nic_egress_", machine.wire().b_to_a().stats(),
                     kLinkStatsFields);
  ASSERT_NE(machine.fault_injector(), nullptr);
  ExpectRowsExported(metrics, "m0/fault/", machine.fault_injector()->stats(),
                     kFaultStatsFields);
  EXPECT_GT(metrics.Counter("m0/fault/net_burst_entries"), 0u);
  EXPECT_GT(metrics.Counter("m0/client/completed"), 0u);

  if (stack == StackKind::kLauberhorn) {
    const LauberhornNic& nic = *machine.lauberhorn_nic();
    ExpectRowsExported(metrics, "m0/nic/", nic.stats(), kLauberhornNicStatsFields);
    ExpectRowsExported(metrics, "m0/overload/sheds_", nic.stats().sheds, kShedCountsFields);
    ExpectRowsExported(metrics, "m0/nic/", nic.dedup().stats(), kDedupStatsFields);
    ExpectRowsExported(metrics, "m0/runtime/", machine.lauberhorn_runtime()->stats(),
                       kRuntimeStatsFields);
    const auto policies = nic.PolicyStatsSnapshot();
    ASSERT_EQ(policies.size(), 2u);  // legacy and JBSQ
    for (const auto& [kind, stats] : policies) {
      ExpectRowsExported(metrics, std::string("m0/dispatch/") + ToString(kind) + "/", stats,
                         kDispatchPolicyStatsFields);
    }
    ASSERT_EQ(nic.NumVfs(), 2u);
    ExpectRowsExported(metrics, "m0/nic/vf1/", nic.vf_stats(1), kVfStatsFields);
    ExpectRowsExported(metrics, "m0/nic/vf1/sheds_", nic.vf_stats(1).sheds,
                       kShedCountsFields);
    ASSERT_NE(machine.nic_recovery(), nullptr);
    ExpectRowsExported(metrics, "m0/recovery/", machine.nic_recovery()->stats(),
                       kRecoveryStatsFields);
    EXPECT_GE(metrics.Counter("m0/recovery/recoveries"), 1u);
    EXPECT_GT(metrics.Gauge("m0/recovery/total_blackout_us"), 0.0);
  } else {
    ExpectRowsExported(metrics, "m0/dmanic/", machine.dma_nic()->stats(),
                       kDmaNicStatsFields);
    ExpectRowsExported(metrics, "m0/dmanic/", machine.dma_driver()->stats(),
                       kDmaNicDriverStatsFields);
    const SoftwareRpcServer& server = *machine.software_server();
    ExpectRowsExported(metrics, "m0/" + ToString(stack) + "/", server.dedup().stats(),
                       kDedupStatsFields);
    ExpectRowsExported(metrics, "m0/overload/sheds_", server.sheds(), kShedCountsFields);
    EXPECT_GT(metrics.Counter("m0/dmanic/rx_packets"), 0u);
  }
}

}  // namespace
}  // namespace lauberhorn

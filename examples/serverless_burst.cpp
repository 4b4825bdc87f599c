// Serverless functions: 64 functions on an 8-core server, invoked in bursts.
//
// Most functions are cold most of the time — the workload §4 argues kernel
// bypass cannot serve (no spare cores to dedicate). Lauberhorn serves cold
// invocations through kernel control channels and promotes bursty functions
// to hot user-mode loops, scaling cores with the burst.
#include <cstdio>

#include "src/core/machine.h"
#include "src/sim/random.h"
#include "src/stats/table.h"

using namespace lauberhorn;

int main() {
  constexpr int kFunctions = 64;
  constexpr Duration kRun = Milliseconds(300);

  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform = PlatformSpec::EnzianEci();
  config.num_cores = 8;
  config.lauberhorn_endpoints = kFunctions + 8;
  Machine machine(config);

  std::vector<const ServiceDef*> functions;
  for (int i = 0; i < kFunctions; ++i) {
    ServiceDef def = ServiceRegistry::MakeEchoService(
        static_cast<uint32_t>(i + 1), static_cast<uint16_t>(7000 + i),
        Microseconds(15));  // function body: 15us of compute
    def.name = "fn-" + std::to_string(i);
    functions.push_back(&machine.AddService(std::move(def)));
  }
  machine.Start();  // no hot loops: everything starts cold
  machine.sim().RunUntil(Milliseconds(1));

  // Bursty invocations: every ~10ms one function becomes popular and receives
  // a burst of calls; a trickle hits random functions throughout.
  Rng rng(2026);
  Histogram burst_latency;
  Histogram trickle_latency;
  uint64_t invocations = 0;

  std::function<void(SimTime)> schedule_bursts = [&](SimTime at) {
    if (at >= kRun) {
      return;
    }
    const size_t hot_fn = rng.UniformInt(0, kFunctions - 1);
    for (int call = 0; call < 200; ++call) {
      const SimTime when = at + Microseconds(25) * call;
      machine.sim().ScheduleAt(when, [&, hot_fn]() {
        ++invocations;
        machine.client().Call(*functions[hot_fn], 0,
                              std::vector<WireValue>{WireValue::Bytes({1, 2, 3})},
                              [&](const RpcMessage&, Duration rtt) {
                                burst_latency.Record(rtt);
                              });
      });
    }
    schedule_bursts(at + Milliseconds(10));
  };
  schedule_bursts(Milliseconds(2));

  for (SimTime at = Milliseconds(1); at < kRun; at += Microseconds(500)) {
    const size_t fn = rng.UniformInt(0, kFunctions - 1);
    machine.sim().ScheduleAt(at, [&, fn]() {
      ++invocations;
      machine.client().Call(*functions[fn], 0,
                            std::vector<WireValue>{WireValue::Bytes({9})},
                            [&](const RpcMessage&, Duration rtt) {
                              trickle_latency.Record(rtt);
                            });
    });
  }

  machine.sim().RunUntil(kRun + Milliseconds(50));

  const auto& stats = machine.lauberhorn_nic()->stats();
  std::printf("serverless burst on %d functions, 8 cores, %s simulated:\n\n",
              kFunctions, FormatDuration(kRun).c_str());
  Table table({"metric", "value"});
  table.AddRow({"invocations sent", Table::Int(static_cast<int64_t>(invocations))});
  table.AddRow({"completed", Table::Int(static_cast<int64_t>(machine.client().completed()))});
  table.AddRow({"hot dispatches", Table::Int(static_cast<int64_t>(stats.hot_dispatches))});
  table.AddRow({"cold dispatches", Table::Int(static_cast<int64_t>(stats.cold_dispatches))});
  table.AddRow({"loops started (cores recruited)",
                Table::Int(static_cast<int64_t>(machine.lauberhorn_runtime()->stats().loops_started))});
  table.AddRow({"retires (cores released)",
                Table::Int(static_cast<int64_t>(stats.retires))});
  table.AddRow({"burst-call RTT p50/p99 (us)",
                Table::Num(ToMicroseconds(burst_latency.P50()), 1) + " / " +
                    Table::Num(ToMicroseconds(burst_latency.P99()), 1)});
  table.AddRow({"trickle (mostly cold) RTT p50/p99 (us)",
                Table::Num(ToMicroseconds(trickle_latency.P50()), 1) + " / " +
                    Table::Num(ToMicroseconds(trickle_latency.P99()), 1)});
  table.Print();

  // §6: the NIC's own statistics — per-endpoint latency histograms — without
  // any host-side instrumentation. Show the three busiest functions.
  std::printf("\nNIC-side per-function statistics (top 3 by traffic):\n");
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (const ServiceDef* fn : functions) {
    for (uint32_t ep : machine.EndpointsOf(*fn)) {
      const Histogram& latency = machine.lauberhorn_nic()->EndpointLatency(ep);
      if (latency.count() > 0) {
        rows.emplace_back(latency.count(),
                          "  " + fn->name + ": " + latency.Summary());
      }
    }
  }
  std::sort(rows.rbegin(), rows.rend());
  for (size_t i = 0; i < rows.size() && i < 3; ++i) {
    std::printf("%s\n", rows[i].second.c_str());
  }

  std::printf("\nBursts are served hot after the first invocation promotes the function to\n"
              "a user-mode loop; the long tail of cold functions rides the kernel channel\n"
              "without reserving any core (§5.2).\n");
  return 0;
}

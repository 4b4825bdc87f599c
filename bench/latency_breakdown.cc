// BRKDN — per-stage latency budgets from request spans (DESIGN.md §12).
//
// Every stack stamps the same eight span stages (src/stats/span.h); this
// bench runs an unloaded closed-loop echo on each stack, aggregates the
// seven inter-stage segments, and prints where each stack's nanoseconds go.
// The breakdown makes the paper's §4 argument mechanistic: the Lauberhorn
// hot path collapses dispatch/deliver/sched to near-zero because the NIC
// fills a stalled CONTROL-line load, while Linux pays for the softirq +
// socket + worker handoff and bypass pays in polling granularity.
//
//   --smoke   gate mode: exit nonzero unless every completed request on
//             every stack reconstructs a complete, monotonic span and the
//             span count matches the client's completed-RPC count.
//   --trace   write all spans as Chrome trace-event JSON (Perfetto-loadable).
//   --json    machine-readable per-stack budgets + full metrics registry.
#include <cinttypes>

#include "bench/common.h"
#include "src/stats/chrome_trace.h"

namespace lauberhorn {
namespace {

struct StackResult {
  std::string name;
  SpanCollector::StageBudget budget;
  uint64_t client_completed = 0;
  uint64_t spans_completed = 0;
  uint64_t spans_dropped = 0;
  uint64_t orphan_marks = 0;
  uint64_t reopened = 0;
  uint64_t sim_events = 0;  // Simulator::events_executed() at the end
  bool all_complete = true;
  bool all_monotonic = true;
  std::vector<ChromeTraceEvent> events;
  std::string metrics_json;
};

StackResult MeasureStack(StackKind stack, bool hot, int requests) {
  MachineConfig config;
  config.stack = stack;
  config.platform = PlatformSpec::EnzianEci();
  config.num_cores = 8;
  config.nic_queues = stack == StackKind::kBypass ? 4 : 2;
  config.enable_spans = true;
  Machine machine(std::move(config));
  const ServiceDef& echo =
      machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  if (stack == StackKind::kLauberhorn && hot) {
    machine.StartHotLoop(echo);
  }
  machine.sim().RunUntil(Milliseconds(1));

  machine.ResetMeasurement();
  ClosedLoopGenerator::Config generator_config;
  generator_config.concurrency = 1;
  generator_config.max_requests = static_cast<uint64_t>(requests);
  if (stack == StackKind::kLauberhorn && !hot) {
    generator_config.think_time = Microseconds(300);
  }
  std::vector<WorkloadTarget> targets = {{&echo, 0, 64, 1.0}};
  ClosedLoopGenerator generator(machine.sim(), machine.client(), targets,
                                generator_config);
  if (stack == StackKind::kLauberhorn && !hot) {
    // Cold measurement: keep retiring the endpoint's core so every request
    // takes the kernel-channel route (same policy as TBL-END).
    machine.StartHotLoop(echo);
    const auto endpoints = machine.EndpointsOf(echo);
    auto retire = std::make_shared<std::function<void()>>();
    *retire = [&machine, endpoints, retire]() {
      for (uint32_t ep : endpoints) {
        machine.lauberhorn_runtime()->Deschedule(ep);
      }
      machine.sim().Schedule(Microseconds(150), *retire);
    };
    machine.sim().Schedule(Microseconds(100), *retire);
  }
  bool finished = false;
  generator.on_finished = [&finished]() { finished = true; };
  generator.Start();
  const SimTime deadline = machine.sim().Now() + Seconds(2);
  while (!finished && machine.sim().Now() < deadline) {
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(1));
  }

  const SpanCollector& spans = *machine.spans();
  StackResult result;
  result.name = ToString(stack) + (stack == StackKind::kLauberhorn
                                       ? (hot ? " hot" : " cold")
                                       : "");
  result.budget = spans.Aggregate();
  result.client_completed = machine.client().completed();
  result.spans_completed = spans.completed().size();
  result.spans_dropped = spans.dropped();
  result.orphan_marks = spans.orphan_marks();
  result.reopened = spans.reopened();
  result.sim_events = machine.sim().events_executed();
  for (const RequestSpan& span : spans.completed()) {
    result.all_complete = result.all_complete && span.Complete();
    result.all_monotonic = result.all_monotonic && span.Monotonic();
  }
  result.events = SpanTraceEvents(spans);
  MetricsRegistry metrics;
  machine.ExportMetrics(metrics);
  result.metrics_json = metrics.ToJson();
  return result;
}

std::string SegmentsJson(const SpanCollector::StageBudget& budget) {
  JsonObject obj;
  for (size_t i = 0; i < kSpanSegmentCount; ++i) {
    obj.Field(SpanSegmentName(i), ToMicroseconds(Duration(
                                      budget.segments[i].Mean())));
  }
  return obj.Render();
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("BRKDN", "per-stage latency budget per stack (64B echo, unloaded)");

  const int requests = args.smoke ? 100 : 400;
  std::vector<StackResult> results;
  results.push_back(MeasureStack(StackKind::kLinux, true, requests));
  results.push_back(MeasureStack(StackKind::kBypass, true, requests));
  results.push_back(MeasureStack(StackKind::kLauberhorn, true, requests));
  results.push_back(MeasureStack(StackKind::kLauberhorn, false, requests));

  // Budget table: one column per stack, one row per inter-stage segment
  // (mean), plus the p50 of the full wire-RX -> client-RX span.
  std::vector<std::string> header = {"segment (mean us)"};
  for (const StackResult& r : results) {
    header.push_back(r.name);
  }
  Table table(header);
  for (size_t i = 0; i < kSpanSegmentCount; ++i) {
    std::vector<std::string> row = {SpanSegmentName(i)};
    for (const StackResult& r : results) {
      row.push_back(Us(Duration(r.budget.segments[i].Mean())));
    }
    table.AddRow(row);
  }
  std::vector<std::string> total_row = {"total (p50)"};
  for (const StackResult& r : results) {
    total_row.push_back(Us(r.budget.total.P50()));
  }
  table.AddRow(total_row);
  PrintTable(table, args.csv);

  std::printf("\n");
  for (const StackResult& r : results) {
    std::printf("%-18s spans=%" PRIu64 "/%" PRIu64
                " complete=%s monotonic=%s dropped=%" PRIu64
                " orphan_marks=%" PRIu64 " reopened=%" PRIu64 "\n",
                r.name.c_str(), r.spans_completed, r.client_completed,
                r.all_complete ? "yes" : "NO", r.all_monotonic ? "yes" : "NO",
                r.spans_dropped, r.orphan_marks, r.reopened);
  }

  if (!args.trace.empty()) {
    // One trace file covering all stacks: give each run its own pid block so
    // same-valued request ids from different machines don't collide.
    std::vector<ChromeTraceEvent> all;
    for (size_t s = 0; s < results.size(); ++s) {
      for (ChromeTraceEvent ev : results[s].events) {
        ev.pid += static_cast<int>(s) * 10;
        all.push_back(std::move(ev));
      }
    }
    if (!EventsNestCorrectly(all)) {
      std::fprintf(stderr, "trace events do not nest\n");
      return 1;
    }
    if (!WriteJsonFile(args.trace, RenderChromeTrace(all))) {
      return 1;
    }
    std::printf("\nwrote %zu trace events to %s\n", all.size(),
                args.trace.c_str());
  }

  if (!args.json.empty()) {
    std::vector<std::string> stacks;
    for (const StackResult& r : results) {
      JsonObject obj;
      obj.Field("stack", r.name)
          .Field("requests", r.client_completed)
          .Field("spans_completed", r.spans_completed)
          .Field("all_complete", r.all_complete)
          .Field("all_monotonic", r.all_monotonic)
          .Raw("segments_us", SegmentsJson(r.budget))
          .Field("total_p50_us", ToMicroseconds(r.budget.total.P50()))
          .Field("total_p99_us", ToMicroseconds(r.budget.total.P99()))
          .Field("sim_events", r.sim_events)
          .Raw("metrics", r.metrics_json);
      stacks.push_back(obj.Render());
    }
    JsonObject root;
    root.Field("bench", std::string("latency_breakdown"))
        .Field("smoke", args.smoke)
        .Raw("stacks", JsonArray(stacks));
    if (!WriteJsonFile(args.json, root.Render())) {
      return 1;
    }
  }

  if (args.smoke) {
    bool ok = true;
    for (const StackResult& r : results) {
      if (!r.all_complete || !r.all_monotonic ||
          r.spans_completed != r.client_completed || r.spans_completed == 0) {
        std::fprintf(stderr,
                     "SMOKE FAIL %s: spans=%" PRIu64 " completed=%" PRIu64
                     " complete=%d monotonic=%d\n",
                     r.name.c_str(), r.spans_completed, r.client_completed,
                     r.all_complete, r.all_monotonic);
        ok = false;
      }
    }
    if (!ok) {
      return 1;
    }
    std::printf("\nsmoke: all spans complete and monotonic on every stack\n");
  }

  std::printf("\nReading the table: Lauberhorn-hot collapses dispatch/deliver/sched —\n"
              "the NIC answers a stalled CONTROL-line load with code pointer +\n"
              "arguments, so no software runs between admission and the handler.\n"
              "Linux pays the softirq -> socket -> worker handoff in 'deliver' and\n"
              "'sched'; bypass hides them in poll granularity; the cold path buys\n"
              "generality with one kernel-channel dispatch + context switch.\n");
  return 0;
}

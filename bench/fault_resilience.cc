// RESIL — end-to-end reliability under cross-layer fault injection.
//
// Sweeps a canonical fault-plan intensity (Gilbert–Elliott wire loss +
// duplication + reordering + corruption, coherence fill delays, IOMMU fault
// bursts, DMA completion errors, OS crash windows, wedged NIC endpoints) per
// stack, with the client reliability layer enabled (exponential backoff +
// jitter + retry budget) and server-side at-most-once dedup on.
//
// Each request carries a unique sequence number; the service counts handler
// executions per sequence so duplicate executions are observable end to end.
// The paper's claim under test: a NIC that is part of the OS can degrade
// gracefully — goodput survives fault injection, and at-most-once semantics
// hold on every stack.
//
// --smoke is the CI gate: one nonzero intensity, all three stacks, asserting
// zero duplicate executions, a bounded retransmit rate, and nonzero goodput.
#include <cmath>
#include <unordered_map>

#include "bench/common.h"

namespace lauberhorn {
namespace {

struct Cell {
  uint64_t sent = 0;
  uint64_t ok = 0;         // responses with status kOk (goodput)
  uint64_t timeouts = 0;
  uint64_t retransmits = 0;
  uint64_t suppressed = 0;  // retry budget withheld the wire copy
  uint64_t late = 0;
  uint64_t dup_execs = 0;   // sequences executed more than once (must be 0)
  uint64_t replays = 0;     // server answered a duplicate from the cache
  uint64_t dup_drops = 0;   // server dropped a duplicate of an in-flight req
  uint64_t degradations = 0;  // Lauberhorn endpoint demotions
  uint64_t service_down_drops = 0;
  Duration p50 = 0;
  Duration p99 = 0;
  uint64_t sim_events = 0;  // Simulator::events_executed() after the drain
};

// One service whose handler tallies executions per sequence number (arg 0),
// echoing both args back. Handlers never see request ids, so the sequence
// number travels as a marshalled argument.
ServiceDef MakeCountingService(std::unordered_map<uint64_t, uint32_t>& execs,
                               Duration service_time) {
  ServiceDef def;
  def.service_id = 1;
  def.name = "counted-echo";
  def.udp_port = 7000;
  MethodDef method;
  method.method_id = 0;
  method.name = "counted";
  method.request_sig.args = {WireType::kU64, WireType::kBytes};
  method.response_sig.args = {WireType::kU64, WireType::kBytes};
  method.handler = [&execs](const std::vector<WireValue>& args) {
    ++execs[args.at(0).scalar];
    return std::vector<WireValue>{args.at(0), args.at(1)};
  };
  method.SetFixedServiceTime(service_time);
  def.methods[0] = std::move(method);
  return def;
}

Cell Measure(StackKind stack, double intensity, uint64_t seed, bool smoke) {
  MachineConfig config;
  config.stack = stack;
  config.platform = PlatformSpec::EnzianEci();
  config.num_cores = 8;
  config.nic_queues = stack == StackKind::kBypass ? 4 : 2;
  config.linux_stack.worker_threads_per_service = 2;
  config.seed = seed;
  config.faults = FaultPlan::Canonical(intensity, seed);

  // Client reliability layer: exponential backoff with jitter, capped RTO,
  // and a token-bucket retry budget so loss bursts cannot become storms.
  config.client_retransmit_timeout = Microseconds(300);
  config.client_max_retransmits = 8;
  config.client_backoff_multiplier = 2.0;
  config.client_max_retransmit_timeout = Milliseconds(5);
  config.client_retransmit_jitter = 0.2;
  config.client_retry_budget_per_sec = 50000.0;
  config.server_dedup = true;

  // Lauberhorn: tighten the TRYAGAIN deadline and the degradation detector
  // so a wedged endpoint is demoted within tens of microseconds (detection
  // latency = tryagain_timeout * threshold).
  LauberhornParams params = config.platform.lauberhorn;
  params.tryagain_timeout = Microseconds(20);
  params.degrade_tryagain_threshold = 4;
  params.degrade_backoff = Microseconds(300);
  config.lauberhorn_params = params;

  std::unordered_map<uint64_t, uint32_t> execs;
  Machine machine(std::move(config));
  const ServiceDef& svc = machine.AddService(
      MakeCountingService(execs, Microseconds(1)),
      /*max_cores=*/stack == StackKind::kLauberhorn ? 4 : 1);
  machine.Start();
  if (stack == StackKind::kLauberhorn) {
    machine.StartHotLoop(svc);
  }
  machine.sim().RunUntil(Milliseconds(1));

  // Open-loop driver issuing uniquely-numbered requests. The run window
  // covers at least one OS crash window of the canonical plan (20 ms in).
  const double rate_rps = smoke ? 30000.0 : 60000.0;
  const Duration window = smoke ? Milliseconds(30) : Milliseconds(60);
  const SimTime stop = machine.sim().Now() + window;
  const Duration gap = NanosecondsF(1e9 / rate_rps);
  const std::vector<uint8_t> payload(64, 0xab);

  Cell cell;
  Histogram rtt;
  auto fire = std::make_shared<Function<void()>>();
  uint64_t seq = 0;
  *fire = [&machine, &svc, &cell, &rtt, &seq, fire, stop, gap, payload]() {
    if (machine.sim().Now() >= stop) {
      return;
    }
    std::vector<WireValue> args = {WireValue::U64(seq++),
                                   WireValue::Bytes(payload)};
    machine.client().Call(svc, 0, args,
                          [&cell, &rtt](const RpcMessage& response, Duration d) {
                            if (response.status == RpcStatus::kOk) {
                              ++cell.ok;
                              rtt.Record(d);
                            }
                          });
    machine.sim().Schedule(gap, [fire]() { (*fire)(); });
  };
  (*fire)();
  // Let stragglers and final retransmits drain before reading counters.
  machine.sim().RunUntil(stop + Milliseconds(10));

  cell.sent = seq;
  cell.sim_events = machine.sim().events_executed();
  cell.timeouts = machine.client().stats().timeouts;
  cell.retransmits = machine.client().stats().retransmits;
  cell.suppressed = machine.client().stats().retransmits_suppressed;
  cell.late = machine.client().stats().late_responses;
  for (const auto& [s, count] : execs) {
    if (count > 1) {
      ++cell.dup_execs;
    }
  }
  cell.p50 = rtt.P50();
  cell.p99 = rtt.P99();
  const RpcDedupCache::Stats& dedup = machine.server_dedup().stats();
  cell.replays = dedup.duplicates_replayed;
  cell.dup_drops = dedup.duplicates_in_flight;
  switch (stack) {
    case StackKind::kLinux:
    case StackKind::kBypass:
      cell.service_down_drops = machine.dma_nic()->stats().rx_drops_service_down;
      break;
    case StackKind::kLauberhorn: {
      const auto& stats = machine.lauberhorn_nic()->stats();
      cell.degradations = stats.degradations;
      cell.service_down_drops = stats.drops_service_down;
      break;
    }
  }
  return cell;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("RESIL",
              "goodput and at-most-once semantics under cross-layer fault injection");

  const std::vector<double> intensities =
      args.smoke ? std::vector<double>{1.0}
                 : std::vector<double>{0.0, 0.5, 1.0, 2.0};
  const std::vector<StackKind> stacks = {StackKind::kLinux, StackKind::kBypass,
                                         StackKind::kLauberhorn};

  struct Job {
    double intensity;
    StackKind stack;
  };
  std::vector<Job> jobs;
  for (double intensity : intensities) {
    for (StackKind stack : stacks) {
      jobs.push_back({intensity, stack});
    }
  }
  const std::vector<Cell> cells = RunTrialsParallel(
      static_cast<int>(jobs.size()), [&](int i) {
        const Job& job = jobs[static_cast<size_t>(i)];
        return Measure(job.stack, job.intensity, args.seed, args.smoke);
      });

  Table table({"intensity", "stack", "sent", "goodput", "p50 (us)", "p99 (us)",
               "retx", "suppr", "timeouts", "late", "replays", "dup-drops",
               "degrade", "svc-down", "dup-execs"});
  bool violation = false;
  std::vector<std::string> json_rows;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const Cell& cell = cells[i];
    table.AddRow({Table::Num(job.intensity, 2), ToString(job.stack),
                  Table::Int(static_cast<int64_t>(cell.sent)),
                  Table::Int(static_cast<int64_t>(cell.ok)), Us(cell.p50),
                  Us(cell.p99), Table::Int(static_cast<int64_t>(cell.retransmits)),
                  Table::Int(static_cast<int64_t>(cell.suppressed)),
                  Table::Int(static_cast<int64_t>(cell.timeouts)),
                  Table::Int(static_cast<int64_t>(cell.late)),
                  Table::Int(static_cast<int64_t>(cell.replays)),
                  Table::Int(static_cast<int64_t>(cell.dup_drops)),
                  Table::Int(static_cast<int64_t>(cell.degradations)),
                  Table::Int(static_cast<int64_t>(cell.service_down_drops)),
                  Table::Int(static_cast<int64_t>(cell.dup_execs))});
    JsonObject row;
    row.Field("intensity", job.intensity)
        .Field("stack", ToString(job.stack))
        .Field("sent", cell.sent)
        .Field("goodput", cell.ok)
        .Field("p50_us", ToMicroseconds(cell.p50))
        .Field("p99_us", ToMicroseconds(cell.p99))
        .Field("retransmits", cell.retransmits)
        .Field("retransmits_suppressed", cell.suppressed)
        .Field("timeouts", cell.timeouts)
        .Field("late_responses", cell.late)
        .Field("dedup_replays", cell.replays)
        .Field("dedup_drops_in_flight", cell.dup_drops)
        .Field("degradations", cell.degradations)
        .Field("service_down_drops", cell.service_down_drops)
        .Field("sim_events", cell.sim_events)
        .Field("duplicate_executions", cell.dup_execs);
    json_rows.push_back(row.Render());

    // Acceptance gates. At-most-once must hold everywhere; under faults the
    // retransmit volume must stay bounded (the budget caps storms) and some
    // goodput must survive.
    if (cell.dup_execs != 0) {
      std::fprintf(stderr, "VIOLATION: %s at intensity %.2f executed %llu "
                   "sequences more than once\n",
                   ToString(job.stack).c_str(), job.intensity,
                   static_cast<unsigned long long>(cell.dup_execs));
      violation = true;
    }
    if (cell.ok == 0) {
      std::fprintf(stderr, "VIOLATION: %s at intensity %.2f completed nothing\n",
                   ToString(job.stack).c_str(), job.intensity);
      violation = true;
    }
    if (cell.sent > 0 &&
        static_cast<double>(cell.retransmits) > 2.0 * static_cast<double>(cell.sent)) {
      std::fprintf(stderr, "VIOLATION: %s at intensity %.2f retransmit rate "
                   "unbounded (%llu retx for %llu sent)\n",
                   ToString(job.stack).c_str(), job.intensity,
                   static_cast<unsigned long long>(cell.retransmits),
                   static_cast<unsigned long long>(cell.sent));
      violation = true;
    }
  }
  PrintTable(table, args.csv);

  if (!args.json.empty()) {
    JsonObject doc;
    doc.Field("bench", std::string("RESIL"))
        .Field("seed", args.seed)
        .Field("smoke", args.smoke)
        .Raw("rows", JsonArray(json_rows));
    if (!WriteJsonFile(args.json, doc.Render())) {
      return 1;
    }
  }

  std::printf("\nExpected shape: goodput decays gently with intensity on every stack\n"
              "(the reliability layer carries RPCs over loss, crashes, and wedges);\n"
              "duplicate executions stay zero, and Lauberhorn's degradations column\n"
              "shows wedged endpoints being demoted to the cold path.\n");
  return violation ? 1 : 0;
}

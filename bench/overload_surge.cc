// OVLD — NIC-side overload control under flash-crowd surges.
//
// Per stack: calibrate saturation capacity C with a closed loop, then drive
// an open-loop phase schedule — warmup (0.2 C, the unloaded latency
// reference), baseline (1.0 C), a flash-crowd surge (mult x C with 55% of
// the load concentrated on one service, shifting to a different hot service
// mid-surge), and recovery (0.5 C). Admission control (src/overload) is on:
// per-service token-bucket quotas plus a CoDel-style sojourn gate at each
// stack's shed point. Reported per cell: goodput retention under surge, shed
// fraction and per-reason counts, admitted p50/p99/p99.9 against the
// unloaded p99.9, host-CPU cost per shed, and time-to-recover after the
// surge ends.
//
// A second set of cells composes the surge with the canonical fault plan at
// full intensity (client retransmits + breaker on), asserting that
// at-most-once execution holds while the server is actively shedding.
//
// The paper's claim under test: a NIC that is part of the OS can say "no"
// before a host core is disturbed — the Lauberhorn columns shed at zero
// host-CPU cost while Linux and bypass burn softirq/poll-core cycles per
// rejected request.
//
// --smoke is the CI gate: mult = 5 on all three stacks plus the fault cells,
// asserting >= 80% goodput retention, admitted p99.9 within 10x of the
// unloaded p99.9, a strictly cheaper shed on Lauberhorn, and zero duplicate
// executions under faults.
#include <cmath>
#include <memory>
#include <unordered_map>

#include "bench/common.h"

namespace lauberhorn {
namespace {

constexpr size_t kNumServices = 4;
constexpr Duration kServiceTime = Microseconds(2);

MachineConfig BaseConfig(StackKind stack, uint64_t seed) {
  MachineConfig config;
  config.stack = stack;
  config.platform = PlatformSpec::EnzianEci();
  config.num_cores = 8;
  config.nic_queues = stack == StackKind::kBypass ? 4 : 2;
  config.linux_stack.worker_threads_per_service = 2;
  config.seed = seed;
  return config;
}

void AddEchoServices(Machine& machine, std::vector<const ServiceDef*>& services) {
  for (size_t i = 0; i < kNumServices; ++i) {
    const ServiceDef& svc = machine.AddService(
        ServiceRegistry::MakeEchoService(static_cast<uint32_t>(i + 1),
                                         static_cast<uint16_t>(7000 + i),
                                         kServiceTime),
        /*max_cores=*/2);
    services.push_back(&svc);
  }
}

void StartStack(Machine& machine, const std::vector<const ServiceDef*>& services) {
  machine.Start();
  if (machine.config().stack == StackKind::kLauberhorn) {
    for (const ServiceDef* svc : services) {
      machine.StartHotLoop(*svc);
    }
  }
  machine.sim().RunUntil(Milliseconds(1));
}

// Saturation capacity in requests/s: a closed loop with enough outstanding
// requests to keep every core busy, measured over a settle-then-count window.
double Calibrate(StackKind stack, uint64_t seed) {
  MachineConfig config = BaseConfig(stack, seed);
  Machine machine(std::move(config));
  std::vector<const ServiceDef*> services;
  AddEchoServices(machine, services);
  StartStack(machine, services);

  std::vector<WorkloadTarget> targets;
  for (const ServiceDef* svc : services) {
    targets.push_back({svc, 0, 64, 1.0});
  }
  ClosedLoopGenerator::Config gen_config;
  gen_config.concurrency = 64;
  gen_config.seed = seed;
  ClosedLoopGenerator gen(machine.sim(), machine.client(), targets, gen_config);
  gen.Start();
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(1));  // settle
  const uint64_t before = gen.completed();
  const Duration window = Milliseconds(3);
  machine.sim().RunUntil(machine.sim().Now() + window);
  const uint64_t delta = gen.completed() - before;
  gen.Stop();
  return static_cast<double>(delta) / ToSeconds(window);
}

struct ShedCounters {
  uint64_t queue = 0;
  uint64_t quota = 0;
  uint64_t sojourn = 0;
  Duration cpu = 0;  // host-CPU time burned saying "no"
  uint64_t total() const { return queue + quota + sojourn; }
};

ShedCounters ReadSheds(Machine& machine) {
  const ShedCounts& sheds = machine.sheds();
  const SoftwareRpcServer* server = machine.software_server();
  // A NIC-side shed costs no host CPU: no host core ever sees the request.
  return {sheds.queue, sheds.quota, sheds.sojourn,
          server != nullptr ? server->shed_cpu_time() : 0};
}

AdmissionConfig MakeAdmission(double capacity_rps) {
  AdmissionConfig admission;
  admission.enabled = true;
  // Per-service quota: 40% of machine capacity each. Under an even mix this
  // admits everything; a flash crowd on one service is clipped to its fair
  // share plus headroom instead of starving the others.
  admission.quota_rps = 0.5 * capacity_rps;
  admission.quota_burst = 64.0;
  admission.sojourn.target = Microseconds(20);
  admission.sojourn.interval = Microseconds(200);
  // Tight depth bound: it backstops the sojourn gate during the interval
  // before dropping engages, keeping even the first surge arrivals' wait to
  // tens of microseconds.
  admission.queue_depth_limit = 8;
  return admission;
}

struct SurgeCell {
  double capacity_rps = 0.0;
  uint64_t surge_sent = 0;
  uint64_t surge_ok = 0;
  uint64_t surge_overloaded = 0;
  double baseline_rate = 0.0;  // goodput during the 1.0 C phase, rps
  double surge_rate = 0.0;     // goodput during the surge phase, rps
  double retention = 0.0;      // surge_rate / baseline_rate
  double shed_fraction = 0.0;  // sheds / arrivals during the surge
  ShedCounters sheds;          // surge-phase deltas
  Duration shed_cpu_per_shed = 0;
  Duration p999_unloaded = 0;
  Duration p50_surge = 0;
  Duration p99_surge = 0;
  Duration p999_surge = 0;
  Duration time_to_recover = 0;
  bool recovered = false;
  uint64_t scale_suppressed = 0;  // Lauberhorn governor cooldown hits
  uint64_t sim_events = 0;  // Simulator::events_executed() after the drain
};

SurgeCell MeasureSurge(StackKind stack, double mult, double capacity_rps,
                       uint64_t seed, bool smoke) {
  MachineConfig config = BaseConfig(stack, seed);
  config.admission = MakeAdmission(capacity_rps);
  // Small descriptor rings for the DMA stacks: a surge must drop early at
  // the device, not build hundreds of microseconds of ring residency that
  // admitted requests then sit behind.
  config.nic_ring_entries = 16;
  config.nic_rx_fifo_depth = 8;
  // Harden the Lauberhorn scale-up/RETIRE loop against churn during the
  // flash crowd (no-ops for the other stacks).
  config.runtime.scale.cooldown = Microseconds(100);
  config.runtime.scale.down_ticks = 3;
  Machine machine(std::move(config));
  std::vector<const ServiceDef*> services;
  AddEchoServices(machine, services);
  StartStack(machine, services);

  std::vector<WorkloadTarget> targets;
  for (const ServiceDef* svc : services) {
    targets.push_back({svc, 0, 64, 1.0});
  }
  OpenLoopGenerator::Config gen_config;
  gen_config.rate_rps = 0.2 * capacity_rps;
  gen_config.seed = seed;
  gen_config.start = machine.sim().Now();
  OpenLoopGenerator gen(machine.sim(), machine.client(), targets, gen_config);

  // Phase schedule (smoke halves every window).
  const Duration unit = smoke ? Milliseconds(1) : Milliseconds(2);
  const SimTime t0 = machine.sim().Now();
  const SimTime baseline_start = t0 + unit;
  const SimTime surge_start = baseline_start + unit;
  const SimTime surge_end = surge_start + 2 * unit;
  const SimTime run_end = surge_end + 2 * unit;

  // Admitted-RTT histograms per phase; kOverloaded replies are sheds, not
  // served requests, and stay out of the latency story.
  enum Phase { kWarmup = 0, kBaseline, kSurge, kRecovery };
  auto phase = std::make_shared<int>(kWarmup);
  Histogram hist[4];
  uint64_t ok[4] = {0, 0, 0, 0};
  const Duration bin_width = Microseconds(500);
  std::vector<uint64_t> ok_bins(static_cast<size_t>(run_end / bin_width) + 2, 0);
  gen.on_response = [&, phase](const RpcMessage& msg, Duration rtt) {
    if (msg.status != RpcStatus::kOk) {
      return;
    }
    hist[*phase].Record(rtt);
    ++ok[*phase];
    const size_t bin = static_cast<size_t>(machine.sim().Now() / bin_width);
    if (bin < ok_bins.size()) {
      ++ok_bins[bin];
    }
  };

  SurgeCell cell;
  cell.capacity_rps = capacity_rps;
  uint64_t sent_at_surge_start = 0;
  uint64_t sent_at_surge_end = 0;
  uint64_t overloaded_at_surge_start = 0;
  ShedCounters sheds_at_surge_start;

  machine.sim().ScheduleAt(baseline_start, [&, phase]() {
    *phase = kBaseline;
    gen.SetRate(capacity_rps);
  });
  machine.sim().ScheduleAt(surge_start, [&, phase]() {
    *phase = kSurge;
    sent_at_surge_start = gen.sent();
    overloaded_at_surge_start = machine.client().stats().overloaded;
    sheds_at_surge_start = ReadSheds(machine);
    gen.SetRate(mult * capacity_rps);
    gen.SetWeights({0.55, 0.15, 0.15, 0.15});  // flash crowd on service 1
  });
  machine.sim().ScheduleAt((surge_start + surge_end) / 2, [&]() {
    gen.SetWeights({0.15, 0.55, 0.15, 0.15});  // Zipf shift: new hot service
  });
  machine.sim().ScheduleAt(surge_end, [&, phase]() {
    *phase = kRecovery;
    sent_at_surge_end = gen.sent();
    const ShedCounters now = ReadSheds(machine);
    cell.sheds.queue = now.queue - sheds_at_surge_start.queue;
    cell.sheds.quota = now.quota - sheds_at_surge_start.quota;
    cell.sheds.sojourn = now.sojourn - sheds_at_surge_start.sojourn;
    cell.sheds.cpu = now.cpu - sheds_at_surge_start.cpu;
    cell.surge_overloaded =
        machine.client().stats().overloaded - overloaded_at_surge_start;
    gen.SetRate(0.5 * capacity_rps);
    gen.SetWeights({1.0, 1.0, 1.0, 1.0});
  });

  gen.Start();
  machine.sim().RunUntil(run_end);
  gen.Stop();
  machine.sim().RunUntil(run_end + unit);  // drain stragglers

  cell.sim_events = machine.sim().events_executed();
  cell.surge_sent = sent_at_surge_end - sent_at_surge_start;
  cell.surge_ok = ok[kSurge];
  cell.baseline_rate = static_cast<double>(ok[kBaseline]) /
                       ToSeconds(surge_start - baseline_start);
  cell.surge_rate =
      static_cast<double>(ok[kSurge]) / ToSeconds(surge_end - surge_start);
  cell.retention =
      cell.baseline_rate > 0.0 ? cell.surge_rate / cell.baseline_rate : 0.0;
  const double arrivals = static_cast<double>(cell.surge_sent);
  cell.shed_fraction =
      arrivals > 0.0 ? static_cast<double>(cell.sheds.total()) / arrivals : 0.0;
  cell.shed_cpu_per_shed =
      cell.sheds.total() > 0
          ? cell.sheds.cpu / static_cast<Duration>(cell.sheds.total())
          : 0;
  cell.p999_unloaded = hist[kWarmup].P999();
  cell.p50_surge = hist[kSurge].P50();
  cell.p99_surge = hist[kSurge].P99();
  cell.p999_surge = hist[kSurge].P999();
  if (stack == StackKind::kLauberhorn) {
    cell.scale_suppressed = machine.lauberhorn_runtime()->scale_suppressed();
  }

  // Time-to-recover: first full 500 us bin after the surge whose goodput is
  // back to >= 80% of the offered recovery rate.
  const double expected_per_bin = 0.5 * capacity_rps * ToSeconds(bin_width);
  for (SimTime t = surge_end; t + bin_width <= run_end; t += bin_width) {
    const size_t bin = static_cast<size_t>(t / bin_width);
    if (bin < ok_bins.size() &&
        static_cast<double>(ok_bins[bin]) >= 0.8 * expected_per_bin) {
      cell.time_to_recover = t + bin_width - surge_end;
      cell.recovered = true;
      break;
    }
  }
  if (!cell.recovered) {
    cell.time_to_recover = run_end - surge_end;
  }
  return cell;
}

// Surge + canonical fault plan at full intensity: retransmits and the
// overload breaker on, a counting handler observing duplicate executions.
struct FaultCell {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t sheds = 0;
  uint64_t dup_execs = 0;
  uint64_t breaker_openings = 0;
  uint64_t suppressed_breaker = 0;
  uint64_t late = 0;
  uint64_t sim_events = 0;  // Simulator::events_executed() after the drain
};

ServiceDef MakeCountingService(std::unordered_map<uint64_t, uint32_t>& execs) {
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
  method.SetFixedServiceTime(kServiceTime);
  def.methods[0] = std::move(method);
  return def;
}

FaultCell MeasureFaulted(StackKind stack, double capacity_rps, uint64_t seed,
                         bool smoke) {
  MachineConfig config = BaseConfig(stack, seed);
  config.faults = FaultPlan::Canonical(1.0, seed);
  config.admission = MakeAdmission(capacity_rps);
  config.nic_ring_entries = 16;
  config.nic_rx_fifo_depth = 8;
  config.runtime.scale.cooldown = Microseconds(200);
  config.runtime.scale.down_ticks = 3;
  config.client_retransmit_timeout = Microseconds(300);
  config.client_max_retransmits = 8;
  config.client_backoff_multiplier = 2.0;
  config.client_max_retransmit_timeout = Milliseconds(5);
  config.client_retransmit_jitter = 0.2;
  config.client_retry_budget_per_sec = 50000.0;
  config.client_overload_breaker_threshold = 32;
  config.client_overload_breaker_window = Microseconds(200);
  config.server_dedup = true;
  // The dedup window must cover the retransmit horizon at this arrival rate;
  // an evicted completed entry would let a late retransmit re-execute.
  config.server_dedup_window = 1 << 16;

  std::unordered_map<uint64_t, uint32_t> execs;
  Machine machine(std::move(config));
  const ServiceDef& svc =
      machine.AddService(MakeCountingService(execs),
                         /*max_cores=*/stack == StackKind::kLauberhorn ? 4 : 1);
  machine.Start();
  if (stack == StackKind::kLauberhorn) {
    machine.StartHotLoop(svc);
  }
  machine.sim().RunUntil(Milliseconds(1));

  // 5x the service's fair share of machine capacity, onto one service: well
  // past what it can serve, so shedding is active the whole window.
  const double rate_rps = 5.0 * capacity_rps / kNumServices;
  const Duration window = smoke ? Milliseconds(6) : Milliseconds(12);
  const SimTime stop = machine.sim().Now() + window;
  const std::vector<uint8_t> payload(64, 0xab);

  FaultCell cell;
  auto fire = std::make_shared<Function<void()>>();
  auto seq = std::make_shared<uint64_t>(0);
  Rng gaps(seed ^ 0x9e3779b97f4a7c15ULL);
  *fire = [&machine, &svc, &cell, seq, fire, &gaps, stop, rate_rps, payload]() {
    if (machine.sim().Now() >= stop) {
      return;
    }
    std::vector<WireValue> args = {WireValue::U64((*seq)++),
                                   WireValue::Bytes(payload)};
    machine.client().Call(svc, 0, args,
                          [&cell](const RpcMessage& response, Duration) {
                            if (response.status == RpcStatus::kOk) {
                              ++cell.ok;
                            }
                          });
    machine.sim().Schedule(NanosecondsF(gaps.Exponential(1.0 / rate_rps) * 1e9),
                           [fire]() { (*fire)(); });
  };
  (*fire)();
  machine.sim().RunUntil(stop + Milliseconds(10));

  cell.sent = *seq;
  cell.sim_events = machine.sim().events_executed();
  cell.overloaded = machine.client().stats().overloaded;
  cell.breaker_openings = machine.client().stats().breaker_openings;
  cell.suppressed_breaker = machine.client().stats().retransmits_suppressed_breaker;
  cell.late = machine.client().stats().late_responses;
  cell.sheds = ReadSheds(machine).total();
  for (const auto& [s, count] : execs) {
    if (count > 1) {
      ++cell.dup_execs;
    }
  }
  return cell;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("OVLD",
              "admission control and surge-proof degradation across the stacks");

  const std::vector<double> mults =
      args.smoke ? std::vector<double>{5.0} : std::vector<double>{1.0, 2.0, 5.0, 10.0};
  const std::vector<StackKind> stacks = {StackKind::kLinux, StackKind::kBypass,
                                         StackKind::kLauberhorn};

  // Capacity per stack first (cheap, sequential), then the surge + fault
  // cells fan out in parallel.
  std::vector<double> capacity(stacks.size(), 0.0);
  for (size_t s = 0; s < stacks.size(); ++s) {
    capacity[s] = Calibrate(stacks[s], args.seed);
  }

  struct Job {
    size_t stack_index;
    double mult;
    bool faulted;
  };
  std::vector<Job> jobs;
  for (size_t s = 0; s < stacks.size(); ++s) {
    for (double mult : mults) {
      jobs.push_back({s, mult, false});
    }
  }
  for (size_t s = 0; s < stacks.size(); ++s) {
    jobs.push_back({s, 5.0, true});
  }

  std::vector<SurgeCell> surge_cells(jobs.size());
  std::vector<FaultCell> fault_cells(jobs.size());
  const std::vector<int> done = RunTrialsParallel(
      static_cast<int>(jobs.size()), [&](int i) {
        const Job& job = jobs[static_cast<size_t>(i)];
        if (job.faulted) {
          fault_cells[static_cast<size_t>(i)] =
              MeasureFaulted(stacks[job.stack_index], capacity[job.stack_index],
                             args.seed, args.smoke);
        } else {
          surge_cells[static_cast<size_t>(i)] =
              MeasureSurge(stacks[job.stack_index], job.mult,
                           capacity[job.stack_index], args.seed, args.smoke);
        }
        return 0;
      });
  (void)done;

  bool violation = false;
  std::vector<std::string> json_rows;

  Table table({"stack", "mult", "cap (krps)", "retention", "shed frac",
               "shed q/quota/soj", "shed-cpu/shed (ns)", "p50 (us)", "p99 (us)",
               "p99.9 (us)", "idle p99.9", "recover (us)", "suppr"});
  // Per-shed host CPU at the 5x point, for the cross-stack cost gate.
  std::vector<Duration> shed_cpu_at_5x(stacks.size(), 0);
  std::vector<uint64_t> sheds_at_5x(stacks.size(), 0);
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    if (job.faulted) {
      continue;
    }
    const SurgeCell& cell = surge_cells[i];
    const StackKind stack = stacks[job.stack_index];
    table.AddRow(
        {ToString(stack), Table::Num(job.mult, 0),
         Table::Num(cell.capacity_rps / 1000.0, 0), Table::Num(cell.retention, 3),
         Table::Num(cell.shed_fraction, 3),
         Table::Int(static_cast<int64_t>(cell.sheds.queue)) + "/" +
             Table::Int(static_cast<int64_t>(cell.sheds.quota)) + "/" +
             Table::Int(static_cast<int64_t>(cell.sheds.sojourn)),
         Table::Num(static_cast<double>(cell.shed_cpu_per_shed) / 1000.0, 1),
         Us(cell.p50_surge), Us(cell.p99_surge), Us(cell.p999_surge),
         Us(cell.p999_unloaded),
         cell.recovered ? Us(cell.time_to_recover) : std::string(">window"),
         Table::Int(static_cast<int64_t>(cell.scale_suppressed))});
    JsonObject row;
    row.Field("stack", ToString(stack))
        .Field("mult", job.mult)
        .Field("capacity_rps", cell.capacity_rps)
        .Field("retention", cell.retention)
        .Field("shed_fraction", cell.shed_fraction)
        .Field("sheds_queue", cell.sheds.queue)
        .Field("sheds_quota", cell.sheds.quota)
        .Field("sheds_sojourn", cell.sheds.sojourn)
        .Field("shed_cpu_per_shed_ns",
               static_cast<double>(cell.shed_cpu_per_shed) / 1000.0)
        .Field("p50_surge_us", ToMicroseconds(cell.p50_surge))
        .Field("p99_surge_us", ToMicroseconds(cell.p99_surge))
        .Field("p999_surge_us", ToMicroseconds(cell.p999_surge))
        .Field("p999_unloaded_us", ToMicroseconds(cell.p999_unloaded))
        .Field("time_to_recover_us", ToMicroseconds(cell.time_to_recover))
        .Field("recovered", cell.recovered)
        .Field("sim_events", cell.sim_events)
        .Field("scale_suppressed", cell.scale_suppressed);
    json_rows.push_back(row.Render());

    if (job.mult >= 5.0 && job.mult <= 5.0) {
      shed_cpu_at_5x[job.stack_index] = cell.shed_cpu_per_shed;
      sheds_at_5x[job.stack_index] = cell.sheds.total();
    }
    // Gates at the 5x point (the ISSUE's acceptance criteria).
    if (job.mult == 5.0) {
      if (cell.retention < 0.8) {
        std::fprintf(stderr,
                     "VIOLATION: %s at 5x retained only %.3f of saturation "
                     "goodput (floor 0.8)\n",
                     ToString(stack).c_str(), cell.retention);
        violation = true;
      }
      if (cell.p999_surge > 10 * cell.p999_unloaded) {
        std::fprintf(stderr,
                     "VIOLATION: %s admitted p99.9 under surge (%.1f us) is "
                     "more than 10x the unloaded p99.9 (%.1f us)\n",
                     ToString(stack).c_str(), ToMicroseconds(cell.p999_surge),
                     ToMicroseconds(cell.p999_unloaded));
        violation = true;
      }
      if (cell.sheds.total() == 0) {
        std::fprintf(stderr, "VIOLATION: %s shed nothing at 5x offered load\n",
                     ToString(stack).c_str());
        violation = true;
      }
      if (cell.surge_ok == 0) {
        std::fprintf(stderr, "VIOLATION: %s served nothing during the surge\n",
                     ToString(stack).c_str());
        violation = true;
      }
    }
  }
  PrintTable(table, args.csv);

  // Lauberhorn must reject strictly cheaper than the host-mediated stacks:
  // its shed never touches a host core, theirs burn softirq/poll cycles.
  const size_t lauberhorn_index = 2;
  for (size_t s = 0; s < stacks.size(); ++s) {
    if (s == lauberhorn_index || sheds_at_5x[s] == 0) {
      continue;
    }
    if (shed_cpu_at_5x[lauberhorn_index] >= shed_cpu_at_5x[s]) {
      std::fprintf(stderr,
                   "VIOLATION: lauberhorn per-shed host CPU (%.1f ns) is not "
                   "below %s (%.1f ns)\n",
                   static_cast<double>(shed_cpu_at_5x[lauberhorn_index]) / 1000.0,
                   ToString(stacks[s]).c_str(),
                   static_cast<double>(shed_cpu_at_5x[s]) / 1000.0);
      violation = true;
    }
  }

  std::printf("\n");
  Table fault_table({"stack", "sent", "ok", "overloaded", "sheds", "late",
                     "breaker", "suppr-brk", "dup-execs"});
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    if (!job.faulted) {
      continue;
    }
    const FaultCell& cell = fault_cells[i];
    const StackKind stack = stacks[job.stack_index];
    fault_table.AddRow({ToString(stack), Table::Int(static_cast<int64_t>(cell.sent)),
                        Table::Int(static_cast<int64_t>(cell.ok)),
                        Table::Int(static_cast<int64_t>(cell.overloaded)),
                        Table::Int(static_cast<int64_t>(cell.sheds)),
                        Table::Int(static_cast<int64_t>(cell.late)),
                        Table::Int(static_cast<int64_t>(cell.breaker_openings)),
                        Table::Int(static_cast<int64_t>(cell.suppressed_breaker)),
                        Table::Int(static_cast<int64_t>(cell.dup_execs))});
    JsonObject row;
    row.Field("stack", ToString(stack))
        .Field("faulted", true)
        .Field("sent", cell.sent)
        .Field("goodput", cell.ok)
        .Field("overloaded", cell.overloaded)
        .Field("sheds", cell.sheds)
        .Field("late_responses", cell.late)
        .Field("breaker_openings", cell.breaker_openings)
        .Field("retransmits_suppressed_breaker", cell.suppressed_breaker)
        .Field("sim_events", cell.sim_events)
        .Field("duplicate_executions", cell.dup_execs);
    json_rows.push_back(row.Render());

    if (cell.dup_execs != 0) {
      std::fprintf(stderr,
                   "VIOLATION: %s executed %llu sequences more than once under "
                   "faults + overload\n",
                   ToString(stack).c_str(),
                   static_cast<unsigned long long>(cell.dup_execs));
      violation = true;
    }
    if (cell.ok == 0) {
      std::fprintf(stderr,
                   "VIOLATION: %s served nothing under faults + overload\n",
                   ToString(stack).c_str());
      violation = true;
    }
  }
  PrintTable(fault_table, args.csv);

  if (!args.json.empty()) {
    JsonObject doc;
    doc.Field("bench", std::string("OVLD"))
        .Field("seed", args.seed)
        .Field("smoke", args.smoke)
        .Raw("rows", JsonArray(json_rows));
    if (!WriteJsonFile(args.json, doc.Render())) {
      return 1;
    }
  }

  std::printf(
      "\nExpected shape: all three stacks hold goodput near capacity while the\n"
      "offered load runs to 10x (retention stays high, sheds absorb the rest);\n"
      "admitted latency stays bounded because the sojourn gate sheds instead of\n"
      "queueing. The shed-cpu column is the paper's point: Lauberhorn says \"no\"\n"
      "in the NIC for free, Linux and bypass burn host cycles per rejection.\n");
  return violation ? 1 : 0;
}

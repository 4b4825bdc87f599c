// DISP — NIC dispatch disciplines under heavy-tailed workloads (DESIGN.md §18).
//
// One Lauberhorn receiver serves a counting service on 4 hot cores under each
// of the three nanoPU-style dispatch disciplines:
//   d-FCFS  per-core queues, RSS-hash placement, no migration
//   c-FCFS  one NIC-side central queue, cores pull on CONTROL stall
//   JBSQ(k) central queue + at most k resident requests per core
// crossed with three service-time distributions of increasing dispersion
// (exponential, 99.5/0.5 bimodal, bounded Pareto), swept over offered load as
// a fraction of the distribution's calibrated saturation capacity. Service
// times are a pure function of the request's sequence number (src/workload),
// so every policy serves the *identical* request cost sequence and the
// measured separation is the discipline's alone.
//
// The claim under test (nanoPU table 1, reproduced in a NIC-as-OS setting):
// under low dispersion the disciplines are nearly indistinguishable, but as
// dispersion grows d-FCFS's tail blows up (arrivals pinned behind a rare
// 100x request on the same core while other cores idle) while c-FCFS and
// JBSQ(k) hold — JBSQ paying a small bound-staleness premium over c-FCFS in
// exchange for the pipelined runway.
//
// A chaos pair reruns c-FCFS and JBSQ under the periodic NIC-crash fault
// plan with client retransmits + server dedup: the central queue is volatile
// device state, wiped at crash, and at-most-once execution must survive its
// loss.
//
// --smoke gates (exit 1 + VIOLATION on stderr):
//   - bimodal at 0.8 load: d-FCFS p99 >= 2x JBSQ(k) p99
//   - bimodal at 0.8 load: JBSQ(k) p99 <= 1.3x c-FCFS p99
//   - bimodal at 0.8 load: JBSQ(k) p99 <= 0.5x d-FCFS p99
//   - zero duplicate executions in every cell, chaos cells included
//   - chaos cells actually crashed (nic_resets > 0) and still served
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "src/core/testbed.h"
#include "src/nic/dispatch_policy/dispatch_policy.h"

namespace lauberhorn {
namespace {

constexpr int kServiceCores = 4;

ServiceTimeSpec MakeSpec(ServiceTimeDist dist) {
  ServiceTimeSpec spec;
  spec.dist = dist;
  spec.seed = 0x5eed;
  switch (dist) {
    case ServiceTimeDist::kFixed:
    case ServiceTimeDist::kExponential:
      spec.mean = Microseconds(2);
      break;
    case ServiceTimeDist::kBimodal:
      // nanoPU's high-dispersion point: 99.5% at 1us, 0.5% at 100us.
      spec.heavy_fraction = 0.005;
      spec.bimodal_short = Microseconds(1);
      spec.bimodal_long = Microseconds(100);
      break;
    case ServiceTimeDist::kBoundedPareto:
      spec.pareto_alpha = 1.2;
      spec.pareto_lo = Nanoseconds(500);
      spec.pareto_hi = Microseconds(200);
      break;
  }
  return spec;
}

DispatchPolicyConfig MakePolicy(DispatchPolicyKind kind) {
  DispatchPolicyConfig policy;
  policy.kind = kind;
  policy.jbsq_k = 2;
  return policy;
}

ServiceDef MakeCountingService(const ServiceTimeSpec& spec,
                               DispatchPolicyConfig policy,
                               std::unordered_map<uint64_t, uint32_t>* execs) {
  ServiceDef def;
  def.service_id = 1;
  def.name = "disp";
  def.udp_port = 7000;
  def.dispatch = policy;
  MethodDef method;
  method.method_id = 0;
  method.name = "count";
  method.request_sig.args = {WireType::kU64};
  method.response_sig.args = {WireType::kU64};
  method.handler = [execs](const std::vector<WireValue>& args) {
    if (execs != nullptr) {
      ++(*execs)[args.at(0).scalar];
    }
    return std::vector<WireValue>{args.at(0)};
  };
  method.service_time = MakeServiceTimeFn(spec);
  def.methods[0] = std::move(method);
  return def;
}

// Saturation capacity (requests/s) of the 4-core receiver under this
// distribution, measured with a closed loop under c-FCFS (work-conserving,
// so the number is the machine's, not any one discipline's).
double Calibrate(ServiceTimeDist dist, uint64_t seed) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 8;
  config.seed = seed;
  Machine machine(std::move(config));
  const ServiceDef& svc = machine.AddService(
      MakeCountingService(MakeSpec(dist), MakePolicy(DispatchPolicyKind::kCFcfs),
                          nullptr),
      kServiceCores);
  machine.Start();
  machine.StartHotLoop(svc);
  machine.sim().RunUntil(Milliseconds(1));

  ClosedLoopGenerator::Config gen_config;
  gen_config.concurrency = 64;
  gen_config.seed = seed;
  ClosedLoopGenerator gen(machine.sim(), machine.client(),
                          {{&svc, 0, 8, 1.0}}, gen_config);
  gen.Start();
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(1));  // settle
  const uint64_t before = gen.completed();
  const Duration window = Milliseconds(4);
  machine.sim().RunUntil(machine.sim().Now() + window);
  const uint64_t delta = gen.completed() - before;
  gen.Stop();
  return static_cast<double>(delta) / ToSeconds(window);
}

struct CellParams {
  DispatchPolicyKind policy = DispatchPolicyKind::kDFcfs;
  ServiceTimeDist dist = ServiceTimeDist::kExponential;
  double load = 0.8;          // fraction of calibrated capacity
  double capacity_rps = 0.0;  // from Calibrate()
  Duration measure = Milliseconds(10);
  Duration warmup = Milliseconds(2);
  Duration drain = Milliseconds(5);
  uint64_t seed = 1;
  bool chaos = false;  // periodic NIC crashes + retransmits + dedup
};

struct CellResult {
  uint64_t sent = 0;
  uint64_t ok = 0;  // measured-window completions
  uint64_t timeouts = 0;
  uint64_t sheds = 0;
  uint64_t dup_execs = 0;
  uint64_t nic_resets = 0;
  uint64_t central_queued = 0;
  uint64_t local_queued = 0;
  uint64_t hot = 0;
  Duration p50 = 0, p99 = 0, p999 = 0;
  uint64_t sim_events = 0;  // Simulator::events_executed() after the drain
};

CellResult RunCell(const CellParams& p) {
  Testbed testbed;

  MachineConfig server_config;
  server_config.stack = StackKind::kLauberhorn;
  server_config.num_cores = 8;
  server_config.seed = p.seed;
  server_config.server_dedup = true;
  MachineConfig client_config = server_config;
  client_config.seed = p.seed + 977;
  if (p.chaos) {
    server_config.faults.nic_crash.first_crash_at = Milliseconds(1);
    server_config.faults.nic_crash.crash_period = Milliseconds(2);
    server_config.faults.nic_crash.reset_latency = Microseconds(50);
    // At-most-once only holds while the dedup window covers the client's
    // full retransmit horizon: a response lost in a blackout keeps its id
    // pinned until the *next* crash demotes it to an evictable completed
    // entry, and at 4-core throughput the default 1024-completion window
    // expires in ~1.3 ms while the backoff ladder stretches past 10 ms.
    // Provision the window for horizon x capacity, as a deployment would.
    server_config.server_dedup_window = 16384;
    client_config.client_retransmit_timeout = Microseconds(300);
    client_config.client_max_retransmits = 8;
    client_config.client_backoff_multiplier = 2.0;
    client_config.client_max_retransmit_timeout = Milliseconds(3);
  }
  Machine& server = testbed.AddMachine(server_config);
  Machine& client = testbed.AddMachine(client_config);

  std::unordered_map<uint64_t, uint32_t> execs;
  const ServiceDef& svc = server.AddService(
      MakeCountingService(MakeSpec(p.dist), MakePolicy(p.policy), &execs),
      kServiceCores);
  server.Start();
  client.Start();
  server.StartHotLoop(svc);
  const uint32_t server_ip = server.config().server_ip;

  const SimTime t_start = testbed.sim().Now() + Milliseconds(1);
  const SimTime t_measure = t_start + p.warmup;
  const SimTime t_stop = t_measure + p.measure;

  // Open-loop Poisson arrivals at load x capacity, one unique sequence
  // number per request (the service-time hash key).
  struct Driver {
    Simulator* sim = nullptr;
    RpcClient* client = nullptr;
    uint32_t server_ip = 0;
    double rate_rps = 0.0;
    SimTime t_measure = 0, t_stop = 0;
    uint64_t seq = 0;
    uint64_t ok = 0;
    Histogram rtt;
    Rng gaps{1};
    Callback fire;
  };
  auto driver = std::make_unique<Driver>();
  Driver* d = driver.get();
  d->sim = &client.sim();
  d->client = &client.client();
  d->server_ip = server_ip;
  d->rate_rps = p.load * p.capacity_rps;
  d->t_measure = t_measure;
  d->t_stop = t_stop;
  d->gaps = Rng(p.seed ^ 0x9e3779b97f4a7c15ULL);
  d->fire = [d]() {
    if (d->sim->Now() >= d->t_stop) {
      return;
    }
    std::vector<uint8_t> payload;
    MarshalArgs(MethodSignature{{WireType::kU64}},
                std::vector<WireValue>{WireValue::U64(d->seq++)}, payload);
    d->client->CallRawTo(d->server_ip, 7000, 1, 0, std::move(payload),
                         [d](const RpcMessage& r, Duration rtt) {
                           if (r.status == RpcStatus::kOk &&
                               d->sim->Now() >= d->t_measure &&
                               d->sim->Now() < d->t_stop) {
                             ++d->ok;
                             d->rtt.Record(rtt);
                           }
                         });
    d->sim->Schedule(
        NanosecondsF(d->gaps.Exponential(1.0 / d->rate_rps) * 1e9),
        [d] { d->fire(); });
  };
  d->sim->ScheduleAt(t_start, [d] { d->fire(); });

  testbed.sim().RunUntil(t_stop + p.drain);

  CellResult result;
  result.sent = d->seq;
  result.sim_events = testbed.sim().events_executed();
  result.ok = d->ok;
  result.p50 = d->rtt.P50();
  result.p99 = d->rtt.P99();
  result.p999 = d->rtt.P999();
  result.timeouts = client.client().stats().timeouts;
  result.sheds = server.sheds().total();
  result.nic_resets = server.lauberhorn_nic()->stats().nic_resets;
  for (const auto& [kind, ps] : server.lauberhorn_nic()->PolicyStatsSnapshot()) {
    if (kind == p.policy) {
      result.central_queued = ps.central_queued;
      result.local_queued = ps.local_queued;
      result.hot = ps.hot_dispatches;
    }
  }
  for (const auto& [seq, count] : execs) {
    result.dup_execs += count > 1;
  }
  return result;
}

std::string PolicyLabel(DispatchPolicyKind kind) { return ToString(kind); }

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("DISP",
              "d-FCFS vs c-FCFS vs JBSQ(k) under heavy-tailed service times");

  const std::vector<DispatchPolicyKind> policies = {DispatchPolicyKind::kDFcfs,
                                                    DispatchPolicyKind::kCFcfs,
                                                    DispatchPolicyKind::kJbsq};
  const std::vector<ServiceTimeDist> dists = {ServiceTimeDist::kExponential,
                                              ServiceTimeDist::kBimodal,
                                              ServiceTimeDist::kBoundedPareto};
  const std::vector<double> loads =
      args.smoke ? std::vector<double>{0.5, 0.8}
                 : std::vector<double>{0.5, 0.7, 0.8, 0.9};
  const double gate_load = 0.8;

  CellParams base;
  base.seed = args.seed;
  base.measure = args.smoke ? Milliseconds(10) : Milliseconds(25);

  // Capacity is per distribution, not per policy: c-FCFS (work-conserving)
  // defines saturation, the loads are fractions of it.
  std::vector<double> capacity(dists.size(), 0.0);
  for (size_t i = 0; i < dists.size(); ++i) {
    capacity[i] = Calibrate(dists[i], args.seed);
  }

  int violations = 0;
  auto violation = [&](const char* fmt, auto... vals) {
    std::fprintf(stderr, "VIOLATION: ");
    std::fprintf(stderr, fmt, vals...);
    std::fprintf(stderr, "\n");
    ++violations;
  };

  Table table({"dist", "policy", "load", "cap_krps", "sent", "ok", "p50_us",
               "p99_us", "p999_us", "hot", "queued", "sheds", "dups"});
  std::vector<std::string> rows_json;
  // gate cell lookup: [dist][policy] at the gate load
  std::vector<std::vector<CellResult>> at_gate(
      dists.size(), std::vector<CellResult>(policies.size()));

  for (size_t di = 0; di < dists.size(); ++di) {
    for (double load : loads) {
      for (size_t pi = 0; pi < policies.size(); ++pi) {
        CellParams p = base;
        p.policy = policies[pi];
        p.dist = dists[di];
        p.load = load;
        p.capacity_rps = capacity[di];
        const CellResult r = RunCell(p);
        if (load == gate_load) {
          at_gate[di][pi] = r;
        }
        table.AddRow({ToString(dists[di]), PolicyLabel(policies[pi]),
                      Table::Num(load, 2), Table::Num(capacity[di] / 1e3, 0),
                      Table::Int(static_cast<int64_t>(r.sent)),
                      Table::Int(static_cast<int64_t>(r.ok)), Us(r.p50),
                      Us(r.p99), Us(r.p999),
                      Table::Int(static_cast<int64_t>(r.hot)),
                      Table::Int(static_cast<int64_t>(r.central_queued +
                                                      r.local_queued)),
                      Table::Int(static_cast<int64_t>(r.sheds)),
                      Table::Int(static_cast<int64_t>(r.dup_execs))});
        rows_json.push_back(
            JsonObject()
                .Field("dist", std::string(ToString(dists[di])))
                .Field("policy", std::string(ToString(policies[pi])))
                .Field("load", load)
                .Field("capacity_rps", capacity[di])
                .Field("sent", r.sent)
                .Field("ok", r.ok)
                .Field("p50_us", ToMicroseconds(r.p50))
                .Field("p99_us", ToMicroseconds(r.p99))
                .Field("p999_us", ToMicroseconds(r.p999))
                .Field("hot_dispatches", r.hot)
                .Field("central_queued", r.central_queued)
                .Field("local_queued", r.local_queued)
                .Field("sheds", r.sheds)
                .Field("sim_events", r.sim_events)
                .Field("duplicate_executions", r.dup_execs)
                .Render());
        if (r.dup_execs != 0) {
          violation("%s/%s at %.1f load executed %" PRIu64
                    " sequences more than once",
                    ToString(dists[di]), ToString(policies[pi]), load,
                    r.dup_execs);
        }
        if (r.ok == 0) {
          violation("%s/%s at %.1f load served nothing", ToString(dists[di]),
                    ToString(policies[pi]), load);
        }
      }
    }
  }
  PrintTable(table, args.csv);

  // --- Tail-separation gates at the high-dispersion, high-load point --------
  const size_t bimodal_index = 1;
  const CellResult& dfcfs = at_gate[bimodal_index][0];
  const CellResult& cfcfs = at_gate[bimodal_index][1];
  const CellResult& jbsq = at_gate[bimodal_index][2];
  std::printf("\nbimodal @ %.1f load: d-FCFS p99 %.1f us | c-FCFS p99 %.1f us "
              "| JBSQ(2) p99 %.1f us\n",
              gate_load, ToMicroseconds(dfcfs.p99), ToMicroseconds(cfcfs.p99),
              ToMicroseconds(jbsq.p99));
  if (static_cast<double>(dfcfs.p99) < 2.0 * static_cast<double>(jbsq.p99)) {
    violation("d-FCFS p99 (%.1f us) is not >= 2x JBSQ p99 (%.1f us) under "
              "bimodal at %.1f load",
              ToMicroseconds(dfcfs.p99), ToMicroseconds(jbsq.p99), gate_load);
  }
  if (static_cast<double>(jbsq.p99) > 1.3 * static_cast<double>(cfcfs.p99)) {
    violation("JBSQ p99 (%.1f us) exceeds 1.3x c-FCFS p99 (%.1f us) under "
              "bimodal at %.1f load",
              ToMicroseconds(jbsq.p99), ToMicroseconds(cfcfs.p99), gate_load);
  }
  if (static_cast<double>(jbsq.p99) > 0.5 * static_cast<double>(dfcfs.p99)) {
    violation("JBSQ p99 (%.1f us) exceeds 0.5x d-FCFS p99 (%.1f us) under "
              "bimodal at %.1f load",
              ToMicroseconds(jbsq.p99), ToMicroseconds(dfcfs.p99), gate_load);
  }

  // --- Chaos pair: crash-wiped central queues stay at-most-once --------------
  std::vector<std::string> chaos_json;
  for (DispatchPolicyKind kind :
       {DispatchPolicyKind::kCFcfs, DispatchPolicyKind::kJbsq}) {
    CellParams p = base;
    p.policy = kind;
    p.dist = ServiceTimeDist::kBimodal;
    p.load = 0.6;  // headroom for the retransmit storm after each blackout
    p.capacity_rps = capacity[bimodal_index];
    p.chaos = true;
    p.drain = Milliseconds(12);  // cover the retransmit backoff ladder
    const CellResult r = RunCell(p);
    std::printf("chaos %s: sent %" PRIu64 " ok %" PRIu64 " timeouts %" PRIu64
                " resets %" PRIu64 " dups %" PRIu64 "\n",
                ToString(kind), r.sent, r.ok, r.timeouts, r.nic_resets,
                r.dup_execs);
    chaos_json.push_back(JsonObject()
                             .Field("policy", std::string(ToString(kind)))
                             .Field("sent", r.sent)
                             .Field("ok", r.ok)
                             .Field("timeouts", r.timeouts)
                             .Field("nic_resets", r.nic_resets)
                             .Field("sim_events", r.sim_events)
                             .Field("duplicate_executions", r.dup_execs)
                             .Render());
    if (r.dup_execs != 0) {
      violation("chaos %s executed %" PRIu64 " sequences more than once",
                ToString(kind), r.dup_execs);
    }
    if (r.nic_resets == 0) {
      violation("chaos %s never crashed the NIC (plan ineffective)",
                ToString(kind));
    }
    if (r.ok == 0) {
      violation("chaos %s served nothing", ToString(kind));
    }
  }

  if (!args.json.empty()) {
    JsonObject config;
    config.Field("seed", args.seed)
        .Field("smoke", args.smoke)
        .Field("gate_load", gate_load)
        .Field("jbsq_k", 2)
        .Field("threads_used", static_cast<uint64_t>(1));
    JsonObject out;
    out.Field("bench", std::string("dispatch_discipline"))
        .Field("schema_version", 2)
        .Raw("config", config.Render())
        .Raw("results", JsonArray(rows_json))
        .Raw("chaos", JsonArray(chaos_json))
        .Field("violations", violations);
    if (!WriteJsonFile(args.json, out.Render())) {
      return 1;
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "%d violation(s)\n", violations);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}

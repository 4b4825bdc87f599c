// CLSTR: cluster dispatch plane scale-out (DESIGN.md §13, EXPERIMENTS.md).
//
// Four cells over the multi-machine testbed + src/cluster dispatch plane:
//
//   1. Scaling: N in {1,2,4,8} machines, every service replicated on every
//      machine, one ClusterClient edge per machine driving open-loop Poisson
//      arrivals with Zipf skew over services. Reports aggregate goodput and
//      the speedup vs N=1 (weak scaling: offered load grows with N).
//   2. Failover: N=4, one replicated service under steady load; one replica
//      machine's OS crashes mid-run (PR-2 fault plan). The directory marks
//      the replica down after consecutive timeouts, edges re-route within
//      the client retry budget, and per-request execution counts prove
//      at-most-once cluster-wide (zero duplicate executions).
//   3. Fabric: per-port egress-queue drop counters surface through
//      Testbed::ExportMetrics.
//   4. Simulator scale: N in {8,16,32,64} machines on the sequential
//      engine; reports wall-clock goodput per simulated machine and the
//      64-vs-8 ratio (what the simulator pays per machine as the cluster
//      grows). Informational, not gated.
//
// --smoke gates (exit 1 + VIOLATION on stderr on failure):
//   - aggregate goodput at 8 machines >= 6x the 1-machine cell
//   - failover: every call completes (nothing exhausts the retry budget),
//     zero duplicate executions, worst-case rtt within the retry budget
//   - fabric/port queue-drop counters present in the exported metrics
//   - sim/pending and sim/events_executed present in the exported metrics
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench/common.h"
#include "src/cluster/cluster_client.h"
#include "src/core/testbed.h"

namespace lauberhorn {
namespace {

struct CellParams {
  int machines = 1;
  int services = 4;
  const char* policy = "least-loaded";
  double per_edge_rps = 40000.0;
  double zipf_skew = 1.2;      // service popularity
  Duration measure = Milliseconds(20);
  Duration warmup = Milliseconds(2);
  Duration drain = Milliseconds(5);
  uint64_t seed = 1;
  // Failover cell: machine 1 crashes at `crash_at` for `outage` (0 = none).
  Duration crash_at = 0;
  Duration outage = 0;
};

struct CellResult {
  int machines = 0;
  std::string policy;
  double offered_rps = 0;
  double goodput_rps = 0;
  double wall_seconds = 0;  // wall-clock of the RunUntil
  Duration p50 = 0, p99 = 0, max_rtt = 0;
  uint64_t calls = 0, ok = 0, failovers = 0, diverts = 0, exhausted = 0;
  uint64_t marked_down = 0, marked_up = 0;
  uint64_t duplicate_executions = 0;
  uint64_t fabric_forwarded = 0, fabric_queue_drops = 0;
  bool fabric_metrics_present = false;
  bool sim_metrics_present = false;

  // Wall-clock goodput each simulated machine achieves — the simulator
  // scale metric (per-machine cost of growing the cluster).
  double PerMachineWallRps() const {
    return wall_seconds > 0
               ? static_cast<double>(ok) / wall_seconds / machines
               : 0;
  }
};

std::unique_ptr<LbPolicy> MakePolicy(const std::string& name) {
  if (name == "round-robin") return std::make_unique<RoundRobinPolicy>();
  if (name == "consistent-hash") return std::make_unique<ConsistentHashPolicy>();
  return std::make_unique<LeastLoadedPolicy>();
}

// Echo-with-sequence service: request/response carry one u64 (the caller's
// app-level sequence number); every execution bumps `executions[seq]` so the
// failover cell can prove at-most-once cluster-wide.
ServiceDef MakeSeqService(uint32_t id, uint16_t port,
                          std::unordered_map<uint64_t, uint32_t>* executions) {
  ServiceDef def;
  def.service_id = id;
  def.name = "seq" + std::to_string(id);
  def.udp_port = port;
  MethodDef echo;
  echo.method_id = 0;
  echo.request_sig.args = {WireType::kU64};
  echo.response_sig.args = {WireType::kU64};
  echo.handler = [executions](const std::vector<WireValue>& args) {
    if (executions != nullptr) {
      ++(*executions)[args[0].scalar];
    }
    return std::vector<WireValue>{WireValue::U64(args[0].scalar)};
  };
  echo.SetFixedServiceTime(Microseconds(1));
  def.methods[0] = std::move(echo);
  return def;
}

CellResult RunCell(const CellParams& p) {
  Testbed testbed;
  MachineConfig base;
  base.stack = StackKind::kLauberhorn;
  base.num_cores = 8;
  // Client reliability + server dedup: retransmits carry requests over loss,
  // dedup keeps execution at-most-once, timeouts feed the failover path.
  base.client_retransmit_timeout = Microseconds(100);
  base.client_max_retransmits = 2;
  base.server_dedup = true;
  base.admission.enabled = true;
  base.admission.queue_depth_limit = 64;

  // Cluster-wide execution count per sequence number, for the at-most-once
  // check.
  std::unordered_map<uint64_t, uint32_t> executions;
  std::vector<Machine*> machines;
  for (int m = 0; m < p.machines; ++m) {
    MachineConfig config = base;
    config.seed = p.seed + static_cast<uint64_t>(m) * 977;
    if (p.outage > 0 && m == 1) {
      config.faults.os.first_crash_at = p.crash_at;
      config.faults.os.restart_delay = p.outage;
    }
    machines.push_back(&testbed.AddMachine(config));
  }

  // Full replication: every machine hosts every service; the directory gets
  // one replica per (service, machine) with a live NIC queue-depth probe.
  ServiceDirectory directory;
  std::vector<const ServiceDef*> defs(machines.size() * p.services);
  for (size_t m = 0; m < machines.size(); ++m) {
    for (int s = 0; s < p.services; ++s) {
      const uint32_t service_id = static_cast<uint32_t>(s + 1);
      const uint16_t port = static_cast<uint16_t>(7000 + s);
      defs[m * p.services + s] = &machines[m]->AddService(
          MakeSeqService(service_id, port, &executions));
    }
  }
  for (size_t m = 0; m < machines.size(); ++m) {
    machines[m]->Start();
    for (int s = 0; s < p.services; ++s) {
      const ServiceDef& def = *defs[m * p.services + s];
      machines[m]->StartHotLoop(def);
      ReplicaInfo info;
      info.machine = static_cast<uint32_t>(m);
      info.ip = machines[m]->config().server_ip;
      info.udp_port = def.udp_port;
      info.stack = StackKind::kLauberhorn;
      info.placement = PlacementKind::kHotUserPoll;
      info.queue_depth = MakeLauberhornDepthProbe(*machines[m], def);
      directory.AddReplica(def.service_id, std::move(info));
    }
  }

  // One dispatch edge per machine: its own policy instance (policies carry
  // cursor/ring state) wrapped around the machine-local RpcClient.
  struct Edge {
    std::unique_ptr<LbPolicy> policy;
    std::unique_ptr<ClusterClient> cluster;
  };
  ClusterClient::Config ccfg;
  ccfg.max_failovers = 2;
  ccfg.down_after_timeouts = 2;
  ccfg.down_duration = Milliseconds(1);
  std::vector<Edge> edges(machines.size());
  for (size_t m = 0; m < machines.size(); ++m) {
    edges[m].policy = MakePolicy(p.policy);
    edges[m].cluster = std::make_unique<ClusterClient>(
        machines[m]->sim(), machines[m]->client(), directory, *edges[m].policy,
        ccfg);
  }

  // Open-loop Poisson arrivals per edge; Zipf over services, Zipf over a
  // large user population for the shard key (consistent hashing's input).
  const SimTime t_start = testbed.sim().Now() + Milliseconds(1);
  const SimTime t_measure = t_start + p.warmup;
  const SimTime t_stop = t_measure + p.measure;

  CellResult result;
  result.machines = p.machines;
  result.policy = p.policy;
  ZipfDistribution service_zipf(static_cast<size_t>(p.services), p.zipf_skew);
  ZipfDistribution user_zipf(10000, 0.99);
  // Each edge has its own load generator: counters, rtt histogram, and
  // rng. App sequence numbers get a per-edge range (m << 40) so they stay
  // cluster-unique without a shared counter.
  struct EdgeDriver {
    Rng rng{0};
    Simulator* sim = nullptr;
    uint64_t next_seq = 0;
    uint64_t calls = 0, ok = 0;
    Histogram rtt;
    Callback tick;
  };
  std::vector<std::unique_ptr<EdgeDriver>> drivers;
  for (size_t m = 0; m < machines.size(); ++m) {
    auto driver = std::make_unique<EdgeDriver>();
    EdgeDriver* d = driver.get();
    d->rng = Rng(p.seed * 2654435761u + m);
    d->sim = &machines[m]->sim();
    d->next_seq = static_cast<uint64_t>(m) << 40;
    ClusterClient* cluster = edges[m].cluster.get();
    const double per_edge_rps = p.per_edge_rps;
    d->tick = [d, cluster, per_edge_rps, &service_zipf, &user_zipf, t_measure,
               t_stop]() {
      Simulator& sim = *d->sim;
      if (sim.Now() >= t_stop) {
        return;
      }
      const uint32_t service_id =
          static_cast<uint32_t>(service_zipf.Sample(d->rng) + 1);
      const uint64_t user = user_zipf.Sample(d->rng);
      const uint64_t this_seq = d->next_seq++;
      const SimTime sent_at = sim.Now();
      const bool measured = sent_at >= t_measure;
      std::vector<uint8_t> payload;
      MarshalArgs(MethodSignature{{WireType::kU64}},
                  std::vector<WireValue>{WireValue::U64(this_seq)}, payload);
      ++d->calls;
      cluster->Call(service_id, 0, std::move(payload), user,
                    [d, measured](const RpcMessage& r, Duration call_rtt) {
                      if (r.status == RpcStatus::kOk && measured) {
                        ++d->ok;
                        d->rtt.Record(call_rtt);
                      }
                    });
      const Duration gap = NanosecondsF(d->rng.Exponential(1e9 / per_edge_rps));
      sim.Schedule(gap, [d] { d->tick(); });
    };
    d->sim->ScheduleAt(t_start + static_cast<Duration>(m) * 100,
                       [d] { d->tick(); });
    drivers.push_back(std::move(driver));
  }

  // Size the execution map for every call the edges will make (Poisson
  // arrivals, so with a tenth to spare): its growth stays out of the timed
  // run.
  const double expected_calls = p.per_edge_rps * p.machines * ToSeconds(t_stop - t_start);
  executions.reserve(static_cast<size_t>(1.1 * expected_calls));
  const auto wall_start = std::chrono::steady_clock::now();
  testbed.sim().RunUntil(t_stop + p.drain);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  Histogram rtt;
  for (const auto& d : drivers) {
    result.calls += d->calls;
    result.ok += d->ok;
    rtt.Merge(d->rtt);
  }
  result.offered_rps = p.per_edge_rps * p.machines;
  result.goodput_rps =
      static_cast<double>(result.ok) / ToSeconds(p.measure + p.drain / 2);
  result.p50 = rtt.P50();
  result.p99 = rtt.P99();
  result.max_rtt = rtt.max();
  ClusterClient::Stats totals;
  for (Edge& e : edges) {
    totals.failovers += e.cluster->stats().failovers;
    totals.diverts += e.cluster->stats().diverts;
    totals.exhausted += e.cluster->stats().exhausted;
    totals.ok += e.cluster->stats().ok;
  }
  result.failovers = totals.failovers;
  result.diverts = totals.diverts;
  result.exhausted = totals.exhausted;
  result.marked_down = directory.stats().marked_down;
  result.marked_up = directory.stats().marked_up;
  // A retried request can execute on several machines; at-most-once means
  // the cluster-wide count per sequence number stays <= 1.
  for (const auto& [s, count] : executions) {
    if (count > 1) {
      ++result.duplicate_executions;
    }
  }

  MetricsRegistry metrics;
  testbed.ExportMetrics(metrics);
  result.fabric_forwarded = metrics.Counter("fabric/forwarded");
  result.fabric_queue_drops = metrics.Counter("fabric/queue_drops");
  result.fabric_metrics_present =
      metrics.HasCounter("fabric/queue_drops") &&
      metrics.HasCounter("fabric/port0/queue_drops") &&
      metrics.HasCounter("m0/wire/nic_egress_queue_drops");
  result.sim_metrics_present = metrics.HasCounter("sim/pending") &&
                               metrics.HasCounter("sim/events_executed");
  return result;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("CLSTR", "cluster dispatch plane: scale-out, load balancing, failover");

  const bool smoke = args.smoke;
  CellParams base;
  base.seed = args.seed;
  base.measure = smoke ? Milliseconds(20) : Milliseconds(60);
  base.per_edge_rps = smoke ? 40000.0 : 60000.0;

  // --- Cell 1: throughput scaling ------------------------------------------
  std::vector<int> sizes = smoke ? std::vector<int>{1, 8}
                                 : std::vector<int>{1, 2, 4, 8};
  std::vector<std::string> policies =
      smoke ? std::vector<std::string>{"least-loaded"}
            : std::vector<std::string>{"round-robin", "consistent-hash",
                                       "least-loaded"};
  Table scaling({"machines", "policy", "offered_krps", "goodput_krps",
                 "speedup", "p50_us", "p99_us", "diverts", "fabric_drops"});
  std::unordered_map<std::string, double> base_goodput;
  std::vector<std::string> scaling_json;
  double speedup_8x = 0;
  for (const std::string& policy : policies) {
    for (int n : sizes) {
      CellParams p = base;
      p.machines = n;
      p.policy = policy.c_str();
      CellResult r = RunCell(p);
      if (n == 1) {
        base_goodput[policy] = r.goodput_rps;
      }
      const double speedup = base_goodput[policy] > 0
                                 ? r.goodput_rps / base_goodput[policy]
                                 : 0;
      if (n == 8 && policy == policies.back()) {
        speedup_8x = speedup;
      }
      scaling.AddRow({Table::Int(n), policy, Table::Num(r.offered_rps / 1e3),
                      Table::Num(r.goodput_rps / 1e3), Table::Num(speedup),
                      Us(r.p50), Us(r.p99), Table::Int(static_cast<int64_t>(r.diverts)),
                      Table::Int(static_cast<int64_t>(r.fabric_queue_drops))});
      scaling_json.push_back(JsonObject()
                                 .Field("machines", n)
                                 .Field("policy", policy)
                                 .Field("offered_rps", r.offered_rps)
                                 .Field("goodput_rps", r.goodput_rps)
                                 .Field("speedup", speedup)
                                 .Field("p99_us", ToMicroseconds(r.p99))
                                 .Render());
    }
  }
  PrintTable(scaling, args.csv);

  // --- Cell 1b: simulator scale to 64 machines -----------------------------
  // Grow the cluster to 64 machines and report the *wall-clock* goodput per
  // simulated machine, i.e. what it costs the simulator (not the simulated
  // cluster) to host each machine. Target: 64 machines within 2x of the
  // 8-machine per-machine wall throughput. Wall-clock depends on the host,
  // so the ratio is reported but not gated.
  std::vector<int> scale_sizes = smoke ? std::vector<int>{8, 64}
                                       : std::vector<int>{8, 16, 32, 64};
  Table scale({"machines", "goodput_krps", "wall_s", "machine_wall_rps",
               "vs_8m"});
  std::vector<std::string> scale_json;
  std::vector<std::string> scale_wall_json;
  double base_wall_rps = 0;
  double wall_ratio_64m = 0;
  bool sim_metrics_present = true;
  for (int n : scale_sizes) {
    CellParams p = base;
    p.machines = n;
    p.policy = "least-loaded";
    p.per_edge_rps = smoke ? 20000.0 : 40000.0;
    p.measure = smoke ? Milliseconds(10) : Milliseconds(30);
    CellResult r = RunCell(p);
    if (n == scale_sizes.front()) {
      base_wall_rps = r.PerMachineWallRps();
    }
    const double vs_8m =
        base_wall_rps > 0 ? r.PerMachineWallRps() / base_wall_rps : 0;
    if (n == 64) {
      wall_ratio_64m = vs_8m;
    }
    sim_metrics_present = sim_metrics_present && r.sim_metrics_present;
    scale.AddRow({Table::Int(n), Table::Num(r.goodput_rps / 1e3),
                  Table::Num(r.wall_seconds), Table::Num(r.PerMachineWallRps()),
                  Table::Num(vs_8m)});
    scale_json.push_back(JsonObject()
                             .Field("machines", n)
                             .Field("goodput_rps", r.goodput_rps)
                             .Render());
    scale_wall_json.push_back(JsonObject()
                                  .Field("machines", n)
                                  .Field("wall_seconds", r.wall_seconds)
                                  .Field("per_machine_wall_rps", r.PerMachineWallRps())
                                  .Field("vs_8m", vs_8m)
                                  .Render());
  }
  PrintTable(scale, args.csv);
  std::printf("\n64-machine per-machine wall throughput: %.2fx of 8-machine"
              " (target: >= 0.5)\n",
              wall_ratio_64m);

  // --- Cell 2: kill-one-replica failover -----------------------------------
  CellParams f = base;
  f.machines = 4;
  f.services = 1;
  f.per_edge_rps = smoke ? 20000.0 : 40000.0;
  f.measure = smoke ? Milliseconds(12) : Milliseconds(40);
  f.crash_at = Milliseconds(5);
  f.outage = smoke ? Milliseconds(6) : Milliseconds(20);
  f.drain = Milliseconds(8);
  CellResult fr = RunCell(f);
  // Worst-case tolerable rtt: every attempt can burn the full retransmit
  // schedule (100us, then 200us backoff) before failing over.
  const Duration retry_budget = 3 * (Microseconds(100) + Microseconds(200)) +
                                Microseconds(500);
  Table failover({"metric", "value"});
  failover.AddRow({"calls", Table::Int(static_cast<int64_t>(fr.calls))});
  failover.AddRow({"ok", Table::Int(static_cast<int64_t>(fr.ok))});
  failover.AddRow({"failovers", Table::Int(static_cast<int64_t>(fr.failovers))});
  failover.AddRow({"exhausted", Table::Int(static_cast<int64_t>(fr.exhausted))});
  failover.AddRow({"replicas_marked_down", Table::Int(static_cast<int64_t>(fr.marked_down))});
  failover.AddRow({"replicas_marked_up", Table::Int(static_cast<int64_t>(fr.marked_up))});
  failover.AddRow({"duplicate_executions", Table::Int(static_cast<int64_t>(fr.duplicate_executions))});
  failover.AddRow({"max_rtt_us", Us(fr.max_rtt)});
  failover.AddRow({"retry_budget_us", Us(retry_budget)});
  PrintTable(failover, args.csv);

  std::printf("\nfabric: forwarded=%" PRIu64 " queue_drops=%" PRIu64
              " metrics_present=%s\n",
              fr.fabric_forwarded, fr.fabric_queue_drops,
              fr.fabric_metrics_present ? "yes" : "no");

  // --- Gates ----------------------------------------------------------------
  int violations = 0;
  auto violation = [&](const char* fmt, auto... vals) {
    std::fprintf(stderr, "VIOLATION: ");
    std::fprintf(stderr, fmt, vals...);
    std::fprintf(stderr, "\n");
    ++violations;
  };
  if (speedup_8x < 6.0) {
    violation("8-machine speedup %.2f < 6.0", speedup_8x);
  }
  if (fr.failovers == 0) {
    violation("failover cell never failed over (crash window ineffective)");
  }
  if (fr.exhausted != 0) {
    violation("%" PRIu64 " calls exhausted the retry budget", fr.exhausted);
  }
  if (fr.duplicate_executions != 0) {
    violation("%" PRIu64 " duplicate executions (at-most-once broken)",
              fr.duplicate_executions);
  }
  if (fr.max_rtt > retry_budget) {
    violation("max failover rtt %.1fus exceeds retry budget %.1fus",
              ToMicroseconds(fr.max_rtt), ToMicroseconds(retry_budget));
  }
  if (!fr.fabric_metrics_present) {
    violation("fabric/port queue-drop counters missing from ExportMetrics");
  }
  if (!sim_metrics_present) {
    violation("sim/pending or sim/events_executed missing from ExportMetrics");
  }

  if (!args.json.empty()) {
    JsonObject out;
    // Every host wall-clock field sits under "wall", so a determinism
    // check compares everything outside it exactly.
    out.Field("bench", std::string("cluster_scaleout"))
        .Field("schema_version", 2)
        .Field("smoke", smoke)
        .Raw("scaling", JsonArray(scaling_json))
        .Raw("sim_scale", JsonArray(scale_json))
        .Field("speedup_8x", speedup_8x)
        .Field("failover_calls", fr.calls)
        .Field("failover_ok", fr.ok)
        .Field("failovers", fr.failovers)
        .Field("exhausted", fr.exhausted)
        .Field("duplicate_executions", fr.duplicate_executions)
        .Field("max_failover_rtt_us", ToMicroseconds(fr.max_rtt))
        .Field("fabric_queue_drops", fr.fabric_queue_drops)
        .Field("violations", violations)
        .Raw("wall", JsonObject()
                         .Raw("sim_scale", JsonArray(scale_wall_json))
                         .Field("wall_ratio_64m_vs_8m", wall_ratio_64m)
                         .Render());
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

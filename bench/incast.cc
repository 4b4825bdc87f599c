// INCST: N->1 incast survival with NIC-driven congestion control
// (DESIGN.md §15, EXPERIMENTS.md).
//
// N sender machines aim synchronized request bursts at one Lauberhorn
// receiver across the queued fabric (src/net/fabric). The receiver's egress
// port has a finite buffer, so the classic incast collapse is reproducible:
// with the seed transport (retransmit-only, PR 2) a 32-sender burst
// overflows the port queue, the tail is dropped, every victim retransmits
// in lockstep a full RTO later, and goodput is set by the timeout ladder
// instead of the wire.
//
// With congestion control on (--cc is implicit; both variants always run):
//   * senders mark their frames ECT(0); the fabric CE-marks ECT arrivals
//     when the egress queue is at/above K (DCTCP-style instantaneous depth),
//   * the receiver NIC echoes CE and attaches a receiver-driven grant
//     (endpoint queue headroom / active senders) to every response,
//   * each sender runs a per-destination DCTCP window capped by the grant;
//     surplus burst requests are deferred locally, not dropped in-fabric.
//
// Cells: N in {2,8,32[,64]} senders, cc off vs cc on, closed-loop bursts of
// 16 per sender.
//
// --smoke gates (exit 1 + VIOLATION on stderr on failure):
//   - cc at 32->1 (and 64->1 in the full run): zero timeouts and zero
//     timeout-driven retransmits (grants + window pacing, not the retry
//     ladder, carry the burst)
//   - cc goodput at 32->1 >= 2x the retransmit-only baseline
//   - cc fabric tail drops at 32->1 == 0 (bounded by pacing; the baseline
//     must show drops or the cell is not an incast at all)
//   - fabric ECN marks > 0 and receiver grants > 0 in the cc run (the
//     mechanism is actually exercised, not bypassed)
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/core/testbed.h"

namespace lauberhorn {
namespace {

struct CellParams {
  int senders = 2;
  bool cc = false;
  // Requests per sender per synchronized round. Sized so a round at 32
  // senders (32 x 64 = 2048 frames) dwarfs the 128-deep egress buffer:
  // without pacing most of the round is dropped in-fabric at once.
  int burst = 64;
  // Round period. Every sender fires its burst at the same instants
  // (partition-aggregate style). The aggregate offered load at 32 senders
  // (2048 / 1.5ms = 1.37 Mrps) sits at ~60% of receiver capacity, so the
  // cc run can carry all of it; the baseline loses most of each round in
  // the fabric and burns the rest of the period in RTO storms.
  Duration period = Microseconds(1500);
  Duration measure = Milliseconds(10);
  Duration warmup = Milliseconds(2);
  // Covers the worst final-expiry chain (1ms + 2ms + 4ms backoff ladder).
  Duration drain = Milliseconds(8);
  uint64_t seed = 1;
};

struct CellResult {
  int senders = 0;
  bool cc = false;
  uint64_t ok = 0;              // measured-window completions
  uint64_t bursts = 0;          // completed bursts across all senders
  double goodput_rps = 0;
  Duration p50 = 0, p99 = 0;
  uint64_t timeouts = 0;        // summed over sender clients (whole run)
  uint64_t retransmits = 0;
  uint64_t fabric_drops = 0;    // egress tail drops across all ports
  uint64_t fabric_marks = 0;    // CE marks applied by the fabric
  uint64_t grants = 0;          // grants issued by the receiver NIC
  uint64_t marks_seen = 0;      // echoes/CE observed by the sender clients
  uint64_t deferrals = 0;       // sends parked by the client window
  uint64_t sim_events = 0;      // Simulator::events_executed() after the drain
};

ServiceDef MakeEchoU64(uint32_t id, uint16_t port, Duration service_time) {
  ServiceDef def;
  def.service_id = id;
  def.name = "incast";
  def.udp_port = port;
  MethodDef echo;
  echo.method_id = 0;
  echo.request_sig.args = {WireType::kU64};
  echo.response_sig.args = {WireType::kU64};
  echo.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{WireValue::U64(args[0].scalar)};
  };
  echo.SetFixedServiceTime(service_time);
  def.methods[0] = std::move(echo);
  return def;
}

CellResult RunCell(const CellParams& p) {
  // A deliberately shallow receiver port: deep enough that paced windows
  // (<= 2 per sender at first flight) never overflow it, shallow enough
  // that an unpaced 32x16 burst sheds most of its tail.
  FabricConfig fabric;
  fabric.port_queue_limit = 128;
  fabric.port_ecn_threshold = 32;
  Testbed testbed(fabric);

  MachineConfig base;
  base.stack = StackKind::kLauberhorn;
  base.num_cores = 8;
  // The PR 2 reliability floor, shared by both variants: the cc run must
  // win by not needing it, not by it being absent. The RTO sits two orders
  // of magnitude above the uncongested RTT — the classic incast regime,
  // where every drop stalls its closed-loop burst for a full timeout and
  // the receiver idles (the goodput collapse the grants are meant to avoid).
  base.client_retransmit_timeout = Milliseconds(1);
  base.client_max_retransmits = 2;
  base.server_dedup = true;
  base.admission.enabled = true;
  base.admission.queue_depth_limit = 64;
  if (p.cc) {
    base.client_congestion = true;
    // Homa-style conservative first flight: one unscheduled request, then
    // grants + additive increase open the window.
    base.client_cc_initial_window = 2.0;
    base.client_cc_max_window = 64.0;
    base.client_cc_grant_ttl = Microseconds(200);
  }

  // Machine 0 is the receiver; 1..N are senders (their servers idle).
  std::vector<Machine*> machines;
  for (int m = 0; m <= p.senders; ++m) {
    MachineConfig config = base;
    config.seed = p.seed + static_cast<uint64_t>(m) * 977;
    machines.push_back(&testbed.AddMachine(config));
  }
  const ServiceDef& echo =
      machines[0]->AddService(MakeEchoU64(1, 7000, Nanoseconds(300)),
                              /*max_cores=*/4);
  for (Machine* m : machines) {
    m->Start();
  }
  machines[0]->StartHotLoop(echo);
  const uint32_t receiver_ip = machines[0]->config().server_ip;

  const SimTime t_start = testbed.sim().Now() + Milliseconds(1);
  const SimTime t_measure = t_start + p.warmup;
  const SimTime t_stop = t_measure + p.measure;

  // One load generator per sender: fire `burst` requests at every round
  // boundary, open-loop. All senders share the same round clock, so every
  // round is a fresh synchronized incast — the partition-aggregate pattern
  // that collapses loss-based transports.
  struct Driver {
    Simulator* sim = nullptr;
    RpcClient* client = nullptr;
    int burst = 0;
    Duration period = 0;
    uint64_t ok = 0;
    uint64_t bursts = 0;
    Histogram rtt;
    Callback fire;
  };
  std::vector<std::unique_ptr<Driver>> drivers;
  for (int m = 1; m <= p.senders; ++m) {
    auto driver = std::make_unique<Driver>();
    Driver* d = driver.get();
    d->sim = &machines[static_cast<size_t>(m)]->sim();
    d->client = &machines[static_cast<size_t>(m)]->client();
    d->burst = p.burst;
    d->period = p.period;
    d->fire = [d, receiver_ip, t_measure, t_stop]() {
      Simulator& sim = *d->sim;
      if (sim.Now() >= t_stop) {
        return;
      }
      for (int i = 0; i < d->burst; ++i) {
        std::vector<uint8_t> payload;
        MarshalArgs(MethodSignature{{WireType::kU64}},
                    std::vector<WireValue>{WireValue::U64(d->bursts)}, payload);
        d->client->CallRawTo(
            receiver_ip, 7000, 1, 0, std::move(payload),
            [d, t_measure, t_stop](const RpcMessage& r, Duration rtt) {
              if (r.status == RpcStatus::kOk && d->sim->Now() >= t_measure &&
                  d->sim->Now() < t_stop) {
                ++d->ok;
                d->rtt.Record(rtt);
              }
            });
      }
      ++d->bursts;
      sim.Schedule(d->period, [d] { d->fire(); });
    };
    d->sim->ScheduleAt(t_start, [d] { d->fire(); });
    drivers.push_back(std::move(driver));
  }

  testbed.sim().RunUntil(t_stop + p.drain);

  CellResult result;
  result.senders = p.senders;
  result.cc = p.cc;
  result.sim_events = testbed.sim().events_executed();
  Histogram rtt;
  for (const auto& d : drivers) {
    result.ok += d->ok;
    result.bursts += d->bursts;
    rtt.Merge(d->rtt);
  }
  result.goodput_rps = static_cast<double>(result.ok) / ToSeconds(p.measure);
  result.p50 = rtt.P50();
  result.p99 = rtt.P99();
  for (int m = 1; m <= p.senders; ++m) {
    const RpcClient& client = machines[static_cast<size_t>(m)]->client();
    result.timeouts += client.stats().timeouts;
    result.retransmits += client.stats().retransmits;
    result.marks_seen += client.stats().cc_marks_seen;
    result.deferrals += client.stats().cc_deferrals;
  }
  MetricsRegistry metrics;
  testbed.ExportMetrics(metrics);
  result.fabric_drops = metrics.Counter("fabric/queue_drops");
  result.fabric_marks = metrics.Counter("fabric/ecn_marked");
  result.grants = metrics.Counter("m0/nic/grants_issued");
  return result;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("INCST",
              "N->1 incast: ECN marking + receiver grants vs retransmit-only");

  const bool smoke = args.smoke;
  CellParams base;
  base.seed = args.seed;
  base.measure = smoke ? Milliseconds(10) : Milliseconds(30);

  const std::vector<int> sizes =
      smoke ? std::vector<int>{2, 8, 32} : std::vector<int>{2, 8, 32, 64};
  const std::vector<int> gate_sizes =
      smoke ? std::vector<int>{32} : std::vector<int>{32, 64};

  Table table({"senders", "cc", "goodput_krps", "vs_off", "p50_us", "p99_us",
               "timeouts", "rexmits", "fab_drops", "fab_marks", "grants",
               "deferrals"});
  std::vector<std::string> cells_json;
  // Keyed by sender count for the gates.
  std::vector<CellResult> off_results, cc_results;
  for (int n : sizes) {
    CellParams p_off = base;
    p_off.senders = n;
    p_off.cc = false;
    const CellResult off = RunCell(p_off);
    CellParams p_cc = p_off;
    p_cc.cc = true;
    const CellResult cc = RunCell(p_cc);
    off_results.push_back(off);
    cc_results.push_back(cc);
    for (const CellResult& r : {off, cc}) {
      const double vs_off =
          off.goodput_rps > 0 ? r.goodput_rps / off.goodput_rps : 0;
      table.AddRow({Table::Int(n), r.cc ? "on" : "off",
                    Table::Num(r.goodput_rps / 1e3), Table::Num(vs_off),
                    Us(r.p50), Us(r.p99),
                    Table::Int(static_cast<int64_t>(r.timeouts)),
                    Table::Int(static_cast<int64_t>(r.retransmits)),
                    Table::Int(static_cast<int64_t>(r.fabric_drops)),
                    Table::Int(static_cast<int64_t>(r.fabric_marks)),
                    Table::Int(static_cast<int64_t>(r.grants)),
                    Table::Int(static_cast<int64_t>(r.deferrals))});
      cells_json.push_back(JsonObject()
                               .Field("senders", n)
                               .Field("cc", r.cc)
                               .Field("goodput_rps", r.goodput_rps)
                               .Field("vs_off", vs_off)
                               .Field("p99_us", ToMicroseconds(r.p99))
                               .Field("timeouts", r.timeouts)
                               .Field("retransmits", r.retransmits)
                               .Field("fabric_drops", r.fabric_drops)
                               .Field("fabric_marks", r.fabric_marks)
                               .Field("sim_events", r.sim_events)
                               .Field("grants", r.grants)
                               .Render());
    }
  }
  PrintTable(table, args.csv);

  // --- Gates ----------------------------------------------------------------
  int violations = 0;
  auto violation = [&](const char* fmt, auto... vals) {
    std::fprintf(stderr, "VIOLATION: ");
    std::fprintf(stderr, fmt, vals...);
    std::fprintf(stderr, "\n");
    ++violations;
  };
  for (size_t i = 0; i < cc_results.size(); ++i) {
    const CellResult& off = off_results[i];
    const CellResult& cc = cc_results[i];
    bool gated = false;
    for (int g : gate_sizes) {
      gated = gated || cc.senders == g;
    }
    if (!gated) {
      continue;
    }
    if (cc.timeouts != 0) {
      violation("cc %d->1: %" PRIu64 " timeouts (want 0)", cc.senders,
                cc.timeouts);
    }
    if (cc.retransmits != 0) {
      violation("cc %d->1: %" PRIu64 " timeout-driven retransmits (want 0)",
                cc.senders, cc.retransmits);
    }
    if (cc.fabric_drops != 0) {
      violation("cc %d->1: %" PRIu64 " fabric tail drops (want 0)", cc.senders,
                cc.fabric_drops);
    }
    if (off.fabric_drops == 0) {
      violation("baseline %d->1 shed nothing in-fabric: not an incast",
                off.senders);
    }
    if (cc.goodput_rps < 2.0 * off.goodput_rps) {
      violation("cc %d->1 goodput %.0f < 2x baseline %.0f", cc.senders,
                cc.goodput_rps, off.goodput_rps);
    }
    if (cc.fabric_marks == 0) {
      violation("cc %d->1: fabric never CE-marked (threshold ineffective)",
                cc.senders);
    }
    if (cc.grants == 0) {
      violation("cc %d->1: receiver issued no grants", cc.senders);
    }
  }

  if (!args.json.empty()) {
    JsonObject config;
    config.Field("seed", args.seed)
        .Field("smoke", smoke)
        .Field("threads_used", static_cast<uint64_t>(1));
    JsonObject out;
    out.Field("bench", std::string("incast"))
        .Field("schema_version", 2)
        .Raw("config", config.Render())
        .Raw("results", JsonArray(cells_json))
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

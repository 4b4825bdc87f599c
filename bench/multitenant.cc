// MTNT — multi-tenant NIC virtualization: noisy-neighbor isolation on one
// Lauberhorn machine carved into PF + 3 VFs (one per tenant), each VF with
// its own endpoint slice, admission quota, and dedup namespace, with
// Toeplitz RSS spreading each tenant's flows across its endpoint replicas.
//
// Cells:
//   solo   — each tenant alone at its fair rate: per-tenant baseline p99.
//   fair   — all three tenants at the fair rate simultaneously.
//   surge  — tenant B offers 10x its fair rate. The NIC's per-VF token
//            bucket sheds the excess on-device (kOverloaded, no handler
//            runs, no host core burned); tenants A and C must not notice.
//   dedup  — tenants A and B reuse the exact same (src ip, src port,
//            request id): per-VF dedup namespaces must execute both, and a
//            true intra-tenant duplicate must still be suppressed.
//   chaos  — periodic whole-NIC crashes while all three VFs carry load:
//            every recovery replays all three partitions and at-most-once
//            holds per tenant.
//
// Gates (--smoke shrinks the windows; gates are identical):
//   * surge tenant sheds on-NIC (sheds_vf_quota > 0, zero handler runs for
//     shed requests, zero extra host dispatches);
//   * victim p99 under surge within 15% of its solo baseline;
//   * zero cross-tenant dedup suppressions, intra-tenant dedup still works;
//   * chaos: zero duplicate executions, every crash recovered, and every
//     recovery replays all three VF partitions.
#include <cmath>
#include <memory>
#include <unordered_map>

#include "bench/common.h"
#include "src/net/headers.h"
#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"

namespace lauberhorn {
namespace {

constexpr int kTenants = 3;
constexpr double kFairRps = 20000.0;
constexpr double kSurgeFactor = 10.0;
// Per-VF quota: 1.5x the fair rate — headroom for jitter, far below surge.
constexpr double kQuotaRps = 1.5 * kFairRps;

struct TenantObs {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t other = 0;  // timeouts etc. (chaos only)
  uint64_t dup_execs = 0;
  uint64_t total_execs = 0;
  uint64_t sheds_vf_quota = 0;
  uint64_t rss_steered = 0;
  uint64_t rss_fallbacks = 0;
  double p99_us = 0;
};

struct CellResult {
  TenantObs tenants[kTenants];
  uint64_t host_dispatches = 0;  // runtime hot + cold dispatches
  uint64_t nic_sheds_vf_quota = 0;
  uint64_t recoveries = 0;
  uint64_t nic_crashes = 0;
  uint64_t replayed_vfs = 0;
  uint64_t sim_events = 0;  // Simulator::events_executed() after the drain
};

MachineConfig TenantMachine(uint64_t seed, bool chaos) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform = PlatformSpec::EnzianEci();
  config.num_cores = 8;
  config.seed = seed;
  config.server_dedup = true;
  if (chaos) {
    config.client_retransmit_timeout = Microseconds(300);
    config.client_max_retransmits = 8;
    config.client_backoff_multiplier = 2.0;
    config.client_max_retransmit_timeout = Milliseconds(5);
    config.client_retransmit_jitter = 0.2;
    config.faults.nic_crash.first_crash_at = Milliseconds(2);
    config.faults.nic_crash.crash_period = Milliseconds(5);
    config.faults.nic_crash.reset_latency = Microseconds(80);
  }
  return config;
}

ServiceDef TenantService(int tenant,
                         std::unordered_map<uint64_t, uint32_t>& execs) {
  ServiceDef def;
  def.service_id = static_cast<uint32_t>(tenant + 1);
  def.name = "tenant-" + std::string(1, static_cast<char>('a' + tenant));
  def.udp_port = static_cast<uint16_t>(7000 + tenant);
  MethodDef method;
  method.method_id = 0;
  method.name = "work";
  method.request_sig.args = {WireType::kU64, WireType::kBytes};
  method.response_sig.args = {WireType::kU64, WireType::kBytes};
  method.handler = [&execs](const std::vector<WireValue>& args) {
    ++execs[args.at(0).scalar];
    return std::vector<WireValue>{args.at(0), args.at(1)};
  };
  method.SetFixedServiceTime(Microseconds(1));
  def.methods[0] = std::move(method);
  return def;
}

// One machine, three tenants on VFs 1..3, offered `rates[t]` rps each for
// `window`. Tenants with rate 0 stay idle (used for the solo baselines).
CellResult RunCell(uint64_t seed, const double (&rates)[kTenants],
                   Duration window, bool chaos) {
  Machine machine(TenantMachine(seed, chaos));
  std::unordered_map<uint64_t, uint32_t> execs[kTenants];
  const ServiceDef* services[kTenants];
  uint32_t vfs[kTenants];
  for (int t = 0; t < kTenants; ++t) {
    LauberhornNic::VfConfig vf;
    vf.name = "tenant-" + std::string(1, static_cast<char>('a' + t));
    vf.admission.enabled = true;
    vf.admission.quota_rps = kQuotaRps;
    vf.admission.quota_burst = 64;
    vf.endpoint_limit = 2;
    vfs[t] = machine.CreateVf(vf);
    services[t] = &machine.AddService(TenantService(t, execs[t]),
                                      /*max_cores=*/2, vfs[t]);
  }
  machine.Start();
  for (int t = 0; t < kTenants; ++t) {
    machine.StartHotLoop(*services[t]);
  }
  machine.sim().RunUntil(Milliseconds(1));

  CellResult cell;
  Histogram rtts[kTenants];
  const SimTime stop = machine.sim().Now() + window;
  const std::vector<uint8_t> payload(64, 0xab);
  uint64_t seq = 0;
  for (int t = 0; t < kTenants; ++t) {
    if (rates[t] <= 0) {
      continue;
    }
    const Duration gap = NanosecondsF(1e9 / rates[t]);
    auto fire = std::make_shared<Function<void()>>();
    *fire = [&machine, &cell, &rtts, &seq, services, fire, stop, gap, payload,
             t]() {
      if (machine.sim().Now() >= stop) {
        return;
      }
      TenantObs& obs = cell.tenants[t];
      ++obs.sent;
      std::vector<WireValue> args = {WireValue::U64(seq++),
                                     WireValue::Bytes(payload)};
      machine.client().Call(*services[t], 0, args,
                            [&obs, &rtts, t](const RpcMessage& response,
                                             Duration rtt) {
                              if (response.status == RpcStatus::kOk) {
                                ++obs.ok;
                                rtts[t].Record(rtt);
                              } else if (response.status ==
                                         RpcStatus::kOverloaded) {
                                ++obs.overloaded;
                              } else {
                                ++obs.other;
                              }
                            });
      machine.sim().Schedule(gap, [fire]() { (*fire)(); });
    };
    (*fire)();
  }
  // Drain: chaos needs the full retransmit ladder to reach terminal outcomes.
  machine.sim().RunUntil(stop + (chaos ? Milliseconds(40) : Milliseconds(5)));

  const LauberhornNic& nic = *machine.lauberhorn_nic();
  for (int t = 0; t < kTenants; ++t) {
    TenantObs& obs = cell.tenants[t];
    for (const auto& [s, count] : execs[t]) {
      obs.total_execs += count;
      if (count > 1) {
        ++obs.dup_execs;
      }
    }
    const LauberhornNic::VfStats& vstats = nic.vf_stats(vfs[t]);
    obs.sheds_vf_quota = vstats.sheds.vf_quota;
    obs.rss_steered = vstats.rss_steered;
    obs.rss_fallbacks = vstats.rss_fallbacks;
    obs.p99_us = ToMicroseconds(rtts[t].P99());
  }
  cell.host_dispatches = machine.lauberhorn_runtime()->stats().rpcs_hot +
                         machine.lauberhorn_runtime()->stats().rpcs_cold;
  cell.nic_sheds_vf_quota = nic.stats().sheds.vf_quota;
  cell.sim_events = machine.sim().events_executed();
  if (machine.nic_recovery() != nullptr) {
    cell.recoveries = machine.nic_recovery()->stats().recoveries;
    cell.replayed_vfs = machine.nic_recovery()->stats().replayed_vfs;
  }
  if (machine.fault_injector() != nullptr) {
    cell.nic_crashes = machine.fault_injector()->stats().nic_crashes;
  }
  return cell;
}

// Dedup-namespace cell: raw frames with identical (src ip, src port,
// request id) at two tenants' ports, plus one true intra-tenant duplicate.
struct DedupCell {
  uint64_t execs_a = 0;
  uint64_t execs_b = 0;
  uint64_t cross_tenant_suppressions = 0;
  uint64_t intra_tenant_suppressions = 0;
  uint64_t sim_events = 0;
};

Packet RawRequest(uint16_t src_port, uint16_t dst_port, uint64_t request_id,
                  uint64_t seq) {
  std::vector<uint8_t> args;
  MarshalArgs(MethodSignature{{WireType::kU64}},
              std::vector<WireValue>{WireValue::U64(seq)}, args);
  RpcMessage msg;
  msg.kind = MessageKind::kRequest;
  msg.method_id = 0;
  msg.request_id = request_id;
  msg.payload = std::move(args);
  EthernetHeader eth;
  eth.src = {2, 0, 0, 0, 0, 1};
  eth.dst = {2, 0, 0, 0, 0, 2};
  Ipv4Header ip;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  return BuildRpcFrame(eth, ip, udp, msg);
}

DedupCell RunDedupCell(uint64_t seed) {
  Machine machine(TenantMachine(seed, /*chaos=*/false));
  std::unordered_map<uint64_t, uint32_t> execs_a, execs_b;
  struct {
    std::unordered_map<uint64_t, uint32_t>* execs;
  } tenants[2] = {{&execs_a}, {&execs_b}};
  const ServiceDef* services[2];
  for (int t = 0; t < 2; ++t) {
    LauberhornNic::VfConfig vf;
    vf.name = "dedup-tenant-" + std::to_string(t);
    services[t] = &machine.AddService(
        [&]() {
          ServiceDef def;
          def.service_id = static_cast<uint32_t>(t + 1);
          def.name = "dedup-" + std::to_string(t);
          def.udp_port = static_cast<uint16_t>(7000 + t);
          MethodDef method;
          method.method_id = 0;
          method.request_sig.args = {WireType::kU64};
          method.response_sig.args = {WireType::kU64};
          auto* execs = tenants[t].execs;
          method.handler = [execs](const std::vector<WireValue>& args) {
            ++(*execs)[args.at(0).scalar];
            return std::vector<WireValue>{args.at(0)};
          };
          method.SetFixedServiceTime(Nanoseconds(500));
          def.methods[0] = std::move(method);
          return def;
        }(),
        /*max_cores=*/1, machine.CreateVf(vf));
  }
  machine.Start();
  machine.StartHotLoop(*services[0]);
  machine.StartHotLoop(*services[1]);
  machine.sim().RunUntil(Microseconds(100));

  LauberhornNic& nic = *machine.lauberhorn_nic();
  // 32 colliding keys across the two tenants.
  for (uint64_t i = 0; i < 32; ++i) {
    nic.ReceivePacket(RawRequest(static_cast<uint16_t>(40000 + i), 7000,
                                 /*request_id=*/1000 + i, /*seq=*/i));
    nic.ReceivePacket(RawRequest(static_cast<uint16_t>(40000 + i), 7001,
                                 /*request_id=*/1000 + i, /*seq=*/i));
  }
  machine.sim().RunUntil(Milliseconds(2));

  DedupCell cell;
  const RpcDedupCache::Stats& dedup = nic.dedup().stats();
  cell.cross_tenant_suppressions = dedup.duplicates_in_flight + dedup.duplicates_replayed;
  // Control: the same key again at tenant A must be suppressed.
  nic.ReceivePacket(RawRequest(40000, 7000, 1000, 0));
  machine.sim().RunUntil(Milliseconds(3));
  cell.intra_tenant_suppressions = dedup.duplicates_in_flight +
                                   dedup.duplicates_replayed -
                                   cell.cross_tenant_suppressions;
  cell.sim_events = machine.sim().events_executed();
  for (const auto& [s, count] : execs_a) {
    cell.execs_a += count;
  }
  for (const auto& [s, count] : execs_b) {
    cell.execs_b += count;
  }
  return cell;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("MTNT",
              "multi-tenant NIC: PF/VF partitioning + per-VF quota isolation");

  const Duration window = args.smoke ? Milliseconds(10) : Milliseconds(50);
  bool violation = false;
  std::vector<std::string> json_rows;

  // -- solo baselines (one machine per tenant, others idle) --
  CellResult solo[kTenants];
  for (int t = 0; t < kTenants; ++t) {
    double rates[kTenants] = {0, 0, 0};
    rates[t] = kFairRps;
    solo[t] = RunCell(args.seed, rates, window, /*chaos=*/false);
  }

  // -- all tenants at the fair rate --
  const double fair_rates[kTenants] = {kFairRps, kFairRps, kFairRps};
  const CellResult fair = RunCell(args.seed, fair_rates, window, false);

  // -- tenant B surges to 10x --
  const double surge_rates[kTenants] = {kFairRps, kSurgeFactor * kFairRps,
                                        kFairRps};
  const CellResult surge = RunCell(args.seed, surge_rates, window, false);

  Table isolation({"tenant", "solo p99 (us)", "fair p99 (us)",
                   "surge p99 (us)", "surge sent", "surge ok",
                   "surge shed (vf quota)", "rss steered"});
  const char* names[kTenants] = {"A (victim)", "B (aggressor)", "C (victim)"};
  for (int t = 0; t < kTenants; ++t) {
    isolation.AddRow(
        {names[t], Table::Num(solo[t].tenants[t].p99_us, 2),
         Table::Num(fair.tenants[t].p99_us, 2),
         Table::Num(surge.tenants[t].p99_us, 2),
         Table::Int(static_cast<int64_t>(surge.tenants[t].sent)),
         Table::Int(static_cast<int64_t>(surge.tenants[t].ok)),
         Table::Int(static_cast<int64_t>(surge.tenants[t].sheds_vf_quota)),
         Table::Int(static_cast<int64_t>(surge.tenants[t].rss_steered))});
    JsonObject row;
    row.Field("mode", std::string("isolation"))
        .Field("tenant", std::string(1, static_cast<char>('a' + t)))
        .Field("solo_p99_us", solo[t].tenants[t].p99_us)
        .Field("fair_p99_us", fair.tenants[t].p99_us)
        .Field("surge_p99_us", surge.tenants[t].p99_us)
        .Field("surge_sent", surge.tenants[t].sent)
        .Field("surge_ok", surge.tenants[t].ok)
        .Field("surge_overloaded", surge.tenants[t].overloaded)
        .Field("surge_sheds_vf_quota", surge.tenants[t].sheds_vf_quota)
        .Field("rss_steered", surge.tenants[t].rss_steered)
        .Field("rss_fallbacks", surge.tenants[t].rss_fallbacks)
        .Field("solo_sim_events", solo[t].sim_events)
        .Field("fair_sim_events", fair.sim_events)
        .Field("surge_sim_events", surge.sim_events)
        .Field("duplicate_executions", surge.tenants[t].dup_execs);
    json_rows.push_back(row.Render());
  }
  PrintTable(isolation, args.csv);

  // Gate: the aggressor was shed on-NIC...
  if (surge.tenants[1].sheds_vf_quota == 0) {
    std::fprintf(stderr, "VIOLATION: surge tenant was never shed by its VF quota\n");
    violation = true;
  }
  // ...before any handler ran (shed requests execute nothing)...
  for (int t = 0; t < kTenants; ++t) {
    if (surge.tenants[t].total_execs != surge.tenants[t].ok) {
      std::fprintf(stderr,
                   "VIOLATION: tenant %c executed %llu but completed %llu "
                   "(sheds must never execute)\n",
                   'a' + t,
                   static_cast<unsigned long long>(surge.tenants[t].total_execs),
                   static_cast<unsigned long long>(surge.tenants[t].ok));
      violation = true;
    }
  }
  // ...and at zero host dispatch cost: every host dispatch corresponds to an
  // executed request; the ~180k shed requests added none.
  {
    uint64_t execs = 0;
    for (int t = 0; t < kTenants; ++t) {
      execs += surge.tenants[t].total_execs;
    }
    if (surge.host_dispatches != execs) {
      std::fprintf(stderr,
                   "VIOLATION: %llu host dispatches for %llu executions "
                   "(on-NIC sheds must not burn host cores)\n",
                   static_cast<unsigned long long>(surge.host_dispatches),
                   static_cast<unsigned long long>(execs));
      violation = true;
    }
  }
  // Gate: victims' p99 within 15% of their solo baselines.
  for (int t = 0; t < kTenants; t += 2) {
    const double solo_p99 = solo[t].tenants[t].p99_us;
    const double surge_p99 = surge.tenants[t].p99_us;
    if (surge_p99 > 1.15 * solo_p99) {
      std::fprintf(stderr,
                   "VIOLATION: tenant %c p99 %.2f us under surge vs %.2f us "
                   "solo (> 15%% degradation)\n",
                   'a' + t, surge_p99, solo_p99);
      violation = true;
    }
  }
  // Sanity: the victims' goodput survived intact.
  for (int t = 0; t < kTenants; t += 2) {
    if (surge.tenants[t].ok != surge.tenants[t].sent) {
      std::fprintf(stderr, "VIOLATION: victim %c lost goodput under surge (%llu/%llu ok)\n",
                   'a' + t,
                   static_cast<unsigned long long>(surge.tenants[t].ok),
                   static_cast<unsigned long long>(surge.tenants[t].sent));
      violation = true;
    }
  }

  // -- dedup namespace isolation --
  const DedupCell dedup = RunDedupCell(args.seed);
  Table dtable({"metric", "value"});
  dtable.AddRow({"tenant A executions", Table::Int(static_cast<int64_t>(dedup.execs_a))});
  dtable.AddRow({"tenant B executions", Table::Int(static_cast<int64_t>(dedup.execs_b))});
  dtable.AddRow({"cross-tenant suppressions", Table::Int(static_cast<int64_t>(dedup.cross_tenant_suppressions))});
  dtable.AddRow({"intra-tenant suppressions", Table::Int(static_cast<int64_t>(dedup.intra_tenant_suppressions))});
  PrintTable(dtable, args.csv);
  {
    JsonObject row;
    row.Field("mode", std::string("dedup"))
        .Field("tenant_a_executions", dedup.execs_a)
        .Field("tenant_b_executions", dedup.execs_b)
        .Field("cross_tenant_suppressions", dedup.cross_tenant_suppressions)
        .Field("sim_events", dedup.sim_events)
        .Field("intra_tenant_suppressions", dedup.intra_tenant_suppressions);
    json_rows.push_back(row.Render());
  }
  if (dedup.execs_a != 32 || dedup.execs_b != 32 ||
      dedup.cross_tenant_suppressions != 0) {
    std::fprintf(stderr,
                 "VIOLATION: cross-tenant dedup leak (A=%llu B=%llu suppressed=%llu; "
                 "want 32/32/0)\n",
                 static_cast<unsigned long long>(dedup.execs_a),
                 static_cast<unsigned long long>(dedup.execs_b),
                 static_cast<unsigned long long>(dedup.cross_tenant_suppressions));
    violation = true;
  }
  if (dedup.intra_tenant_suppressions != 1) {
    std::fprintf(stderr, "VIOLATION: intra-tenant duplicate was not suppressed\n");
    violation = true;
  }

  // -- chaos: periodic NIC crashes with three active VFs --
  const CellResult chaos = RunCell(args.seed, fair_rates,
                                   args.smoke ? Milliseconds(12) : Milliseconds(30),
                                   /*chaos=*/true);
  Table ctable({"metric", "value"});
  ctable.AddRow({"nic crashes", Table::Int(static_cast<int64_t>(chaos.nic_crashes))});
  ctable.AddRow({"recoveries", Table::Int(static_cast<int64_t>(chaos.recoveries))});
  ctable.AddRow({"replayed VFs", Table::Int(static_cast<int64_t>(chaos.replayed_vfs))});
  uint64_t chaos_dups = 0, chaos_sent = 0, chaos_ok = 0;
  for (int t = 0; t < kTenants; ++t) {
    chaos_dups += chaos.tenants[t].dup_execs;
    chaos_sent += chaos.tenants[t].sent;
    chaos_ok += chaos.tenants[t].ok;
  }
  ctable.AddRow({"sent", Table::Int(static_cast<int64_t>(chaos_sent))});
  ctable.AddRow({"goodput", Table::Int(static_cast<int64_t>(chaos_ok))});
  ctable.AddRow({"dup execs", Table::Int(static_cast<int64_t>(chaos_dups))});
  PrintTable(ctable, args.csv);
  {
    JsonObject row;
    row.Field("mode", std::string("chaos"))
        .Field("nic_crashes", chaos.nic_crashes)
        .Field("recoveries", chaos.recoveries)
        .Field("replayed_vfs", chaos.replayed_vfs)
        .Field("sent", chaos_sent)
        .Field("goodput", chaos_ok)
        .Field("sim_events", chaos.sim_events)
        .Field("duplicate_executions", chaos_dups);
    json_rows.push_back(row.Render());
  }
  if (chaos.nic_crashes == 0 || chaos.recoveries != chaos.nic_crashes) {
    std::fprintf(stderr, "VIOLATION: recovered %llu of %llu NIC crashes\n",
                 static_cast<unsigned long long>(chaos.recoveries),
                 static_cast<unsigned long long>(chaos.nic_crashes));
    violation = true;
  }
  if (chaos.replayed_vfs != kTenants * chaos.recoveries) {
    std::fprintf(stderr,
                 "VIOLATION: %llu VF partitions replayed over %llu recoveries "
                 "(want %d per recovery)\n",
                 static_cast<unsigned long long>(chaos.replayed_vfs),
                 static_cast<unsigned long long>(chaos.recoveries), kTenants);
    violation = true;
  }
  if (chaos_dups != 0) {
    std::fprintf(stderr, "VIOLATION: %llu duplicate executions under chaos\n",
                 static_cast<unsigned long long>(chaos_dups));
    violation = true;
  }
  if (chaos_ok == 0) {
    std::fprintf(stderr, "VIOLATION: chaos cell completed nothing\n");
    violation = true;
  }

  if (!args.json.empty()) {
    JsonObject doc;
    doc.Field("bench", std::string("MTNT"))
        .Field("seed", args.seed)
        .Field("smoke", args.smoke)
        .Field("fair_rps", kFairRps)
        .Field("surge_factor", kSurgeFactor)
        .Field("quota_rps", kQuotaRps)
        .Raw("rows", JsonArray(json_rows));
    if (!WriteJsonFile(args.json, doc.Render())) {
      return 1;
    }
  }

  std::printf("\nExpected shape: tenant B's 10x surge is clipped at its VF quota by the\n"
              "NIC's token bucket — shed before any handler runs, costing zero host\n"
              "dispatches — so tenants A and C keep their solo-baseline p99 (within\n"
              "15%%). Per-VF dedup namespaces never suppress across tenants, and a NIC\n"
              "crash replays all three VF partitions from the OS shadow with\n"
              "at-most-once intact.\n");
  return violation ? 1 : 0;
}

// ABL-TRYAGAIN — ablation of the §5.1 TRYAGAIN deadline. The paper picks
// 15 ms; shorter deadlines raise the idle interconnect traffic of every
// parked endpoint (two messages per period), longer ones push against the
// platform's coherence bus timeout. Reclaiming the core does not wait for the
// deadline: RETIRE answers the held load directly.
#include "bench/common.h"

namespace lauberhorn {
namespace {

struct Cell {
  double idle_msgs_per_s = 0;
  Duration yield_latency = 0;
};

Cell Measure(Duration timeout) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform = PlatformSpec::EnzianEci();
  config.num_cores = 4;
  LauberhornParams params = config.platform.lauberhorn;
  params.tryagain_timeout = timeout;
  config.lauberhorn_params = params;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  Cell cell;
  // Idle traffic over 200 ms: only the parked endpoint's TRYAGAIN cycles.
  machine.interconnect().ResetStats();
  const SimTime start = machine.sim().Now();
  machine.sim().RunUntil(start + Milliseconds(200));
  cell.idle_msgs_per_s =
      static_cast<double>(machine.interconnect().stats().TotalMessages()) / 0.2;

  // Cooperative reclaim latency: request a retire while the endpoint is
  // parked mid-deadline; the RETIRE is answered immediately (the NIC holds
  // the load), so what this measures is the full handshake cost.
  const uint32_t ep = machine.EndpointsOf(echo)[0];
  const SimTime retire_at = machine.sim().Now();
  machine.lauberhorn_runtime()->Deschedule(ep);
  while (machine.lauberhorn_runtime()->loops_exited() == 0 &&
         machine.sim().Now() < retire_at + Seconds(1)) {
    machine.sim().RunUntil(machine.sim().Now() + Microseconds(10));
  }
  cell.yield_latency = machine.sim().Now() - retire_at;
  return cell;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  const bool csv = lauberhorn::BenchArgs::Parse(argc, argv).csv;
  using namespace lauberhorn;
  PrintHeader("ABL-TRYAGAIN", "TRYAGAIN deadline sweep (parked endpoint, idle)");

  Table table({"deadline", "idle device msgs/s", "retire handshake (us)"});
  for (Duration timeout : {Microseconds(100), Milliseconds(1), Milliseconds(5),
                           Milliseconds(15)}) {
    const Cell cell = Measure(timeout);
    table.AddRow({FormatDuration(timeout), Table::Num(cell.idle_msgs_per_s, 0),
                  Us(cell.yield_latency)});
  }
  PrintTable(table, csv);

  std::printf("\nThe paper's 15 ms sits at the quiet end: ~130 msgs/s of idle traffic\n"
              "per parked line, while core reclamation stays fast because RETIRE\n"
              "answers the held load directly rather than waiting for the deadline.\n");
  return 0;
}

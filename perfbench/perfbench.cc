// perfbench: the repository benchmark (README.md gives the workloads, the
// metrics and what each per-layer metric should move).
//
//   perfbench --workload lbh_mix|linux_mix|cluster_lb --seed N --seconds S
//             --trace 0|1 [--commit ID]
//
// --trace 0 reports the end-to-end metrics: one long nominal-rate trial gives
// the simulated-clock ones; a short trial, repeated for S host seconds, gives
// the host-clock ones (each slice of its window at its fastest repeat, the
// lowest set-up time of any repeat); then a binary search over the
// workload's fixed rate grid finds the highest rate that meets its p99 limit.
// --trace 1 alternates untraced and traced long trials for S seconds and
// reports the per-layer metrics.
//
// Every trial checks its outputs: each echoed payload matches its request, no
// request executes twice, and every call ends exactly once, as OK or failed.
// Repeats of one seed must agree exactly on every simulated-clock result, and
// a traced trial must agree exactly with an untraced one. On any violation
// the program prints it to stderr and exits 1 without a result line;
// otherwise the last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench/host_timers.h"
#include "src/cluster/cluster_client.h"
#include "src/cluster/lb_policy.h"
#include "src/core/testbed.h"
#include "src/workload/generator.h"

namespace lauberhorn::perfbench {
namespace {

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

// -- Workloads -----------------------------------------------------------------
//
// Every input is a constant or drawn from --seed: rates, grids, service sets
// and latency limits never depend on the code under test.

constexpr int kServerCores = 8;
constexpr Duration kServiceMean = Microseconds(2);  // exponential
// Marshalled request payload. 64 B fits a Lauberhorn dispatch line; larger
// requests (AUX lines, DMA fallback) come back corrupted under load in the
// current model (README.md, "Known defects"), so every request is 64 B.
constexpr uint32_t kRequestBytes = 64;
// Grid trials step the offered rate by 2^(1/16), about 4.4 %.
constexpr int kGridStepsPerDoubling = 16;
// After the last arrival, wait at most this long for outstanding calls.
constexpr Duration kDrainCap = Milliseconds(50);
// The measured window is timed in this many equal spans of simulated time,
// plus one for the drain (see BestSliceKrps).
constexpr int kHostSlices = 128;

struct Workload {
  const char* name;
  bool cluster;
  StackKind stack;
  int services;           // per machine
  double zipf_skew;       // service popularity
  int hot_services;       // Lauberhorn: the most popular ones start hot
  double nominal_krps;    // offered load (per client edge on cluster_lb)
  Duration p99_limit;
  // Requests per source. The simulated-clock and per-layer metrics come from
  // long trials, so rtt_p999_us rests on a few hundred samples; the
  // host-clock metrics from the best of many short ones; grid trials only
  // need a p99.
  uint64_t warmup;
  uint64_t long_measure;
  uint64_t short_measure;
  uint64_t grid_measure;
  double grid_lo_krps;    // geometric rate grid [lo, hi]
  double grid_hi_krps;
};

constexpr int kClusterMachines = 32;

const Workload kWorkloads[] = {
    // The paper's target: one Lauberhorn server, more services than cores.
    {"lbh_mix", false, StackKind::kLauberhorn, 16, 1.0, 6, 400.0,
     Microseconds(50), 2000, 200000, 10000, 60000, 100.0, 3200.0},
    // The same generated inputs on the Linux stack.
    {"linux_mix", false, StackKind::kLinux, 16, 1.0, 0, 400.0,
     Microseconds(50), 2000, 200000, 10000, 60000, 100.0, 3200.0},
    // 32 Lauberhorn machines behind the queued switch, least-loaded edges.
    // 450 krps per edge puts the most popular service's replicas (52.8 % of
    // the calls under Zipf(1.2) over 4 services) near half of the 500 krps a
    // 2 us mean service time allows.
    {"cluster_lb", true, StackKind::kLauberhorn, 4, 1.2, 4, 450.0,
     Microseconds(50), 100, 6000, 300, 1500, 25.0, 1600.0},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<double> RateGrid(const Workload& w) {
  std::vector<double> grid;
  for (int i = 0;; ++i) {
    const double rate =
        w.grid_lo_krps * std::exp2(static_cast<double>(i) / kGridStepsPerDoubling);
    if (rate > w.grid_hi_krps * (1 + 1e-9)) {
      break;
    }
    grid.push_back(rate);
  }
  return grid;
}

// Request payloads: the method signature {u64 seq, bytes blob}, with the
// blob a pure function of seq so responses can be checked without keeping
// copies of the requests.
const MethodSignature kEchoSig{{WireType::kU64, WireType::kBytes}};

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<uint8_t> BuildPayload(uint64_t seq) {
  std::vector<uint8_t> blob(kRequestBytes - 12);  // 8 B seq + 4 B length prefix
  for (size_t i = 0; i < blob.size(); i += 8) {
    const uint64_t word = Mix64(seq * 0x100000001b3ULL + i);
    const size_t n = std::min<size_t>(8, blob.size() - i);
    std::memcpy(blob.data() + i, &word, n);
  }
  const WireValue values[] = {WireValue::U64(seq), WireValue::Bytes(std::move(blob))};
  std::vector<uint8_t> out;
  MarshalArgs(kEchoSig, values, out);
  return out;
}

// -- One trial -----------------------------------------------------------------

struct TrialParams {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double rate_krps = 0;  // per source
  uint64_t measure = 0;  // measured requests per source
  bool traced = false;
};

// Simulated-clock results: deterministic for a seed, compared exactly.
struct SimResult {
  uint64_t calls = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  // error, timeout, kOverloaded or unanswered
  uint64_t samples = 0;
  Duration p50 = 0;
  Duration p99 = 0;
  Duration p999 = 0;
  double cycles_per_rpc = 0;
  uint64_t backlog_at_stop = 0;
  uint64_t events = 0;
  bool operator==(const SimResult&) const = default;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

class Trial {
 public:
  explicit Trial(const TrialParams& params);
  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  // Builds the machines, registers services, starts hot loops and runs the
  // warm-up phase: everything setup_s counts.
  void Setup();
  // Runs the measured window and the drain; host_run_s() times it.
  void Measure();

  SimResult sim_result() const;
  // Per-layer metrics (traced trials).
  std::vector<Metric> LayerMetrics() const;
  // Host cost of the measured window, per completed RPC and per event.
  double ns_per_rpc() const { return host_run_s_ * 1e9 / PerRpcBase(); }
  double ns_per_event() const;
  uint64_t window_ok() const { return window_ok_; }
  // Host seconds of each slice of the measured window, the drain last.
  const std::vector<double>& slice_s() const { return slice_s_; }
  double host_setup_s() const { return host_setup_s_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  enum class CallState : uint8_t { kInFlight, kOk, kFailed };
  struct CallRecord {
    SimTime due = 0;
    CallState state = CallState::kInFlight;
    uint8_t executions = 0;
  };
  // An open-loop Poisson arrival stream; its draws come only from the seed.
  struct Source {
    explicit Source(uint64_t seed) : rng(seed) {}
    Rng rng;
    SimTime next_due = 0;
    double mean_gap_ps = 0;
  };

  Simulator& sim() const { return *sim_; }
  HostTimers* timers() { return params_.traced ? &timers_ : nullptr; }
  void Violation(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  ServiceDef MakeService(uint32_t id);
  void BuildSingle();
  void BuildCluster();
  void StartArrivals();
  void Fire(size_t source);
  void OnResponse(uint64_t seq, const RpcMessage& response);
  void CountExecution(uint64_t seq);
  void CheckConservation();
  void CheckSpans();
  // Counters summed over every machine: the exported registry plus the
  // public accessors of layers the registry does not cover.
  std::map<std::string, double> Snapshot() const;
  std::vector<uint64_t> HotReplicaOk() const;
  double PerRpcBase() const { return std::max<double>(1.0, static_cast<double>(window_ok_)); }

  TrialParams params_;
  const Workload& w_;
  HostTimers timers_;
  std::vector<std::string> violations_;

  std::unique_ptr<Machine> machine_;  // single-machine workloads
  std::unique_ptr<Testbed> testbed_;  // cluster_lb
  Simulator* sim_ = nullptr;
  std::vector<Machine*> machines_;
  std::vector<std::unique_ptr<TimedSink>> sinks_;
  ServiceDirectory directory_;
  std::vector<std::unique_ptr<LbPolicy>> policies_;
  std::vector<std::unique_ptr<ClusterClient>> edges_;
  std::vector<uint16_t> ports_;  // by service index

  ZipfDistribution popularity_;
  std::vector<Source> sources_;
  std::vector<CallRecord> calls_;
  uint64_t in_flight_ = 0;
  uint64_t window_ok_ = 0;
  uint64_t probe_calls_ = 0;
  std::vector<Duration> rtts_;  // measured round trips, exact
  SimTime t_start_ = 0;
  SimTime t_measure_ = 0;
  SimTime t_stop_ = 0;
  SimTime t_end_ = 0;
  uint64_t backlog_at_stop_ = 0;
  double cycles_per_rpc_ = 0;

  std::map<std::string, double> before_;
  std::map<std::string, double> after_;
  std::vector<uint64_t> replica_ok_before_;
  std::vector<uint64_t> replica_ok_after_;
  Histogram end_system_;
  std::array<Histogram, kSpanSegmentCount> segments_;  // measured window
  double host_setup_s_ = 0;
  double host_run_s_ = 0;
  std::vector<double> slice_s_;
};

Trial::Trial(const TrialParams& params)
    : params_(params),
      w_(*params.workload),
      popularity_(static_cast<size_t>(params.workload->services),
                  params.workload->zipf_skew) {}

void Trial::Violation(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (violations_.size() < 16) {
    violations_.push_back(buf);
  }
}

ServiceDef Trial::MakeService(uint32_t id) {
  ServiceDef def;
  def.service_id = id;
  def.name = "echo" + std::to_string(id);
  def.udp_port = static_cast<uint16_t>(7000 + id);
  MethodDef echo;
  echo.method_id = 0;
  echo.name = "echo";
  echo.request_sig = kEchoSig;
  echo.response_sig = kEchoSig;
  echo.handler = [this](const std::vector<WireValue>& args) {
    CountExecution(args.at(0).scalar);
    return args;
  };
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kExponential;
  spec.mean = kServiceMean;
  spec.seed = Mix64(params_.seed) ^ id;
  echo.service_time = MakeServiceTimeFn(spec);
  def.methods[0] = std::move(echo);
  return def;
}

void Trial::BuildSingle() {
  MachineConfig config;
  config.stack = w_.stack;
  config.num_cores = kServerCores;
  config.seed = params_.seed;
  if (w_.stack == StackKind::kLinux) {
    config.nic_queues = 4;
    config.linux_stack.worker_threads_per_service = 4;
  }
  if (params_.traced) {
    // Room for every span of the trial (Poisson counts stay well within
    // 20 % of their mean), so none is evicted.
    config.enable_spans = true;
    config.span_capacity =
        static_cast<size_t>(static_cast<double>(w_.warmup + params_.measure) * 1.2) + 4096;
  }
  machine_ = std::make_unique<Machine>(config);
  sim_ = &machine_->sim();
  machines_.push_back(machine_.get());
  std::vector<const ServiceDef*> defs;
  for (int s = 0; s < w_.services; ++s) {
    defs.push_back(&machine_->AddService(MakeService(static_cast<uint32_t>(s + 1))));
    ports_.push_back(defs.back()->udp_port);
  }
  machine_->Start();
  if (w_.stack == StackKind::kLauberhorn) {
    for (int s = 0; s < w_.hot_services; ++s) {
      machine_->StartHotLoop(*defs[static_cast<size_t>(s)]);
    }
  }
  if (params_.traced) {
    PacketSink* nic = machine_->lauberhorn_nic() != nullptr
                          ? static_cast<PacketSink*>(machine_->lauberhorn_nic())
                          : static_cast<PacketSink*>(machine_->dma_nic());
    sinks_.push_back(std::make_unique<TimedSink>(nic, &timers_, HostLayer::kNicRx));
    machine_->wire().a_to_b().set_sink(sinks_.back().get());
    sinks_.push_back(std::make_unique<TimedSink>(&machine_->client(), &timers_,
                                                 HostLayer::kClientRx));
    machine_->wire().b_to_a().set_sink(sinks_.back().get());
  }
  sources_.emplace_back(Mix64(params_.seed));
}

void Trial::BuildCluster() {
  testbed_ = std::make_unique<Testbed>();
  sim_ = &testbed_->sim();
  MachineConfig base;
  base.stack = StackKind::kLauberhorn;
  base.num_cores = kServerCores;
  base.client_retransmit_timeout = Microseconds(100);
  base.server_dedup = true;
  base.admission.enabled = true;
  base.admission.queue_depth_limit = 64;
  base.platform.wire.loss_probability = 0.001;
  for (int m = 0; m < kClusterMachines; ++m) {
    MachineConfig config = base;
    config.seed = Mix64(params_.seed) + static_cast<uint64_t>(m);
    machines_.push_back(&testbed_->AddMachine(config));
  }
  for (Machine* machine : machines_) {
    std::vector<const ServiceDef*> defs;
    for (int s = 0; s < w_.services; ++s) {
      defs.push_back(&machine->AddService(MakeService(static_cast<uint32_t>(s + 1))));
    }
    machine->Start();
    for (const ServiceDef* def : defs) {
      machine->StartHotLoop(*def);
      ReplicaInfo info;
      info.machine = machine->config().machine_index;
      info.ip = machine->config().server_ip;
      info.udp_port = def->udp_port;
      info.stack = StackKind::kLauberhorn;
      info.placement = PlacementKind::kHotUserPoll;
      std::function<size_t()> probe = MakeLauberhornDepthProbe(*machine, *def);
      if (params_.traced) {
        probe = [this, probe = std::move(probe)]() -> size_t {
          ++probe_calls_;
          HostTimers::Scope scope(&timers_, HostLayer::kLbProbe);
          return probe();
        };
      }
      info.queue_depth = std::move(probe);
      directory_.AddReplica(def->service_id, std::move(info));
    }
  }
  ClusterClient::Config edge_config;
  edge_config.max_failovers = 2;
  edge_config.down_after_timeouts = 2;
  edge_config.down_duration = Milliseconds(1);
  for (size_t m = 0; m < machines_.size(); ++m) {
    policies_.push_back(std::make_unique<LeastLoadedPolicy>());
    edges_.push_back(std::make_unique<ClusterClient>(
        machines_[m]->sim(), machines_[m]->client(), directory_, *policies_.back(),
        edge_config));
    sources_.emplace_back(Mix64(params_.seed) ^ Mix64(m + 1));
  }
  if (params_.traced) {
    IpSwitch& fabric = testbed_->fabric();
    sinks_.push_back(std::make_unique<TimedSink>(&fabric, &timers_, HostLayer::kSwitch));
    TimedSink* to_switch = sinks_.back().get();
    for (Machine* machine : machines_) {
      machine->wire().a_to_b().set_sink(to_switch);
      machine->wire().b_to_a().set_sink(to_switch);
      // Re-registering an address re-points its existing switch port.
      sinks_.push_back(std::make_unique<TimedSink>(&machine->client(), &timers_,
                                                   HostLayer::kClientRx));
      fabric.Register(machine->config().client_ip, sinks_.back().get());
      sinks_.push_back(std::make_unique<TimedSink>(machine->lauberhorn_nic(), &timers_,
                                                   HostLayer::kNicRx));
      fabric.Register(machine->config().server_ip, sinks_.back().get());
    }
  }
}

void Trial::StartArrivals() {
  const double mean_gap_ps = 1e9 / params_.rate_krps;  // 1/(krps) in ps
  t_start_ = sim().Now() + Microseconds(10);
  t_measure_ = t_start_ + static_cast<Duration>(mean_gap_ps * static_cast<double>(w_.warmup));
  t_stop_ = t_measure_ +
            static_cast<Duration>(mean_gap_ps * static_cast<double>(params_.measure));
  calls_.reserve(static_cast<size_t>(
      static_cast<double>((w_.warmup + params_.measure) * sources_.size()) * 1.1));
  for (size_t i = 0; i < sources_.size(); ++i) {
    Source& src = sources_[i];
    src.mean_gap_ps = mean_gap_ps;
    src.next_due = t_start_ + static_cast<Duration>(src.rng.Exponential(mean_gap_ps));
    sim().ScheduleAt(src.next_due, [this, i] { Fire(i); });
  }
}

void Trial::Fire(size_t source) {
  HostTimers::Scope bench(timers(), HostLayer::kBench);
  Source& src = sources_[source];
  const auto service = static_cast<uint32_t>(popularity_.Sample(src.rng) + 1);
  const uint64_t seq = calls_.size();
  calls_.push_back({src.next_due, CallState::kInFlight, 0});
  ++in_flight_;
  std::vector<uint8_t> payload = BuildPayload(seq);
  auto on_done = [this, seq](const RpcMessage& response, Duration) {
    OnResponse(seq, response);
  };
  if (w_.cluster) {
    HostTimers::Scope call(timers(), HostLayer::kLbCall);
    edges_[source]->Call(service, 0, std::move(payload), 0, std::move(on_done));
  } else {
    HostTimers::Scope call(timers(), HostLayer::kClientCall);
    machine_->client().CallRaw(ports_[service - 1], service, 0, std::move(payload),
                               std::move(on_done));
  }
  src.next_due += static_cast<Duration>(src.rng.Exponential(src.mean_gap_ps));
  if (src.next_due < t_stop_) {
    sim().ScheduleAt(src.next_due, [this, source] { Fire(source); });
  }
}

void Trial::OnResponse(uint64_t seq, const RpcMessage& response) {
  HostTimers::Scope bench(timers(), HostLayer::kBench);
  CallRecord& call = calls_[seq];
  if (call.state != CallState::kInFlight) {
    Violation("call %" PRIu64 " completed twice", seq);
    return;
  }
  --in_flight_;
  if (response.status != RpcStatus::kOk) {
    call.state = CallState::kFailed;
    return;
  }
  if (response.payload != BuildPayload(seq)) {
    Violation("call %" PRIu64 ": echoed payload differs from the request", seq);
    call.state = CallState::kFailed;
    return;
  }
  call.state = CallState::kOk;
  if (call.executions == 0) {
    Violation("call %" PRIu64 " answered OK without executing", seq);
  }
  const SimTime now = sim().Now();
  if (now >= t_measure_) {
    ++window_ok_;
  }
  if (call.due >= t_measure_ && call.due < t_stop_) {
    rtts_.push_back(now - call.due);
  }
}

void Trial::CountExecution(uint64_t seq) {
  if (seq >= calls_.size()) {
    Violation("execution of unknown call %" PRIu64, seq);
    return;
  }
  if (++calls_[seq].executions > 1) {
    Violation("call %" PRIu64 " executed %u times", seq,
              static_cast<unsigned>(calls_[seq].executions));
  }
}

void Trial::Setup() {
  const auto start = HostClock::now();
  if (w_.cluster) {
    BuildCluster();
  } else {
    BuildSingle();
  }
  StartArrivals();
  sim().RunUntil(t_measure_);
  host_setup_s_ = SecondsSince(start);
}

void Trial::Measure() {
  for (Machine* machine : machines_) {
    machine->ResetMeasurement();
  }
  before_ = Snapshot();
  replica_ok_before_ = HotReplicaOk();
  timers_.Reset();

  const auto start = HostClock::now();
  auto slice_start = start;
  const auto end_slice = [this, &slice_start] {
    const auto now = HostClock::now();
    slice_s_.push_back(std::chrono::duration<double>(now - slice_start).count());
    slice_start = now;
  };
  for (int k = 1; k <= kHostSlices; ++k) {
    sim().RunUntil(t_measure_ + (t_stop_ - t_measure_) * k / kHostSlices);
    end_slice();
  }
  backlog_at_stop_ = in_flight_;
  while (in_flight_ > 0 && sim().Now() < t_stop_ + kDrainCap) {
    sim().RunUntil(sim().Now() + Microseconds(50));
  }
  end_slice();
  host_run_s_ = SecondsSince(start);
  t_end_ = sim().Now();

  after_ = Snapshot();
  replica_ok_after_ = HotReplicaOk();
  // Machine::CyclesPerRpc summed over machines: busy cycles over the RPCs
  // the servers completed since ResetMeasurement.
  const double busy_cycles = ToCycles(
      static_cast<Duration>(after_["os/busy_ps"] - before_["os/busy_ps"]),
      machines_[0]->config().platform.os.frequency_ghz);
  const double server_rpcs = after_["machine/server_rpcs"] - before_["machine/server_rpcs"];
  cycles_per_rpc_ = busy_cycles / std::max(1.0, server_rpcs);
  for (Machine* machine : machines_) {
    end_system_.Merge(machine->end_system_latency());
  }
  CheckConservation();
  if (params_.traced && !w_.cluster) {
    CheckSpans();
  }
}

void Trial::CheckConservation() {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t in_flight = 0;
  for (const CallRecord& call : calls_) {
    switch (call.state) {
      case CallState::kOk:
        ++ok;
        break;
      case CallState::kFailed:
        ++failed;
        break;
      case CallState::kInFlight:
        ++in_flight;
        break;
    }
  }
  if (ok + failed + in_flight != calls_.size() || in_flight != in_flight_) {
    Violation("call accounting: %zu calls, %" PRIu64 " ok, %" PRIu64
              " failed, %" PRIu64 " unanswered (tracked %" PRIu64 ")",
              calls_.size(), ok, failed, in_flight, in_flight_);
  }
  if (in_flight == 0) {
    for (Machine* machine : machines_) {
      if (machine->client().outstanding() != 0) {
        Violation("client %u holds %zu calls after every call ended",
                  machine->config().machine_index, machine->client().outstanding());
      }
    }
  }
}

void Trial::CheckSpans() {
  const SpanCollector& spans = *machine_->spans();
  if (spans.dropped() != 0) {
    Violation("%" PRIu64 " spans evicted; span_capacity too small", spans.dropped());
  }
  if (spans.completed().size() != machine_->client().completed()) {
    Violation("%zu spans for %" PRIu64 " completed RPCs", spans.completed().size(),
              machine_->client().completed());
  }
  for (const RequestSpan& span : spans.completed()) {
    if (!span.Complete() || !span.Monotonic()) {
      Violation("request %" PRIx64 " has an incomplete or non-monotonic span",
                span.request_id);
      break;
    }
    if (span.At(SpanStage::kWireRx) < t_measure_) {
      continue;
    }
    for (size_t i = 0; i < kSpanSegmentCount; ++i) {
      segments_[i].Record(span.Segment(i));
    }
  }
}

std::map<std::string, double> Trial::Snapshot() const {
  MetricsRegistry registry;
  for (size_t m = 0; m < machines_.size(); ++m) {
    machines_[m]->ExportMetrics(registry, "m" + std::to_string(m) + "/");
  }
  std::map<std::string, double> sum;
  const auto fold = [&sum](const std::string& key, double value) {
    const size_t slash = key.find('/');
    if (key[0] == 'm' && slash != std::string::npos) {
      sum[key.substr(slash + 1)] += value;
    }
  };
  for (const auto& [key, value] : registry.counters()) {
    fold(key, static_cast<double>(value));
  }
  for (const auto& [key, value] : registry.gauges()) {
    fold(key, value);
  }
  for (Machine* machine : machines_) {
    const CoherenceStats& coherence = machine->interconnect().stats();
    sum["coherence/messages"] += static_cast<double>(coherence.TotalMessages());
    sum["coherence/data_messages"] += static_cast<double>(coherence.data_messages);
    PcieLink& pcie = machine->pcie();
    sum["pcie/mmio"] += static_cast<double>(pcie.mmio_reads() + pcie.mmio_writes());
    sum["pcie/dma_bytes"] +=
        static_cast<double>(pcie.dma_read_bytes() + pcie.dma_write_bytes());
    Scheduler& scheduler = machine->kernel().scheduler();
    sum["os/context_switches"] += static_cast<double>(scheduler.context_switches());
    sum["os/preemptions"] += static_cast<double>(scheduler.preemptions());
    sum["os/busy_ps"] += static_cast<double>(machine->TotalBusyTime());
    sum["wire/loss_drops"] += static_cast<double>(machine->wire().a_to_b().packets_dropped() +
                                                  machine->wire().b_to_a().packets_dropped());
  }
  for (const auto& edge : edges_) {
    sum["cluster/diverts"] += static_cast<double>(edge->stats().diverts);
    sum["cluster/failovers"] += static_cast<double>(edge->stats().failovers);
  }
  if (testbed_ != nullptr) {
    MetricsRegistry fabric;
    testbed_->fabric().ExportMetrics(fabric);
    sum["fabric/queue_drops"] = static_cast<double>(fabric.Counter("fabric/queue_drops"));
  }
  sum["sim/events"] = static_cast<double>(sim().events_executed());
  return sum;
}

// Per-replica completions of the most popular service (cluster_lb).
std::vector<uint64_t> Trial::HotReplicaOk() const {
  std::vector<uint64_t> ok;
  if (w_.cluster) {
    for (size_t i = 0; i < directory_.NumReplicas(1); ++i) {
      ok.push_back(directory_.replica(1, i).ok);
    }
  }
  return ok;
}

SimResult Trial::sim_result() const {
  SimResult r;
  r.calls = calls_.size();
  for (const CallRecord& call : calls_) {
    if (call.state == CallState::kOk) {
      ++r.ok;
    }
  }
  r.failed = r.calls - r.ok;
  // Exact nearest-rank percentiles: histogram buckets would round every
  // seed's percentile to the same bucket edge.
  std::vector<Duration> sorted = rtts_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = [&sorted](double q) {
    return sorted.empty() ? Duration{0}
                          : sorted[static_cast<size_t>(
                                std::ceil(q * static_cast<double>(sorted.size()))) -
                                1];
  };
  r.samples = sorted.size();
  r.p50 = rank(0.50);
  r.p99 = rank(0.99);
  r.p999 = rank(0.999);
  r.cycles_per_rpc = cycles_per_rpc_;
  r.backlog_at_stop = backlog_at_stop_;
  r.events = static_cast<uint64_t>(after_.at("sim/events") - before_.at("sim/events"));
  return r;
}

double Trial::ns_per_event() const {
  const double events = after_.at("sim/events") - before_.at("sim/events");
  return host_run_s_ * 1e9 / std::max(1.0, events);
}

std::vector<Metric> Trial::LayerMetrics() const {
  const auto delta = [this](const char* key) {
    const auto a = after_.find(key);
    const auto b = before_.find(key);
    return (a == after_.end() ? 0.0 : a->second) - (b == before_.end() ? 0.0 : b->second);
  };
  const auto gauge = [this](const char* key) {
    const auto a = after_.find(key);
    return a == after_.end() ? 0.0 : a->second;
  };
  const double rpcs = PerRpcBase();
  const double krpcs = rpcs / 1e3;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto host_ns = [&](HostLayer layer) {
    return static_cast<double>(timers_.self_ns(layer)) / rpcs;
  };

  std::vector<Metric> out;
  const auto add = [&out](const char* name, const char* unit, double value) {
    out.push_back({name, unit, value});
  };

  // sim
  const double events = delta("sim/events");
  add("sim.events_per_rpc", "count/rpc", events / rpcs);
  add("sim.slab_slots", "count", static_cast<double>(sim().slab_capacity()));

  // nic
  const double hot = delta("nic/hot_dispatches");
  const double queued = delta("nic/queued_dispatches");
  const double cold = delta("nic/cold_dispatches");
  const double dispatches = hot + queued + cold;
  add("nic.hot_frac", "frac", ratio(hot, dispatches));
  add("nic.queued_frac", "frac", ratio(queued, dispatches));
  add("nic.cold_frac", "frac", ratio(cold, dispatches));
  add("nic.tryagains_per_krpc", "count/krpc", delta("nic/tryagains") / krpcs);
  add("nic.retires_per_krpc", "count/krpc", delta("nic/retires") / krpcs);
  add("nic.dma_fallback_frac", "frac", ratio(delta("nic/dma_fallback_rx"), dispatches));
  add("host.nic_rx_ns_per_rpc", "ns/rpc", host_ns(HostLayer::kNicRx));

  // coherence
  add("coherence.msgs_per_rpc", "count/rpc", delta("coherence/messages") / rpcs);
  add("coherence.data_msgs_per_rpc", "count/rpc", delta("coherence/data_messages") / rpcs);

  // pcie
  add("pcie.mmio_per_rpc", "count/rpc", delta("pcie/mmio") / rpcs);
  add("pcie.dma_bytes_per_rpc", "B/rpc", delta("pcie/dma_bytes") / rpcs);

  // os
  const double core_ps = static_cast<double>(machines_.size() * kServerCores) *
                         static_cast<double>(t_end_ - t_measure_);
  add("os.busy_frac", "frac", ratio(delta("os/busy_ps"), core_ps));
  add("os.ctx_switches_per_rpc", "count/rpc", delta("os/context_switches") / rpcs);
  add("os.preemptions_per_krpc", "count/krpc", delta("os/preemptions") / krpcs);

  // proto
  add("proto.dup_replays_per_krpc", "count/krpc",
      (delta("nic/dup_replays") + delta("linux/dup_replays")) / krpcs);
  add("proto.dup_drops_per_krpc", "count/krpc",
      (delta("nic/dup_drops_in_flight") + delta("linux/dup_drops_in_flight")) / krpcs);
  add("proto.shadow_dedup_entries", "count", gauge("recovery/shadow_dedup_entries"));

  // overload
  const double sheds = delta("overload/sheds_queue") + delta("overload/sheds_quota") +
                       delta("overload/sheds_sojourn") + delta("overload/sheds_vf_quota");
  add("overload.shed_frac", "frac", ratio(sheds, sheds + rpcs));

  // net
  add("net.fabric_queue_drops", "count", delta("fabric/queue_drops"));
  add("net.wire_loss_drops", "count", delta("wire/loss_drops"));
  add("host.switch_ns_per_pkt", "ns/pkt",
      ratio(static_cast<double>(timers_.self_ns(HostLayer::kSwitch)),
            static_cast<double>(timers_.calls(HostLayer::kSwitch))));
  add("host.switch_ns_per_rpc", "ns/rpc", host_ns(HostLayer::kSwitch));

  // cluster
  add("cluster.probe_calls_per_rpc", "count/rpc", static_cast<double>(probe_calls_) / rpcs);
  add("host.lb_probe_ns_per_rpc", "ns/rpc", host_ns(HostLayer::kLbProbe));
  add("host.lb_call_ns_per_rpc", "ns/rpc", host_ns(HostLayer::kLbCall));
  add("cluster.diverts_per_krpc", "count/krpc", delta("cluster/diverts") / krpcs);
  add("cluster.failovers_per_krpc", "count/krpc", delta("cluster/failovers") / krpcs);
  double imbalance = 0;
  if (!replica_ok_after_.empty()) {
    double max_ok = 0;
    double total_ok = 0;
    for (size_t i = 0; i < replica_ok_after_.size(); ++i) {
      const auto ok = static_cast<double>(replica_ok_after_[i] - replica_ok_before_[i]);
      max_ok = std::max(max_ok, ok);
      total_ok += ok;
    }
    imbalance = ratio(max_ok * static_cast<double>(replica_ok_after_.size()), total_ok);
  }
  add("cluster.replica_imbalance", "ratio", imbalance);

  // core
  add("client.retransmits_per_krpc", "count/krpc", delta("client/retransmits") / krpcs);
  add("client.late_responses_per_krpc", "count/krpc", delta("client/late_responses") / krpcs);
  add("client.timeouts", "count", delta("client/timeouts"));
  add("host.client_call_ns_per_rpc", "ns/rpc", host_ns(HostLayer::kClientCall));
  add("host.client_rx_ns_per_rpc", "ns/rpc", host_ns(HostLayer::kClientRx));
  add("machine.end_system_p50_us", "us", ToMicroseconds(end_system_.P50()));
  add("machine.end_system_p99_us", "us", ToMicroseconds(end_system_.P99()));

  // stats: span segments over the measured window (single-machine workloads)
  for (size_t i = 0; i < kSpanSegmentCount; ++i) {
    const Histogram& h = segments_[i];
    const std::string base = std::string("span.") + SpanSegmentName(i);
    out.push_back({base + "_p50_us", "us", ToMicroseconds(h.P50())});
    out.push_back({base + "_p99_us", "us", ToMicroseconds(h.P99())});
  }
  add("host.bench_ns_per_rpc", "ns/rpc", host_ns(HostLayer::kBench));
  const double traced_ns = host_run_s_ * 1e9 / rpcs;
  add("host.traced_ns_per_rpc", "ns/rpc", traced_ns);
  add("host.unattributed_ns_per_rpc", "ns/rpc",
      traced_ns - static_cast<double>(timers_.total_self_ns()) / rpcs);
  return out;
}

// -- Runs ------------------------------------------------------------------------

struct TrialRun {
  SimResult sim;
  double setup_s = 0;
  double ns_per_rpc = 0;
  double ns_per_event = 0;
  uint64_t window_ok = 0;
  std::vector<double> slice_s;
  std::vector<Metric> layers;
};

bool g_failed = false;

void Report(const std::vector<std::string>& violations, const char* what) {
  for (const std::string& v : violations) {
    std::fprintf(stderr, "VIOLATION (%s): %s\n", what, v.c_str());
  }
  if (!violations.empty()) {
    g_failed = true;
  }
}

TrialRun RunTrial(const TrialParams& params, const char* what) {
  Trial trial(params);
  trial.Setup();
  trial.Measure();
  Report(trial.violations(), what);
  TrialRun run;
  run.sim = trial.sim_result();
  run.setup_s = trial.host_setup_s();
  run.ns_per_rpc = trial.ns_per_rpc();
  run.ns_per_event = trial.ns_per_event();
  run.window_ok = trial.window_ok();
  run.slice_s = trial.slice_s();
  if (params.traced) {
    run.layers = trial.LayerMetrics();
  }
  return run;
}

// Repeats of the host trials per run: at least kMinRepeats, then as many as
// --seconds allows.
constexpr size_t kMinRepeats = 3;
constexpr size_t kMaxRepeats = 1000;

// Index of the run at the (lower) median host ns per RPC.
size_t MedianIndex(const std::vector<TrialRun>& runs) {
  std::vector<size_t> order(runs.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&runs](size_t a, size_t b) {
    return runs[a].ns_per_rpc < runs[b].ns_per_rpc;
  });
  return order[(order.size() - 1) / 2];
}

void CheckSame(const SimResult& a, const SimResult& b, const char* what) {
  if (!(a == b)) {
    std::fprintf(stderr,
                 "VIOLATION (%s): simulated results differ for one seed: "
                 "p50 %" PRId64 "/%" PRId64 " p99 %" PRId64 "/%" PRId64
                 " ok %" PRIu64 "/%" PRIu64 " events %" PRIu64 "/%" PRIu64 "\n",
                 what, a.p50, b.p50, a.p99, b.p99, a.ok, b.ok, a.events, b.events);
    g_failed = true;
  }
}

// -- Host-clock repeats -----------------------------------------------------------
//
// Repeats of one trial do identical simulated work, so each slice of the
// window is charged its fastest time over every repeat, and set-up its
// fastest repeat. Other tenants of the host slow single vCPUs, mostly
// independently of each other, in bursts from milliseconds to minutes, and
// only ever add time. So the repeats run in one process per vCPU but one
// (at most kMaxHostWorkers), each pinned to its own vCPU: a slice a few
// milliseconds long is undisturbed on some vCPU in some repeat far more
// often than a whole trial on one vCPU is.
//
// The vCPU clock itself drifts, by 20 % within minutes on the reference
// host, as other tenants load the package. So each worker also times a
// dependent integer chain after every trial, whose cycle count does not
// depend on the memory system; its fastest time gives the worker's clock,
// and the worker reports its host times as seconds at kReferenceHz.

constexpr size_t kMaxHostWorkers = 4;
constexpr double kReferenceHz = 3e9;
constexpr int kClockProbeIterations = 200000;
// imul (3 cycles), add, shr and xor, each waiting for the one before.
constexpr double kClockProbeCyclesPerIteration = 6;

double ClockProbeSeconds() {
  const auto start = HostClock::now();
  uint64_t x = 1;
  for (int i = 0; i < kClockProbeIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  // Finish the chain before the clock is read again.
  asm volatile("" : : "r"(x) : "memory");
  return SecondsSince(start);
}

// What one worker sends back; trivially copyable, so it crosses a pipe as
// bytes.
struct HostSample {
  uint64_t repeats = 0;
  uint64_t window_ok = 0;
  double clock_hz = 0;
  // Fastest over the repeats, in seconds at kReferenceHz.
  double setup_s = 0;
  std::array<double, kHostSlices + 1> slice_s{};
  SimResult sim;
  bool failed = false;
};

HostSample RunHostRepeats(const TrialParams& params, double seconds) {
  HostSample out;
  double probe_s = ClockProbeSeconds();
  const auto start = HostClock::now();
  while (out.repeats < kMinRepeats ||
         (SecondsSince(start) < seconds && out.repeats < kMaxRepeats)) {
    const TrialRun run = RunTrial(params, "short nominal trial");
    if (out.repeats == 0) {
      out.sim = run.sim;
      out.window_ok = run.window_ok;
      out.setup_s = run.setup_s;
      std::copy(run.slice_s.begin(), run.slice_s.end(), out.slice_s.begin());
    } else {
      CheckSame(out.sim, run.sim, "repeat of the short trial");
      out.setup_s = std::min(out.setup_s, run.setup_s);
      for (size_t i = 0; i < out.slice_s.size(); ++i) {
        out.slice_s[i] = std::min(out.slice_s[i], run.slice_s[i]);
      }
    }
    ++out.repeats;
    probe_s = std::min(probe_s, ClockProbeSeconds());
  }
  out.clock_hz = kClockProbeCyclesPerIteration * kClockProbeIterations / probe_s;
  const double scale = out.clock_hz / kReferenceHz;
  out.setup_s *= scale;
  for (double& slice_s : out.slice_s) {
    slice_s *= scale;
  }
  out.failed = g_failed;
  return out;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Forks the workers, waits for every one of them, and returns their
// samples; false when any worker failed or reported a violation.
bool RunHostWorkers(const TrialParams& params, double seconds,
                    std::vector<HostSample>& samples) {
  const std::vector<int> cpus = AllowedCpus();
  const size_t workers =
      std::clamp<size_t>(cpus.size() > 1 ? cpus.size() - 1 : 1, 1, kMaxHostWorkers);
  const pid_t parent = getpid();
  std::fflush(stdout);
  std::fflush(stderr);
  struct Child {
    pid_t pid;
    int fd;
  };
  std::vector<Child> children;
  bool ok = true;
  for (size_t i = 0; i < workers; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      ok = false;
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      // Die with the parent, whatever ends it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) {
        _exit(1);
      }
      if (i < cpus.size()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        sched_setaffinity(0, sizeof(one), &one);
      }
      const HostSample sample = RunHostRepeats(params, seconds);
      const auto* bytes = reinterpret_cast<const char*>(&sample);
      size_t sent = 0;
      while (sent < sizeof(sample)) {
        const ssize_t n = write(fds[1], bytes + sent, sizeof(sample) - sent);
        if (n <= 0) {
          _exit(1);
        }
        sent += static_cast<size_t>(n);
      }
      _exit(0);
    }
    close(fds[1]);
    if (pid < 0) {
      close(fds[0]);
      ok = false;
      break;
    }
    children.push_back({pid, fds[0]});
  }
  for (const Child& child : children) {
    HostSample sample;
    auto* bytes = reinterpret_cast<char*>(&sample);
    size_t got = 0;
    while (got < sizeof(sample)) {
      const ssize_t n = read(child.fd, bytes + got, sizeof(sample) - got);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        break;
      }
      got += static_cast<size_t>(n);
    }
    close(child.fd);
    int status = 0;
    while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got == sizeof(sample) && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
        !sample.failed) {
      samples.push_back(sample);
    } else {
      ok = false;
    }
  }
  return ok && !samples.empty();
}

struct SloPoint {
  double rate_krps = 0;
  SimResult sim;
  bool pass = false;
};

// Binary search for the highest grid rate that meets the workload's p99
// limit with no failed call and no growing backlog.
double SearchSlo(const Workload& w, uint64_t seed, std::vector<SloPoint>& points) {
  const std::vector<double> grid = RateGrid(w);
  const double sources = w.cluster ? kClusterMachines : 1;
  int lo = -1;
  int hi = static_cast<int>(grid.size());
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    TrialParams params;
    params.workload = &w;
    params.seed = seed;
    params.rate_krps = grid[static_cast<size_t>(mid)];
    params.measure = w.grid_measure;
    const TrialRun run = RunTrial(params, "grid trial");
    SloPoint point{params.rate_krps, run.sim, false};
    // A system meeting the limit holds about rate x latency calls in flight
    // (Little's law); four times the limit's worth means a growing backlog,
    // not a Poisson burst.
    const double backlog_limit =
        4 * params.rate_krps * sources * ToMicroseconds(w.p99_limit) / 1e3;
    point.pass = run.sim.failed == 0 && run.sim.p99 <= w.p99_limit &&
                 static_cast<double>(run.sim.backlog_at_stop) <= backlog_limit;
    points.push_back(point);
    if (point.pass) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo < 0 ? 0.0 : grid[static_cast<size_t>(lo)] * sources;
}

// -- Environment -------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

// Peak resident memory of this program. VmHWM belongs to the current address
// space; getrusage's ru_maxrss also keeps the high-water mark of the process
// that exec'ed this one (the Python runner), which would mask any change
// below it, so it is only the fallback.
double PeakRssMb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    const bool digits = !value.empty() && value.find_first_not_of("0123456789") ==
                                              std::string::npos;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!digits) {
        return false;
      }
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!digits || value.size() > 6 || std::stoi(value) < 1) {
        return false;
      }
      args.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args.workload) != nullptr;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload lbh_mix|linux_mix|cluster_lb --seed N "
                 "--seconds S --trace 0|1 [--commit ID]\n");
    return 2;
  }
  if (!kOptimized) {
    std::fprintf(stderr, "WARNING: perfbench was compiled without optimisation; "
                         "host-clock metrics are not representative\n");
  }
  const Workload& w = *FindWorkload(args.workload);
  const double sources = w.cluster ? kClusterMachines : 1;
  TrialParams nominal;
  nominal.workload = &w;
  nominal.seed = args.seed;
  nominal.rate_krps = w.nominal_krps;
  nominal.measure = w.long_measure;
  TrialParams short_trial = nominal;
  short_trial.measure = w.short_measure;

  std::printf("perfbench %s: %s, seed %" PRIu64 ", nominal %.0f krps offered, "
              "p99 limit %.0f us\n",
              w.name, ToString(w.stack).c_str(), args.seed, w.nominal_krps * sources,
              ToMicroseconds(w.p99_limit));

  std::vector<Metric> metrics;
  SimResult sim;
  if (args.trace == 0) {
    sim = RunTrial(nominal, "long nominal trial").sim;
    // The long trial holds the most state of any nominal-rate trial; read
    // the peak before the grid search, whose overloaded trials hold far more.
    const double peak_rss_mb = PeakRssMb();
    std::vector<HostSample> samples;
    if (!RunHostWorkers(short_trial, args.seconds, samples)) {
      std::fprintf(stderr, "perfbench: a host-clock worker failed\n");
      return 1;
    }
    HostSample best = samples.front();
    uint64_t repeats = 0;
    std::printf("vCPU clock from the probe, per worker:");
    for (const HostSample& sample : samples) {
      std::printf(" %.3f GHz", sample.clock_hz / 1e9);
    }
    std::printf("\n");
    for (const HostSample& sample : samples) {
      CheckSame(best.sim, sample.sim, "short trial in another worker");
      repeats += sample.repeats;
      best.setup_s = std::min(best.setup_s, sample.setup_s);
      for (size_t i = 0; i < best.slice_s.size(); ++i) {
        best.slice_s[i] = std::min(best.slice_s[i], sample.slice_s[i]);
      }
    }
    double host_s = 0;
    for (const double slice_s : best.slice_s) {
      host_s += slice_s;
    }
    const double krps = static_cast<double>(best.window_ok) / host_s / 1e3;
    const double setup_s = best.setup_s;
    std::vector<SloPoint> points;
    const double slo = SearchSlo(w, args.seed, points);
    std::printf("rate grid search (p99 limit %.0f us):\n", ToMicroseconds(w.p99_limit));
    for (const SloPoint& p : points) {
      std::printf("  %9.1f krps  p99 %9.2f us  failed %6" PRIu64 "  backlog %6" PRIu64
                  "  %s\n",
                  p.rate_krps * sources, ToMicroseconds(p.sim.p99), p.sim.failed,
                  p.sim.backlog_at_stop, p.pass ? "pass" : "fail");
    }
    std::printf("long trial: %" PRIu64 " calls, %" PRIu64 " rtt samples; "
                "host trials: %" PRIu64 " repeats of %" PRIu64 " calls in %zu workers\n",
                sim.calls, sim.samples, repeats, best.sim.calls, samples.size());
    metrics = {
        {"rtt_p50_us", "us", ToMicroseconds(sim.p50)},
        {"rtt_p99_us", "us", ToMicroseconds(sim.p99)},
        {"rtt_p999_us", "us", ToMicroseconds(sim.p999)},
        {"rtt_samples", "count", static_cast<double>(sim.samples)},
        {"slo_krps", "krps", slo},
        {"cycles_per_rpc", "cycles", sim.cycles_per_rpc},
        {"ok_frac", "frac",
         static_cast<double>(sim.ok) / std::max<double>(1.0, static_cast<double>(sim.calls))},
        {"host_krps", "krps", krps},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", peak_rss_mb},
    };
  } else {
    std::vector<TrialRun> plain;
    std::vector<TrialRun> traced;
    TrialParams traced_params = nominal;
    traced_params.traced = true;
    const auto start = HostClock::now();
    while (traced.size() < kMinRepeats ||
           (SecondsSince(start) < args.seconds && traced.size() < kMaxRepeats)) {
      plain.push_back(RunTrial(nominal, "untraced trial"));
      traced.push_back(RunTrial(traced_params, "traced trial"));
      CheckSame(plain.front().sim, plain.back().sim, "repeat of the untraced trial");
      CheckSame(plain.back().sim, traced.back().sim, "traced against untraced trial");
    }
    sim = plain.front().sim;
    // Host-clock layer metrics come from the traced trial at the median
    // host time, so that trial's parts add up to its total.
    const size_t mid = MedianIndex(traced);
    const size_t plain_mid = MedianIndex(plain);
    metrics = traced[mid].layers;
    metrics.push_back({"host.ns_per_event", "ns/event", plain[plain_mid].ns_per_event});
    metrics.push_back({"host.ns_per_rpc", "ns/rpc", plain[plain_mid].ns_per_rpc});
    metrics.push_back({"host.trace_overhead_frac", "frac",
                       traced[mid].ns_per_rpc / plain[plain_mid].ns_per_rpc - 1.0});
    std::printf("traced trials: %zu pairs, %" PRIu64 " calls, %" PRIu64 " rtt samples\n",
                traced.size(), sim.calls, sim.samples);
  }

  if (g_failed) {
    std::fprintf(stderr, "perfbench: correctness violations; no result reported\n");
    return 1;
  }
  if (sim.samples < 10000) {
    std::fprintf(stderr, "WARNING: only %" PRIu64 " rtt samples (fewer than 1e4)\n",
                 sim.samples);
  }
  PrintMetrics(metrics);
  std::printf("env: {\"seed\": %" PRIu64 ", \"nproc\": %zu, \"cpu\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"optimized\": %s, \"commit\": %s}\n",
              args.seed, AllowedCpus().size(), JsonString(CpuModel()).c_str(),
              JsonString(PERFBENCH_COMPILER).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(), kOptimized ? "true" : "false",
              JsonString(args.commit).c_str());
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(sim.calls) +
                     ", \"failed\": " + std::to_string(sim.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace lauberhorn::perfbench

int main(int argc, char** argv) { return lauberhorn::perfbench::Main(argc, argv); }

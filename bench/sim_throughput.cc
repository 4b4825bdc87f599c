// SIMTP — event-engine throughput: events/sec through the Simulator hot path
// (schedule → heap → dispatch), the quantity that bounds every experiment in
// this repository (a simulated second at 100 krps is ~10^6 events).
//
// The seed engine (std::priority_queue<Event> + lazy-deletion unordered_set,
// std::function callbacks) is embedded below as LegacySimulator so the
// old-vs-new comparison is reproducible on any machine, forever — the
// speedup reported in BENCH_sim.json is measured, not remembered.
//
// Workloads:
//   schedule_fire  pre-schedule N events at random times, drain
//   timer_churn    K self-rescheduling timers firing M times total
//   cancel_churn   schedule + cancel pairs with a trickle of survivors
//   capture48      schedule/fire with 48-byte captures (SBO vs heap alloc)
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_set>

#include "bench/common.h"
#include "src/sim/random.h"

namespace lauberhorn {
namespace {

// -- The seed engine, verbatim semantics ---------------------------------------

using LegacyEventId = uint64_t;

class LegacySimulator {
 public:
  SimTime Now() const { return now_; }

  LegacyEventId Schedule(Duration delay, std::function<void()> fn) {
    if (delay < 0) {
      delay = 0;
    }
    const SimTime when = now_ + delay;
    const LegacyEventId id = next_id_++;
    queue_.push(Event{when, id, std::move(fn)});
    pending_.insert(id);
    return id;
  }

  bool Cancel(LegacyEventId id) { return pending_.erase(id) != 0; }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (pending_.erase(ev.id) == 0) {
        continue;
      }
      now_ = ev.when;
      ++events_executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  void RunUntilIdle() {
    while (Step()) {
    }
  }

  uint64_t events_executed() const { return events_executed_; }

 private:
  struct Event {
    SimTime when = 0;
    LegacyEventId id = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;
    }
  };
  SimTime now_ = 0;
  LegacyEventId next_id_ = 1;
  uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<LegacyEventId> pending_;
};

// -- Workloads (templated over the engine) -------------------------------------

struct WorkloadSize {
  uint64_t schedule_fire = 400000;
  uint64_t timer_churn = 800000;
  uint64_t cancel_churn = 400000;
  uint64_t capture48 = 400000;
};

template <typename Sim>
uint64_t ScheduleFire(uint64_t n, uint64_t seed) {
  Sim sim;
  Rng rng(seed);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sim.Schedule(static_cast<Duration>(rng.UniformInt(0, 10000000)),
                 [&sink] { ++sink; });
  }
  sim.RunUntilIdle();
  return sim.events_executed() + (sink & 1);
}

template <typename Sim>
uint64_t TimerChurn(uint64_t total, uint64_t seed) {
  Sim sim;
  Rng rng(seed);
  constexpr int kTimers = 64;
  uint64_t remaining = total;
  // Each timer re-arms itself until the global budget is spent — the steady
  // state of every NIC/OS model in this repo (retransmit timers, polls).
  struct Timer {
    Sim* sim;
    Rng* rng;
    uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) {
        return;
      }
      --*remaining;
      auto self = *this;
      sim->Schedule(static_cast<Duration>(rng->UniformInt(100, 5000)), self);
    }
  };
  for (int i = 0; i < kTimers; ++i) {
    Timer t{&sim, &rng, &remaining};
    sim.Schedule(static_cast<Duration>(rng.UniformInt(100, 5000)), t);
  }
  sim.RunUntilIdle();
  return sim.events_executed();
}

template <typename Sim>
uint64_t CancelChurn(uint64_t n, uint64_t seed) {
  Sim sim;
  Rng rng(seed);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const auto victim = sim.Schedule(
        static_cast<Duration>(rng.UniformInt(1000, 2000000)), [&sink] { ++sink; });
    sim.Cancel(victim);
    if (i % 16 == 0) {
      sim.Schedule(static_cast<Duration>(rng.UniformInt(0, 1000)),
                   [&sink] { ++sink; });
      sim.Step();
    }
  }
  sim.RunUntilIdle();
  return n + sim.events_executed();
}

template <typename Sim>
uint64_t Capture48(uint64_t n, uint64_t seed) {
  Sim sim;
  Rng rng(seed);
  uint64_t sink = 0;
  struct Payload {
    uint64_t a, b, c, d, e;
    uint64_t* out;
  };
  for (uint64_t i = 0; i < n; ++i) {
    Payload p{i, i + 1, i + 2, i + 3, i + 4, &sink};
    sim.Schedule(static_cast<Duration>(rng.UniformInt(0, 1000000)),
                 [p] { *p.out += p.a + p.b + p.c + p.d + p.e; });
    if (i % 4 == 0) {
      sim.Step();
    }
  }
  sim.RunUntilIdle();
  return sim.events_executed() + (sink & 1);
}

struct Measurement {
  std::string workload;
  std::string engine;
  uint64_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
};

template <typename Sim>
Measurement Measure(const std::string& workload, const std::string& engine,
                    uint64_t n, uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t events = 0;
  if (workload == "schedule_fire") {
    events = ScheduleFire<Sim>(n, seed);
  } else if (workload == "timer_churn") {
    events = TimerChurn<Sim>(n, seed);
  } else if (workload == "cancel_churn") {
    events = CancelChurn<Sim>(n, seed);
  } else {
    events = Capture48<Sim>(n, seed);
  }
  const auto end = std::chrono::steady_clock::now();
  Measurement m;
  m.workload = workload;
  m.engine = engine;
  m.events = events;
  m.seconds = std::chrono::duration<double>(end - start).count();
  m.events_per_sec = static_cast<double>(events) / m.seconds;
  return m;
}

uint64_t SizeOf(const WorkloadSize& sizes, const std::string& workload) {
  if (workload == "schedule_fire") return sizes.schedule_fire;
  if (workload == "timer_churn") return sizes.timer_churn;
  if (workload == "cancel_churn") return sizes.cancel_churn;
  return sizes.capture48;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  BenchArgs args = BenchArgs::Parse(argc, argv);
  if (args.trials < 1) {
    args.trials = 1;
  }
  WorkloadSize sizes;
  if (args.smoke) {
    sizes = WorkloadSize{20000, 40000, 20000, 20000};
  }
  PrintHeader("SIMTP", "event-engine throughput, slab/4-ary heap vs seed engine");

  const std::vector<std::string> workloads = {"schedule_fire", "timer_churn",
                                              "cancel_churn", "capture48"};

  // Trials fan out across threads (each trial owns its simulators); the
  // per-workload result is the best trial, which is the least-noisy estimator
  // of the engine's actual cost on a shared machine.
  struct TrialResult {
    std::vector<Measurement> rows;
  };
  const int trials = args.trials;
  const uint64_t base_seed = args.seed;
  const auto trial_results = RunTrialsParallel(trials, [&](int trial) {
    TrialResult r;
    for (const std::string& w : workloads) {
      const uint64_t n = SizeOf(sizes, w);
      const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
      r.rows.push_back(Measure<LegacySimulator>(w, "legacy", n, seed));
      r.rows.push_back(Measure<Simulator>(w, "slab4", n, seed));
    }
    return r;
  });

  auto best = [&](const std::string& workload, const std::string& engine) {
    Measurement best_m;
    for (const TrialResult& tr : trial_results) {
      for (const Measurement& m : tr.rows) {
        if (m.workload == workload && m.engine == engine &&
            m.events_per_sec > best_m.events_per_sec) {
          best_m = m;
        }
      }
    }
    return best_m;
  };

  Table table({"workload", "events", "legacy (Mev/s)", "slab4 (Mev/s)", "speedup"});
  std::vector<std::string> json_rows;
  double speedup_log_sum = 0;
  for (const std::string& w : workloads) {
    const Measurement legacy = best(w, "legacy");
    const Measurement slab = best(w, "slab4");
    const double speedup = slab.events_per_sec / legacy.events_per_sec;
    speedup_log_sum += std::log(speedup);
    table.AddRow({w, Table::Int(static_cast<int64_t>(slab.events)),
                  Table::Num(legacy.events_per_sec / 1e6, 2),
                  Table::Num(slab.events_per_sec / 1e6, 2),
                  Table::Num(speedup, 2)});
    json_rows.push_back(JsonObject()
                            .Field("workload", w)
                            .Field("events", slab.events)
                            .Field("legacy_events_per_sec", legacy.events_per_sec)
                            .Field("slab4_events_per_sec", slab.events_per_sec)
                            .Field("speedup", speedup)
                            .Render());
  }
  const double geomean =
      std::exp(speedup_log_sum / static_cast<double>(workloads.size()));
  PrintTable(table, args.csv);
  std::printf("\ngeomean speedup over seed engine: %.2fx (target: >= 2x)\n", geomean);

  if (!args.json.empty()) {
    const std::string json =
        JsonObject()
            .Field("bench", std::string("sim_throughput"))
            .Field("schema_version", 3)
            .Raw("config", JsonObject()
                               .Field("trials", trials)
                               .Field("seed", base_seed)
                               .Field("smoke", args.smoke)
                               .Field("threads_used",
                                      static_cast<int>(std::thread::hardware_concurrency()))
                               .Render())
            .Raw("results", JsonArray(json_rows))
            .Field("geomean_speedup", geomean)
            .Render();
    if (!WriteJsonFile(args.json, json)) {
      return 1;
    }
    std::printf("wrote %s\n", args.json.c_str());
  }
  return geomean >= 1.0 ? 0 : 3;  // sanity floor; CI smoke just checks exit 0
}

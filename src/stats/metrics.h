// Named metrics registry (§6). Subsystems export their counters, gauges, and
// latency histograms into one flat namespace ("client/rpcs_sent",
// "overload/sheds_quota", ...) so benches can dump a machine-wide snapshot as
// JSON next to their own results instead of each inventing ad-hoc fields.
//
// The registry is pull-style: nothing on the data path writes here. A bench
// (or test) calls Machine::ExportMetrics() once at the end of a run, which
// copies each subsystem's already-maintained counters in. That keeps the
// hot-path cost of "metrics support" at exactly zero.
#ifndef SRC_STATS_METRICS_H_
#define SRC_STATS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/stats/histogram.h"

namespace lauberhorn {

class MetricsRegistry {
 public:
  void SetCounter(const std::string& name, uint64_t value) {
    counters_[name] = value;
  }
  void AddCounter(const std::string& name, uint64_t delta) {
    counters_[name] += delta;
  }
  void SetGauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  // Returns the named histogram, creating it if absent; callers Record() or
  // Merge() into it.
  Histogram& Histo(const std::string& name) { return histograms_[name]; }

  uint64_t Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  double Gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  bool HasCounter(const std::string& name) const {
    return counters_.count(name) != 0;
  }

  // std::map keeps iteration (and therefore JSON output) deterministic.
  const std::map<std::string, uint64_t>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  void Clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,mean_ns,
  // p50_ns,p99_ns,p999_ns,min_ns,max_ns,stddev_ns}}}
  std::string ToJson() const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace lauberhorn

#endif  // SRC_STATS_METRICS_H_

// Deterministic, seed-driven cross-layer fault injection.
//
// A FaultPlan is a declarative description of every fault a run injects:
// network burst loss (Gilbert–Elliott), duplication, reordering and
// corruption; delayed or dropped coherence fills (exercising the bus-timeout
// watchdog); IOMMU fault bursts and DMA completion errors on PCIe; service
// crash/restart windows in the OS; and wedged endpoint CONTROL lines on the
// NIC (which surface as TRYAGAIN storms). A FaultInjector interprets the plan
// with one forked Rng stream per layer, so enabling a fault in one layer
// never perturbs another layer's draws and a given (plan, seed) always
// reproduces the same trace.
//
// Layers hold a nullable FaultInjector*; the default (no injector) path costs
// one pointer test. Machine owns the injector and hands it to every layer
// when MachineConfig::faults.Any() is true.
#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <cstdint>
#include <unordered_map>

#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/stats/metrics.h"

namespace lauberhorn {

// Network faults, applied per packet at the wire (src/net/link.cc). Loss is a
// two-state Gilbert–Elliott chain: the wire is "good" (rare independent loss)
// until a per-packet coin flips it "bad" (bursty loss) and back. This models
// the correlated loss of congested switch queues, which independent Bernoulli
// loss — all LinkConfig offers — cannot.
struct NetFaultPlan {
  double good_loss = 0.0;        // loss probability in the good state
  double bad_loss = 0.0;         // loss probability in the bad state
  double p_good_to_bad = 0.0;    // per-packet transition into a burst
  double p_bad_to_good = 0.25;   // per-packet recovery (1/mean burst length)
  double duplicate_probability = 0.0;  // deliver the packet twice
  double reorder_probability = 0.0;    // delay one packet past its successors
  Duration reorder_extra_delay = Microseconds(3);
  double corrupt_probability = 0.0;    // flip one bit (checksums catch it)

  bool Any() const {
    return good_loss > 0.0 || p_good_to_bad > 0.0 || duplicate_probability > 0.0 ||
           reorder_probability > 0.0 || corrupt_probability > 0.0;
  }
};

// Coherence-protocol faults (src/coherence/interconnect.cc): a fill (read
// response) can arrive late or not at all. A dropped fill is exactly the
// failure the §5.1 bus-timeout watchdog exists for — the requester's token
// expires and the bus-error handler fires instead of the load completing.
struct CoherenceFaultPlan {
  double fill_delay_probability = 0.0;
  Duration fill_delay = Microseconds(2);
  double fill_drop_probability = 0.0;  // swallow the fill; watchdog fires

  bool Any() const {
    return fill_delay_probability > 0.0 || fill_drop_probability > 0.0;
  }
};

// PCIe/IOMMU faults (src/pcie): transient translation faults arrive in bursts
// (an unmapped window during remap looks like consecutive failures, not one),
// and DMA reads can complete with an error (delivering no data).
struct PcieFaultPlan {
  double iommu_fault_probability = 0.0;  // per translation: start a burst
  uint32_t iommu_fault_burst = 3;        // consecutive faulted translations
  double dma_error_probability = 0.0;    // per DMA: completion error

  bool Any() const {
    return iommu_fault_probability > 0.0 || dma_error_probability > 0.0;
  }
};

// OS faults: the server's software stack crashes and restarts on a
// deterministic schedule. While down, the machine's NICs blackhole inbound
// requests (nothing is listening); the client's retransmit/backoff layer is
// what carries RPCs over the outage.
struct OsFaultPlan {
  Duration first_crash_at = 0;          // 0 = never crash
  Duration crash_period = 0;            // 0 = crash once; else every period
  Duration restart_delay = Milliseconds(1);  // outage length per crash

  bool Any() const { return first_crash_at > 0; }
};

// NIC faults: an endpoint's CONTROL line wedges — the NIC stops filling the
// parked load for a while, so the polling core sees nothing but TRYAGAINs and
// requests back up on the endpoint. This is the scenario LauberhornNic's
// graceful degradation (demote to the cold kernel channel) defends against.
struct NicFaultPlan {
  double wedge_probability = 0.0;  // per poll-park: start a wedge window
  Duration wedge_duration = Microseconds(300);

  bool Any() const { return wedge_probability > 0.0; }
};

// Whole-NIC crash faults: the Lauberhorn firmware dies on a deterministic
// schedule (like OsFaultPlan's crash windows). Unlike a wedged CONTROL line,
// a crash blackholes the entire device — every endpoint, the admission plane
// and grant computation — and wipes its device state (queues, lines, grants,
// quota buckets); the control state the OS owns (endpoint bindings, VF and
// admission configs, the dedup table) survives. Recovery is *host-driven*:
// the OS watchdog detects the dead device and holds it in reset for
// `reset_latency`; the device comes back with the control state it kept.
// The injector only declares the crash instant; NicDeviceRecovered() is how
// the host ends the outage.
struct NicCrashFaultPlan {
  Duration first_crash_at = 0;  // 0 = never crash
  Duration crash_period = 0;    // 0 = crash once; else every period
  Duration reset_latency = Microseconds(50);  // device reset/firmware reload

  bool Any() const { return first_crash_at > 0; }
};

// Congestion-control faults, applied at the client's response-processing
// edge: a grant register write that never lands (the credit is lost and the
// sender must fall back to its local DCTCP window / retransmit ladder), and
// an ECN observation read back flipped (mark seen where there was none, or a
// real mark missed). Both model the NIC->host doorbell path corrupting the
// transport feedback loop without touching the payload.
struct CcFaultPlan {
  double grant_loss_probability = 0.0;   // per granted response
  double ecn_corrupt_probability = 0.0;  // per response: invert the mark bit

  bool Any() const {
    return grant_loss_probability > 0.0 || ecn_corrupt_probability > 0.0;
  }
};

struct FaultPlan {
  NetFaultPlan net;
  CoherenceFaultPlan coherence;
  PcieFaultPlan pcie;
  OsFaultPlan os;
  NicFaultPlan nic;
  NicCrashFaultPlan nic_crash;
  CcFaultPlan cc;
  uint64_t seed = 1;  // root of the per-layer Rng streams

  bool Any() const {
    return net.Any() || coherence.Any() || pcie.Any() || os.Any() ||
           nic.Any() || nic_crash.Any() || cc.Any();
  }

  // The canonical mixed plan used by bench/fault_resilience: every layer's
  // fault rate scales linearly with `intensity` (0 = fault-free, 1 = the
  // nominal adverse-conditions point). Kept here so tests and the bench agree
  // on what "intensity" means.
  static FaultPlan Canonical(double intensity, uint64_t seed);

  // Everything at once: Canonical's layers plus CC feedback corruption and
  // periodic whole-NIC crashes. This is the chaos-campaign plan used by
  // bench/nic_recovery --chaos; the invariants (zero duplicate executions,
  // accounted spans, termination) must hold under it for any seed.
  static FaultPlan Chaos(double intensity, uint64_t seed);
};

class FaultInjector {
 public:
  struct Stats {
    uint64_t net_drops = 0;
    uint64_t net_burst_entries = 0;  // good->bad transitions
    uint64_t net_duplicates = 0;
    uint64_t net_reorders = 0;
    uint64_t net_corruptions = 0;
    uint64_t coherence_fill_delays = 0;
    uint64_t coherence_fill_drops = 0;
    uint64_t iommu_faults = 0;
    uint64_t dma_errors = 0;
    uint64_t os_crashes = 0;
    uint64_t nic_wedges = 0;
    uint64_t nic_crashes = 0;
    uint64_t cc_grant_losses = 0;
    uint64_t cc_ecn_corruptions = 0;
  };

  FaultInjector(Simulator& sim, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }

  // --- net (one call per packet, in this order) ---
  bool NetShouldDrop();       // advances the Gilbert–Elliott chain
  bool NetShouldCorrupt();
  bool NetShouldDuplicate();
  // Returns 0 (deliver in order) or an extra delay to apply to this packet.
  Duration NetReorderDelay();

  // --- coherence ---
  bool CoherenceShouldDropFill();
  Duration CoherenceFillDelay();  // 0 or plan.coherence.fill_delay

  // --- pcie ---
  bool IommuShouldFault();   // true while inside a fault burst
  bool DmaShouldFail();

  // --- os ---
  // True when the server's service stack is up at the current simulated time.
  // The crash schedule is pure arithmetic on Now(), so callers in any order
  // see a consistent view.
  bool OsServiceUp();

  // --- nic ---
  // Called when endpoint `endpoint` parks a CONTROL-line load. May start a
  // wedge window; returns true while the endpoint is wedged.
  bool NicEndpointWedged(uint32_t endpoint);
  // Pure query: is the endpoint currently inside a wedge window?
  bool NicEndpointWedgedNow(uint32_t endpoint) const;

  // --- nic crash (whole device) ---
  // True while the NIC device is dead at the current simulated time. The
  // crash *onset* is pure arithmetic on Now() (like OsServiceUp), but the
  // outage does not end on its own: once a crash instant passes, the device
  // stays dead until the host calls NicDeviceRecovered(). Counts each
  // distinct crash instant once.
  bool NicDeviceCrashed();
  // Host-driven recovery: the watchdog finished the reset. Ends the current
  // outage; a periodic plan can still fire again at a strictly later crash
  // instant.
  void NicDeviceRecovered();

  // --- congestion control (client response edge) ---
  bool CcShouldLoseGrant();
  bool CcShouldCorruptEcn();

 private:
  Simulator& sim_;
  FaultPlan plan_;
  Rng net_rng_;
  Rng coherence_rng_;
  Rng pcie_rng_;
  Rng nic_rng_;
  Rng cc_rng_;
  Stats stats_;

  bool net_bad_state_ = false;
  uint32_t iommu_burst_left_ = 0;
  SimTime last_counted_crash_ = -1;
  SimTime last_counted_nic_crash_ = -1;
  // Crash instants at or before this time have been recovered from; only a
  // strictly later scheduled instant re-kills the device.
  SimTime nic_crash_cleared_until_ = -1;
  std::unordered_map<uint32_t, SimTime> nic_wedged_until_;
};

// Exported as fault/<name>.
inline constexpr StatsField<FaultInjector::Stats> kFaultStatsFields[] = {
    {"net_drops", &FaultInjector::Stats::net_drops},
    {"net_burst_entries", &FaultInjector::Stats::net_burst_entries},
    {"net_duplicates", &FaultInjector::Stats::net_duplicates},
    {"net_reorders", &FaultInjector::Stats::net_reorders},
    {"net_corruptions", &FaultInjector::Stats::net_corruptions},
    {"coherence_fill_delays", &FaultInjector::Stats::coherence_fill_delays},
    {"coherence_fill_drops", &FaultInjector::Stats::coherence_fill_drops},
    {"iommu_faults", &FaultInjector::Stats::iommu_faults},
    {"dma_errors", &FaultInjector::Stats::dma_errors},
    {"os_crashes", &FaultInjector::Stats::os_crashes},
    {"nic_wedges", &FaultInjector::Stats::nic_wedges},
    {"nic_crashes", &FaultInjector::Stats::nic_crashes},
    {"cc_grant_losses", &FaultInjector::Stats::cc_grant_losses},
    {"cc_ecn_corruptions", &FaultInjector::Stats::cc_ecn_corruptions},
};
static_assert(CoversStats(kFaultStatsFields));

}  // namespace lauberhorn

#endif  // SRC_FAULT_FAULT_H_

// Watchdog-driven hot recovery of a crashed NIC (DESIGN.md §16).
//
// The paper's claim is that NIC state (endpoint tables, protocol state,
// scheduling policy) *is* OS state — so when the NIC itself dies, the OS is
// the recovery authority, not device firmware. The NIC's control state
// (endpoint bindings, kernel-channel and continuation allocations, VF
// configs, admission config, the at-most-once dedup table) lives in memory
// the OS owns, so a crash keeps it; only the device state dies.
//
// NicRecoveryManager is the host-side watchdog. It heartbeats the device;
// consecutive missed heartbeats (or a burst of wedged polls) trigger a
// reset: hold the device in reset for the configured latency, bring it back
// with the control state it kept and grants re-armed at the unscheduled
// window so stale credits cannot over-admit, apply the dedup table's
// crash-replay rules (src/proto/dedup.h), and let the client retransmit +
// dedup path carry the blackout so at-most-once holds end to end.
#ifndef SRC_NIC_RECOVERY_H_
#define SRC_NIC_RECOVERY_H_

#include <cstdint>

#include "src/nic/lauberhorn_nic.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace lauberhorn {

class FaultInjector;

// Declares the NIC dead after `miss_threshold` consecutive missed beats (or
// a `wedged_poll_threshold` burst of polls answered by a dead device between
// two beats), then drives the reset. The reset latency comes from the fault
// plan (it is a property of the injected crash), falling back to
// `default_reset_latency` when no injector is wired.
class NicRecoveryManager {
 public:
  struct Config {
    Duration heartbeat_period = Microseconds(20);
    int miss_threshold = 2;
    uint64_t wedged_poll_threshold = 16;
    Duration default_reset_latency = Microseconds(50);
  };

  struct Stats {
    uint64_t heartbeats = 0;
    uint64_t watchdog_fires = 0;  // recoveries started
    uint64_t recoveries = 0;      // recoveries completed
    // Control state the reborn device came back with, summed over
    // recoveries.
    uint64_t replayed_vfs = 0;
    uint64_t replayed_endpoints = 0;
    uint64_t replayed_kernel_channels = 0;
    uint64_t replayed_continuations = 0;
    uint64_t replayed_dedup_completed = 0;
    uint64_t replayed_dedup_in_flight = 0;
    uint64_t dropped_undelivered = 0;
    Duration last_blackout = 0;   // crash detection -> reset done
    Duration total_blackout = 0;
  };

  NicRecoveryManager(Simulator& sim, LauberhornNic& nic, FaultInjector* faults,
                     Config config);
  NicRecoveryManager(const NicRecoveryManager&) = delete;
  NicRecoveryManager& operator=(const NicRecoveryManager&) = delete;

  // Published during recovery so a cluster directory can mark this machine
  // kDegraded (divert new work) instead of kDown (churn the hash ring).
  Callback on_recovery_begin;
  Callback on_recovery_end;

  const Stats& stats() const { return stats_; }

 private:
  void Tick();
  void BeginRecovery();
  void FinishRecovery();

  Simulator& sim_;
  LauberhornNic& nic_;
  FaultInjector* faults_;
  Config config_;
  Stats stats_;
  int misses_ = 0;
  uint64_t crashed_polls_at_last_beat_ = 0;
  bool recovering_ = false;
  SimTime detected_at_ = 0;
};

// Exported as recovery/<name>; the blackouts are gauges in µs.
inline constexpr StatsField<NicRecoveryManager::Stats> kRecoveryStatsFields[] = {
    {"heartbeats", &NicRecoveryManager::Stats::heartbeats},
    {"watchdog_fires", &NicRecoveryManager::Stats::watchdog_fires},
    {"recoveries", &NicRecoveryManager::Stats::recoveries},
    {"replayed_vfs", &NicRecoveryManager::Stats::replayed_vfs},
    {"replayed_endpoints", &NicRecoveryManager::Stats::replayed_endpoints},
    {"replayed_kernel_channels", &NicRecoveryManager::Stats::replayed_kernel_channels},
    {"replayed_continuations", &NicRecoveryManager::Stats::replayed_continuations},
    {"replayed_dedup_completed", &NicRecoveryManager::Stats::replayed_dedup_completed},
    {"replayed_dedup_in_flight", &NicRecoveryManager::Stats::replayed_dedup_in_flight},
    {"dropped_undelivered", &NicRecoveryManager::Stats::dropped_undelivered},
    {"last_blackout_us", &NicRecoveryManager::Stats::last_blackout},
    {"total_blackout_us", &NicRecoveryManager::Stats::total_blackout},
};
static_assert(CoversStats(kRecoveryStatsFields));

}  // namespace lauberhorn

#endif  // SRC_NIC_RECOVERY_H_

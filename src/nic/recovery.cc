#include "src/nic/recovery.h"

#include "src/fault/fault.h"

namespace lauberhorn {

NicRecoveryManager::NicRecoveryManager(Simulator& sim, LauberhornNic& nic,
                                       FaultInjector* faults, Config config)
    : sim_(sim), nic_(nic), faults_(faults), config_(config) {
  sim_.Schedule(config_.heartbeat_period, [this]() { Tick(); });
}

void NicRecoveryManager::Tick() {
  sim_.Schedule(config_.heartbeat_period, [this]() { Tick(); });
  if (recovering_) {
    return;  // reset already in progress; beats resume after it
  }
  ++stats_.heartbeats;
  const uint64_t crashed_polls = nic_.stats().crashed_polls;
  const uint64_t poll_burst = crashed_polls - crashed_polls_at_last_beat_;
  crashed_polls_at_last_beat_ = crashed_polls;
  if (nic_.HeartbeatProbe()) {
    misses_ = 0;
    return;
  }
  if (misses_ == 0) {
    detected_at_ = sim_.Now();
  }
  ++misses_;
  if (misses_ >= config_.miss_threshold ||
      poll_burst >= config_.wedged_poll_threshold) {
    BeginRecovery();
  }
}

void NicRecoveryManager::BeginRecovery() {
  recovering_ = true;
  misses_ = 0;
  ++stats_.watchdog_fires;
  if (on_recovery_begin) {
    on_recovery_begin();
  }
  const Duration reset_latency =
      faults_ != nullptr && faults_->plan().nic_crash.Any()
          ? faults_->plan().nic_crash.reset_latency
          : config_.default_reset_latency;
  sim_.Schedule(reset_latency, [this]() { FinishRecovery(); });
}

void NicRecoveryManager::FinishRecovery() {
  // Clear the fault *before* the device comes back: the lazy crash check must
  // not re-kill the reborn NIC for the instant we just recovered from.
  if (faults_ != nullptr) {
    faults_->NicDeviceRecovered();
  }
  nic_.CompleteReset();
  const LauberhornNic::ControlCounts control = nic_.CountControlState();
  stats_.replayed_vfs += control.vfs;
  stats_.replayed_endpoints += control.endpoints;
  stats_.replayed_kernel_channels += control.kernel_channels;
  stats_.replayed_continuations += control.continuations;
  const RpcDedupCache::ReplayCounts dedup = nic_.ReplayDedup();
  stats_.replayed_dedup_completed += dedup.completed;
  stats_.replayed_dedup_in_flight += dedup.pinned;
  stats_.dropped_undelivered += dedup.dropped;
  ++stats_.recoveries;
  stats_.last_blackout = sim_.Now() - detected_at_;
  stats_.total_blackout += stats_.last_blackout;
  recovering_ = false;
  crashed_polls_at_last_beat_ = nic_.stats().crashed_polls;
  if (on_recovery_end) {
    on_recovery_end();
  }
}

}  // namespace lauberhorn

#include "src/overload/overload.h"

#include <algorithm>
#include <cmath>

namespace lauberhorn {

std::string ToString(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kQuota:
      return "quota";
    case ShedReason::kSojourn:
      return "sojourn";
    case ShedReason::kVfQuota:
      return "vf_quota";
  }
  return "unknown";
}

void ShedCounts::Count(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      ++queue;
      break;
    case ShedReason::kQuota:
      ++quota;
      break;
    case ShedReason::kSojourn:
      ++sojourn;
      break;
    case ShedReason::kVfQuota:
      ++vf_quota;
      break;
    case ShedReason::kNone:
      break;
  }
}

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec),
      burst_(std::max(burst, 1.0)),
      tokens_(std::max(burst, 1.0)) {}

void TokenBucket::Refill(SimTime now) {
  if (now <= refill_at_) return;
  // Clamp the accumulation at `burst_` *before* adding it to the balance.
  // A long idle gap at picosecond clock resolution makes
  // rate * elapsed_seconds enormous (minutes of idle at 1e6 rps is ~1e9
  // tokens); summing that with a fractional balance first discards the
  // fraction's low bits in the double mantissa, and with extreme rates the
  // product itself can overflow to +inf before the old code's min().
  const double accumulated = ToSeconds(now - refill_at_) * rate_per_sec_;
  refill_at_ = now;
  if (!(accumulated < burst_ - tokens_)) {
    // Also covers accumulated == inf/NaN: saturate at a full bucket.
    tokens_ = burst_;
    return;
  }
  tokens_ += accumulated;
}

bool TokenBucket::TryTake(SimTime now) {
  if (!metered()) return true;
  Refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::available(SimTime now) {
  Refill(now);
  return tokens_;
}

bool SojournGate::ShouldShed(SimTime now, Duration oldest_age,
                             const SojournConfig& config) {
  if (oldest_age < config.target) {
    // Standing delay drained below target: leave the dropping state and
    // forget the above-target episode.
    first_above_ = -1;
    dropping_ = false;
    return false;
  }
  if (first_above_ < 0) {
    first_above_ = now;
    return false;
  }
  if (!dropping_) {
    if (now - first_above_ < config.interval) return false;
    dropping_ = true;
  }
  // Open-loop arrivals do not slow down when shed (no TCP to back off), so
  // CoDel's one-drop-per-interval ramp can never catch a flash crowd. While
  // the standing delay stays above target, every arrival is shed; admitted
  // requests therefore never wait much longer than `target` behind the head.
  return true;
}

bool ScaleGovernor::CanChange(uint32_t key, SimTime now) const {
  if (config_.cooldown <= 0) return true;
  auto it = last_change_.find(key);
  if (it == last_change_.end()) return true;
  return now >= it->second + config_.cooldown;
}

void ScaleGovernor::NoteChange(uint32_t key, SimTime now) {
  last_change_[key] = now;
  idle_streak_[key] = 0;
}

bool ScaleGovernor::IdleTick(uint32_t key, bool below) {
  int& streak = idle_streak_[key];
  if (!below) {
    streak = 0;
    return false;
  }
  if (++streak < std::max(config_.down_ticks, 1)) return false;
  streak = 0;
  return true;
}

}  // namespace lauberhorn

#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace lauberhorn {

void Histogram::Record(Duration value) {
  if (value < 0) {
    value = 0;
  }
  const size_t index = BucketIndex(static_cast<uint64_t>(value));
  // Wraps to a huge slot when the index lies below the run.
  size_t slot = index - first_;
  if (slot >= buckets_.size()) [[unlikely]] {
    const size_t magnitude = histogram_detail::BucketMagnitude(index);
    Cover(histogram_detail::BlockBegin(magnitude),
          histogram_detail::BlockEnd(magnitude));
    slot = index - first_;
  }
  ++buckets_[slot];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  // Welford's online update: numerically stable for tight distributions at
  // any offset (e.g. 10k samples of 1 s +/- 1 us in picoseconds).
  const double d = static_cast<double>(value) - mean_;
  mean_ += d / static_cast<double>(count_);
  m2_ += d * (static_cast<double>(value) - mean_);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  Cover(other.first_, other.first_ + other.buckets_.size());
  const size_t offset = other.first_ - first_;
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[offset + i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  // Chan et al.'s parallel combination of Welford moments.
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  mean_ += delta * nb / n;
  count_ += other.count_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = max_ = 0;
  mean_ = m2_ = 0.0;
}

void Histogram::Cover(size_t begin, size_t end) {
  const size_t last = first_ + buckets_.size();
  if (!buckets_.empty()) {
    if (begin >= first_ && end <= last) {
      return;
    }
    begin = std::min(begin, first_);
    end = std::max(end, last);
  }
  std::vector<uint64_t> wider(end - begin, 0);
  std::copy(buckets_.begin(), buckets_.end(),
            wider.begin() + static_cast<std::ptrdiff_t>(first_ - begin));
  buckets_ = std::move(wider);
  first_ = begin;
}

double Histogram::Mean() const { return count_ == 0 ? 0.0 : mean_; }

double Histogram::StdDev() const {
  if (count_ == 0) {
    return 0.0;
  }
  // Population standard deviation, matching the pre-Welford behaviour.
  const double var = m2_ / static_cast<double>(count_);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

Duration Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t slot = 0; slot < buckets_.size(); ++slot) {
    seen += buckets_[slot];
    if (seen >= target && buckets_[slot] > 0) {
      // Clamp to observed extremes for tighter answers at the tails. The
      // midpoint is computed in uint64 space: the top bucket's bounds sum
      // past INT64_MAX even though each fits individually.
      const size_t i = first_ + slot;
      const uint64_t mid = BucketLow(i) / 2 + BucketHigh(i) / 2;
      return std::clamp(static_cast<Duration>(mid), min_, max_);
    }
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "n=%llu mean=%s p50=%s p99=%s p99.9=%s max=%s",
                static_cast<unsigned long long>(count_),
                FormatDuration(static_cast<Duration>(Mean())).c_str(),
                FormatDuration(P50()).c_str(), FormatDuration(P99()).c_str(),
                FormatDuration(P999()).c_str(), FormatDuration(max()).c_str());
  return buf;
}

}  // namespace lauberhorn

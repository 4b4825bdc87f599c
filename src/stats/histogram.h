// Latency statistics for simulation results.
//
// Histogram is an HDR-style log-linear histogram over simulated durations:
// buckets grow geometrically so relative error is bounded (~1/32) across the
// full ns..s range while memory stays small. Percentile queries interpolate
// within a bucket.
#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace lauberhorn {

namespace histogram_detail {

// Log-linear bucketing: value magnitudes x 64 linear sub-buckets. Magnitude
// 0 holds the values 0..63 one per bucket; every magnitude m >= 1 keeps only
// its top 32 sub-buckets (the value's top six bits), which bounds relative
// bucket width to 1/32. Bucket indices are dense over the buckets that can be
// filled: magnitude 0 is [0, 64) and magnitude m >= 1 is [32m + 32, 32m + 64).
inline constexpr int kSubBucketBits = 6;
inline constexpr int kSubBuckets = 1 << kSubBucketBits;
inline constexpr int kHalfSubBuckets = kSubBuckets / 2;

constexpr size_t BucketIndex(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<size_t>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int magnitude = msb - kSubBucketBits + 1;
  // Keep the top kSubBucketBits bits: sub in [kSubBuckets/2, kSubBuckets).
  const uint64_t sub = value >> magnitude;
  return static_cast<size_t>(magnitude) * kHalfSubBuckets +
         static_cast<size_t>(sub);
}
constexpr size_t BucketMagnitude(size_t index) {
  return index < kSubBuckets ? 0 : index / kHalfSubBuckets - 1;
}
// First and one-past-last bucket index of a magnitude's block.
constexpr size_t BlockBegin(size_t magnitude) {
  return magnitude == 0 ? 0 : (magnitude + 1) * kHalfSubBuckets;
}
constexpr size_t BlockEnd(size_t magnitude) {
  return magnitude * kHalfSubBuckets + kSubBuckets;
}
// Lower/upper bound of the value range covered by bucket i.
constexpr uint64_t BucketLow(size_t index) {
  if (index < kSubBuckets) {
    return index;
  }
  const uint64_t sub = index % kHalfSubBuckets + kHalfSubBuckets;
  return sub << BucketMagnitude(index);
}
constexpr uint64_t BucketHigh(size_t index) {
  return BucketLow(index) + (1ULL << BucketMagnitude(index)) - 1;
}

}  // namespace histogram_detail

// Storage is one contiguous run of magnitude blocks, from the lowest to the
// highest magnitude recorded so far; a Record outside the run widens it. A
// latency histogram spans a few decades at most, so it holds a few hundred
// buckets, not all kNumBuckets. Merge, Percentile, Reset and copies touch only
// the run.
class Histogram {
 public:
  void Record(Duration value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  Duration min() const { return count_ == 0 ? 0 : min_; }
  Duration max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;
  double StdDev() const;

  // Returns the value at quantile q in [0, 1]. Empty histogram returns 0.
  Duration Percentile(double q) const;
  Duration P50() const { return Percentile(0.50); }
  Duration P99() const { return Percentile(0.99); }
  Duration P999() const { return Percentile(0.999); }

  // One-line human-readable summary: count/mean/p50/p99/p999/max.
  std::string Summary() const;

  static constexpr size_t BucketIndex(uint64_t value) {
    return histogram_detail::BucketIndex(value);
  }
  static constexpr uint64_t BucketLow(size_t index) {
    return histogram_detail::BucketLow(index);
  }
  static constexpr uint64_t BucketHigh(size_t index) {
    return histogram_detail::BucketHigh(index);
  }

  // Record clamps negatives to 0 and Duration is signed 64-bit, so the
  // largest reachable index comes from INT64_MAX. The top bucket is a real,
  // addressable bucket (its high bound is INT64_MAX itself) rather than an
  // out-of-range clamp.
  static constexpr size_t kNumBuckets =
      histogram_detail::BucketIndex(static_cast<uint64_t>(INT64_MAX)) + 1;
  static_assert(histogram_detail::BucketHigh(
                    histogram_detail::BucketIndex(
                        static_cast<uint64_t>(INT64_MAX))) ==
                static_cast<uint64_t>(INT64_MAX));

  // Heap bound for values within one decade, [x, 10x): 10 < 2^4, so they
  // span at most five magnitudes, and at most four above magnitude 0's
  // 64-bucket block.
  static constexpr size_t kMaxDecadeBytes =
      (histogram_detail::kSubBuckets + 4 * histogram_detail::kHalfSubBuckets) *
      sizeof(uint64_t);

 private:
  // Widens the run to cover bucket indices [begin, end), both block bounds.
  void Cover(size_t begin, size_t end);

  // Buckets [first_, first_ + buckets_.size()); empty until the first Record.
  std::vector<uint64_t> buckets_;
  size_t first_ = 0;
  uint64_t count_ = 0;
  Duration min_ = 0;
  Duration max_ = 0;
  // Welford running moments: sum-of-values and sum-of-squares lose a tight
  // distribution's variance to cancellation once samples reach ~1e18 (1 s in
  // picoseconds squared overflows double precision's 53-bit mantissa).
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Exponentially-weighted moving average; used for the NIC's per-service load
// statistics (§5.2).
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Update(double sample) {
    if (!initialized_) {
      value_ = sample;
      initialized_ = true;
    } else {
      value_ = alpha_ * sample + (1.0 - alpha_) * value_;
    }
  }

  double value() const { return value_; }
  bool initialized() const { return initialized_; }
  void Reset() {
    value_ = 0.0;
    initialized_ = false;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace lauberhorn

#endif  // SRC_STATS_HISTOGRAM_H_

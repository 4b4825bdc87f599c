// Tests for histograms, EWMA, trace rings, and table rendering.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/stats/histogram.h"
#include "src/stats/table.h"
#include "src/stats/trace.h"

namespace lauberhorn {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(Microseconds(3));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), Microseconds(3));
  EXPECT_EQ(h.max(), Microseconds(3));
  EXPECT_EQ(h.Percentile(0.5), Microseconds(3));
  EXPECT_EQ(h.Percentile(0.99), Microseconds(3));
}

TEST(HistogramTest, PercentileOrdering) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(Nanoseconds(i));
  }
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.9));
  EXPECT_LE(h.Percentile(0.9), h.Percentile(0.99));
  EXPECT_LE(h.Percentile(0.99), h.Percentile(0.999));
  EXPECT_LE(h.Percentile(0.999), h.max());
  EXPECT_GE(h.Percentile(0.0), h.min());
}

TEST(HistogramTest, PercentileAccuracyWithinBucketError) {
  Histogram h;
  for (int i = 1; i <= 100000; ++i) {
    h.Record(Nanoseconds(i));
  }
  // Log-linear buckets with 32 sub-buckets bound relative error to ~1/32.
  const double p50 = static_cast<double>(h.P50());
  EXPECT_NEAR(p50, static_cast<double>(Nanoseconds(50000)), 0.05 * ToNanoseconds(Nanoseconds(50000)) * 1000);
  const double p99 = static_cast<double>(h.P99());
  EXPECT_NEAR(p99 / static_cast<double>(Nanoseconds(99000)), 1.0, 0.05);
}

TEST(HistogramTest, MeanAndStdDev) {
  Histogram h;
  h.Record(Nanoseconds(100));
  h.Record(Nanoseconds(200));
  h.Record(Nanoseconds(300));
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(Nanoseconds(200)));
  EXPECT_NEAR(h.StdDev(), static_cast<double>(Nanoseconds(82)), static_cast<double>(Nanoseconds(1)));
}

TEST(HistogramTest, StdDevSurvivesLargeOffsets) {
  // 10k samples at 1 s ± 1 µs, in picoseconds. A sum-of-squares running
  // estimator accumulates ~1e28 here, past double's 53-bit mantissa, and the
  // final subtraction cancels catastrophically (σ came out 0 or NaN).
  // Welford's update keeps full precision at any offset.
  Histogram h;
  for (int i = 0; i < 5000; ++i) {
    h.Record(Seconds(1) + Microseconds(1));
    h.Record(Seconds(1) - Microseconds(1));
  }
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.Mean(), static_cast<double>(Seconds(1)), 1.0);
  EXPECT_NEAR(h.StdDev(), static_cast<double>(Microseconds(1)),
              0.001 * static_cast<double>(Microseconds(1)));
}

TEST(HistogramTest, MergeCombinesVariance) {
  // Each input has zero variance; Chan's parallel-merge formula must
  // recover the between-population spread: σ of {100ns × 1000, 300ns × 1000}
  // is exactly 100 ns.
  Histogram a;
  Histogram b;
  for (int i = 0; i < 1000; ++i) {
    a.Record(Nanoseconds(100));
    b.Record(Nanoseconds(300));
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Mean(), static_cast<double>(Nanoseconds(200)));
  EXPECT_NEAR(a.StdDev(), static_cast<double>(Nanoseconds(100)),
              0.001 * static_cast<double>(Nanoseconds(100)));
}

TEST(HistogramTest, MergeIntoEmptyAdoptsOther) {
  Histogram a;
  Histogram b;
  b.Record(Nanoseconds(100));
  b.Record(Nanoseconds(300));
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), b.Mean());
  EXPECT_DOUBLE_EQ(a.StdDev(), b.StdDev());
  EXPECT_EQ(a.min(), Nanoseconds(100));
  EXPECT_EQ(a.max(), Nanoseconds(300));
}

TEST(HistogramTest, TopBucketCoversInt64Max) {
  // The bucket table ends exactly at INT64_MAX: recording the largest
  // Duration must land in the last bucket (no out-of-range clamp needed),
  // and Percentile's bucket-midpoint math must not overflow int64 even
  // though low + high of the top bucket exceeds it.
  const Duration huge = std::numeric_limits<Duration>::max();
  EXPECT_EQ(Histogram::BucketIndex(static_cast<uint64_t>(huge)),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketHigh(Histogram::kNumBuckets - 1),
            static_cast<uint64_t>(huge));
  Histogram h;
  h.Record(huge);
  h.Record(huge - 1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), huge);
  EXPECT_GE(h.Percentile(0.5), h.min());
  EXPECT_LE(h.Percentile(0.99), huge);
}

TEST(HistogramTest, MergeCombinesPopulations) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.Record(Nanoseconds(10));
    b.Record(Nanoseconds(1000));
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), Nanoseconds(10));
  EXPECT_EQ(a.max(), Nanoseconds(1000));
  EXPECT_LT(a.Percentile(0.25), Nanoseconds(100));
  EXPECT_GT(a.Percentile(0.75), Nanoseconds(500));
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-Nanoseconds(5));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(Nanoseconds(5));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.9), 0);
}

// Percentiles on a fixed grid, for comparing two histograms exactly.
template <typename H>
std::vector<Duration> PercentileGrid(const H& h) {
  std::vector<Duration> out;
  for (int i = 0; i <= 1000; ++i) {
    out.push_back(h.Percentile(i / 1000.0));
  }
  for (double q : {0.9999, 0.99999}) {
    out.push_back(h.Percentile(q));
  }
  return out;
}

TEST(HistogramTest, MergeOfDisjointMagnitudeRanges) {
  // low covers magnitudes 0-1, high magnitudes 27-31: merging either way
  // round widens the run down or up, and must equal recording everything
  // into one histogram.
  Histogram low;
  Histogram high;
  Histogram all;
  for (Duration v = 0; v < 128; ++v) {
    low.Record(v);
    all.Record(v);
  }
  for (Duration v = Duration{1} << 32; v < (Duration{1} << 37); v += 7777777) {
    high.Record(v);
    all.Record(v);
  }
  Histogram up = low;
  up.Merge(high);
  Histogram down = high;
  down.Merge(low);
  for (const Histogram* merged : {&up, &down}) {
    EXPECT_EQ(merged->count(), all.count());
    EXPECT_EQ(merged->min(), 0);
    EXPECT_EQ(merged->max(), all.max());
    EXPECT_EQ(PercentileGrid(*merged), PercentileGrid(all));
    EXPECT_NEAR(merged->Mean(), all.Mean(), 1e-9 * all.Mean());
    EXPECT_NEAR(merged->StdDev(), all.StdDev(), 1e-9 * all.StdDev());
  }
}

TEST(HistogramTest, CopyMoveAndAssignmentLeaveHistogramsIndependent) {
  Histogram a;
  a.Record(Nanoseconds(5));
  a.Record(Nanoseconds(7));
  const std::vector<Duration> a_grid = PercentileGrid(a);

  Histogram copy = a;
  copy.Record(Seconds(1));   // widens the copy's run upward
  copy.Record(0);            // and downward
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(PercentileGrid(a), a_grid);
  EXPECT_EQ(copy.count(), 4u);

  Histogram assigned;
  assigned.Record(Milliseconds(3));
  assigned = a;
  EXPECT_EQ(PercentileGrid(assigned), a_grid);
  assigned.Record(Nanoseconds(6));
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(PercentileGrid(a), a_grid);

  const std::vector<Duration> copy_grid = PercentileGrid(copy);
  Histogram moved = std::move(copy);
  EXPECT_EQ(moved.count(), 4u);
  EXPECT_EQ(PercentileGrid(moved), copy_grid);
  copy = a;  // a moved-from histogram takes a new value
  copy.Record(Nanoseconds(9));
  EXPECT_EQ(copy.count(), 3u);
  EXPECT_EQ(PercentileGrid(moved), copy_grid);

  Histogram move_assigned;
  move_assigned.Record(Microseconds(1));
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.count(), 4u);
  EXPECT_EQ(move_assigned.min(), 0);
  EXPECT_EQ(PercentileGrid(move_assigned), copy_grid);
  EXPECT_EQ(PercentileGrid(a), a_grid);
}

TEST(HistogramTest, ResetThenReuseMatchesAFreshHistogram) {
  Histogram reused;
  for (int i = 1; i <= 1000; ++i) {
    reused.Record(Microseconds(i));
  }
  reused.Reset();
  EXPECT_EQ(reused.count(), 0u);
  EXPECT_EQ(reused.P99(), 0);
  EXPECT_EQ(reused.Mean(), 0.0);
  Histogram fresh;
  // Values below, inside and above the run the first population left.
  for (Duration v : {Duration{3}, Nanoseconds(40), Microseconds(500), Seconds(2)}) {
    reused.Record(v);
    fresh.Record(v);
  }
  EXPECT_EQ(PercentileGrid(reused), PercentileGrid(fresh));
  EXPECT_EQ(reused.Mean(), fresh.Mean());
  EXPECT_EQ(reused.StdDev(), fresh.StdDev());
  EXPECT_EQ(reused.min(), fresh.min());
  EXPECT_EQ(reused.max(), fresh.max());
}

// The layout before blocks were stored apart: one zero-filled slot per dense
// index 64 * magnitude + sub, 3,712 of them, walked in full. The compact
// layout must answer exactly as this one does.
class DenseHistogram {
 public:
  static constexpr size_t kNumBuckets = 3712;

  static size_t Index(uint64_t value) {
    if (value < 64) {
      return static_cast<size_t>(value);
    }
    const int magnitude = 63 - std::countl_zero(value) - 5;
    return static_cast<size_t>(magnitude) * 64 + static_cast<size_t>(value >> magnitude);
  }
  static uint64_t Low(size_t index) { return (index % 64) << (index / 64); }
  static uint64_t High(size_t index) { return Low(index) + (1ULL << (index / 64)) - 1; }

  void Record(Duration value) {
    value = std::max<Duration>(value, 0);
    ++buckets_[Index(static_cast<uint64_t>(value))];
    min_ = count_ == 0 ? value : std::min(min_, value);
    max_ = count_ == 0 ? value : std::max(max_, value);
    ++count_;
    const double d = static_cast<double>(value) - mean_;
    mean_ += d / static_cast<double>(count_);
    m2_ += d * (static_cast<double>(value) - mean_);
  }
  void Merge(const DenseHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double n = na + nb;
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    mean_ += delta * nb / n;
    count_ += other.count_;
  }
  Duration Percentile(double q) const {
    const auto target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target && buckets_[i] > 0) {
        const uint64_t mid = Low(i) / 2 + High(i) / 2;
        return std::clamp(static_cast<Duration>(mid), min_, max_);
      }
    }
    return max_;
  }
  double Mean() const { return mean_; }
  double StdDev() const {
    const double var = m2_ / static_cast<double>(count_);
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

 private:
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kNumBuckets, 0);
  uint64_t count_ = 0;
  Duration min_ = 0;
  Duration max_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Random values from 0 to INT64_MAX, spread over every magnitude: every
// percentile on the grid, the mean and the standard deviation match the
// dense reference exactly, before and after a merge.
class HistogramDenseReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramDenseReferenceTest, MatchesDenseLayoutExactly) {
  Rng rng(GetParam());
  Histogram a;
  Histogram b;
  DenseHistogram dense_a;
  DenseHistogram dense_b;
  auto draw = [&rng] {
    const auto shift = static_cast<int>(rng.UniformInt(1, 63));
    return static_cast<Duration>(rng.Next() >> shift);
  };
  for (int i = 0; i < 20000; ++i) {
    const Duration v = draw();
    a.Record(v);
    dense_a.Record(v);
  }
  for (Duration v : {Duration{0}, std::numeric_limits<Duration>::max()}) {
    a.Record(v);
    dense_a.Record(v);
  }
  // b: a narrower population, so the merge widens b's run on both sides.
  for (int i = 0; i < 5000; ++i) {
    const Duration v = static_cast<Duration>(rng.UniformInt(1000000, 50000000));
    b.Record(v);
    dense_b.Record(v);
  }
  EXPECT_EQ(PercentileGrid(a), PercentileGrid(dense_a));
  EXPECT_EQ(a.Mean(), dense_a.Mean());
  EXPECT_EQ(a.StdDev(), dense_a.StdDev());
  EXPECT_EQ(PercentileGrid(b), PercentileGrid(dense_b));
  b.Merge(a);
  dense_b.Merge(dense_a);
  EXPECT_EQ(PercentileGrid(b), PercentileGrid(dense_b));
  EXPECT_EQ(b.Mean(), dense_b.Mean());
  EXPECT_EQ(b.StdDev(), dense_b.StdDev());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramDenseReferenceTest,
                         ::testing::Values(1, 2, 3, 99, 12345));

// Property: percentile of a random population is within bucket error of the
// exact order statistic.
class HistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramPropertyTest, PercentileMatchesSortedSample) {
  Rng rng(GetParam());
  Histogram h;
  std::vector<Duration> values;
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<Duration>(rng.UniformInt(1, 100000000));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const auto exact =
        static_cast<double>(values[static_cast<size_t>(q * (values.size() - 1))]);
    const auto approx = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(approx / exact, 1.0, 0.07) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Values(3, 7, 31, 127, 8191));

TEST(TraceRingTest, CapacityZeroCountsDropsWithoutStoring) {
  // Regression: Emit on a zero-capacity ring used to pop_front an empty
  // deque (UB) because size() >= capacity_ held vacuously.
  TraceRing ring(0);
  ring.Emit(1, TraceEvent::kWireRx, 1, 2);
  ring.Emit(2, TraceEvent::kWireTx, 1, 2);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_TRUE(ring.ForEndpoint(1).empty());
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDropped) {
  TraceRing ring(4);
  for (uint32_t i = 0; i < 10; ++i) {
    ring.Emit(static_cast<SimTime>(i), TraceEvent::kWireRx, i % 2, i);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto entries = ring.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].b, 6u + i);  // oldest survivor is entry #6
    EXPECT_EQ(entries[i].at, static_cast<SimTime>(6 + i));
  }
}

TEST(TraceRingTest, ForEndpointStaysOrderedAfterWrap) {
  TraceRing ring(4);
  for (uint32_t i = 0; i < 12; ++i) {
    ring.Emit(static_cast<SimTime>(i) * 10, TraceEvent::kDispatchHot, i % 3, i);
  }
  // Surviving window is entries 8..11; endpoint 2 emitted entries 8 and 11.
  const auto entries = ring.ForEndpoint(2);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].b, 8u);
  EXPECT_EQ(entries[1].b, 11u);
  EXPECT_LT(entries[0].at, entries[1].at);
}

TEST(TraceRingTest, DisabledRingIgnoresEmit) {
  TraceRing ring(4);
  ring.set_enabled(false);
  ring.Emit(1, TraceEvent::kWireRx, 0, 0);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.initialized());
  e.Update(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, ConvergesTowardConstantInput) {
  Ewma e(0.2);
  e.Update(0.0);
  for (int i = 0; i < 100; ++i) {
    e.Update(50.0);
  }
  EXPECT_NEAR(e.value(), 50.0, 0.01);
}

TEST(EwmaTest, AlphaControlsResponsiveness) {
  Ewma fast(0.9);
  Ewma slow(0.1);
  fast.Update(0.0);
  slow.Update(0.0);
  fast.Update(100.0);
  slow.Update(100.0);
  EXPECT_GT(fast.value(), slow.value());
}

TEST(TableTest, AlignsColumns) {
  Table t({"stack", "p50", "p99"});
  t.AddRow({"linux", "12.3", "45.6"});
  t.AddRow({"lauberhorn", "1.2", "3.4"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("stack"), std::string::npos);
  EXPECT_NE(s.find("lauberhorn"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TableTest, CsvRoundTrip) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.ToCsv(), "a,b,c\nonly,,\n");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Int(-42), "-42");
}

}  // namespace
}  // namespace lauberhorn

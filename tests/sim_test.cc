// Unit and property tests for the discrete-event simulation core.
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/callback.h"
#include "src/sim/random.h"
#include "src/sim/ring_deque.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace lauberhorn {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Nanoseconds(1), 1000);
  EXPECT_EQ(Microseconds(1), Nanoseconds(1000));
  EXPECT_EQ(Milliseconds(1), Microseconds(1000));
  EXPECT_EQ(Seconds(1), Milliseconds(1000));
  EXPECT_DOUBLE_EQ(ToNanoseconds(Nanoseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Nanoseconds(1500)), 1.5);
}

TEST(TimeTest, FractionalConstructorsRound) {
  EXPECT_EQ(NanosecondsF(1.5), 1500);
  EXPECT_EQ(MicrosecondsF(0.001), Nanoseconds(1));
  EXPECT_EQ(NanosecondsF(0.0004), 0);  // 0.4ps rounds down
}

TEST(TimeTest, CycleAccounting) {
  // 2 GHz: one cycle is 0.5 ns.
  EXPECT_DOUBLE_EQ(ToCycles(Nanoseconds(10), 2.0), 20.0);
  EXPECT_EQ(CyclesToDuration(20.0, 2.0), Nanoseconds(10));
}

TEST(TimeTest, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(Nanoseconds(640)), "640.000ns");
  EXPECT_EQ(FormatDuration(MicrosecondsF(1.25)), "1.250us");
  EXPECT_EQ(FormatDuration(Milliseconds(15)), "15.000ms");
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Nanoseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Nanoseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Nanoseconds(20), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Nanoseconds(30));
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, NestedSchedulingFromWithinEvent) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.Schedule(Nanoseconds(10), [&] {
    sim.Schedule(Nanoseconds(5), [&] { inner_time = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(inner_time, Nanoseconds(15));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.Schedule(Nanoseconds(10), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelAfterFireIsNoOp) {
  Simulator sim;
  const EventId id = sim.Schedule(Nanoseconds(1), [] {});
  sim.RunUntilIdle();
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.Schedule(Nanoseconds(10), [&] { ++count; });
  sim.Schedule(Nanoseconds(20), [&] { ++count; });
  sim.Schedule(Nanoseconds(30), [&] { ++count; });
  sim.RunUntil(Nanoseconds(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), Nanoseconds(20));
  sim.RunUntilIdle();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(Microseconds(5));
  EXPECT_EQ(sim.Now(), Microseconds(5));
}

TEST(SimulatorTest, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool late_ran = false;
  const EventId id = sim.Schedule(Nanoseconds(5), [] {});
  sim.Schedule(Nanoseconds(50), [&] { late_ran = true; });
  sim.Cancel(id);
  sim.RunUntil(Nanoseconds(10));
  EXPECT_FALSE(late_ran) << "event past the deadline must not run";
  EXPECT_EQ(sim.Now(), Nanoseconds(10));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(Nanoseconds(10), [&] {
    sim.Schedule(-Nanoseconds(5), [&] { EXPECT_EQ(sim.Now(), Nanoseconds(10)); });
  });
  sim.RunUntilIdle();
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequencyConverges) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent2(99);
  parent2.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.Next() == parent.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(5);
  ZipfDistribution zipf(100, 1.1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 10000);  // rank 0 gets a large share under s=1.1
}

TEST(ZipfTest, AllRanksReachable) {
  Rng rng(6);
  ZipfDistribution zipf(4, 0.5);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 0);
  }
}

// Property: N random schedules execute in nondecreasing time order.
class SimulatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorPropertyTest, RandomScheduleRespectsOrder) {
  Simulator sim;
  Rng rng(GetParam());
  std::vector<SimTime> fire_times;
  for (int i = 0; i < 500; ++i) {
    const Duration d = static_cast<Duration>(rng.UniformInt(0, 1000000));
    sim.Schedule(d, [&fire_times, &sim] { fire_times.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(fire_times.size(), 500u);
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 1234, 99999));

// -- Callback (SBO Function) ---------------------------------------------------

TEST(CallbackTest, SmallCaptureInvokes) {
  int x = 0;
  Callback cb = [&x] { x = 7; };
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  EXPECT_EQ(x, 7);
}

TEST(CallbackTest, LargeCaptureFallsBackToHeapAndStillWorks) {
  // 256 bytes of captured state: exceeds the 64-byte inline buffer.
  std::array<uint64_t, 32> big;
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = i * 3 + 1;
  }
  uint64_t sum = 0;
  Callback cb = [big, &sum] {
    for (uint64_t v : big) {
      sum += v;
    }
  };
  Callback moved = std::move(cb);
  EXPECT_FALSE(static_cast<bool>(cb));
  moved();
  uint64_t expected = 0;
  for (size_t i = 0; i < big.size(); ++i) {
    expected += i * 3 + 1;
  }
  EXPECT_EQ(sum, expected);
}

TEST(CallbackTest, HoldsMoveOnlyCapture) {
  // std::function cannot hold this lambda; Function must.
  auto p = std::make_unique<int>(42);
  Function<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 42);
}

TEST(CallbackTest, DestructorRunsExactlyOnceAcrossMoves) {
  struct Counter {
    int* destroyed;
    explicit Counter(int* d) : destroyed(d) {}
    Counter(Counter&& other) noexcept : destroyed(other.destroyed) {
      other.destroyed = nullptr;
    }
    ~Counter() {
      if (destroyed != nullptr) {
        ++*destroyed;
      }
    }
    void operator()() const {}
  };
  int destroyed = 0;
  {
    Callback a = Counter(&destroyed);
    Callback b = std::move(a);
    Callback c;
    c = std::move(b);
    c();
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(CallbackTest, NullComparisonsAndReset) {
  Callback cb;
  EXPECT_TRUE(cb == nullptr);
  cb = [] {};
  EXPECT_TRUE(cb != nullptr);
  cb = nullptr;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(CallbackTest, ArgumentsAndReturnValuesPassThrough) {
  Function<int(int, std::vector<int>)> f = [](int a, std::vector<int> v) {
    return a + static_cast<int>(v.size());
  };
  EXPECT_EQ(f(10, {1, 2, 3}), 13);
}

// A capture padded to `kBytes` that counts its own destruction (moved-from
// copies do not count) and its invocations.
template <size_t kBytes>
struct PaddedCapture {
  int* destroyed;
  int* ran;
  std::array<uint8_t, kBytes> pad{};
  PaddedCapture(int* d, int* r) : destroyed(d), ran(r) {}
  PaddedCapture(PaddedCapture&& other) noexcept
      : destroyed(other.destroyed), ran(other.ran), pad(other.pad) {
    other.destroyed = nullptr;
  }
  ~PaddedCapture() {
    if (destroyed != nullptr) {
      ++*destroyed;
    }
  }
  void operator()() const { ++*ran; }
};

template <size_t kBytes>
void ExpectOneDestructionAcrossMovesAndScheduling() {
  static_assert(sizeof(PaddedCapture<kBytes>) > Callback::kInlineSize);
  int destroyed = 0;
  int ran = 0;
  {
    Callback a = PaddedCapture<kBytes>(&destroyed, &ran);
    Callback b = std::move(a);
    Callback c;
    c = std::move(b);
    Simulator sim;
    sim.Schedule(5, std::move(c));
    sim.Schedule(6, PaddedCapture<kBytes>(&destroyed, &ran));
    const EventId cancelled = sim.Schedule(7, PaddedCapture<kBytes>(&destroyed, &ran));
    EXPECT_TRUE(sim.Cancel(cancelled));
    EXPECT_EQ(destroyed, 1);  // the cancelled capture, at Cancel
    sim.RunUntilIdle();
  }
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(destroyed, 3);
}

TEST(CallbackTest, SpilledCapturesDestroyOnceAcrossMovesAndScheduling) {
  // Three pooled size classes: just past inline, mid-range, near the top.
  ExpectOneDestructionAcrossMovesAndScheduling<80>();
  ExpectOneDestructionAcrossMovesAndScheduling<240>();
  ExpectOneDestructionAcrossMovesAndScheduling<480>();
}

// Reports the address it lives at, i.e. the spill block holding it.
template <size_t kBytes>
struct AddressCapture {
  std::array<uint8_t, kBytes> pad{};
  const void* operator()() const { return this; }
};

TEST(CallbackTest, ReleasedSpillBlockIsReusedBySameClass) {
  Function<const void*()> first = AddressCapture<100>{};
  const void* block = first();
  first.Reset();
  Function<const void*()> second = AddressCapture<100>{};
  EXPECT_EQ(second(), block);
  // A different size class draws from its own list.
  Function<const void*()> other = AddressCapture<300>{};
  EXPECT_NE(other(), block);
}

TEST(CallbackTest, OverAlignedCaptureKeepsAlignment) {
  struct alignas(64) Aligned {
    uint8_t byte = 0;
    uintptr_t operator()() const { return reinterpret_cast<uintptr_t>(this); }
  };
  Function<uintptr_t()> f = Aligned{};
  EXPECT_EQ(f() % 64, 0u);
  Function<uintptr_t()> moved = std::move(f);
  EXPECT_EQ(moved() % 64, 0u);
}

TEST(CallbackTest, KibibyteCaptureStillWorks) {
  std::array<uint8_t, 1024> big;
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i);
  }
  uint64_t sum = 0;
  Simulator sim;
  sim.Schedule(1, [big, &sum] {
    for (uint8_t v : big) {
      sum += v;
    }
  });
  sim.RunUntilIdle();
  uint64_t expected = 0;
  for (size_t i = 0; i < big.size(); ++i) {
    expected += static_cast<uint8_t>(i);
  }
  EXPECT_EQ(sum, expected);
}

TEST(SimulatorTest, ScheduleConstructsCallableInItsSlot) {
  // An inline capture is moved once into its slab slot and fires there:
  // there is no intermediate Callback and no move out of the slot.
  struct MoveCounter {
    int* moves;
    explicit MoveCounter(int* m) : moves(m) {}
    MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
    void operator()() const {}
  };
  int moves = 0;
  Simulator sim;
  sim.Schedule(1, MoveCounter(&moves));
  EXPECT_EQ(moves, 1);
  sim.RunUntilIdle();
  EXPECT_EQ(moves, 1);
}

// -- Cancellation & slab behaviour ---------------------------------------------

TEST(SimulatorTest, StaleIdAfterSlotReuseIsNotCancellable) {
  Simulator sim;
  int fired = 0;
  const EventId first = sim.Schedule(Nanoseconds(10), [&] { ++fired; });
  ASSERT_TRUE(sim.Cancel(first));
  // The freed slot is recycled for the next event; the old handle must not
  // be able to cancel the new occupant.
  const EventId second = sim.Schedule(Nanoseconds(20), [&] { ++fired; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.Cancel(first));
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelChurnDoesNotGrowQueue) {
  // The seed engine kept cancelled entries in its priority queue until they
  // surfaced, so schedule/cancel churn grew the queue without bound. The slab
  // engine recycles slots immediately: capacity tracks peak *live* events.
  Simulator sim;
  sim.Schedule(Seconds(1), [] {});  // keep the sim non-empty
  for (int i = 0; i < 1000000; ++i) {
    const EventId id = sim.Schedule(Nanoseconds(100), [] {});
    ASSERT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_LE(sim.slab_capacity(), 4u) << "cancelled events must not accumulate";
  sim.RunUntilIdle();
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, CancellationStressMillionEvents) {
  // 1M schedule ops with interleaved cancels of every other event, in waves,
  // so live counts rise and fall; validates heap removal from the middle.
  Simulator sim;
  Rng rng(2024);
  uint64_t expected_fires = 0;
  uint64_t fired = 0;
  size_t peak_pending = 0;
  std::vector<EventId> to_cancel;
  constexpr int kWaves = 100;
  constexpr int kPerWave = 10000;
  for (int wave = 0; wave < kWaves; ++wave) {
    to_cancel.clear();
    for (int i = 0; i < kPerWave; ++i) {
      const Duration d = static_cast<Duration>(rng.UniformInt(1, 1000000));
      const EventId id = sim.Schedule(d, [&fired] { ++fired; });
      if (i % 2 == 0) {
        to_cancel.push_back(id);
      } else {
        ++expected_fires;
      }
    }
    peak_pending = std::max(peak_pending, sim.pending_events());
    for (const EventId id : to_cancel) {
      ASSERT_TRUE(sim.Cancel(id));
    }
    // Drain a quarter-wave before the next arrives, so live counts rise and
    // fall across the run.
    for (int i = 0; i < kPerWave / 4; ++i) {
      sim.Step();
    }
  }
  sim.RunUntilIdle();
  EXPECT_EQ(fired, expected_fires);
  EXPECT_EQ(sim.pending_events(), 0u);
  // Slab capacity is bounded by peak live events — not by the 1M schedule
  // ops, which is what the seed engine's lazily-purged queue scaled with.
  EXPECT_LE(sim.slab_capacity(), peak_pending);
}

TEST(SimulatorTest, PendingEventsMatchesLiveSchedules) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Nanoseconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sim.Cancel(ids[static_cast<size_t>(i) * 2]));
  }
  // Unlike a lazy-deletion queue, cancellation shrinks the queue immediately.
  EXPECT_EQ(sim.pending_events(), 50u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.events_executed(), 50u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// -- FIFO tie-break ------------------------------------------------------------

TEST(SimulatorTest, FifoTieBreakSurvivesCancellationChurn) {
  // 1000 events at one timestamp with interleaved cancels: survivors must
  // still fire in exact scheduling order (heap removals must not perturb the
  // (when, seq) ordering of the remaining events).
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.Schedule(Microseconds(3), [&order, i] { order.push_back(i); }));
  }
  std::vector<int> expected;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    if (rng.Bernoulli(0.4)) {
      ASSERT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
    } else {
      expected.push_back(i);
    }
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, FifoTieBreakAcrossRecycledSlots) {
  // Slot indices get recycled out of order; the monotonic sequence number —
  // not the slot index or the id — must drive the tie-break.
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.Schedule(Nanoseconds(50), [] {});
  const EventId b = sim.Schedule(Nanoseconds(50), [] {});
  sim.Cancel(b);
  sim.Cancel(a);  // free list now holds [b's slot, a's slot]
  for (int i = 0; i < 6; ++i) {
    sim.Schedule(Nanoseconds(50), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// -- Firing in place -----------------------------------------------------------

// Differential check against a reference queue: an ordered set of
// (when, seq), where seq is the test's own schedule counter. Random
// schedules, cancels (live and stale) and steps are made both between events
// and from inside running callbacks; each firing must be the reference's
// minimum and pending_events() must equal the reference's size throughout.
class SimulatorDifferential {
 public:
  explicit SimulatorDifferential(uint64_t seed) : rng_(seed) {}

  void Run() {
    while (schedule_budget_ > 0 || !reference_.empty()) {
      switch (rng_.UniformInt(0, 4)) {
        case 0:
        case 1:
          Schedule();
          break;
        case 2:
          CancelSome();
          break;
        default: {
          const bool any = !reference_.empty();
          ASSERT_EQ(sim_.Step(), any);
          break;
        }
      }
      ASSERT_EQ(sim_.pending_events(), reference_.size());
    }
    EXPECT_FALSE(sim_.Step());
    EXPECT_EQ(sim_.events_executed(), fired_);
    EXPECT_GT(fired_, 1000u);
    EXPECT_GT(cancelled_, 1000u);
  }

 private:
  void Schedule() {
    if (schedule_budget_ == 0) {
      return;
    }
    --schedule_budget_;
    // A quarter of the events land on the current instant, so FIFO ties
    // (including with the running event's own time) are common.
    const Duration delay = rng_.UniformInt(0, 3) == 0
                               ? 0
                               : static_cast<Duration>(rng_.UniformInt(1, 500));
    const uint64_t seq = next_seq_++;
    const EventId id = sim_.Schedule(delay, [this, seq] { Fire(seq); });
    reference_.emplace(sim_.Now() + delay, seq);
    ids_.push_back(id);
  }

  // Cancels a random live event, and tries a random dead id, which must fail.
  void CancelSome() {
    if (!reference_.empty()) {
      auto victim = reference_.begin();
      std::advance(victim, static_cast<ptrdiff_t>(rng_.UniformInt(0, reference_.size() - 1)));
      ASSERT_TRUE(sim_.Cancel(ids_[victim->second]));
      dead_.push_back(ids_[victim->second]);
      reference_.erase(victim);
      ++cancelled_;
    }
    if (!dead_.empty()) {
      EXPECT_FALSE(sim_.Cancel(dead_[rng_.UniformInt(0, dead_.size() - 1)]));
    }
  }

  void Fire(uint64_t seq) {
    ASSERT_FALSE(reference_.empty());
    ASSERT_EQ(*reference_.begin(), std::make_pair(sim_.Now(), seq));
    reference_.erase(reference_.begin());
    ++fired_;
    EXPECT_EQ(sim_.pending_events(), reference_.size());
    EXPECT_FALSE(sim_.Cancel(ids_[seq]));  // the running event's own id
    const uint64_t ops = rng_.UniformInt(0, 3);
    for (uint64_t i = 0; i < ops; ++i) {
      if (rng_.UniformInt(0, 2) == 0) {
        CancelSome();
      } else {
        Schedule();
      }
      EXPECT_EQ(sim_.pending_events(), reference_.size());
    }
    dead_.push_back(ids_[seq]);
  }

  Simulator sim_;
  Rng rng_;
  std::set<std::pair<SimTime, uint64_t>> reference_;
  std::vector<EventId> ids_;   // by seq
  std::vector<EventId> dead_;  // fired or cancelled
  uint64_t next_seq_ = 0;
  uint64_t schedule_budget_ = 20000;
  uint64_t fired_ = 0;
  uint64_t cancelled_ = 0;
};

class SimulatorDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorDifferentialTest, MatchesReferenceQueue) {
  SimulatorDifferential(GetParam()).Run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorDifferentialTest, ::testing::Values(1, 7, 2024));

TEST(SimulatorTest, CallbackGrowingTheSlabKeepsRunningInPlace) {
  // The callback schedules enough events to add several slab chunks, then
  // reads its own inline captures: slots never move, so they are intact.
  // (Under AddressSanitizer a relocated slot would be a use-after-free.)
  constexpr uint32_t kEvents = 4 * Simulator::kSlabChunkSlots;
  Simulator sim;
  const std::array<uint64_t, 6> words = {1, 2, 3, 4, 5, 6};
  uint64_t sum = 0;
  uint32_t fired = 0;
  sim.Schedule(1, [&sim, &sum, &fired, words] {
    for (uint32_t i = 0; i < kEvents; ++i) {
      sim.Schedule(1, [&fired] { ++fired; });
    }
    for (const uint64_t w : words) {
      sum += w;
    }
  });
  sim.RunUntilIdle();
  EXPECT_EQ(sum, 21u);
  EXPECT_EQ(fired, kEvents);
  EXPECT_GT(sim.slab_capacity(), kEvents);
}

TEST(SimulatorTest, CancelOfRunningEventReturnsFalse) {
  Simulator sim;
  EventId self = kInvalidEventId;
  bool cancelled = true;
  int fired = 0;
  self = sim.Schedule(5, [&] {
    ++fired;
    cancelled = sim.Cancel(self);
  });
  sim.RunUntilIdle();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(self));
}

TEST(SimulatorTest, PendingEventsInsideCallbackExcludesRunningEvent) {
  Simulator sim;
  size_t before = 0;
  size_t after_schedule = 0;
  sim.Schedule(1, [&] {
    before = sim.pending_events();
    sim.Schedule(0, [] {});
    after_schedule = sim.pending_events();
  });
  sim.Schedule(2, [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(before, 1u);
  EXPECT_EQ(after_schedule, 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

#ifndef NDEBUG
TEST(SimulatorDeathTest, ReentrantStepAborts) {
  Simulator sim;
  sim.Schedule(1, [&sim] { sim.Step(); });
  EXPECT_DEATH(sim.RunUntilIdle(), "inside an event callback");
}

TEST(SimulatorDeathTest, ReentrantRunUntilAborts) {
  Simulator sim;
  sim.Schedule(1, [&sim] { sim.RunUntil(sim.Now() + 10); });
  EXPECT_DEATH(sim.RunUntilIdle(), "inside an event callback");
}
#endif

// -- Golden event order --------------------------------------------------------

// A seeded, self-rescheduling, cancellation-heavy workload whose execution
// order is hashed. The constants below were captured from the seed engine
// (std::priority_queue + lazy-deletion unordered_set) immediately before the
// slab/4-ary-heap engine replaced it; identical hashes prove the swap
// preserved event execution order exactly. Do not regenerate these constants
// from the current engine when they diverge — a divergence IS the bug.
struct GoldenHarness {
  Simulator sim;
  Rng rng;
  uint64_t hash = 14695981039346656037ULL;
  std::vector<EventId> cancellable;
  int next_label = 0;

  explicit GoldenHarness(uint64_t seed) : rng(seed) {}

  void Mix(uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  }

  void Spawn() {
    if (next_label >= 4000) {
      return;
    }
    const int label = next_label++;
    const Duration d = static_cast<Duration>(rng.UniformInt(0, 500));
    const EventId id = sim.Schedule(d, [this, label] { Fire(label); });
    if (rng.Bernoulli(0.5)) {
      cancellable.push_back(id);
    }
  }

  void Fire(int label) {
    Mix(static_cast<uint64_t>(label));
    Mix(static_cast<uint64_t>(sim.Now()));
    const int extra = static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < extra; ++i) {
      Spawn();
    }
    if (!cancellable.empty() && rng.Bernoulli(0.3)) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, cancellable.size() - 1));
      sim.Cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() + static_cast<ptrdiff_t>(pick));
    }
  }

  uint64_t Run() {
    for (int i = 0; i < 200; ++i) {
      Spawn();
    }
    sim.RunUntilIdle();
    Mix(sim.events_executed());
    Mix(static_cast<uint64_t>(sim.Now()));
    return hash;
  }
};

TEST(SimulatorGoldenTest, EventOrderIdenticalToSeedEngine) {
  EXPECT_EQ(GoldenHarness(1).Run(), 0x1cdca796bdaa2589ULL);
  EXPECT_EQ(GoldenHarness(2).Run(), 0xac30cfd4bddaf06fULL);
  EXPECT_EQ(GoldenHarness(42).Run(), 0x8ca4e293eaafeea4ULL);
}

TEST(SimulatorGoldenTest, IdenticalSeedsProduceIdenticalRuns) {
  const uint64_t a = GoldenHarness(1234).Run();
  const uint64_t b = GoldenHarness(1234).Run();
  EXPECT_EQ(a, b);
  EXPECT_NE(GoldenHarness(1235).Run(), a);
}

TEST(RingDequeTest, AllocatesNothingUntilFirstPush) {
  RingDeque<std::vector<int>> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.TakeAll().empty());
  ring.push_back({1});
  ring.push_front({0});
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.front(), std::vector<int>{0});
  EXPECT_EQ(ring.pop_back(), std::vector<int>{1});
  EXPECT_EQ(ring.pop_front(), std::vector<int>{0});
  EXPECT_TRUE(ring.empty());
}

// Random pushes and pops at both ends, through growth with a wrapped head,
// against std::deque; TakeAll hands over the elements front first.
TEST(RingDequeTest, MatchesStdDequeUnderRandomOps) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    RingDeque<uint64_t> ring;
    std::deque<uint64_t> reference;
    for (int op = 0; op < 20000; ++op) {
      const uint64_t pick = rng.UniformInt(0, 99);
      if (pick < 30) {
        ring.push_back(op);
        reference.push_back(op);
      } else if (pick < 55) {
        ring.push_front(op);
        reference.push_front(op);
      } else if (pick < 75 && !reference.empty()) {
        ASSERT_EQ(ring.pop_front(), reference.front());
        reference.pop_front();
      } else if (pick < 98 && !reference.empty()) {
        ASSERT_EQ(ring.pop_back(), reference.back());
        reference.pop_back();
      } else if (pick >= 98) {
        const std::vector<uint64_t> taken = ring.TakeAll();
        ASSERT_TRUE(std::equal(taken.begin(), taken.end(), reference.begin(),
                               reference.end()));
        reference.clear();
      }
      ASSERT_EQ(ring.size(), reference.size());
      if (!reference.empty()) {
        ASSERT_EQ(ring.front(), reference.front());
      }
    }
  }
}

}  // namespace
}  // namespace lauberhorn

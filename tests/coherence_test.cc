// Tests for the coherent interconnect: deferred fills (blocking loads),
// fetch-exclusive, directory state, bus-timeout watchdog, and traffic stats.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "src/coherence/cache_agent.h"
#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/fault/fault.h"
#include "src/sim/simulator.h"

namespace lauberhorn {
namespace {

constexpr LineAddr kDevBase = 0x1000'0000;
constexpr uint64_t kDevSize = 0x1000;
constexpr LineAddr kMemBase = 0x0;
constexpr uint64_t kMemSize = 0x100'0000;

// A scriptable device home agent standing in for the NIC: records requests
// and lets the test answer them when it chooses (deferred fill).
class FakeDevice : public HomeAgent {
 public:
  struct PendingRead {
    AgentId requester;
    LineAddr addr;
    bool exclusive;
    FillFn fill;
  };

  void OnHomeRead(AgentId requester, LineAddr addr, bool exclusive, FillFn fill) override {
    reads.push_back(PendingRead{requester, addr, exclusive, std::move(fill)});
  }
  void OnHomeWriteBack(AgentId from, LineAddr addr, const LineData& data) override {
    writebacks.emplace_back(from, addr);
    last_writeback = data;
  }
  void OnHomeUncachedWrite(AgentId /*from*/, LineAddr addr, size_t offset,
                           std::span<const uint8_t> data) override {
    uncached_writes.emplace_back(addr, offset);
    last_uncached.assign(data.begin(), data.end());
  }

  std::vector<PendingRead> reads;
  std::vector<std::pair<AgentId, LineAddr>> writebacks;
  std::vector<std::pair<LineAddr, size_t>> uncached_writes;
  LineData last_writeback;
  std::vector<uint8_t> last_uncached;
};

// A load callback that copies the loaded bytes into `out`.
CacheAgent::LoadFn Into(std::vector<uint8_t>& out) {
  return [&out](std::span<const uint8_t> data) { out.assign(data.begin(), data.end()); };
}

class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest()
      : interconnect_(sim_, MakeConfig()),
        memory_(sim_, interconnect_, kMemBase, kMemSize),
        cpu0_(interconnect_),
        cpu1_(interconnect_) {
    device_id_ = interconnect_.RegisterHomeAgent(&device_, kDevBase, kDevSize,
                                                 /*is_device=*/true);
  }

  static CoherenceConfig MakeConfig() {
    CoherenceConfig config;
    config.line_size = 128;
    config.cpu_device_hop = Nanoseconds(350);
    config.cpu_mem_hop = Nanoseconds(40);
    config.data_beat = Nanoseconds(15);
    config.l1_hit = Nanoseconds(2);
    config.memory_latency = Nanoseconds(70);
    config.bus_timeout = Milliseconds(20);
    return config;
  }

  LineData MakeLine(uint8_t fill_byte) { return LineData(128, fill_byte); }

  Simulator sim_;
  CoherentInterconnect interconnect_;
  MemoryHomeAgent memory_;
  FakeDevice device_;
  AgentId device_id_ = kNoAgent;
  CacheAgent cpu0_;
  CacheAgent cpu1_;
};

TEST_F(CoherenceTest, MemoryLoadMissReturnsData) {
  memory_.WriteBytes(0x200, std::vector<uint8_t>{1, 2, 3, 4});
  std::vector<uint8_t> got;
  cpu0_.Load(0x200, 4, Into(got));
  sim_.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3, 4}));
  // Miss latency: hop + memory + hop + data beat + L1 install/read.
  EXPECT_EQ(sim_.Now(), Nanoseconds(40 + 70 + 40 + 15 + 2));
  EXPECT_EQ(cpu0_.misses(), 1u);
}

TEST_F(CoherenceTest, SecondLoadHitsInCache) {
  memory_.WriteBytes(0x200, std::vector<uint8_t>{42});
  cpu0_.Load(0x200, 1, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  const SimTime after_miss = sim_.Now();
  std::vector<uint8_t> got;
  cpu0_.Load(0x200, 1, Into(got));
  sim_.RunUntilIdle();
  EXPECT_EQ(got, std::vector<uint8_t>{42});
  EXPECT_EQ(sim_.Now() - after_miss, Nanoseconds(2));  // L1 hit
  EXPECT_EQ(cpu0_.hits(), 1u);
}

TEST_F(CoherenceTest, StoreAcquiresOwnershipThenHitLocally) {
  const std::vector<uint8_t> data = {9, 9, 9};
  bool done = false;
  cpu0_.Store(0x400, data, [&] { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(cpu0_.StateOf(interconnect_.AlignToLine(0x400)), LineState::kModified);
  EXPECT_EQ(interconnect_.OwnerOf(interconnect_.AlignToLine(0x400)), cpu0_.id());
}

TEST_F(CoherenceTest, LoadAfterRemoteStoreSeesLatestData) {
  cpu0_.Store(0x400, std::vector<uint8_t>{7, 7});
  sim_.RunUntilIdle();
  std::vector<uint8_t> got;
  cpu1_.Load(0x400, 2, Into(got));
  sim_.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<uint8_t>{7, 7}));
  // cpu0 was probed and lost the line.
  EXPECT_EQ(cpu0_.StateOf(interconnect_.AlignToLine(0x400)), LineState::kInvalid);
}

TEST_F(CoherenceTest, ExclusiveRequestInvalidatesSharers) {
  memory_.WriteBytes(0x600, std::vector<uint8_t>{1});
  cpu0_.Load(0x600, 1, [](std::span<const uint8_t>) {});
  cpu1_.Load(0x600, 1, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  const LineAddr line = interconnect_.AlignToLine(0x600);
  EXPECT_EQ(interconnect_.SharersOf(line).size(), 2u);

  cpu0_.Store(0x600, std::vector<uint8_t>{5});
  sim_.RunUntilIdle();
  EXPECT_EQ(interconnect_.OwnerOf(line), cpu0_.id());
  EXPECT_TRUE(interconnect_.SharersOf(line).empty());
  EXPECT_EQ(cpu1_.StateOf(line), LineState::kInvalid);
}

TEST_F(CoherenceTest, DeviceDefersFillUntilReady) {
  // The blocking-load mechanism (§5.1): the CPU load does not complete until
  // the device answers.
  std::vector<uint8_t> got;
  cpu0_.Load(kDevBase, 8, Into(got));
  sim_.RunUntil(Milliseconds(5));
  ASSERT_EQ(device_.reads.size(), 1u);
  EXPECT_TRUE(got.empty()) << "fill must not complete before the device responds";

  // Device answers 5 ms in: an "RPC arrived".
  LineData line = MakeLine(0);
  line[0] = 0xaa;
  device_.reads[0].fill(std::move(line));
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(got[0], 0xaa);
  // Completion strictly after the 5ms deferral plus the return hop.
  EXPECT_GE(sim_.Now(), Milliseconds(5) + Nanoseconds(350));
}

TEST_F(CoherenceTest, DeviceSeesWhichAddressAndAgentRequested) {
  cpu1_.Load(kDevBase + 128, 4, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  // (The read stays pending; the NIC uses requester+addr to infer polling
  // state, per §4.)
  ASSERT_EQ(device_.reads.size(), 1u);
  EXPECT_EQ(device_.reads[0].requester, cpu1_.id());
  EXPECT_EQ(device_.reads[0].addr, kDevBase + 128);
  EXPECT_FALSE(device_.reads[0].exclusive);
  device_.reads[0].fill(MakeLine(0));  // clean up
  sim_.RunUntilIdle();
}

TEST_F(CoherenceTest, FetchExclusivePullsDirtyLineFromCpu) {
  // CPU writes an RPC response into a device-homed line...
  std::vector<uint8_t> response(16, 0xbb);
  cpu0_.Store(kDevBase + 256, response);
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(device_.reads.size(), 1u);  // the RFO
  EXPECT_TRUE(device_.reads[0].exclusive);
  device_.reads[0].fill(MakeLine(0));
  sim_.RunUntilIdle();
  EXPECT_EQ(cpu0_.StateOf(kDevBase + 256), LineState::kModified);

  // ...then the device pulls it with fetch-exclusive.
  LineData pulled;
  interconnect_.FetchExclusive(device_id_, kDevBase + 256, MakeLine(0),
                               [&](const LineData& d) { pulled = d; });
  sim_.RunUntilIdle();
  ASSERT_EQ(pulled.size(), 128u);
  EXPECT_EQ(pulled[0], 0xbb);
  EXPECT_EQ(pulled[15], 0xbb);
  EXPECT_EQ(cpu0_.StateOf(kDevBase + 256), LineState::kInvalid);
}

TEST_F(CoherenceTest, FetchExclusiveWithNoHolderReturnsFallback) {
  LineData pulled;
  interconnect_.FetchExclusive(device_id_, kDevBase + 512, MakeLine(0x77),
                               [&](const LineData& d) { pulled = d; });
  sim_.RunUntilIdle();
  ASSERT_EQ(pulled.size(), 128u);
  EXPECT_EQ(pulled[0], 0x77);
}

TEST_F(CoherenceTest, InvalidateRemovesCachedCopies) {
  // Fill a device line into cpu0's cache (shared).
  cpu0_.Load(kDevBase, 4, [](std::span<const uint8_t>) {});
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(device_.reads.size(), 1u);
  device_.reads[0].fill(MakeLine(1));
  sim_.RunUntilIdle();
  EXPECT_EQ(cpu0_.StateOf(kDevBase), LineState::kShared);

  bool done = false;
  interconnect_.Invalidate(device_id_, kDevBase, [&] { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(cpu0_.StateOf(kDevBase), LineState::kInvalid);
  // Next load goes back to the device.
  cpu0_.Load(kDevBase, 4, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.reads.size(), 2u);
  device_.reads[1].fill(MakeLine(2));
  sim_.RunUntilIdle();
}

TEST_F(CoherenceTest, UncachedWriteReachesDeviceAfterOneHop) {
  cpu0_.StoreThrough(kDevBase + 640 + 8, std::vector<uint8_t>{1, 2, 3});
  sim_.RunUntilIdle();
  ASSERT_EQ(device_.uncached_writes.size(), 1u);
  EXPECT_EQ(device_.uncached_writes[0].first, kDevBase + 640);
  EXPECT_EQ(device_.uncached_writes[0].second, 8u);
  EXPECT_EQ(device_.last_uncached, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(sim_.Now(), Nanoseconds(350));
}

TEST_F(CoherenceTest, BusTimeoutFiresWhenDeviceNeverAnswers) {
  LineAddr errored = 0;
  interconnect_.set_bus_error_handler([&](LineAddr a) { errored = a; });
  cpu0_.Load(kDevBase, 4, [](std::span<const uint8_t>) { FAIL() << "fill after bus error"; });
  sim_.RunUntil(Milliseconds(25));
  EXPECT_EQ(errored, kDevBase);
  EXPECT_EQ(interconnect_.stats().bus_errors, 1u);
  // Late answer is ignored.
  ASSERT_EQ(device_.reads.size(), 1u);
  device_.reads[0].fill(MakeLine(0));
  sim_.RunUntilIdle();
}

TEST_F(CoherenceTest, NoBusErrorWhenDeviceAnswersInTime) {
  cpu0_.Load(kDevBase, 4, [](std::span<const uint8_t>) {});
  sim_.RunUntil(Milliseconds(15));
  ASSERT_EQ(device_.reads.size(), 1u);
  device_.reads[0].fill(MakeLine(0));  // answer at 15ms < 20ms timeout
  sim_.RunUntil(Milliseconds(30));
  EXPECT_EQ(interconnect_.stats().bus_errors, 0u);
}

TEST_F(CoherenceTest, StatsCountMessages) {
  interconnect_.ResetStats();
  memory_.WriteBytes(0x800, std::vector<uint8_t>{1});
  cpu0_.Load(0x800, 1, [](std::span<const uint8_t>) {});
  sim_.RunUntilIdle();
  const CoherenceStats& s = interconnect_.stats();
  EXPECT_EQ(s.messages[static_cast<int>(CoherenceMsgType::kReadShared)], 1u);
  EXPECT_EQ(s.messages[static_cast<int>(CoherenceMsgType::kFill)], 1u);
  EXPECT_EQ(s.data_messages, 1u);
}

TEST_F(CoherenceTest, FlushWritesDirtyLineToHome) {
  cpu0_.Store(0x900, std::vector<uint8_t>{0xcd});
  sim_.RunUntilIdle();
  cpu0_.Flush(interconnect_.AlignToLine(0x900));
  sim_.RunUntilIdle();
  EXPECT_EQ(memory_.ReadBytes(0x900, 1)[0], 0xcd);
  EXPECT_EQ(cpu0_.StateOf(interconnect_.AlignToLine(0x900)), LineState::kInvalid);
  EXPECT_EQ(interconnect_.OwnerOf(interconnect_.AlignToLine(0x900)), kNoAgent);
}

TEST_F(CoherenceTest, QueuedOpsOnSameLineCompleteInOrder) {
  memory_.WriteBytes(0xa00, std::vector<uint8_t>{0});
  std::vector<int> order;
  cpu0_.Load(0xa00, 1, [&](std::span<const uint8_t>) { order.push_back(1); });
  cpu0_.Store(0xa00, std::vector<uint8_t>{9}, [&] { order.push_back(2); });
  cpu0_.Load(0xa00, 1, [&](std::span<const uint8_t> d) {
    order.push_back(3);
    EXPECT_EQ(d[0], 9);
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(CoherenceTest, FullLineAndOffsetLoadThroughMatchStoredLine) {
  std::vector<uint8_t> line(128);
  for (size_t i = 0; i < line.size(); ++i) {
    line[i] = static_cast<uint8_t>(i * 3 + 5);
  }
  // Memory-homed line: the whole line, then a slice at an offset.
  memory_.WriteBytes(0xc00, line);
  std::vector<uint8_t> full;
  std::vector<uint8_t> part;
  cpu0_.LoadThrough(0xc00, 128, Into(full));
  cpu1_.LoadThrough(0xc00 + 40, 16, Into(part));
  sim_.RunUntilIdle();
  EXPECT_EQ(full, line);
  EXPECT_EQ(part, std::vector<uint8_t>(line.begin() + 40, line.begin() + 56));

  // Device-homed line with a deferred fill: the same two shapes.
  std::vector<uint8_t> dev_full;
  std::vector<uint8_t> dev_part;
  cpu0_.LoadThrough(kDevBase, 128, Into(dev_full));
  cpu1_.LoadThrough(kDevBase + 100, 28, Into(dev_part));
  sim_.RunUntil(sim_.Now() + Milliseconds(1));  // well inside the bus timeout
  ASSERT_EQ(device_.reads.size(), 2u);
  EXPECT_TRUE(dev_full.empty());
  for (auto& read : device_.reads) {
    read.fill(LineData(line));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(dev_full, line);
  EXPECT_EQ(dev_part, std::vector<uint8_t>(line.begin() + 100, line.end()));
}

// The watchdog armed for a deferred fill: a fill swallowed in flight raises
// exactly one bus error, bus_timeout after the read reached the home; a fill
// the home sends after that point never reaches the requester.
TEST_F(CoherenceTest, DroppedFillRaisesOneBusErrorAtTimeout) {
  FaultPlan plan;
  plan.coherence.fill_drop_probability = 1.0;
  FaultInjector faults(sim_, plan);
  interconnect_.set_fault_injector(&faults);
  std::vector<SimTime> errors;
  interconnect_.set_bus_error_handler([&](LineAddr) { errors.push_back(sim_.Now()); });
  int fills = 0;
  cpu0_.LoadThrough(kDevBase, 8, [&](std::span<const uint8_t>) { ++fills; });
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(device_.reads.size(), 1u);
  device_.reads[0].fill(MakeLine(1));  // swallowed by the fault injector
  sim_.RunUntilIdle();
  // The watchdog is armed when the read reaches the home, one device hop in.
  EXPECT_EQ(errors, std::vector<SimTime>{Nanoseconds(350) + Milliseconds(20)});
  EXPECT_EQ(interconnect_.stats().bus_errors, 1u);
  EXPECT_EQ(fills, 0);
}

TEST_F(CoherenceTest, FillAfterBusErrorNeverRunsAndOnTimeFillLeavesNoEvent) {
  int late_fills = 0;
  cpu0_.LoadThrough(kDevBase, 8, [&](std::span<const uint8_t>) { ++late_fills; });
  sim_.RunUntil(Milliseconds(25));
  ASSERT_EQ(device_.reads.size(), 1u);
  EXPECT_EQ(interconnect_.stats().bus_errors, 1u);
  device_.reads[0].fill(MakeLine(2));
  sim_.RunUntilIdle();
  EXPECT_EQ(late_fills, 0);
  EXPECT_EQ(interconnect_.stats().bus_errors, 1u);
  EXPECT_EQ(interconnect_.stats().messages[static_cast<int>(CoherenceMsgType::kFill)], 0u);

  // An on-time fill cancels its watchdog: once it is delivered, nothing is
  // left pending and the clock stops at the delivery.
  const SimTime start = sim_.Now();
  int fills = 0;
  cpu0_.LoadThrough(kDevBase + 128, 8, [&](std::span<const uint8_t>) { ++fills; });
  sim_.RunUntil(start + Milliseconds(1));
  ASSERT_EQ(device_.reads.size(), 2u);
  device_.reads[1].fill(MakeLine(3));
  sim_.RunUntilIdle();
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(sim_.pending_events(), 0u);
  EXPECT_EQ(sim_.Now(), start + Milliseconds(1) + Nanoseconds(350 + 15));
  EXPECT_EQ(interconnect_.stats().bus_errors, 1u);
}

// Sharer sets wider than one machine word keep std::set's order: ascending
// AgentId, both in SharersOf and in the probes of an exclusive read.
TEST_F(CoherenceTest, SeventySharersProbedInAscendingAgentOrder) {
  std::vector<std::unique_ptr<CacheAgent>> more;
  for (int i = 0; i < 68; ++i) {
    more.push_back(std::make_unique<CacheAgent>(interconnect_));
  }
  std::vector<CacheAgent*> agents = {&cpu0_, &cpu1_};
  for (auto& agent : more) {
    agents.push_back(agent.get());
  }
  ASSERT_EQ(agents.size(), 70u);
  const LineAddr line = 0xd00;
  memory_.WriteBytes(line, std::vector<uint8_t>{1});
  // Issue in descending id order so insertion order differs from id order.
  for (auto it = agents.rbegin(); it != agents.rend(); ++it) {
    (*it)->Load(line, 1, [](std::span<const uint8_t>) {});
  }
  sim_.RunUntilIdle();
  std::vector<AgentId> expected;
  for (AgentId id = 0; id < 70; ++id) {
    expected.push_back(id);
  }
  EXPECT_EQ(interconnect_.SharersOf(line), expected);

  std::vector<AgentId> probed;
  interconnect_.set_probe_observer([&](AgentId holder, LineAddr addr) {
    EXPECT_EQ(addr, line);
    probed.push_back(holder);
  });
  CacheAgent& writer = *agents[37];
  writer.Store(line, std::vector<uint8_t>{9});
  sim_.RunUntilIdle();
  expected.erase(expected.begin() + 37);
  EXPECT_EQ(probed, expected);
  EXPECT_TRUE(interconnect_.SharersOf(line).empty());
  EXPECT_EQ(interconnect_.OwnerOf(line), writer.id());
  for (const CacheAgent* agent : agents) {
    EXPECT_EQ(agent->StateOf(line),
              agent == &writer ? LineState::kModified : LineState::kInvalid);
  }
}

// An op that hit L1 but whose line was probed away before it executed is
// retried, and still counts as one access (one hit), not a hit plus a miss.
TEST_F(CoherenceTest, ProbedAwayOpCountedOnce) {
  const LineAddr line = 0xe00;
  cpu0_.Store(line, std::vector<uint8_t>{1});
  sim_.RunUntilIdle();
  const uint64_t before = cpu0_.hits() + cpu0_.misses();
  // cpu1's store misses; its read reaches the directory one cpu_mem_hop (40 ns)
  // later and probes cpu0's Modified copy away.
  cpu1_.Store(line, std::vector<uint8_t>{2});
  // cpu0's three stores hit at 39 ns and would execute at 41 ns, after the
  // probe: all three re-fetch the line.
  std::vector<int> order;
  sim_.Schedule(Nanoseconds(39), [&] {
    for (uint8_t k = 0; k < 3; ++k) {
      cpu0_.Store(line + k, std::vector<uint8_t>{static_cast<uint8_t>(10 + k)},
                  [&order, k] { order.push_back(k); });
    }
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(cpu0_.hits() + cpu0_.misses() - before, 3u);
  EXPECT_EQ(cpu0_.StateOf(line), LineState::kModified);
  std::vector<uint8_t> got;
  cpu0_.Load(line, 3, Into(got));
  sim_.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<uint8_t>{10, 11, 12}));
}

// A cache agent keeps one record per line and never erases it, and a line's
// fill continuation points at that record. A store miss held open by the
// device while the same agent first touches 1,000 other lines (growing and
// rehashing its table many times) must still install into its own record.
TEST_F(CoherenceTest, OutstandingMissSurvivesAThousandOtherLinesFirstTouches) {
  const LineAddr held = kDevBase + 256;
  bool stored = false;
  cpu0_.Store(held + 3, std::vector<uint8_t>{0x5a, 0x5b}, [&stored] { stored = true; });
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(device_.reads.size(), 1u);
  EXPECT_TRUE(device_.reads[0].exclusive);

  constexpr int kOtherLines = 1000;
  int loaded = 0;
  for (int i = 0; i < kOtherLines; ++i) {
    const LineAddr line = 0x10000 + static_cast<LineAddr>(i) * 128;
    memory_.WriteBytes(line, std::vector<uint8_t>{static_cast<uint8_t>(i)});
    cpu0_.Load(line, 1, [&loaded, i](std::span<const uint8_t> data) {
      loaded += data[0] == static_cast<uint8_t>(i);
    });
  }
  sim_.RunUntil(sim_.Now() + Microseconds(200));
  EXPECT_EQ(loaded, kOtherLines);
  EXPECT_FALSE(stored);

  device_.reads[0].fill(MakeLine(0x11));
  sim_.RunUntil(sim_.Now() + Microseconds(5));
  EXPECT_TRUE(stored);
  EXPECT_EQ(cpu0_.StateOf(held), LineState::kModified);
  EXPECT_EQ(cpu0_.misses(), kOtherLines + 1u);  // the held store counted once
  EXPECT_EQ(cpu0_.hits(), 0u);
  std::vector<uint8_t> got;
  cpu0_.Load(held + 2, 4, Into(got));
  sim_.RunUntil(sim_.Now() + Microseconds(1));
  EXPECT_EQ(got, (std::vector<uint8_t>{0x11, 0x5a, 0x5b, 0x11}));
  EXPECT_EQ(interconnect_.stats().bus_errors, 0u);
}

// The directory never erases an entry, and a read's fill continuation keeps
// the entry it found on arrival. Another agent's first reads of 1,000 other
// lines, made while the device holds the fill, must not lose the sharer.
TEST_F(CoherenceTest, HeldDirectoryEntrySurvivesOtherLinesFirstReads) {
  const LineAddr held = kDevBase + 512;
  std::vector<uint8_t> got;
  cpu0_.Load(held, 2, Into(got));
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(device_.reads.size(), 1u);

  constexpr int kOtherLines = 1000;
  for (int i = 0; i < kOtherLines; ++i) {
    cpu1_.Load(0x10000 + static_cast<LineAddr>(i) * 128, 1, [](std::span<const uint8_t>) {});
  }
  sim_.RunUntil(sim_.Now() + Microseconds(200));
  EXPECT_EQ(cpu1_.misses(), static_cast<uint64_t>(kOtherLines));
  EXPECT_EQ(interconnect_.SharersOf(0x10000), std::vector<AgentId>{cpu1_.id()});

  LineData line = MakeLine(0);
  line[0] = 0xc3;
  line[1] = 0x3c;
  device_.reads[0].fill(std::move(line));
  sim_.RunUntil(sim_.Now() + Microseconds(5));
  EXPECT_EQ(got, (std::vector<uint8_t>{0xc3, 0x3c}));
  EXPECT_EQ(interconnect_.SharersOf(held), std::vector<AgentId>{cpu0_.id()});
  EXPECT_EQ(interconnect_.OwnerOf(held), kNoAgent);
  EXPECT_EQ(cpu0_.StateOf(held), LineState::kShared);
  EXPECT_EQ(interconnect_.stats().bus_errors, 0u);
}

TEST_F(CoherenceTest, DeviceLineSizeMatchesConfig) {
  EXPECT_EQ(interconnect_.AlignToLine(kDevBase + 127), kDevBase);
  EXPECT_EQ(interconnect_.AlignToLine(kDevBase + 128), kDevBase + 128);
}

}  // namespace
}  // namespace lauberhorn

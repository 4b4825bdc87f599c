// Tests for the coherent interconnect: deferred fills (blocking loads),
// fetch-exclusive, directory state, bus-timeout watchdog, and traffic stats.
#include <gtest/gtest.h>

#include "src/coherence/cache_agent.h"
#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
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
  void OnHomeWriteBack(AgentId from, LineAddr addr, LineData data) override {
    writebacks.emplace_back(from, addr);
    last_writeback = std::move(data);
  }
  void OnHomeUncachedWrite(AgentId /*from*/, LineAddr addr, size_t offset,
                           std::vector<uint8_t> data) override {
    uncached_writes.emplace_back(addr, offset);
    last_uncached = std::move(data);
  }

  std::vector<PendingRead> reads;
  std::vector<std::pair<AgentId, LineAddr>> writebacks;
  std::vector<std::pair<LineAddr, size_t>> uncached_writes;
  LineData last_writeback;
  std::vector<uint8_t> last_uncached;
};

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
  cpu0_.Load(0x200, 4, [&](std::vector<uint8_t> data) { got = std::move(data); });
  sim_.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3, 4}));
  // Miss latency: hop + memory + hop + data beat + L1 install/read.
  EXPECT_EQ(sim_.Now(), Nanoseconds(40 + 70 + 40 + 15 + 2));
  EXPECT_EQ(cpu0_.misses(), 1u);
}

TEST_F(CoherenceTest, SecondLoadHitsInCache) {
  memory_.WriteBytes(0x200, std::vector<uint8_t>{42});
  cpu0_.Load(0x200, 1, [](std::vector<uint8_t>) {});
  sim_.RunUntilIdle();
  const SimTime after_miss = sim_.Now();
  std::vector<uint8_t> got;
  cpu0_.Load(0x200, 1, [&](std::vector<uint8_t> data) { got = std::move(data); });
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
  cpu1_.Load(0x400, 2, [&](std::vector<uint8_t> d) { got = std::move(d); });
  sim_.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<uint8_t>{7, 7}));
  // cpu0 was probed and lost the line.
  EXPECT_EQ(cpu0_.StateOf(interconnect_.AlignToLine(0x400)), LineState::kInvalid);
}

TEST_F(CoherenceTest, ExclusiveRequestInvalidatesSharers) {
  memory_.WriteBytes(0x600, std::vector<uint8_t>{1});
  cpu0_.Load(0x600, 1, [](std::vector<uint8_t>) {});
  cpu1_.Load(0x600, 1, [](std::vector<uint8_t>) {});
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
  cpu0_.Load(kDevBase, 8, [&](std::vector<uint8_t> d) { got = std::move(d); });
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
  cpu1_.Load(kDevBase + 128, 4, [](std::vector<uint8_t>) {});
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
                               [&](LineData d) { pulled = std::move(d); });
  sim_.RunUntilIdle();
  ASSERT_EQ(pulled.size(), 128u);
  EXPECT_EQ(pulled[0], 0xbb);
  EXPECT_EQ(pulled[15], 0xbb);
  EXPECT_EQ(cpu0_.StateOf(kDevBase + 256), LineState::kInvalid);
}

TEST_F(CoherenceTest, FetchExclusiveWithNoHolderReturnsFallback) {
  LineData pulled;
  interconnect_.FetchExclusive(device_id_, kDevBase + 512, MakeLine(0x77),
                               [&](LineData d) { pulled = std::move(d); });
  sim_.RunUntilIdle();
  ASSERT_EQ(pulled.size(), 128u);
  EXPECT_EQ(pulled[0], 0x77);
}

TEST_F(CoherenceTest, InvalidateRemovesCachedCopies) {
  // Fill a device line into cpu0's cache (shared).
  cpu0_.Load(kDevBase, 4, [](std::vector<uint8_t>) {});
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
  cpu0_.Load(kDevBase, 4, [](std::vector<uint8_t>) {});
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
  cpu0_.Load(kDevBase, 4, [](std::vector<uint8_t>) { FAIL() << "fill after bus error"; });
  sim_.RunUntil(Milliseconds(25));
  EXPECT_EQ(errored, kDevBase);
  EXPECT_EQ(interconnect_.stats().bus_errors, 1u);
  // Late answer is ignored.
  ASSERT_EQ(device_.reads.size(), 1u);
  device_.reads[0].fill(MakeLine(0));
  sim_.RunUntilIdle();
}

TEST_F(CoherenceTest, NoBusErrorWhenDeviceAnswersInTime) {
  cpu0_.Load(kDevBase, 4, [](std::vector<uint8_t>) {});
  sim_.RunUntil(Milliseconds(15));
  ASSERT_EQ(device_.reads.size(), 1u);
  device_.reads[0].fill(MakeLine(0));  // answer at 15ms < 20ms timeout
  sim_.RunUntil(Milliseconds(30));
  EXPECT_EQ(interconnect_.stats().bus_errors, 0u);
}

TEST_F(CoherenceTest, StatsCountMessages) {
  interconnect_.ResetStats();
  memory_.WriteBytes(0x800, std::vector<uint8_t>{1});
  cpu0_.Load(0x800, 1, [](std::vector<uint8_t>) {});
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
  cpu0_.Load(0xa00, 1, [&](std::vector<uint8_t>) { order.push_back(1); });
  cpu0_.Store(0xa00, std::vector<uint8_t>{9}, [&] { order.push_back(2); });
  cpu0_.Load(0xa00, 1, [&](std::vector<uint8_t> d) {
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
  cpu0_.LoadThrough(0xc00, 128, [&](std::vector<uint8_t> d) { full = std::move(d); });
  cpu1_.LoadThrough(0xc00 + 40, 16, [&](std::vector<uint8_t> d) { part = std::move(d); });
  sim_.RunUntilIdle();
  EXPECT_EQ(full, line);
  EXPECT_EQ(part, std::vector<uint8_t>(line.begin() + 40, line.begin() + 56));

  // Device-homed line with a deferred fill: the same two shapes.
  std::vector<uint8_t> dev_full;
  std::vector<uint8_t> dev_part;
  cpu0_.LoadThrough(kDevBase, 128, [&](std::vector<uint8_t> d) { dev_full = std::move(d); });
  cpu1_.LoadThrough(kDevBase + 100, 28,
                    [&](std::vector<uint8_t> d) { dev_part = std::move(d); });
  sim_.RunUntil(sim_.Now() + Milliseconds(1));  // well inside the bus timeout
  ASSERT_EQ(device_.reads.size(), 2u);
  EXPECT_TRUE(dev_full.empty());
  for (auto& read : device_.reads) {
    read.fill(line);
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(dev_full, line);
  EXPECT_EQ(dev_part, std::vector<uint8_t>(line.begin() + 100, line.end()));
}

TEST_F(CoherenceTest, DeviceLineSizeMatchesConfig) {
  EXPECT_EQ(interconnect_.AlignToLine(kDevBase + 127), kDevBase);
  EXPECT_EQ(interconnect_.AlignToLine(kDevBase + 128), kDevBase + 128);
}

}  // namespace
}  // namespace lauberhorn

// Allocation and memory-bound checks. This binary replaces the global
// operator new with one that counts allocations and live bytes, so it is kept
// apart from lbh_tests.
//
// - The steady-state CONTROL-line cycle, the steady-state dedup cycle
//   (Admit, MarkDelivered, Complete) and the in-place decode of a received
//   frame allocate nothing, and a warm hot echo RPC stays within its block
//   budget.
// - Per-machine state holds no more heap than its named bound: an idle NIC
//   endpoint queue, a histogram of one decade of values, the client's
//   retired-id window, a full dedup window, a full trace ring and a NIC line
//   store with every line touched.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/coherence/memory_home.h"
#include "src/core/machine.h"
#include "src/net/headers.h"
#include "src/nic/lauberhorn_nic.h"
#include "src/proto/dedup.h"
#include "src/proto/id_window.h"
#include "src/sim/random.h"
#include "src/stats/histogram.h"
#include "src/stats/trace.h"
#include "tests/control_line_cycle.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<int64_t> g_live_bytes{0};

// Each block carries its requested size in a header, so a delete without a
// size still knows how many live bytes it returns. The header keeps the
// block aligned for any fundamental type.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* CountedAllocateNoThrow(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  auto* block = static_cast<unsigned char*>(std::malloc(kHeader + size));
  if (block == nullptr) {
    return nullptr;
  }
  *reinterpret_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return block + kHeader;
}

void* CountedAllocate(std::size_t size) {
  if (void* block = CountedAllocateNoThrow(size)) {
    return block;
  }
  throw std::bad_alloc();
}

void CountedFree(void* pointer) noexcept {
  if (pointer == nullptr) {
    return;
  }
  auto* block = static_cast<unsigned char*>(pointer) - kHeader;
  g_live_bytes.fetch_sub(static_cast<int64_t>(*reinterpret_cast<std::size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocateNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocateNoThrow(size);
}
void operator delete(void* block) noexcept { CountedFree(block); }
void operator delete[](void* block) noexcept { CountedFree(block); }
void operator delete(void* block, std::size_t) noexcept { CountedFree(block); }
void operator delete[](void* block, std::size_t) noexcept { CountedFree(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept { CountedFree(block); }
void operator delete[](void* block, const std::nothrow_t&) noexcept { CountedFree(block); }

namespace lauberhorn {
namespace {

TEST(AllocTest, WarmControlLineCycleAllocatesNothing) {
  ControlLineCycle cycle;
  cycle.Run(1);  // warm-up: map nodes, slab slots and spill blocks
  constexpr int kCycles = 1000;
  const uint64_t before = g_allocations.load();
  for (int i = 0; i < kCycles; ++i) {
    cycle.Run(static_cast<uint8_t>(i));
  }
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);

  // The cycles really ran: every load, store and invalidate completed, and
  // the home pulled back the last response.
  EXPECT_EQ(cycle.loaded(), (kCycles + 1) * 0x11u);
  EXPECT_EQ(cycle.stores(), kCycles + 1u);
  EXPECT_EQ(cycle.invalidates(), kCycles + 1u);
  EXPECT_EQ(cycle.line()[0], static_cast<uint8_t>(kCycles - 1));
  EXPECT_EQ(cycle.interconnect().stats().bus_errors, 0u);
  EXPECT_EQ(cycle.cpu().StateOf(ControlLineCycle::kCtrl), LineState::kInvalid);
}

TEST(AllocTest, InPlaceDecodeOfAReceivedFrameAllocatesNothing) {
  EthernetHeader eth;
  Ipv4Header ip;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  UdpHeader udp;
  udp.src_port = 40000;
  udp.dst_port = 7000;
  RpcMessage msg = ResponseHeader(1, 0, 42);
  msg.payload.assign(1400, 0x3c);
  Packet frame = BuildRpcFrame(eth, ip, udp, msg);
  const auto parsed = ParseUdpFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  const size_t offset = parsed->payload.data() - frame.bytes.data();

  uint64_t before = g_allocations.load();
  const auto copied = DecodeRpcMessage(parsed->payload);
  EXPECT_EQ(g_allocations.load() - before, 1u);  // the payload copy
  before = g_allocations.load();
  const auto in_place =
      DecodeRpcMessageFrom(std::move(frame.bytes), offset, parsed->payload.size());
  EXPECT_EQ(g_allocations.load() - before, 0u);
  ASSERT_TRUE(copied.has_value());
  ASSERT_TRUE(in_place.has_value());
  EXPECT_EQ(in_place->payload, msg.payload);
  EXPECT_EQ(in_place->request_id, 42u);
}

// Heap blocks per warm hot echo RPC (64-byte body) on one Lauberhorn machine,
// from the client's call to its completion callback, with the call's
// arguments built beforehand: the client's marshalled request, pending
// record and request frame; the handler's result (three blocks: the echo
// handler copies its argument into an initializer list and then into the
// returned vector) and its marshalled payload; the NIC's collected response
// and reply frame. The parent of the change that set this budget allocated
// 13; decoding received frames in place at the NIC and the client and
// reusing InvokeMethod's argument vector took it to 9.
constexpr uint64_t kHotEchoBlocksPerRpc = 9;

TEST(AllocTest, WarmHotEchoRpcStaysWithinItsBlockBudget) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  constexpr Duration kSpacing = Microseconds(100);
  const std::vector<WireValue> args = {WireValue::Bytes(std::vector<uint8_t>(64, 0x5c))};
  uint64_t echoed = 0;
  const auto call = [&] {
    machine.client().Call(echo, 0, args, [&echoed](const RpcMessage& r, Duration) {
      echoed += r.status == RpcStatus::kOk && r.payload.size() == 4 + 64;
    });
    machine.sim().RunUntil(machine.sim().Now() + kSpacing);
  };
  // Warm-up: slab slots, histogram blocks and line records, and more calls
  // than the client's retired-id window (IdWindow::kCapacity) holds, so it
  // and the NIC's dedup window have reached their full size.
  constexpr uint64_t kWarmUp = IdWindow::kCapacity + 1000;
  for (uint64_t i = 0; i < kWarmUp; ++i) {
    call();
  }
  constexpr uint64_t kCalls = 1000;
  // The same stretch of simulated time without a call allocates nothing:
  // the runtime's periodic policy tick reuses its scratch vector.
  uint64_t before = g_allocations.load();
  machine.sim().RunUntil(machine.sim().Now() + kCalls * kSpacing);
  const uint64_t idle = g_allocations.load() - before;
  EXPECT_EQ(idle, 0u);
  before = g_allocations.load();
  for (uint64_t i = 0; i < kCalls; ++i) {
    call();
  }
  const uint64_t blocks = g_allocations.load() - before - idle;
  EXPECT_EQ(echoed, kWarmUp + kCalls);
  EXPECT_LE(blocks, kHotEchoBlocksPerRpc * kCalls)
      << blocks << " blocks for " << kCalls << " RPCs (" << idle << " idle)";
}

// Live heap bytes allocated since `before`.
int64_t LiveSince(int64_t before) { return g_live_bytes.load() - before; }

TEST(MemoryBoundTest, IdleEndpointQueueHoldsNoHeap) {
  const uint64_t allocations = g_allocations.load();
  const int64_t before = g_live_bytes.load();
  size_t backlog = 0;
  std::array<LauberhornNic::BacklogQueue, 64> queues;
  for (LauberhornNic::BacklogQueue& queue : queues) {
    queue.Bind(&backlog);
  }
  EXPECT_EQ(g_allocations.load(), allocations);
  EXPECT_EQ(LiveSince(before),
            static_cast<int64_t>(queues.size() * LauberhornNic::BacklogQueue::kIdleHeapBytes));

  // A used queue holds its ring until a drain hands the ring over.
  queues[0].Push({});
  queues[0].Push({}, /*at_front=*/true);
  EXPECT_GT(LiveSince(before), 0);
  EXPECT_EQ(backlog, 2u);
  EXPECT_EQ(queues[0].TakeAll().size(), 2u);
  EXPECT_EQ(backlog, 0u);
  EXPECT_EQ(LiveSince(before), 0);
}

TEST(MemoryBoundTest, OneDecadeHistogramStaysWithinItsBound) {
  // [10^k, 10^(k+1)) for every decade a Duration holds, including the one
  // that reaches into magnitude 0's 64-bucket block.
  Rng rng(7);
  uint64_t low = 1;
  for (int decade = 0; decade <= 17; ++decade, low *= 10) {
    const int64_t before = g_live_bytes.load();
    {
      Histogram h;
      h.Record(static_cast<Duration>(low));
      h.Record(static_cast<Duration>(10 * low - 1));
      for (int i = 0; i < 1000; ++i) {
        h.Record(static_cast<Duration>(rng.UniformInt(low, 10 * low - 1)));
      }
      EXPECT_LE(LiveSince(before), static_cast<int64_t>(Histogram::kMaxDecadeBytes))
          << "decade starting at " << low;
    }
    EXPECT_EQ(LiveSince(before), 0);
  }
  // The worst case sits right below 64: [60, 600) spans magnitudes 0-4.
  const int64_t before = g_live_bytes.load();
  Histogram h;
  h.Record(60);
  h.Record(599);
  EXPECT_EQ(LiveSince(before), static_cast<int64_t>(Histogram::kMaxDecadeBytes));
}

TEST(MemoryBoundTest, RetiredWindowAfter100kCompletionsStaysWithinItsBound) {
  // A client's ids come from one counter and retire roughly in order.
  Rng rng(11);
  const int64_t before = g_live_bytes.load();
  IdWindow retired;
  const uint64_t first = (uint64_t{9} << 40) | 1;
  for (uint64_t i = 0; i < 100000; i += 8) {
    // Each batch of 8 retires in a rotated stride-5 order (5 is odd, so
    // every id of the batch comes exactly once).
    const uint64_t rotation = rng.UniformInt(0, 7);
    for (uint64_t j = 0; j < 8; ++j) {
      retired.Insert(first + i + ((j * 5 + rotation) & 7));
    }
  }
  EXPECT_EQ(retired.size(), IdWindow::kCapacity);
  EXPECT_LE(LiveSince(before), static_cast<int64_t>(IdWindow::kMaxHeapBytes));
}

// A server's dedup traffic: request ids from one counter, each admitted,
// delivered and completed with a 64-byte response.
class DedupCycle {
 public:
  explicit DedupCycle(RpcDedupCache& cache) : cache_(cache) {
    response_.kind = MessageKind::kResponse;
    response_.payload.assign(64, 0xab);
  }

  void Run(uint64_t cycles) {
    for (uint64_t i = 0; i < cycles; ++i, ++next_id_) {
      cache_.Admit(kFlow, next_id_);
      cache_.MarkDelivered(kFlow, next_id_);
      response_.request_id = next_id_;
      cache_.Complete(kFlow, next_id_, response_);
    }
  }

 private:
  static constexpr uint64_t kFlow = DedupFlowKey(0x0a000001, 40000);
  RpcDedupCache& cache_;
  RpcMessage response_;
  uint64_t next_id_ = 1;
};

TEST(AllocTest, SteadyStateDedupCyclesAllocateNothing) {
  RpcDedupCache cache(1024);
  DedupCycle cycle(cache);
  cycle.Run(2048);  // warm-up: the index and both rings reach the window
  const uint64_t before = g_allocations.load();
  cycle.Run(10000);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(cache.size(), 1024u);
  EXPECT_EQ(cache.stats().admitted, 12048u);
  EXPECT_EQ(cache.stats().evictions, 12048u - 1024u);
}

TEST(MemoryBoundTest, FullDedupWindowStaysWithinItsBound) {
  // 1,024 responses of 64 bytes: a 32-byte record and the payload each, and
  // a 2,048-slot index of 20-byte slots. One hash node, one payload vector
  // and one deque slot per entry took about 190 KiB.
  static_assert(RpcDedupCache::FullWindowHeapBytes(1024, 64) == 136 * 1024);
  const int64_t before = g_live_bytes.load();
  {
    RpcDedupCache cache(1024);
    DedupCycle cycle(cache);
    const int64_t cycle_bytes = LiveSince(before);  // the cycle's own response
    cycle.Run(3000);
    EXPECT_EQ(cache.size(), 1024u);
    EXPECT_LE(LiveSince(before) - cycle_bytes,
              static_cast<int64_t>(RpcDedupCache::FullWindowHeapBytes(1024, 64)));
  }
  EXPECT_EQ(LiveSince(before), 0);
}

static_assert(sizeof(TraceRing::Entry) == 16);

TEST(MemoryBoundTest, FullTraceRingHoldsSixteenBytesPerEntry) {
  const int64_t before = g_live_bytes.load();
  TraceRing ring(4096);
  EXPECT_EQ(LiveSince(before), 0);  // nothing until the first Emit
  for (uint32_t i = 0; i < 5000; ++i) {
    ring.Emit(static_cast<SimTime>(i), TraceEvent::kWireRx, i % 64, i);
  }
  EXPECT_EQ(ring.size(), 4096u);
  EXPECT_EQ(ring.dropped(), 5000u - 4096u);
  EXPECT_EQ(LiveSince(before), static_cast<int64_t>(4096 * sizeof(TraceRing::Entry)));
}

TEST(MemoryBoundTest, NicLineStoreWithEveryLineTouchedStaysWithinItsBound) {
  // A NIC with the default layout (104 endpoints of 62 lines: 2 CONTROL and
  // 30 AUX lines per parity), every CONTROL and AUX line of every endpoint
  // read for ownership through its home-agent interface, which stores each
  // line it answers from.
  Simulator sim;
  CoherentInterconnect interconnect(sim, CoherenceConfig{});
  MemoryHomeAgent memory(sim, interconnect, 0, uint64_t{1} << 30);
  Iommu iommu;
  PcieLink pcie(sim, PcieConfig{}, memory, iommu);
  ServiceRegistry services;
  const LauberhornNic::Config config;
  LauberhornNic nic(sim, interconnect, pcie, services, config);
  const size_t endpoints =
      config.num_kernel_channels + config.num_endpoints + config.num_continuations;
  const size_t lines = endpoints * nic.EndpointStrideLines();

  const int64_t before = g_live_bytes.load();
  size_t fills = 0;
  auto touch = [&](LineAddr addr) {
    nic.OnHomeRead(/*requester=*/0, addr, /*exclusive=*/true,
                   [&fills, &nic](const LineData& data) {
                     fills += data.size() == nic.line_size();
                   });
  };
  for (uint32_t ep = 0; ep < endpoints; ++ep) {
    touch(nic.CtrlAddr(ep, 0));
    touch(nic.CtrlAddr(ep, 1));
    for (const int parity : {0, 1}) {
      for (size_t aux = 0; aux < config.params.aux_lines; ++aux) {
        touch(nic.AuxAddr(ep, parity, aux));
      }
    }
  }
  EXPECT_EQ(fills, lines);
  EXPECT_GE(LiveSince(before), static_cast<int64_t>(lines * LauberhornNic::kLineNodeBytes));
  EXPECT_LE(LiveSince(before), static_cast<int64_t>(nic.LineStoreMaxHeapBytes()));

  // Touching them all again stores nothing new.
  const int64_t full = LiveSince(before);
  touch(nic.CtrlAddr(0, 0));
  touch(nic.AuxAddr(static_cast<uint32_t>(endpoints - 1), 1, config.params.aux_lines - 1));
  EXPECT_EQ(LiveSince(before), full);
}

}  // namespace
}  // namespace lauberhorn

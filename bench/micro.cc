// MICRO — google-benchmark microbenchmarks of the substrate hot paths:
// marshalling, framing, checksums, the event queue, the DMA path (IOMMU,
// descriptor rings, DMA transfers), the coherence line cycle, histograms, and
// the model checker. These gate the simulator's own performance (a simulated
// second at 100 krps is ~10^6 events).
#include <array>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/model/lauberhorn_spec.h"
#include "src/net/headers.h"
#include "src/nic/dispatch_line.h"
#include "src/pcie/iommu.h"
#include "src/pcie/pcie_link.h"
#include "src/pcie/ring.h"
#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "tests/control_line_cycle.h"

namespace lauberhorn {
namespace {

void BM_MarshalArgs(benchmark::State& state) {
  MethodSignature sig{{WireType::kU64, WireType::kBytes}};
  std::vector<WireValue> args = {
      WireValue::U64(42),
      WireValue::Bytes(std::vector<uint8_t>(static_cast<size_t>(state.range(0)), 7))};
  for (auto _ : state) {
    std::vector<uint8_t> out;
    MarshalArgs(sig, args, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * (state.range(0) + 8));
}
BENCHMARK(BM_MarshalArgs)->Arg(64)->Arg(1024)->Arg(16384);

void BM_UnmarshalArgs(benchmark::State& state) {
  MethodSignature sig{{WireType::kU64, WireType::kBytes}};
  std::vector<WireValue> args = {
      WireValue::U64(42),
      WireValue::Bytes(std::vector<uint8_t>(static_cast<size_t>(state.range(0)), 7))};
  std::vector<uint8_t> wire;
  MarshalArgs(sig, args, wire);
  for (auto _ : state) {
    std::vector<WireValue> out;
    UnmarshalArgs(sig, wire, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_UnmarshalArgs)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BuildUdpFrame(benchmark::State& state) {
  EthernetHeader eth;
  Ipv4Header ip;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  UdpHeader udp;
  udp.src_port = 1;
  udp.dst_port = 2;
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 9);
  for (auto _ : state) {
    Packet p = BuildUdpFrame(eth, ip, udp, payload);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildUdpFrame)->Arg(64)->Arg(1472);

// The send path's whole byte job: LRPC header and payload encoded into the
// frame's own buffer, then the IPv4/UDP headers and checksums in place.
void BM_BuildRpcFrame(benchmark::State& state) {
  EthernetHeader eth;
  Ipv4Header ip;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  UdpHeader udp;
  udp.src_port = 1;
  udp.dst_port = 2;
  RpcMessage msg;
  msg.kind = MessageKind::kRequest;
  msg.service_id = 3;
  msg.request_id = 42;
  msg.payload.assign(static_cast<size_t>(state.range(0)), 9);
  for (auto _ : state) {
    Packet p = BuildRpcFrame(eth, ip, udp, msg);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(msg.WireSize()));
}
BENCHMARK(BM_BuildRpcFrame)->Arg(64)->Arg(1400);

void BM_ParseUdpFrame(benchmark::State& state) {
  EthernetHeader eth;
  Ipv4Header ip;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  UdpHeader udp;
  const Packet p = BuildUdpFrame(eth, ip, udp,
                                 std::vector<uint8_t>(static_cast<size_t>(state.range(0)), 9));
  for (auto _ : state) {
    auto frame = ParseUdpFrame(p);
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(p.size()));
}
BENCHMARK(BM_ParseUdpFrame)->Arg(64)->Arg(1472);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InternetChecksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500)->Arg(65536);

void BM_SimulatorScheduleStep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(Nanoseconds(i), [] {});
    }
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleStep);

// One event per iteration at a steady pending depth of range(0) events, the
// shapes measured on the repository benchmark: a mean depth of 15 on
// lbh_mix and 404 on cluster_lb. About half the pending events are chains,
// whose callback reschedules itself (a load generator, a poll loop); the
// rest are timers, one per chain, that the chain re-arms on every fifth
// firing by cancelling the old one (an RTO pushed back by traffic) and that
// therefore never fire. So 15-17 % of scheduled events are cancelled, against
// 15-19 % measured on the workloads. The gaps are drawn up front, so the
// timed loop is the event queue and the callbacks alone.
struct SteadyQueue {
  static constexpr Duration kMeanGap = 1000;
  static constexpr Duration kTimeout = 20 * kMeanGap;  // outlives 5 gaps
  static constexpr size_t kRearmEvery = 5;

  Simulator sim;
  std::vector<Duration> gaps;  // precomputed, uniform in [1, 2 * kMeanGap]
  std::vector<EventId> timers;
  std::vector<size_t> fires;
  size_t next_gap = 0;

  void Fire(size_t chain) {
    if (chain < timers.size() && ++fires[chain] % kRearmEvery == 0) {
      sim.Cancel(timers[chain]);
      timers[chain] = sim.Schedule(kTimeout, [] {});
    }
    sim.Schedule(gaps[next_gap++ % gaps.size()], [this, chain] { Fire(chain); });
  }
};

void BM_SimulatorSteadyState(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  const size_t chains = depth - depth / 2;
  SteadyQueue q;
  Rng rng(7);
  q.gaps.resize(4096);
  for (Duration& gap : q.gaps) {
    gap = static_cast<Duration>(rng.UniformInt(1, 2 * SteadyQueue::kMeanGap));
  }
  q.fires.assign(depth / 2, 0);
  for (size_t chain = 0; chain < chains; ++chain) {
    if (chain < depth / 2) {
      q.timers.push_back(q.sim.Schedule(SteadyQueue::kTimeout, [] {}));
    }
    q.sim.Schedule(q.gaps[chain], [&q, chain] { q.Fire(chain); });
  }
  for (size_t i = 0; i < 100 * depth; ++i) {  // warm the slab and the heap
    q.sim.Step();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.sim.Step());
  }
  state.counters["pending"] = static_cast<double>(q.sim.pending_events());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorSteadyState)->ArgName("depth")->Arg(15)->Arg(404);

// One event per iteration in the shape of the protocol's guard timers (the
// client RTO, the bus watchdog, TRYAGAIN): every firing cancels one
// far-future guard timer of its chain and schedules a fresh one, so guards
// that never fire make up two thirds of the range(0) pending events,
// against about 70 % of cluster_lb's mean of 504 in a sample of its queue.
struct GuardChurn {
  static constexpr Duration kMeanGap = 1000;
  static constexpr Duration kGuard = 1000 * kMeanGap;  // cancelled long before
  static constexpr size_t kGuardsPerChain = 2;

  Simulator sim;
  std::vector<Duration> gaps;  // precomputed, uniform in [1, 2 * kMeanGap]
  std::vector<EventId> guards;  // kGuardsPerChain per chain
  std::vector<size_t> fires;
  size_t next_gap = 0;

  void Fire(size_t chain) {
    EventId& guard = guards[chain * kGuardsPerChain + fires[chain]++ % kGuardsPerChain];
    sim.Cancel(guard);
    guard = sim.Schedule(kGuard, [] {});
    sim.Schedule(gaps[next_gap++ % gaps.size()], [this, chain] { Fire(chain); });
  }
};

void BM_SimulatorCancelChurn(benchmark::State& state) {
  const size_t chains = static_cast<size_t>(state.range(0)) / (1 + GuardChurn::kGuardsPerChain);
  GuardChurn q;
  Rng rng(11);
  q.gaps.resize(4096);
  for (Duration& gap : q.gaps) {
    gap = static_cast<Duration>(rng.UniformInt(1, 2 * GuardChurn::kMeanGap));
  }
  q.fires.assign(chains, 0);
  for (size_t chain = 0; chain < chains; ++chain) {
    for (size_t g = 0; g < GuardChurn::kGuardsPerChain; ++g) {
      q.guards.push_back(q.sim.Schedule(GuardChurn::kGuard, [] {}));
    }
    q.sim.Schedule(q.gaps[chain], [&q, chain] { q.Fire(chain); });
  }
  for (size_t i = 0; i < 100 * chains; ++i) {  // warm the slab and the heap
    q.sim.Step();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.sim.Step());
  }
  state.counters["pending"] = static_cast<double>(q.sim.pending_events());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorCancelChurn)->ArgName("depth")->Arg(504);

// A 120-byte capture: too big for Function's inline buffer, so every event
// spills. After the first round the spill blocks come from the free list.
void BM_ScheduleSpilledCapture(benchmark::State& state) {
  Simulator sim;
  std::array<uint64_t, 14> words{};
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      words[0] = static_cast<uint64_t>(i);
      sim.Schedule(Nanoseconds(i), [words, &sink] { sink += words[0]; });
    }
    sim.RunUntilIdle();
  }
  static_assert(sizeof(words) + sizeof(&sink) == 120);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ScheduleSpilledCapture);

// Encode + Decode of a full 128-byte dispatch line (84 inline argument bytes).
void BM_DispatchLineRoundTrip(benchmark::State& state) {
  constexpr size_t kLineSize = 128;
  DispatchLine line;
  line.kind = LineKind::kRpcDispatch;
  line.request_id = 42;
  line.arg_len = static_cast<uint32_t>(DispatchLine::InlineCapacity(kLineSize));
  line.inline_args.assign(line.arg_len, 0x5a);
  for (auto _ : state) {
    const LineData encoded = line.Encode(kLineSize);
    auto decoded = DispatchLine::Decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kLineSize));
}
BENCHMARK(BM_DispatchLineRoundTrip);

// One CONTROL-line cycle on a device home: deferred LoadThrough fill,
// response store (RFO), fetch-exclusive, invalidate. Allocation-free once
// warm (tests/alloc_test.cc).
void BM_CoherenceLineCycle(benchmark::State& state) {
  ControlLineCycle cycle;
  cycle.Run(0);
  uint8_t tag = 0;
  for (auto _ : state) {
    cycle.Run(++tag);
  }
  benchmark::DoNotOptimize(cycle.line());
}
BENCHMARK(BM_CoherenceLineCycle);

// Translations of random pages from a working set of range(0) pages in one
// identity-mapped extent, through the default 64-entry IOTLB: 16 pages is
// hit-heavy, 1024 miss-heavy (each miss evicts and inserts an IOTLB node).
void BM_IommuTranslate(benchmark::State& state) {
  const uint64_t pages = static_cast<uint64_t>(state.range(0));
  Iommu iommu;
  iommu.Map(0, 0, pages * Iommu::kPageSize);
  Rng rng(5);
  std::vector<uint64_t> iovas(4096);
  for (uint64_t& iova : iovas) {
    iova = rng.UniformInt(0, pages - 1) * Iommu::kPageSize + 64;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iommu.Translate(iovas[i++ % iovas.size()], 16));
  }
  state.SetLabel(pages <= 64 ? "hit-heavy" : "miss-heavy");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IommuTranslate)->Arg(16)->Arg(1024);

// One descriptor write and read-back through host memory per iteration.
void BM_RingViewReadWrite(benchmark::State& state) {
  Simulator sim;
  CoherentInterconnect interconnect(sim, CoherenceConfig{});
  MemoryHomeAgent memory(sim, interconnect, 0, 1 << 20);
  RingView ring(memory, 0x1000, 256);
  Descriptor desc;
  desc.length = 2048;
  desc.flags = kDescReady;
  uint32_t index = 0;
  for (auto _ : state) {
    desc.buffer_iova = 0x10000 + index * 2048;
    ring.Write(index, desc);
    benchmark::DoNotOptimize(ring.Read(index));
    ++index;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingViewReadWrite);

// A device DMA write of range(0) bytes into one of 64 2 KiB buffers, then a
// DMA read of it back, each run to completion: translation, staging, the
// event, and the host-memory copy.
void BM_DmaReadWrite(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  Simulator sim;
  CoherentInterconnect interconnect(sim, CoherenceConfig{});
  MemoryHomeAgent memory(sim, interconnect, 0, 1 << 20);
  Iommu iommu;
  iommu.Map(0, 0, 1 << 20);
  PcieLink link(sim, PcieConfig{}, memory, iommu);
  const std::vector<uint8_t> payload(bytes, 0x5a);
  uint64_t checksum = 0;
  uint64_t index = 0;
  for (auto _ : state) {
    const uint64_t iova = (index++ % 64) * 2048;
    link.DeviceDmaWrite(iova, payload);
    link.DeviceDmaRead(iova, bytes,
                       [&checksum](std::span<const uint8_t> data) { checksum += data[0]; });
    sim.RunUntilIdle();
  }
  benchmark::DoNotOptimize(checksum);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(2 * bytes));
}
BENCHMARK(BM_DmaReadWrite)->Arg(16)->Arg(1500);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Record(static_cast<Duration>(rng.UniformInt(1, 100000000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// 100,000 values: narrow = one decade (1-10 us in ps, one service's
// latencies), wide = every magnitude from 0 to INT64_MAX.
Histogram FilledHistogram(bool wide, uint64_t seed) {
  Histogram h;
  Rng rng(seed);
  for (int i = 0; i < 100000; ++i) {
    h.Record(wide ? static_cast<Duration>(rng.Next() >> rng.UniformInt(1, 63))
                  : static_cast<Duration>(rng.UniformInt(1000000, 10000000)));
  }
  return h;
}

void BM_HistogramMerge(benchmark::State& state) {
  const Histogram part = FilledHistogram(state.range(0) != 0, 1);
  Histogram total = FilledHistogram(state.range(0) != 0, 2);
  for (auto _ : state) {
    total.Merge(part);
  }
  benchmark::DoNotOptimize(total.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramMerge)->ArgName("wide")->Arg(0)->Arg(1);

void BM_HistogramPercentile(benchmark::State& state) {
  const Histogram h = FilledHistogram(state.range(0) != 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.P99());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramPercentile)->ArgName("wide")->Arg(0)->Arg(1);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<size_t>(state.range(0)), 1.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(16)->Arg(1024);

void BM_ModelCheckProtocol(benchmark::State& state) {
  for (auto _ : state) {
    SpecConfig config;
    config.num_requests = static_cast<int>(state.range(0));
    ProtoChecker checker;
    ProtoChecker::Options options;
    options.is_terminal_ok = LauberhornTerminalOk;
    options.goal = LauberhornGoal;
    auto result = checker.Check(LauberhornInitialState(config.num_requests),
                                LauberhornSuccessors(config), LauberhornInvariants(),
                                options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ModelCheckProtocol)->Arg(2)->Arg(3);

}  // namespace
}  // namespace lauberhorn

BENCHMARK_MAIN();

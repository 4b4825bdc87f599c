// Tests for the cross-layer fault-injection subsystem (src/fault) and the
// end-to-end reliability layer built on top of it: client exponential backoff
// with a retry budget, server-side at-most-once dedup (src/proto/dedup), and
// LauberhornNic's graceful degradation of wedged endpoints.
#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>
#include <vector>

#include "src/coherence/cache_agent.h"
#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/core/machine.h"
#include "src/fault/fault.h"
#include "src/proto/dedup.h"
#include "src/sim/simulator.h"

namespace lauberhorn {
namespace {

// --- FaultInjector unit tests ------------------------------------------------

TEST(FaultInjectorTest, InactivePlanInjectsNothing) {
  Simulator sim;
  FaultInjector faults(sim, FaultPlan{});
  EXPECT_FALSE(FaultPlan{}.Any());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(faults.NetShouldDrop());
    EXPECT_FALSE(faults.NetShouldDuplicate());
    EXPECT_FALSE(faults.NetShouldCorrupt());
    EXPECT_EQ(faults.NetReorderDelay(), 0);
    EXPECT_FALSE(faults.CoherenceShouldDropFill());
    EXPECT_FALSE(faults.IommuShouldFault());
    EXPECT_FALSE(faults.DmaShouldFail());
    EXPECT_TRUE(faults.OsServiceUp());
    EXPECT_FALSE(faults.NicEndpointWedged(0));
  }
  EXPECT_EQ(faults.stats().net_drops, 0u);
}

TEST(FaultInjectorTest, GilbertElliottLossIsBursty) {
  Simulator sim;
  FaultPlan plan;
  plan.net.good_loss = 0.0;  // loss only inside bursts
  plan.net.p_good_to_bad = 0.02;
  plan.net.p_bad_to_good = 0.25;
  plan.net.bad_loss = 1.0;
  FaultInjector faults(sim, plan);

  int drops = 0;
  int longest_run = 0;
  int run = 0;
  const int kPackets = 20000;
  for (int i = 0; i < kPackets; ++i) {
    if (faults.NetShouldDrop()) {
      ++drops;
      ++run;
      longest_run = std::max(longest_run, run);
    } else {
      run = 0;
    }
  }
  EXPECT_EQ(faults.stats().net_drops, static_cast<uint64_t>(drops));
  EXPECT_GT(faults.stats().net_burst_entries, 50u);
  // Mean burst length 1/0.25 = 4 with bad_loss 1.0: losses come in runs, so
  // the longest run must be well beyond what independent loss produces.
  EXPECT_GE(longest_run, 3);
  // Long-run loss ~ p_enter * mean_burst = 0.02 * 4 = ~7.4% of packets.
  EXPECT_GT(drops, kPackets / 50);
  EXPECT_LT(drops, kPackets / 4);
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  Simulator sim;
  FaultPlan plan;
  plan.seed = 42;
  plan.net.good_loss = 0.1;
  plan.net.p_good_to_bad = 0.05;
  plan.net.duplicate_probability = 0.1;
  plan.net.corrupt_probability = 0.1;
  plan.net.reorder_probability = 0.1;
  FaultInjector a(sim, plan);
  FaultInjector b(sim, plan);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.NetShouldDrop(), b.NetShouldDrop());
    EXPECT_EQ(a.NetShouldDuplicate(), b.NetShouldDuplicate());
    EXPECT_EQ(a.NetShouldCorrupt(), b.NetShouldCorrupt());
    EXPECT_EQ(a.NetReorderDelay(), b.NetReorderDelay());
  }
}

TEST(FaultInjectorTest, LayersDrawFromIndependentStreams) {
  // Enabling coherence faults must not change the network decision sequence:
  // each layer forks its own Rng from the plan seed.
  Simulator sim;
  FaultPlan net_only;
  net_only.seed = 7;
  net_only.net.good_loss = 0.3;
  FaultPlan both = net_only;
  both.coherence.fill_delay_probability = 0.5;
  FaultInjector a(sim, net_only);
  FaultInjector b(sim, both);
  for (int i = 0; i < 1000; ++i) {
    b.CoherenceFillDelay();  // interleave coherence draws
    EXPECT_EQ(a.NetShouldDrop(), b.NetShouldDrop());
  }
}

TEST(FaultInjectorTest, OsCrashScheduleIsPureArithmeticOnNow) {
  Simulator sim;
  FaultPlan plan;
  plan.os.first_crash_at = Milliseconds(1);
  plan.os.crash_period = Milliseconds(2);
  plan.os.restart_delay = Microseconds(500);
  FaultInjector faults(sim, plan);

  auto up_at = [&](Duration t) {
    bool up = true;
    sim.Schedule(t - sim.Now(), [&faults, &up]() { up = faults.OsServiceUp(); });
    sim.RunUntilIdle();
    return up;
  };
  EXPECT_TRUE(up_at(Microseconds(500)));    // before the first crash
  EXPECT_FALSE(up_at(Microseconds(1100)));  // inside crash window 1
  EXPECT_FALSE(up_at(Microseconds(1100)));  // repeated queries are stable
  EXPECT_TRUE(up_at(Microseconds(1600)));   // restarted
  EXPECT_FALSE(up_at(Microseconds(3200)));  // inside crash window 2 (period)
  EXPECT_TRUE(up_at(Microseconds(3600)));
  EXPECT_EQ(faults.stats().os_crashes, 2u);  // each window counted once
}

TEST(FaultInjectorTest, NicWedgeWindowExpires) {
  Simulator sim;
  FaultPlan plan;
  plan.nic.wedge_probability = 1.0;
  plan.nic.wedge_duration = Microseconds(300);
  FaultInjector faults(sim, plan);

  EXPECT_FALSE(faults.NicEndpointWedgedNow(3));  // pure query: no wedge starts
  EXPECT_TRUE(faults.NicEndpointWedged(3));      // park: wedge window opens
  EXPECT_TRUE(faults.NicEndpointWedgedNow(3));
  EXPECT_FALSE(faults.NicEndpointWedgedNow(4));  // per-endpoint state
  EXPECT_EQ(faults.stats().nic_wedges, 1u);

  sim.Schedule(Microseconds(301), []() {});
  sim.RunUntilIdle();
  EXPECT_FALSE(faults.NicEndpointWedgedNow(3));  // window over
  EXPECT_TRUE(faults.NicEndpointWedged(3));      // a new park may wedge again
  EXPECT_EQ(faults.stats().nic_wedges, 2u);
}

TEST(FaultInjectorTest, IommuFaultsArriveInBursts) {
  Simulator sim;
  FaultPlan plan;
  plan.pcie.iommu_fault_probability = 0.01;
  plan.pcie.iommu_fault_burst = 4;
  FaultInjector faults(sim, plan);

  // Once a burst starts, the next (burst - 1) translations fault too.
  int i = 0;
  while (!faults.IommuShouldFault()) {
    ASSERT_LT(++i, 100000) << "burst never started";
  }
  EXPECT_TRUE(faults.IommuShouldFault());
  EXPECT_TRUE(faults.IommuShouldFault());
  EXPECT_TRUE(faults.IommuShouldFault());
  EXPECT_EQ(faults.stats().iommu_faults, 4u);
}

// --- At-most-once dedup cache ------------------------------------------------

TEST(DedupCacheTest, AdmitExecuteReplayLifecycle) {
  RpcDedupCache cache(16);
  const uint64_t flow = DedupFlowKey(MakeIpv4(10, 0, 0, 1), 5555);

  EXPECT_EQ(cache.Admit(flow, 7), RpcDedupCache::Verdict::kNew);
  EXPECT_EQ(cache.Admit(flow, 7), RpcDedupCache::Verdict::kInFlight);
  EXPECT_EQ(cache.Lookup(flow, 7), nullptr);  // nothing cached yet

  RpcMessage response;
  response.request_id = 7;
  response.status = RpcStatus::kOk;
  cache.Complete(flow, 7, response);
  EXPECT_EQ(cache.Admit(flow, 7), RpcDedupCache::Verdict::kCompleted);
  ASSERT_NE(cache.Lookup(flow, 7), nullptr);
  EXPECT_EQ(cache.Lookup(flow, 7)->request_id, 7u);

  EXPECT_EQ(cache.stats().admitted, 1u);
  EXPECT_EQ(cache.stats().duplicates_in_flight, 1u);
  EXPECT_EQ(cache.stats().duplicates_replayed, 1u);
}

TEST(DedupCacheTest, ReplayReturnsCachedResponseOrInternalHeader) {
  RpcDedupCache cache(16);
  RpcMessage request;
  request.service_id = 3;
  request.method_id = 4;
  request.request_id = 7;
  request.payload = {1, 2};

  // No entry: a kInternal header carrying the request's ids, no payload.
  const RpcMessage missing = cache.Replay(1, request);
  EXPECT_EQ(missing.kind, MessageKind::kResponse);
  EXPECT_EQ(missing.status, RpcStatus::kInternal);
  EXPECT_EQ(missing.service_id, 3u);
  EXPECT_EQ(missing.method_id, 4u);
  EXPECT_EQ(missing.request_id, 7u);
  EXPECT_TRUE(missing.payload.empty());

  // Completed: the cached response, byte for byte.
  cache.Admit(1, 7);
  RpcMessage cached = ResponseHeader(3, 4, 7);
  cached.payload = {9, 9};
  cache.Complete(1, 7, cached);
  const RpcMessage replayed = cache.Replay(1, request);
  EXPECT_EQ(replayed.status, RpcStatus::kOk);
  EXPECT_EQ(replayed.payload, cached.payload);
}

TEST(DedupCacheTest, FlowsAreIndependent) {
  RpcDedupCache cache(16);
  const uint64_t flow_a = DedupFlowKey(MakeIpv4(10, 0, 0, 1), 5555);
  const uint64_t flow_b = DedupFlowKey(MakeIpv4(10, 0, 0, 1), 5556);
  EXPECT_EQ(cache.Admit(flow_a, 7), RpcDedupCache::Verdict::kNew);
  // Same request id on a different flow is a different request.
  EXPECT_EQ(cache.Admit(flow_b, 7), RpcDedupCache::Verdict::kNew);
}

TEST(DedupCacheTest, AbortForgetsInFlightEntry) {
  RpcDedupCache cache(16);
  EXPECT_EQ(cache.Admit(1, 9), RpcDedupCache::Verdict::kNew);
  cache.Abort(1, 9);  // shed before execution (e.g. overload)
  // A retransmit gets a fresh chance to run.
  EXPECT_EQ(cache.Admit(1, 9), RpcDedupCache::Verdict::kNew);
}

TEST(DedupCacheTest, CompleteIsIdempotent) {
  RpcDedupCache cache(16);
  cache.Admit(1, 9);
  RpcMessage first;
  first.request_id = 9;
  first.status = RpcStatus::kOk;
  cache.Complete(1, 9, first);
  RpcMessage second;
  second.request_id = 9;
  second.status = RpcStatus::kInternal;
  cache.Complete(1, 9, second);  // replay path must not re-cache
  EXPECT_EQ(cache.Lookup(1, 9)->status, RpcStatus::kOk);
}

TEST(DedupCacheTest, CompletedWindowEvictsFifoButNeverInFlight) {
  RpcDedupCache cache(4);
  RpcMessage response;
  response.status = RpcStatus::kOk;

  cache.Admit(1, 100);  // stays in flight for the whole test
  for (uint64_t id = 0; id < 10; ++id) {
    cache.Admit(1, id);
    cache.Complete(1, id, response);
  }
  // Window of 4: ids 0..5 evicted, 6..9 retained, in-flight entry untouched.
  EXPECT_EQ(cache.stats().evictions, 6u);
  EXPECT_EQ(cache.Admit(1, 0), RpcDedupCache::Verdict::kNew);  // forgotten
  cache.Abort(1, 0);
  EXPECT_EQ(cache.Admit(1, 9), RpcDedupCache::Verdict::kCompleted);
  EXPECT_EQ(cache.Admit(1, 100), RpcDedupCache::Verdict::kInFlight);
}

TEST(DedupCacheTest, DeliveredStateMachineAndEviction) {
  RpcDedupCache cache(/*completed_window=*/2);
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.status = RpcStatus::kOk;

  cache.Admit(1, 10);
  cache.MarkDelivered(1, 10);
  EXPECT_EQ(cache.Admit(1, 10), RpcDedupCache::Verdict::kInFlight);
  cache.Complete(1, 10, response);
  EXPECT_EQ(cache.size(), 1u);

  // Complete is idempotent; Abort and MarkDelivered never touch a completed
  // entry, and MarkDelivered never creates one.
  cache.Complete(1, 10, response);
  cache.Abort(1, 10);
  cache.MarkDelivered(1, 10);
  cache.MarkDelivered(1, 12);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Admit(1, 10), RpcDedupCache::Verdict::kCompleted);

  // Abort forgets an in-flight entry (admission shed it pre-execution), and
  // a delivered one.
  cache.Admit(1, 11);
  cache.Abort(1, 11);
  cache.Admit(1, 13);
  cache.MarkDelivered(1, 13);
  cache.Abort(1, 13);
  EXPECT_EQ(cache.size(), 1u);

  // Completed entries evict FIFO past the window; in-flight and delivered
  // entries never evict.
  cache.Admit(1, 99);  // stays in flight throughout
  cache.Admit(1, 98);
  cache.MarkDelivered(1, 98);  // stays delivered throughout
  for (uint64_t id = 20; id < 25; ++id) {
    cache.Admit(1, id);
    cache.Complete(1, id, response);
  }
  // Window of 2 completed + the in-flight and delivered survivors.
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.Admit(1, 99), RpcDedupCache::Verdict::kInFlight);
  EXPECT_EQ(cache.Admit(1, 98), RpcDedupCache::Verdict::kInFlight);
  EXPECT_EQ(cache.Admit(1, 24), RpcDedupCache::Verdict::kCompleted);
}

TEST(DedupCacheTest, ReplayRulesAcrossTwoCrashes) {
  RpcDedupCache cache(16);
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.status = RpcStatus::kOk;
  response.request_id = 1;
  cache.Admit(5, 1);
  cache.MarkDelivered(5, 1);
  cache.Complete(5, 1, response);  // completed: replay the response
  cache.Admit(5, 2);
  cache.MarkDelivered(5, 2);  // delivered: pin in flight, never re-execute
  cache.Admit(5, 3);          // in flight: forget, retransmit runs fresh
  cache.Admit(5, 4);
  cache.MarkDelivered(5, 4);  // delivered, answered after the crash

  const RpcDedupCache::ReplayCounts first = cache.ReplayAfterCrash();
  EXPECT_EQ(first.completed, 1u);
  EXPECT_EQ(first.pinned, 2u);
  EXPECT_EQ(first.dropped, 1u);
  EXPECT_EQ(cache.size(), 3u);  // the undelivered entry is gone
  ASSERT_NE(cache.Lookup(5, 1), nullptr);
  EXPECT_EQ(cache.Lookup(5, 1)->status, RpcStatus::kOk);
  EXPECT_EQ(cache.Lookup(5, 2), nullptr);
  EXPECT_EQ(cache.Admit(5, 2), RpcDedupCache::Verdict::kInFlight);

  // A response path that outlived the crash still stores the real response
  // on a pinned entry.
  RpcMessage late = response;
  late.request_id = 4;
  cache.Complete(5, 4, late);
  ASSERT_NE(cache.Lookup(5, 4), nullptr);
  EXPECT_EQ(cache.Lookup(5, 4)->status, RpcStatus::kOk);

  // The still-pinned entry is completed with a synthetic terminal: a second
  // crash resolves it instead of re-pinning it forever.
  const RpcDedupCache::ReplayCounts second = cache.ReplayAfterCrash();
  EXPECT_EQ(second.completed, 3u);
  EXPECT_EQ(second.pinned, 0u);
  EXPECT_EQ(second.dropped, 0u);
  ASSERT_NE(cache.Lookup(5, 2), nullptr);
  EXPECT_EQ(cache.Lookup(5, 2)->status, RpcStatus::kInternal);
  EXPECT_EQ(cache.Lookup(5, 2)->request_id, 2u);
  EXPECT_EQ(cache.Admit(5, 2), RpcDedupCache::Verdict::kCompleted);
  EXPECT_EQ(cache.Admit(5, 3), RpcDedupCache::Verdict::kNew);
}

TEST(DedupCacheTest, ReplayKeepsCompletionOrderAndSortsSyntheticTerminals) {
  // Window 6 holds exactly the three completed and three synthetic entries,
  // so each later completion evicts one: the eviction order reads back the
  // table's completion order.
  RpcDedupCache cache(/*completed_window=*/6);
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.status = RpcStatus::kOk;
  for (uint64_t id : {30, 10, 20}) {  // completion order, not id order
    cache.Admit(1, id);
    cache.Complete(1, id, response);
  }
  // Pinned in reverse (flow, id) order.
  const std::vector<std::pair<uint64_t, uint64_t>> pinned = {
      {2, 7}, {1, 9}, {1, 5}};
  for (const auto& [flow, id] : pinned) {
    cache.Admit(flow, id);
    cache.MarkDelivered(flow, id);
  }
  EXPECT_EQ(cache.ReplayAfterCrash().pinned, 3u);
  EXPECT_EQ(cache.ReplayAfterCrash().completed, 6u);

  const std::vector<std::pair<uint64_t, uint64_t>> expected_evictions = {
      {1, 30}, {1, 10}, {1, 20}, {1, 5}, {1, 9}, {2, 7}};
  uint64_t next_id = 100;
  for (size_t i = 0; i < expected_evictions.size(); ++i) {
    cache.Admit(3, next_id);
    cache.Complete(3, next_id, response);
    ++next_id;
    for (size_t j = 0; j < expected_evictions.size(); ++j) {
      const auto& [flow, id] = expected_evictions[j];
      EXPECT_EQ(cache.Lookup(flow, id) == nullptr, j <= i)
          << "after completion " << i << ", entry (" << flow << ", " << id
          << ")";
    }
  }
}

TEST(DedupCacheTest, PinnedEntryOutlivesTheWindowUntilTheNextReplay) {
  // At-most-once across two crashes: a delivered request whose response died
  // with the NIC must stay known however many completions follow, so a
  // retransmit after a second crash is answered, never re-executed.
  RpcDedupCache cache(/*completed_window=*/2);
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.status = RpcStatus::kOk;
  cache.Admit(1, 1);
  cache.MarkDelivered(1, 1);
  EXPECT_EQ(cache.ReplayAfterCrash().pinned, 1u);

  for (uint64_t id = 10; id < 15; ++id) {  // more than `window` completions
    cache.Admit(1, id);
    cache.Complete(1, id, response);
  }
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.Admit(1, 1), RpcDedupCache::Verdict::kInFlight);

  const RpcDedupCache::ReplayCounts second = cache.ReplayAfterCrash();
  EXPECT_EQ(second.completed, 3u);  // the window's 2 + the synthetic one
  ASSERT_NE(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1)->status, RpcStatus::kInternal);
  EXPECT_EQ(cache.Admit(1, 1), RpcDedupCache::Verdict::kCompleted);
  EXPECT_EQ(cache.ReplayAfterCrash().completed, 3u);
  EXPECT_EQ(cache.Admit(1, 1), RpcDedupCache::Verdict::kCompleted);
}

// --- Coherence faults exercise the bus-timeout watchdog ----------------------

class CoherenceFaultTest : public ::testing::Test {
 protected:
  static CoherenceConfig MakeConfig() {
    CoherenceConfig config;
    config.line_size = 128;
    config.cpu_mem_hop = Nanoseconds(40);
    config.memory_latency = Nanoseconds(70);
    config.bus_timeout = Microseconds(50);
    return config;
  }

  Simulator sim_;
};

TEST_F(CoherenceFaultTest, DroppedFillTripsWatchdog) {
  CoherentInterconnect interconnect(sim_, MakeConfig());
  MemoryHomeAgent memory(sim_, interconnect, 0, 0x10000);
  CacheAgent cpu(interconnect);
  FaultPlan plan;
  plan.coherence.fill_drop_probability = 1.0;
  FaultInjector faults(sim_, plan);
  interconnect.set_fault_injector(&faults);

  LineAddr errored = 0;
  interconnect.set_bus_error_handler([&](LineAddr a) { errored = a; });
  bool filled = false;
  cpu.Load(0x400, 4, [&](std::span<const uint8_t>) { filled = true; });
  sim_.RunUntilIdle();

  EXPECT_FALSE(filled);  // the fill was swallowed
  EXPECT_EQ(errored, interconnect.AlignToLine(0x400));
  EXPECT_EQ(interconnect.stats().bus_errors, 1u);
  EXPECT_GE(faults.stats().coherence_fill_drops, 1u);
}

TEST_F(CoherenceFaultTest, DelayedFillStillCompletes) {
  CoherentInterconnect interconnect(sim_, MakeConfig());
  MemoryHomeAgent memory(sim_, interconnect, 0, 0x10000);
  CacheAgent cpu(interconnect);
  FaultPlan plan;
  plan.coherence.fill_delay_probability = 1.0;
  plan.coherence.fill_delay = Microseconds(2);
  FaultInjector faults(sim_, plan);
  interconnect.set_fault_injector(&faults);

  memory.WriteBytes(0x400, std::vector<uint8_t>{5, 6, 7});
  std::vector<uint8_t> got;
  cpu.Load(0x400, 3, [&](std::span<const uint8_t> data) { got.assign(data.begin(), data.end()); });
  sim_.RunUntilIdle();

  EXPECT_EQ(got, (std::vector<uint8_t>{5, 6, 7}));
  // Delay below bus_timeout: slower than the fault-free path, no bus error.
  EXPECT_GE(sim_.Now(), Microseconds(2));
  EXPECT_EQ(interconnect.stats().bus_errors, 0u);
  EXPECT_GE(faults.stats().coherence_fill_delays, 1u);
}

// --- End-to-end reliability through Machine ----------------------------------

// Drives `count` uniquely-numbered RPCs through a machine and counts per-seq
// handler executions, the end-to-end observable for at-most-once semantics.
class E2eHarness {
 public:
  explicit E2eHarness(MachineConfig config) : machine_(std::move(config)) {
    ServiceDef def;
    def.service_id = 1;
    def.name = "counted";
    def.udp_port = 7000;
    MethodDef method;
    method.method_id = 0;
    method.name = "count";
    method.request_sig.args = {WireType::kU64};
    method.response_sig.args = {WireType::kU64};
    method.handler = [this](const std::vector<WireValue>& args) {
      ++execs_[args.at(0).scalar];
      return std::vector<WireValue>{args.at(0)};
    };
    method.SetFixedServiceTime(Nanoseconds(500));
    def.methods[0] = std::move(method);
    service_ = &machine_.AddService(std::move(def),
                                    machine_.config().stack == StackKind::kLauberhorn ? 2 : 1);
    machine_.Start();
    if (machine_.config().stack == StackKind::kLauberhorn) {
      machine_.StartHotLoop(*service_);
    }
    machine_.sim().RunUntil(Microseconds(100));
  }

  // Sends `count` requests spaced `gap` apart, then drains.
  void Run(int count, Duration gap, Duration drain = Milliseconds(5)) {
    auto fire = std::make_shared<Function<void()>>();
    int remaining = count;
    *fire = [this, fire, &remaining, gap]() {
      if (remaining-- <= 0) {
        return;
      }
      std::vector<WireValue> args = {WireValue::U64(next_seq_++)};
      machine_.client().Call(*service_, 0, args,
                             [this](const RpcMessage& response, Duration) {
                               if (response.status == RpcStatus::kOk) {
                                 ++ok_;
                               }
                             });
      machine_.sim().Schedule(gap, [fire]() { (*fire)(); });
    };
    (*fire)();
    const SimTime send_done =
        machine_.sim().Now() + gap * count + drain;
    machine_.sim().RunUntil(send_done);
  }

  uint64_t sent() const { return next_seq_; }
  uint64_t ok() const { return ok_; }
  uint64_t DuplicateExecutions() const {
    uint64_t dups = 0;
    for (const auto& [seq, count] : execs_) {
      if (count > 1) {
        ++dups;
      }
    }
    return dups;
  }
  uint64_t TotalExecutions() const {
    uint64_t total = 0;
    for (const auto& [seq, count] : execs_) {
      total += count;
    }
    return total;
  }
  Machine& machine() { return machine_; }

 private:
  Machine machine_;
  const ServiceDef* service_ = nullptr;
  std::unordered_map<uint64_t, uint32_t> execs_;
  uint64_t next_seq_ = 0;
  uint64_t ok_ = 0;
};

MachineConfig ReliableConfig(StackKind stack) {
  MachineConfig config;
  config.stack = stack;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(200);
  config.client_max_retransmits = 8;
  config.client_backoff_multiplier = 2.0;
  config.client_max_retransmit_timeout = Milliseconds(2);
  config.server_dedup = true;
  return config;
}

class ReliabilityE2eTest : public ::testing::TestWithParam<StackKind> {};

INSTANTIATE_TEST_SUITE_P(AllStacks, ReliabilityE2eTest,
                         ::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                           StackKind::kLauberhorn),
                         [](const auto& info) { return ToString(info.param); });

TEST_P(ReliabilityE2eTest, AtMostOnceUnderHeavyDuplication) {
  MachineConfig config = ReliableConfig(GetParam());
  config.faults.net.duplicate_probability = 0.5;
  E2eHarness harness(config);
  harness.Run(150, Microseconds(5));

  EXPECT_EQ(harness.ok(), harness.sent());  // duplication never loses data
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  // The server saw duplicate copies and absorbed them in the dedup stage.
  Machine& m = harness.machine();
  const RpcDedupCache::Stats& dedup = m.server_dedup().stats();
  EXPECT_GT(dedup.duplicates_replayed + dedup.duplicates_in_flight, 0u);
  // A duplicate of an already-answered request produces a second response the
  // client retires quietly, never an error (satellite: late responses).
  EXPECT_EQ(m.client().errors(), 0u);
  EXPECT_GT(m.client().late_responses(), 0u);
}

TEST_P(ReliabilityE2eTest, BackoffCarriesRpcsOverBurstLoss) {
  MachineConfig config = ReliableConfig(GetParam());
  config.faults.net.p_good_to_bad = 0.02;
  config.faults.net.p_bad_to_good = 0.25;
  config.faults.net.bad_loss = 1.0;
  E2eHarness harness(config);
  harness.Run(150, Microseconds(5));

  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_GT(harness.machine().client().retransmits(), 0u);
  EXPECT_GT(harness.machine().fault_injector()->stats().net_drops, 0u);
}

TEST_P(ReliabilityE2eTest, RetransmitsRideOutOsCrashWindow) {
  MachineConfig config = ReliableConfig(GetParam());
  config.faults.os.first_crash_at = Microseconds(300);
  config.faults.os.crash_period = 0;  // one crash
  config.faults.os.restart_delay = Microseconds(400);
  E2eHarness harness(config);
  harness.Run(100, Microseconds(10), /*drain=*/Milliseconds(10));

  // The outage blackholes arrivals at the NIC; backoff carries every RPC over.
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  Machine& m = harness.machine();
  const uint64_t blackholed =
      GetParam() == StackKind::kLauberhorn
          ? m.lauberhorn_nic()->stats().drops_service_down
          : m.dma_nic()->rx_drops_service_down();
  EXPECT_GT(blackholed, 0u);
  EXPECT_GT(m.client().retransmits(), 0u);
}

TEST_P(ReliabilityE2eTest, DeterministicAcrossRuns) {
  auto run = [&]() {
    MachineConfig config = ReliableConfig(GetParam());
    config.faults = FaultPlan::Canonical(2.0, 9);
    config.faults.os.first_crash_at = Microseconds(400);
    config.faults.os.restart_delay = Microseconds(200);
    E2eHarness harness(config);
    harness.Run(100, Microseconds(5));
    return std::tuple(harness.ok(), harness.TotalExecutions(),
                      harness.machine().client().retransmits(),
                      harness.machine().fault_injector()->stats().net_drops);
  };
  EXPECT_EQ(run(), run());
}

TEST(ReliabilityE2eTest, RetryBudgetSuppressesRetransmitStorm) {
  // Total blackout + a tiny retry budget: after the burst allowance is spent,
  // further retransmits are suppressed instead of flooding a dead wire.
  MachineConfig config = ReliableConfig(StackKind::kLauberhorn);
  config.faults.net.good_loss = 1.0;
  config.client_retry_budget_per_sec = 1000.0;
  E2eHarness harness(config);
  // Drain past the full backoff chain (~11 ms: 200us doubling to the 2 ms
  // cap over 8 retransmits) so every request reaches its terminal timeout.
  harness.Run(50, Microseconds(5), /*drain=*/Milliseconds(30));

  EXPECT_EQ(harness.ok(), 0u);
  RpcClient& client = harness.machine().client();
  EXPECT_GT(client.retransmits_suppressed(), 0u);
  EXPECT_EQ(client.timeouts(), harness.sent());
  // Bounded: well under the unmetered worst case of max_retransmits per call.
  EXPECT_LT(client.retransmits(),
            harness.sent() * static_cast<uint64_t>(config.client_max_retransmits) / 2);
}

TEST(ReliabilityE2eTest, WedgedEndpointDegradesToColdPathGracefully) {
  MachineConfig config = ReliableConfig(StackKind::kLauberhorn);
  config.faults.nic.wedge_probability = 1.0;  // wedge on every poll-park
  config.faults.nic.wedge_duration = Milliseconds(2);
  LauberhornParams params = config.platform.lauberhorn;
  params.tryagain_timeout = Microseconds(20);
  params.degrade_tryagain_threshold = 4;
  params.degrade_backoff = Microseconds(500);
  config.lauberhorn_params = params;
  E2eHarness harness(config);
  harness.Run(100, Microseconds(10), /*drain=*/Milliseconds(10));

  const auto& stats = harness.machine().lauberhorn_nic()->stats();
  EXPECT_GT(stats.degradations, 0u);         // the wedge was detected...
  EXPECT_GT(stats.degraded_dispatches, 0u);  // ...and traffic re-routed cold
  EXPECT_GT(stats.wedged_polls, 0u);
  // Graceful: every RPC still completes, exactly once, via the kernel path.
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

TEST(ReliabilityE2eTest, DmaCompletionErrorsDoNotWedgeTheLinuxStack) {
  MachineConfig config = ReliableConfig(StackKind::kLinux);
  config.faults.pcie.dma_error_probability = 0.05;
  E2eHarness harness(config);
  harness.Run(150, Microseconds(5), /*drain=*/Milliseconds(10));

  // Errored DMAs lose payloads, not descriptors: the ring keeps moving and
  // retransmits (dedup-guarded) recover every request.
  EXPECT_GT(harness.machine().fault_injector()->stats().dma_errors, 0u);
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

}  // namespace
}  // namespace lauberhorn

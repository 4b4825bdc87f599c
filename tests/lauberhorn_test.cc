// Protocol-level tests of the Lauberhorn NIC and runtime on a full machine:
// the Fig. 4 control-line state machine, TRYAGAIN deadlines, RETIRE,
// kernel-channel cold dispatch, AUX-line and DMA-fallback payload paths,
// NIC-side queueing, overload responses, endpoint spillover, and the trace.
#include <gtest/gtest.h>

#include <functional>

#include "src/core/machine.h"

namespace lauberhorn {
namespace {

std::vector<WireValue> Payload(size_t n, uint8_t fill = 0x77) {
  return {WireValue::Bytes(std::vector<uint8_t>(n, fill))};
}

MachineConfig Config(int cores = 4) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = cores;
  return config;
}

TEST(LauberhornNicTest, EndpointAddressLayoutDistinct) {
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  LauberhornNic& nic = *machine.lauberhorn_nic();
  const auto endpoints = machine.EndpointsOf(echo);
  ASSERT_EQ(endpoints.size(), 1u);
  const uint32_t ep = endpoints[0];
  EXPECT_NE(nic.CtrlAddr(ep, 0), nic.CtrlAddr(ep, 1));
  EXPECT_EQ(nic.CtrlAddr(ep, 1) - nic.CtrlAddr(ep, 0), nic.line_size());
  EXPECT_EQ(nic.AuxAddr(ep, 0) - nic.CtrlAddr(ep, 0), 2 * nic.line_size());
  // Endpoints do not overlap.
  EXPECT_GE(nic.CtrlAddr(ep, 0),
            nic.CtrlAddr(ep - 1, 0) + nic.EndpointStrideLines() * nic.line_size());
}

TEST(LauberhornNicTest, TryagainFiresAtConfiguredDeadline) {
  MachineConfig config = Config();
  LauberhornParams params = config.platform.lauberhorn;
  params.tryagain_timeout = Milliseconds(15);
  config.lauberhorn_params = params;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);

  // No traffic: the parked load must be answered with TRYAGAIN at ~15ms and
  // the loop must re-arm, repeatedly.
  machine.sim().RunUntil(Milliseconds(14));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().tryagains, 0u);
  machine.sim().RunUntil(Milliseconds(16));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().tryagains, 1u);
  machine.sim().RunUntil(Milliseconds(46));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().tryagains, 3u);
  // Never a bus error: TRYAGAIN precedes the coherence timeout (§5.1).
  EXPECT_EQ(machine.interconnect().stats().bus_errors, 0u);
}

TEST(LauberhornNicTest, ParkedCoreBurnsNoCycles) {
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  machine.kernel().ResetAccounting();
  machine.sim().RunUntil(Milliseconds(100));
  // ~100ms parked: busy time is only the TRYAGAIN re-arm instants.
  EXPECT_LT(machine.TotalBusyTime(), Microseconds(10));
}

TEST(LauberhornNicTest, RetireUnparksCoreAndDeactivates) {
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  const uint32_t ep = machine.EndpointsOf(echo)[0];
  EXPECT_TRUE(machine.lauberhorn_nic()->EndpointActive(ep));

  machine.lauberhorn_runtime()->Deschedule(ep);
  machine.sim().RunUntil(Milliseconds(2));
  EXPECT_FALSE(machine.lauberhorn_nic()->EndpointActive(ep));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().retires, 1u);
  EXPECT_EQ(machine.lauberhorn_runtime()->stats().loops_exited, 1u);
  // The core is idle again.
  bool any_blocked = false;
  for (size_t i = 0; i < machine.kernel().num_cores(); ++i) {
    any_blocked |= machine.kernel().core(i).blocked_on_load();
  }
  EXPECT_FALSE(any_blocked);
}

TEST(LauberhornNicTest, AuxLinePayloadRoundTrip) {
  // Payload larger than one line but below the DMA threshold exercises the
  // AUX delivery + fetch path in both directions.
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  const size_t size = 1000;  // needs ~8 AUX lines at 128B
  std::vector<uint8_t> got;
  machine.client().Call(echo, 0, Payload(size, 0x5a),
                        [&](const RpcMessage& r, Duration) {
                          std::vector<WireValue> out;
                          ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kBytes}},
                                                    r.payload, out));
                          got = out[0].bytes;
                        });
  machine.sim().RunUntil(Milliseconds(50));
  ASSERT_EQ(got.size(), size);
  for (uint8_t b : got) {
    ASSERT_EQ(b, 0x5a);
  }
  EXPECT_EQ(machine.lauberhorn_nic()->stats().dma_fallback_rx, 0u);
}

// Closed-loop callers, each sending its next distinct 1 KiB echo when the
// previous one returns, `calls` in all. Counts the responses that came back
// byte-equal to their request and those that did not.
class AuxEchoLoad {
 public:
  static constexpr size_t kSize = 1024;

  AuxEchoLoad(Machine& machine, const ServiceDef& echo, int calls)
      : machine_(machine), echo_(echo), calls_(calls) {}

  void Start(int callers) {
    for (int i = 0; i < callers; ++i) {
      Call();
    }
  }

  int issued() const { return issued_; }
  int ok() const { return ok_; }
  int corrupted() const { return corrupted_; }

 private:
  void Call() {
    const int index = issued_++;
    std::vector<uint8_t> sent(kSize);
    for (size_t i = 0; i < kSize; ++i) {
      sent[i] = static_cast<uint8_t>(index * 31 + i * 7);
    }
    machine_.client().Call(echo_, 0, std::vector<WireValue>{WireValue::Bytes(sent)},
                           [this, sent](const RpcMessage& r, Duration) {
                             std::vector<WireValue> out;
                             if (r.status == RpcStatus::kOk &&
                                 UnmarshalArgs(MethodSignature{{WireType::kBytes}},
                                               r.payload, out)) {
                               ++(out[0].bytes == sent ? ok_ : corrupted_);
                             }
                             if (issued_ < calls_) {
                               Call();
                             }
                           });
  }

  Machine& machine_;
  const ServiceDef& echo_;
  const int calls_;
  int issued_ = 0;
  int ok_ = 0;
  int corrupted_ = 0;
};

TEST(LauberhornNicTest, BackToBackAuxEchoesReturnTheirOwnBytes) {
  // Both CONTROL parities share an endpoint's AUX lines: the NIC pulls one
  // response's AUX lines back while the next request's arguments go out
  // through the same lines. Four callers keep one hot endpoint's queue
  // non-empty, so every dispatch overlaps the previous response's
  // collection; each echo must still return exactly the bytes it sent.
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  ASSERT_EQ(machine.EndpointsOf(echo).size(), 1u);

  constexpr int kCalls = 400;
  AuxEchoLoad load(machine, echo, kCalls);
  load.Start(4);
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(load.issued(), kCalls);
  EXPECT_EQ(load.corrupted(), 0);
  EXPECT_EQ(load.ok(), kCalls);
  const LauberhornNic::Stats& stats = machine.lauberhorn_nic()->stats();
  EXPECT_EQ(stats.dma_fallback_rx, 0u);
  EXPECT_GE(stats.aux_holds, static_cast<uint64_t>(kCalls - 4));
}

TEST(LauberhornNicTest, CrashAnswersADispatchHeldForAuxLines) {
  // A held dispatch has taken its core's parked load. A NIC crash must
  // answer that load with TRYAGAIN, as it answers every parked load, or the
  // core would wait on it forever. Eight callers keep both of the service's
  // endpoints busy, so neither core is ever parked idle: a TRYAGAIN on one
  // of them at the crash instant answers a held dispatch. The crash lands
  // where the NIC next checks its health after the planned instant (an
  // arrival, or a poll on the other endpoint), so the test sweeps the
  // instant for some crashes to fall inside a hold. Without the crash
  // handling of held dispatches, no sweep step sees such a TRYAGAIN.
  int answered_at_crash = 0;
  for (int step = 0; step < 80; ++step) {
    MachineConfig config = Config();
    const SimTime planned = Milliseconds(1) + Microseconds(50) + step * Nanoseconds(250);
    config.faults.nic_crash.first_crash_at = planned;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000), /*max_cores=*/2);
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    AuxEchoLoad load(machine, echo, 1000);
    load.Start(8);
    machine.sim().RunUntil(planned + Microseconds(20));

    const LauberhornNic& nic = *machine.lauberhorn_nic();
    SimTime crash_at = -1;
    for (const TraceRing::Entry& entry : nic.trace().Snapshot()) {
      if (entry.event == TraceEvent::kNicCrash) {
        crash_at = entry.at;
      }
    }
    ASSERT_GE(crash_at, planned);
    ASSERT_GT(nic.stats().aux_holds, 0u);
    for (const uint32_t ep : machine.EndpointsOf(echo)) {
      for (const TraceRing::Entry& entry : nic.trace().ForEndpoint(ep)) {
        answered_at_crash += entry.event == TraceEvent::kTryAgain && entry.at == crash_at;
      }
    }
  }
  EXPECT_GT(answered_at_crash, 0);
}

TEST(LauberhornNicTest, LargePayloadTakesDmaFallback) {
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  const size_t size = 8000;  // > 4 KiB threshold (§6)
  std::vector<uint8_t> got;
  machine.client().Call(echo, 0, Payload(size, 0x11),
                        [&](const RpcMessage& r, Duration) {
                          std::vector<WireValue> out;
                          ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kBytes}},
                                                    r.payload, out));
                          got = out[0].bytes;
                        });
  machine.sim().RunUntil(Milliseconds(50));
  ASSERT_EQ(got.size(), size);
  EXPECT_EQ(got[0], 0x11);
  EXPECT_EQ(got[size - 1], 0x11);
  EXPECT_GE(machine.lauberhorn_nic()->stats().dma_fallback_rx, 1u);
  EXPECT_GE(machine.lauberhorn_nic()->stats().dma_fallback_tx, 1u);
}

TEST(LauberhornNicTest, PostedResponsesAreFasterAndCorrect) {
  auto run = [](bool posted) {
    MachineConfig config = Config();
    LauberhornParams params = config.platform.lauberhorn;
    params.posted_responses = posted;
    config.lauberhorn_params = params;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    std::vector<uint8_t> got;
    for (int i = 0; i < 10; ++i) {
      machine.sim().Schedule(Microseconds(50) * i, [&machine, &echo, &got]() {
        machine.client().Call(echo, 0, Payload(64, 0x3c),
                              [&got](const RpcMessage& r, Duration) {
                                std::vector<WireValue> out;
                                UnmarshalArgs(MethodSignature{{WireType::kBytes}},
                                              r.payload, out);
                                got = out[0].bytes;
                              });
      });
    }
    machine.sim().RunUntil(Milliseconds(50));
    EXPECT_EQ(got, std::vector<uint8_t>(64, 0x3c));
    return machine.end_system_latency().P50();
  };
  const Duration fetch_based = run(false);
  const Duration posted = run(true);
  EXPECT_LT(posted, fetch_based);
}

TEST(LauberhornNicTest, OverloadedEndpointSendsOverloadStatus) {
  MachineConfig config = Config();
  LauberhornParams params = config.platform.lauberhorn;
  params.endpoint_queue_depth = 4;  // tiny queue
  config.lauberhorn_params = params;
  Machine machine(config);
  const ServiceDef& slow = machine.AddService(
      ServiceRegistry::MakeEchoService(1, 7000, Milliseconds(5)));  // 5ms handler
  machine.Start();
  machine.StartHotLoop(slow);
  machine.sim().RunUntil(Milliseconds(1));

  int overloaded = 0;
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    machine.client().Call(slow, 0, Payload(16),
                          [&](const RpcMessage& r, Duration) {
                            if (r.status == RpcStatus::kOverloaded) {
                              ++overloaded;
                            } else if (r.status == RpcStatus::kOk) {
                              ++ok;
                            }
                          });
  }
  machine.sim().RunUntil(Milliseconds(200));
  EXPECT_GT(overloaded, 0) << "queue overflow must be signalled, not dropped";
  EXPECT_GT(ok, 0);
  EXPECT_EQ(machine.lauberhorn_nic()->stats().sheds.queue,
            static_cast<uint64_t>(overloaded));
}

TEST(LauberhornNicTest, SpilloverRecruitsSecondEndpoint) {
  MachineConfig config = Config(/*cores=*/4);
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(
      ServiceRegistry::MakeEchoService(1, 7000, Microseconds(50)), /*max_cores=*/2);
  machine.Start();
  machine.StartHotLoop(echo);  // starts both endpoints' loops if possible
  machine.sim().RunUntil(Milliseconds(1));

  // A burst deeper than the spillover threshold must engage both endpoints.
  for (int i = 0; i < 40; ++i) {
    machine.client().Call(echo, 0, Payload(16));
  }
  machine.sim().RunUntil(Milliseconds(50));
  const auto endpoints = machine.EndpointsOf(echo);
  int used = 0;
  for (uint32_t ep : endpoints) {
    const auto trace = machine.lauberhorn_nic()->trace().ForEndpoint(ep);
    for (const auto& entry : trace) {
      if (entry.event == TraceEvent::kDispatchHot ||
          entry.event == TraceEvent::kDispatchQueued ||
          entry.event == TraceEvent::kDispatchCold) {
        ++used;
        break;
      }
    }
  }
  EXPECT_EQ(used, 2) << "load must spill across the service's endpoints";
  EXPECT_EQ(machine.client().completed(), 40u);
}

TEST(LauberhornNicTest, TraceRecordsLifecycle) {
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  machine.client().Call(echo, 0, Payload(32));
  machine.sim().RunUntil(Milliseconds(10));

  const uint32_t ep = machine.EndpointsOf(echo)[0];
  const auto entries = machine.lauberhorn_nic()->trace().ForEndpoint(ep);
  // Expect: loop-enter, wire-rx, dispatch-hot, wire-tx in that order.
  std::vector<TraceEvent> kinds;
  for (const auto& entry : entries) {
    kinds.push_back(entry.event);
  }
  auto find = [&](TraceEvent event) {
    return std::find(kinds.begin(), kinds.end(), event);
  };
  ASSERT_NE(find(TraceEvent::kLoopEnter), kinds.end());
  ASSERT_NE(find(TraceEvent::kWireRx), kinds.end());
  ASSERT_NE(find(TraceEvent::kDispatchHot), kinds.end());
  ASSERT_NE(find(TraceEvent::kWireTx), kinds.end());
  EXPECT_LT(find(TraceEvent::kLoopEnter), find(TraceEvent::kDispatchHot));
  EXPECT_LT(find(TraceEvent::kWireRx), find(TraceEvent::kWireTx));
}

#ifndef NDEBUG
TEST(LauberhornNicDeathTest, RejectsMoreEndpointsThanATraceEntryNames) {
  // 4 kernel channels and 32 continuations: 65,500 service endpoints fill
  // the 16-bit endpoint space exactly, one more overflows it.
  MachineConfig config = Config();
  config.lauberhorn_endpoints = TraceRing::kMaxEndpoints - 4 - 32 + 1;
  EXPECT_DEATH(Machine{config}, "more endpoints than a trace entry can name");
}
#endif

TEST(LauberhornNicTest, ColdQueueDrainsThroughKernelChannels) {
  // Many services, none hot: everything must complete via kernel channels.
  MachineConfig config = Config(/*cores=*/4);
  config.lauberhorn_endpoints = 40;
  Machine machine(config);
  std::vector<const ServiceDef*> services;
  for (int i = 0; i < 20; ++i) {
    services.push_back(&machine.AddService(ServiceRegistry::MakeEchoService(
        static_cast<uint32_t>(i + 1), static_cast<uint16_t>(7000 + i))));
  }
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    machine.client().Call(*services[static_cast<size_t>(i)], 0, Payload(16),
                          [&](const RpcMessage& r, Duration) {
                            EXPECT_EQ(r.status, RpcStatus::kOk);
                            ++done;
                          });
  }
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(done, 20);
  EXPECT_GE(machine.lauberhorn_nic()->stats().cold_dispatches, 20u);
}

TEST(LauberhornNicTest, MultiServiceIsolation) {
  // Two services; payloads must never cross endpoints.
  Machine machine(Config());
  const ServiceDef& a = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  const ServiceDef& b = machine.AddService(ServiceRegistry::MakeEchoService(2, 7001));
  machine.Start();
  machine.StartHotLoop(a);
  machine.StartHotLoop(b);
  machine.sim().RunUntil(Milliseconds(1));

  int checked = 0;
  for (int i = 0; i < 20; ++i) {
    const bool to_a = i % 2 == 0;
    const uint8_t fill = to_a ? 0xaa : 0xbb;
    machine.client().Call(to_a ? a : b, 0, Payload(100, fill),
                          [&, fill](const RpcMessage& r, Duration) {
                            std::vector<WireValue> out;
                            ASSERT_TRUE(UnmarshalArgs(
                                MethodSignature{{WireType::kBytes}}, r.payload, out));
                            for (uint8_t byte : out[0].bytes) {
                              ASSERT_EQ(byte, fill);
                            }
                            ++checked;
                          });
  }
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(checked, 20);
}

TEST(LauberhornNicTest, UnknownMethodRejectedByNic) {
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  // method 9 does not exist: the NIC's demux/unmarshal stage drops it.
  machine.client().CallRaw(7000, 1, /*method=*/9, std::vector<uint8_t>{});
  machine.sim().RunUntil(Milliseconds(10));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().drops_no_endpoint, 1u);
  EXPECT_EQ(machine.client().completed(), 0u);
}

TEST(LauberhornNicTest, MalformedArgsRejectedByAccelerator) {
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  // kBytes arg claims 100 bytes but provides 2: NIC-side validation drops it.
  std::vector<uint8_t> bad;
  PutU32Le(bad, 100);
  bad.push_back(1);
  bad.push_back(2);
  machine.client().CallRaw(7000, 1, 0, std::move(bad));
  machine.sim().RunUntil(Milliseconds(10));
  EXPECT_EQ(machine.lauberhorn_nic()->stats().drops_bad_args, 1u);
}


TEST(LauberhornNicTest, KernelPushesPlacementToNic) {
  // §5.2: "the kernel keep[s] the NIC updated with the current OS scheduling
  // state" — the placement listener mirrors which core runs the loop thread.
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  const uint32_t ep = machine.EndpointsOf(echo)[0];
  ASSERT_TRUE(machine.lauberhorn_nic()->EndpointActive(ep));
  const int core = machine.lauberhorn_nic()->EndpointCore(ep);
  EXPECT_GE(core, 0);
  EXPECT_LT(core, 4);
  // The reported core is genuinely parked on a blocking load.
  EXPECT_TRUE(machine.kernel().core(static_cast<size_t>(core)).blocked_on_load());
}


TEST(LauberhornNicTest, PreemptionDanceIpiThenRetire) {
  // §5.1: "the OS (or the NIC) can send an IPI to the process' core, and
  // then Lauberhorn can send the process a TRYAGAIN message, unblocking it
  // and causing [it] to immediately enter the kernel." We drive the full
  // dance: IPI lands while the core is stalled on the control line, the
  // RETIRE fill unblocks it, the pending IPI is taken first, and the loop
  // thread returns to the scheduler.
  Machine machine(Config());
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  const uint32_t ep = machine.EndpointsOf(echo)[0];
  const int core_index = machine.lauberhorn_nic()->EndpointCore(ep);
  ASSERT_GE(core_index, 0);
  Core& core = machine.kernel().core(static_cast<size_t>(core_index));
  ASSERT_TRUE(core.blocked_on_load());

  // Kernel sends the IPI; the stalled core cannot take it yet.
  SimTime ipi_at = 0;
  machine.kernel().SendIpi(static_cast<size_t>(core_index),
                           [&]() { ipi_at = machine.sim().Now(); });
  machine.sim().RunUntil(machine.sim().Now() + Microseconds(50));
  EXPECT_EQ(ipi_at, 0) << "IRQ must be pended while the load is stalled";
  EXPECT_TRUE(core.blocked_on_load());

  // The NIC answers the held load with RETIRE: the core unblocks, takes the
  // queued IPI, and the loop exits.
  machine.lauberhorn_runtime()->Deschedule(ep);
  machine.sim().RunUntil(machine.sim().Now() + Microseconds(100));
  EXPECT_GT(ipi_at, 0);
  EXPECT_FALSE(core.blocked_on_load());
  EXPECT_EQ(machine.lauberhorn_runtime()->stats().loops_exited, 1u);
  EXPECT_EQ(machine.lauberhorn_nic()->stats().retires, 1u);
}

}  // namespace
}  // namespace lauberhorn

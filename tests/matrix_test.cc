// Cross-product property tests: every stack × payload size must deliver
// byte-exact echoes; random bytes must never crash the line codecs; long
// handlers must not starve kernel work.
#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/nic/dispatch_line.h"
#include "src/sim/random.h"

namespace lauberhorn {
namespace {

// --- stack × payload echo matrix ------------------------------------------------

using MatrixParam = std::tuple<StackKind, size_t>;

class EchoMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(EchoMatrixTest, ByteExactEcho) {
  const auto [stack, payload] = GetParam();
  MachineConfig config;
  config.stack = stack;
  config.num_cores = 4;
  config.nic_queues = 2;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  if (stack == StackKind::kLauberhorn) {
    machine.StartHotLoop(echo);
  }
  machine.sim().RunUntil(Milliseconds(1));

  Rng rng(payload * 7 + static_cast<uint64_t>(stack));
  std::vector<uint8_t> body(payload);
  for (auto& b : body) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> got;
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes(body)},
                        [&](const RpcMessage& r, Duration) {
                          ASSERT_EQ(r.status, RpcStatus::kOk);
                          std::vector<WireValue> out;
                          ASSERT_TRUE(UnmarshalArgs(MethodSignature{{WireType::kBytes}},
                                                    r.payload, out));
                          got = std::move(out[0].bytes);
                        });
  machine.sim().RunUntil(Milliseconds(200));
  EXPECT_EQ(got, body);
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  return ToString(std::get<0>(info.param)) + "_" +
         std::to_string(std::get<1>(info.param)) + "B";
}

INSTANTIATE_TEST_SUITE_P(
    AllStacksAllSizes, EchoMatrixTest,
    ::testing::Combine(::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                         StackKind::kLauberhorn),
                       ::testing::Values(size_t{1}, size_t{64}, size_t{400},
                                         size_t{1400}, size_t{6000})),
    MatrixName);

// --- a handler result off its response signature -------------------------------

// A handler that returns a U64 where response_sig says kBytes is answered
// kInternal with an empty payload on every stack, not kOk.
class ResponseSigMismatchTest : public ::testing::TestWithParam<StackKind> {};

TEST_P(ResponseSigMismatchTest, OffSignatureResultIsInternal) {
  MachineConfig config;
  config.stack = GetParam();
  config.num_cores = 4;
  config.nic_queues = 2;
  Machine machine(config);
  ServiceDef def = ServiceRegistry::MakeEchoService(1, 7000);
  int runs = 0;
  def.methods[0].handler = [&runs](const std::vector<WireValue>&) {
    ++runs;
    return std::vector<WireValue>{WireValue::U64(7)};
  };
  const ServiceDef& service = machine.AddService(std::move(def));
  machine.Start();
  if (GetParam() == StackKind::kLauberhorn) {
    machine.StartHotLoop(service);
  }
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<RpcMessage> responses;
  for (uint8_t i = 0; i < 3; ++i) {
    machine.client().Call(service, 0,
                          std::vector<WireValue>{WireValue::Bytes({i, i})},
                          [&](const RpcMessage& r, Duration) { responses.push_back(r); });
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(20));
  }
  ASSERT_EQ(responses.size(), 3u);
  for (const RpcMessage& r : responses) {
    EXPECT_EQ(r.status, RpcStatus::kInternal);
    EXPECT_TRUE(r.payload.empty());
  }
  EXPECT_EQ(runs, 3);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, ResponseSigMismatchTest,
                         ::testing::Values(StackKind::kLinux, StackKind::kBypass,
                                           StackKind::kLauberhorn),
                         [](const auto& info) { return ToString(info.param); });

// --- codec fuzz -------------------------------------------------------------------

TEST(DispatchLineFuzzTest, RandomBytesNeverCrashDecode) {
  Rng rng(404);
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint8_t> line(rng.UniformInt(0, 256));
    for (auto& b : line) {
      b = static_cast<uint8_t>(rng.Next());
    }
    // Must not crash or overrun; result validity is irrelevant.
    auto d = DispatchLine::Decode(line);
    auto r = ResponseLine::Decode(line);
    if (d.has_value()) {
      EXPECT_LE(d->inline_args.size(), line.size());
    }
    if (r.has_value()) {
      EXPECT_LE(r->inline_payload.size(), line.size());
    }
  }
}

TEST(DispatchLineFuzzTest, StructuredRandomRoundTrip) {
  Rng rng(505);
  for (int i = 0; i < 1000; ++i) {
    DispatchLine line;
    line.kind = LineKind::kRpcDispatch;
    line.aux_lines = static_cast<uint8_t>(rng.UniformInt(0, 255));
    line.method_id = static_cast<uint16_t>(rng.Next());
    line.service_id = static_cast<uint32_t>(rng.Next());
    line.request_id = rng.Next();
    line.code_ptr = rng.Next();
    line.data_ptr = rng.Next();
    line.endpoint_id = static_cast<uint16_t>(rng.Next());
    line.pid = static_cast<uint32_t>(rng.Next());
    const size_t inline_bytes = rng.UniformInt(0, DispatchLine::InlineCapacity(128));
    line.inline_args.resize(inline_bytes);
    for (auto& b : line.inline_args) {
      b = static_cast<uint8_t>(rng.Next());
    }
    line.arg_len = static_cast<uint32_t>(inline_bytes);
    const auto decoded = DispatchLine::Decode(line.Encode(128));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->request_id, line.request_id);
    EXPECT_EQ(decoded->code_ptr, line.code_ptr);
    EXPECT_EQ(decoded->inline_args, line.inline_args);
  }
}

// --- long handlers vs kernel work --------------------------------------------------

TEST(FairnessTest, LongHandlerDoesNotStarveKernelThreads) {
  // A 10 ms handler monopolizes a core; kernel-priority work must still run
  // within a quantum (50 us), via the preemption machinery.
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 2;  // tight: handler + reserve
  Machine machine(config);
  const ServiceDef& slow = machine.AddService(
      ServiceRegistry::MakeEchoService(1, 7000, Milliseconds(10)));
  machine.Start();
  machine.StartHotLoop(slow);
  machine.sim().RunUntil(Milliseconds(1));

  machine.client().Call(slow, 0, std::vector<WireValue>{WireValue::Bytes({1})});
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(2));  // handler running

  // Kernel work arrives mid-handler.
  Thread* kthread = machine.kernel().AddThread(machine.kernel().kernel_process(),
                                               "urgent", /*kernel_priority=*/true);
  SimTime ran_at = 0;
  const SimTime posted_at = machine.sim().Now();
  kthread->PushWork([&](Core& core) {
    core.Run(Microseconds(5), CoreMode::kKernel, [&core, &ran_at, &machine]() {
      ran_at = machine.sim().Now();
      machine.kernel().scheduler().OnWorkDone(core);
    });
  });
  machine.kernel().scheduler().Wake(kthread);
  machine.sim().RunUntil(machine.sim().Now() + Milliseconds(20));
  ASSERT_GT(ran_at, 0);
  EXPECT_LT(ran_at - posted_at, Milliseconds(1))
      << "kernel work waited for the whole handler";
  // The preempted handler still completes and the RPC succeeds.
  EXPECT_EQ(machine.client().completed(), 1u);
}

}  // namespace
}  // namespace lauberhorn

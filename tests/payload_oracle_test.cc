// Cross-stack payload oracle: the same seeded calls run on Linux, bypass and
// Lauberhorn, and every call must get byte-identical response bytes on all
// three. The three stacks are independent implementations of one service
// contract (differential testing, McKeeman 1998); only timing may differ.
//
// Each call has its own marshalled request and response size. The sizes sit
// on both sides of every threshold of the Lauberhorn paths: the inline bytes
// of a dispatch line (84 B) and a response line (108 B), the 30 AUX lines
// (3,924 B of request, 3,948 B of response) and the 4 KiB DMA fallback. The
// cells vary the callers, the endpoints of the service, hot or cold
// dispatch, and a nested call, so consecutive requests on one endpoint
// overlap the collection of the previous response.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "src/core/machine.h"
#include "src/sim/random.h"
#include "tests/payload_calls.h"

namespace lauberhorn {
namespace {

constexpr size_t kRequestSizes[] = {16, 84, 85, 1024, 3924, 3925, 4096, 4097, 8000};
constexpr size_t kResponseSizes[] = {16, 108, 109, 1024, 3948, 3949, 4096, 4097, 8000};
// A nested reply reaches its continuation endpoint as a dispatch line plus
// its AUX lines, so it is at most 3,924 B.
constexpr size_t kNestedResponseSizes[] = {16, 84, 85, 108, 109, 1024, 3924};

struct OracleCell {
  const char* name;
  int callers;
  int endpoints;  // Lauberhorn endpoints of the service; other stacks ignore it
  bool hot;       // Lauberhorn: a core parks in the service's loop first
  bool nested;    // the service answers through a nested call
  std::optional<CallSize> fixed;  // every call this size; else the seeded mix
};

void PrintTo(const OracleCell& cell, std::ostream* os) { *os << cell.name; }

constexpr int kCalls = 200;

std::vector<CallSize> CellSizes(const OracleCell& cell) {
  if (cell.fixed.has_value()) {
    return std::vector<CallSize>(kCalls, *cell.fixed);
  }
  const std::span<const size_t> responses =
      cell.nested ? std::span<const size_t>(kNestedResponseSizes)
                  : std::span<const size_t>(kResponseSizes);
  uint64_t seed = 14695981039346656037ULL;  // FNV-1a of the cell's name
  for (const char* c = cell.name; *c != '\0'; ++c) {
    seed = (seed ^ static_cast<uint8_t>(*c)) * 1099511628211ULL;
  }
  Rng rng(seed);
  std::vector<CallSize> sizes(kCalls);
  for (CallSize& size : sizes) {
    size.request = kRequestSizes[rng.UniformInt(0, std::size(kRequestSizes) - 1)];
    size.response = responses[rng.UniformInt(0, responses.size() - 1)];
  }
  return sizes;
}

// The frontend's answer is the backend's, every byte inverted. On Lauberhorn
// it calls the backend through a continuation endpoint; Linux and bypass
// have no nested calls and compute the same bytes in the handler.
ServiceDef MakeNestedFrontend() {
  ServiceDef def = MakeShapeService(1, 7000);
  MethodDef& method = def.methods[0];
  const auto invert = [](std::vector<uint8_t> bytes) {
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(~b);
    }
    return std::vector<WireValue>{WireValue::Bytes(std::move(bytes))};
  };
  method.handler = [invert](const std::vector<WireValue>& args) {
    return invert(ShapeBytes(static_cast<uint32_t>(args.at(0).scalar), args.at(1).bytes));
  };
  method.nested_call = [](const std::vector<WireValue>& args) {
    MethodDef::NestedCall call;
    call.dst_port = 7100;
    call.service_id = 2;
    call.args = args;
    call.request_sig = MakeShapeMethod().request_sig;
    call.response_sig = MakeShapeMethod().response_sig;
    return call;
  };
  method.nested_finish = [invert](const std::vector<WireValue>&,
                                  const std::vector<WireValue>& reply) {
    return invert(reply.at(0).bytes);
  };
  return def;
}

struct StackRun {
  std::vector<std::optional<std::vector<uint8_t>>> responses;
  LauberhornNic::Stats nic;  // Lauberhorn only
};

StackRun RunCell(StackKind stack, const OracleCell& cell, const std::vector<CallSize>& sizes) {
  MachineConfig config;
  config.stack = stack;
  config.num_cores = 4;
  Machine machine(config);
  const ServiceDef& service = machine.AddService(
      cell.nested ? MakeNestedFrontend() : MakeShapeService(1, 7000), cell.endpoints);
  const ServiceDef* backend =
      cell.nested ? &machine.AddService(MakeShapeService(2, 7100)) : nullptr;
  machine.Start();
  if (stack == StackKind::kLauberhorn && cell.hot) {
    machine.StartHotLoop(service);
    if (backend != nullptr) {
      machine.StartHotLoop(*backend);
    }
  }
  machine.sim().RunUntil(Milliseconds(1));
  ClosedLoopCalls calls(machine, service, sizes);
  calls.Start(cell.callers);
  while (!calls.done() && machine.sim().Now() < Seconds(1)) {
    machine.sim().RunUntil(machine.sim().Now() + Milliseconds(10));
  }
  StackRun run{calls.responses(), {}};
  if (stack == StackKind::kLauberhorn) {
    run.nic = machine.lauberhorn_nic()->stats();
  }
  return run;
}

class PayloadOracleTest : public ::testing::TestWithParam<OracleCell> {};

TEST_P(PayloadOracleTest, EveryStackReturnsTheSameBytes) {
  const OracleCell& cell = GetParam();
  const std::vector<CallSize> sizes = CellSizes(cell);
  for (size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_EQ(MakeShapeMethod().request_sig.EncodedSize(ShapeArgs(sizes[i], i)),
              sizes[i].request);
  }
  const StackRun linux_run = RunCell(StackKind::kLinux, cell, sizes);
  for (size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_TRUE(linux_run.responses[i].has_value()) << "linux call " << i;
    ASSERT_EQ(linux_run.responses[i]->size(), sizes[i].response) << "linux call " << i;
  }
  for (const StackKind stack : {StackKind::kBypass, StackKind::kLauberhorn}) {
    const StackRun run = RunCell(stack, cell, sizes);
    int wrong = 0;
    int first_wrong = -1;
    for (size_t i = 0; i < sizes.size(); ++i) {
      if (run.responses[i] != linux_run.responses[i]) {
        first_wrong = first_wrong < 0 ? static_cast<int>(i) : first_wrong;
        ++wrong;
      }
    }
    EXPECT_EQ(wrong, 0) << ToString(stack) << ": " << wrong << " of " << sizes.size()
                        << " calls differ from linux; the first is call " << first_wrong
                        << " (" << sizes[std::max(first_wrong, 0)].request << " B -> "
                        << sizes[std::max(first_wrong, 0)].response << " B)";
    if (stack == StackKind::kLauberhorn) {
      // The cell reached the path it is about.
      EXPECT_GT(cell.hot ? run.nic.hot_dispatches : run.nic.cold_dispatches, 0u);
      if (std::any_of(sizes.begin(), sizes.end(),
                      [](const CallSize& size) { return size.response > 3948; })) {
        EXPECT_GT(run.nic.dma_fallback_tx, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PayloadOracleTest,
    ::testing::Values(
        OracleCell{"hot_1caller", 1, 1, true, false, std::nullopt},
        OracleCell{"hot_2callers", 2, 1, true, false, std::nullopt},
        OracleCell{"hot_8callers", 8, 1, true, false, std::nullopt},
        OracleCell{"hot_2callers_2endpoints", 2, 2, true, false, std::nullopt},
        OracleCell{"hot_8callers_2endpoints", 8, 2, true, false, std::nullopt},
        OracleCell{"cold_8callers_2endpoints", 8, 2, false, false, std::nullopt},
        OracleCell{"nested_2callers", 2, 1, true, true, std::nullopt},
        // Every response takes the DMA fallback: a missing wait for the
        // previous response's DMA read shows here first.
        OracleCell{"hot_8callers_16B_to_8000B", 8, 1, true, false, CallSize{16, 8000}},
        // 1 KiB echoes back to back: each response's AUX lines are still
        // being collected when the next request's arguments go out.
        OracleCell{"hot_4callers_1KiB_to_1KiB", 4, 1, true, false, CallSize{1032, 1028}}),
    [](const ::testing::TestParamInfo<OracleCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace lauberhorn

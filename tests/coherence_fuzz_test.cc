// Property/fuzz tests for the coherence substrate: random sequences of
// loads, stores, flushes, and non-caching loads from several agents are
// checked against a sequential reference model, and protocol invariants
// (single writer, directory consistency) are asserted throughout.
#include <gtest/gtest.h>

#include <map>

#include "src/coherence/cache_agent.h"
#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace lauberhorn {
namespace {

// Reference model: per-line "last completed store wins". Because each test
// serializes operations (next op issues only after the previous completed),
// the sequential reference is exact.
class CoherenceFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoherenceFuzzTest, SerializedRandomOpsMatchReferenceModel) {
  Simulator sim;
  CoherenceConfig config;
  config.line_size = 64;
  CoherentInterconnect interconnect(sim, config);
  MemoryHomeAgent memory(sim, interconnect, 0, 1 << 20);

  constexpr int kAgents = 3;
  std::vector<std::unique_ptr<CacheAgent>> agents;
  for (int i = 0; i < kAgents; ++i) {
    agents.push_back(std::make_unique<CacheAgent>(interconnect));
  }

  Rng rng(GetParam());
  constexpr int kLines = 8;
  std::map<uint64_t, uint8_t> reference;  // byte address -> value

  for (int op = 0; op < 400; ++op) {
    CacheAgent& agent = *agents[rng.UniformInt(0, kAgents - 1)];
    const uint64_t line = rng.UniformInt(0, kLines - 1) * config.line_size;
    const uint64_t offset = rng.UniformInt(0, config.line_size - 4);
    const uint64_t addr = line + offset;
    const int kind = static_cast<int>(rng.UniformInt(0, 3));

    switch (kind) {
      case 0: {  // store
        const auto value = static_cast<uint8_t>(rng.Next());
        agent.Store(addr, std::vector<uint8_t>{value, value, value});
        sim.RunUntilIdle();
        for (uint64_t i = 0; i < 3; ++i) {
          reference[addr + i] = value;
        }
        break;
      }
      case 1: {  // cached load
        std::vector<uint8_t> got;
        agent.Load(addr, 3, [&](std::span<const uint8_t> d) { got.assign(d.begin(), d.end()); });
        sim.RunUntilIdle();
        ASSERT_EQ(got.size(), 3u);
        for (uint64_t i = 0; i < 3; ++i) {
          const auto it = reference.find(addr + i);
          const uint8_t expected = it != reference.end() ? it->second : 0;
          ASSERT_EQ(got[i], expected)
              << "op " << op << " addr " << addr + i << " (cached load)";
        }
        break;
      }
      case 2: {  // non-caching load
        std::vector<uint8_t> got;
        agent.LoadThrough(addr, 3,
                          [&](std::span<const uint8_t> d) { got.assign(d.begin(), d.end()); });
        sim.RunUntilIdle();
        ASSERT_EQ(got.size(), 3u);
        for (uint64_t i = 0; i < 3; ++i) {
          const auto it = reference.find(addr + i);
          const uint8_t expected = it != reference.end() ? it->second : 0;
          ASSERT_EQ(got[i], expected)
              << "op " << op << " addr " << addr + i << " (load-through)";
        }
        break;
      }
      case 3: {  // flush (writeback + drop)
        agent.Flush(line);
        sim.RunUntilIdle();
        break;
      }
    }

    // Invariant: at most one owner per line, and an owner excludes sharers.
    for (int l = 0; l < kLines; ++l) {
      const LineAddr line_addr = static_cast<LineAddr>(l) * config.line_size;
      const AgentId owner = interconnect.OwnerOf(line_addr);
      const auto sharers = interconnect.SharersOf(line_addr);
      if (owner != kNoAgent) {
        ASSERT_TRUE(sharers.empty())
            << "line " << l << " has both an owner and sharers";
      }
      // Agents' local state must agree with the directory.
      int modified_holders = 0;
      for (const auto& a : agents) {
        if (a->StateOf(line_addr) == LineState::kModified) {
          ++modified_holders;
          ASSERT_EQ(owner, a->id()) << "directory disagrees with cache state";
        }
      }
      ASSERT_LE(modified_holders, 1) << "two agents hold line " << l << " modified";
    }
  }
  EXPECT_EQ(interconnect.stats().bus_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Concurrent (unserialized) traffic: many operations in flight at once must
// still terminate, never deadlock, never corrupt conservation of "some value
// that was written" (weaker check: final memory state equals SOME valid
// store for every touched byte).
class CoherenceConcurrentTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoherenceConcurrentTest, ConcurrentTrafficTerminatesWithoutBusErrors) {
  Simulator sim;
  CoherenceConfig config;
  config.line_size = 64;
  CoherentInterconnect interconnect(sim, config);
  MemoryHomeAgent memory(sim, interconnect, 0, 1 << 20);

  constexpr int kAgents = 4;
  std::vector<std::unique_ptr<CacheAgent>> agents;
  for (int i = 0; i < kAgents; ++i) {
    agents.push_back(std::make_unique<CacheAgent>(interconnect));
  }

  Rng rng(GetParam());
  int completions = 0;
  int issued = 0;
  std::map<uint64_t, std::set<uint8_t>> written;  // line -> values ever stored

  for (int op = 0; op < 300; ++op) {
    CacheAgent& agent = *agents[rng.UniformInt(0, kAgents - 1)];
    const uint64_t line = rng.UniformInt(0, 3) * config.line_size;
    if (rng.Bernoulli(0.5)) {
      const auto value = static_cast<uint8_t>(rng.UniformInt(1, 255));
      written[line].insert(value);
      ++issued;
      agent.Store(line, std::vector<uint8_t>{value}, [&] { ++completions; });
    } else {
      ++issued;
      agent.Load(line, 1, [&](std::span<const uint8_t>) { ++completions; });
    }
    // Occasionally let some traffic drain, otherwise pile it up.
    if (rng.Bernoulli(0.2)) {
      sim.RunUntil(sim.Now() + Nanoseconds(50));
    }
  }
  sim.RunUntilIdle();
  EXPECT_EQ(completions, issued) << "an operation never completed (deadlock)";
  EXPECT_EQ(interconnect.stats().bus_errors, 0u);

  // Every line's final content must be one of the values actually written.
  for (auto& [line, values] : written) {
    for (auto& agent : agents) {
      agent->Flush(line);
    }
    sim.RunUntilIdle();
    const uint8_t final_value = memory.ReadBytes(line, 1)[0];
    EXPECT_TRUE(values.count(final_value) != 0 || final_value == 0)
        << "line " << line << " holds a value nobody wrote: "
        << static_cast<int>(final_value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceConcurrentTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace lauberhorn

// The steady-state CONTROL-line cycle allocates nothing. This binary replaces
// the global operator new with a counting one, so it is kept apart from
// lbh_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "tests/control_line_cycle.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept { std::free(block); }
void operator delete[](void* block, const std::nothrow_t&) noexcept { std::free(block); }

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

}  // namespace
}  // namespace lauberhorn

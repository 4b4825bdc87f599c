#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lauberhorn {

namespace {
// 4-ary heap: shallower than binary (log4 vs log2 levels) and the four
// children are adjacent in the entry array, so a sift-down level costs one
// or two cache lines instead of four scattered reads — the win over arity 2
// on sift-down-heavy workloads.
constexpr size_t kArity = 4;

constexpr size_t Parent(size_t pos) { return (pos - 1) / kArity; }
constexpr size_t FirstChild(size_t pos) { return kArity * pos + 1; }
}  // namespace

EventId Simulator::Schedule(Duration delay, Callback fn) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) {
    when = now_;
  }
  uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);

  heap_.push_back(HeapEntry{when, next_seq_++, index});
  slot.heap_index = static_cast<int32_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
  CheckInvariants();
  return (static_cast<EventId>(slot.generation) << 32) | index;
}

bool Simulator::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id);
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (generation == 0 || index >= slots_.size()) {
    return false;
  }
  Slot& slot = slots_[index];
  if (slot.generation != generation || slot.heap_index < 0) {
    return false;  // already fired, already cancelled, or a stale handle
  }
  HeapRemoveAt(static_cast<size_t>(slot.heap_index));
  slot.fn.Reset();
  FreeSlot(index);
  CheckInvariants();
  return true;
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  const uint32_t index = heap_[0].slot;
  Slot& slot = slots_[index];
  now_ = heap_[0].when;
  // Move the callback out before running it: the callback may schedule new
  // events, which can grow the slab and recycle this very slot.
  Callback fn = std::move(slot.fn);
  HeapRemoveAt(0);
  FreeSlot(index);
  ++events_executed_;
  fn();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_[0].when <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

void Simulator::SiftUp(size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const size_t parent = Parent(pos);
    if (!Before(moving, heap_[parent])) {
      break;
    }
    HeapPlace(pos, heap_[parent]);
    pos = parent;
  }
  HeapPlace(pos, moving);
}

void Simulator::SiftDown(size_t pos) {
  const HeapEntry moving = heap_[pos];
  const size_t size = heap_.size();
  while (true) {
    const size_t first = FirstChild(pos);
    if (first >= size) {
      break;
    }
    const size_t last = std::min(first + kArity, size);
    size_t best = first;
    for (size_t child = first + 1; child < last; ++child) {
      if (Before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    HeapPlace(pos, heap_[best]);
    pos = best;
  }
  HeapPlace(pos, moving);
}

void Simulator::HeapRemoveAt(size_t pos) {
  slots_[heap_[pos].slot].heap_index = -1;
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // removed the last element
  }
  HeapPlace(pos, tail);
  // The tail element may belong either above or below the hole.
  if (pos > 0 && Before(tail, heap_[Parent(pos)])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void Simulator::FreeSlot(uint32_t index) {
  Slot& slot = slots_[index];
  assert(slot.heap_index == -1);
  if (++slot.generation == 0) {
    slot.generation = 1;  // keep live ids nonzero after 2^32 reuses
  }
  free_.push_back(index);
}

void Simulator::CheckInvariants() const {
  // Every slot is either in the heap or on the free list; pending_events()
  // and the queue's physical size cannot diverge (the old lazy-deletion
  // engine's failure mode under Cancel() churn).
  assert(heap_.size() + free_.size() == slots_.size());
}

}  // namespace lauberhorn

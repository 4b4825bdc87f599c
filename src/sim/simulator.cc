#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace lauberhorn {

namespace {
// 4-ary heap: shallower than binary (log4 vs log2 levels) and the four
// children are adjacent in the entry array, so a sift-down level reads one
// 64-byte cache line of 16-byte entries — the win over arity 2 on
// sift-down-heavy workloads.
constexpr size_t kArity = 4;

constexpr size_t Parent(size_t pos) { return (pos - 1) / kArity; }
constexpr size_t FirstChild(size_t pos) { return kArity * pos + 1; }

// The order key has no room left: stop rather than wrap into a wrong order.
[[noreturn, gnu::cold]] void LimitReached(const char* what) {
  std::fprintf(stderr, "Simulator: %s; the event order key cannot represent more\n", what);
  std::abort();
}
}  // namespace

uint32_t Simulator::AcquireSlot() {
  if (!free_.empty()) {
    const uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  if (slot_count_ == kMaxSlots) {
    LimitReached("2^24 event slots are in use");
  }
  if ((slot_count_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kSlabChunkSlots));
  }
  return slot_count_++;
}

EventId Simulator::Enqueue(SimTime when, uint32_t index) {
  if (when < now_) {
    when = now_;
  }
  if (next_seq_ == kMaxSeq) {
    LimitReached("2^40 events have been scheduled");
  }
  const HeapEntry entry{when, next_seq_++ << kSlotBits | index};
  if (root_dead_) {
    // The running event's dead root is the heap minimum; the new entry takes
    // its place and sinks, instead of a removal plus an insertion.
    root_dead_ = false;
    SiftDown(0, entry);
  } else {
    heap_.emplace_back();
    SiftUp(heap_.size() - 1, entry);
  }
  CheckInvariants();
  return (static_cast<EventId>(SlotAt(index).generation) << 32) | index;
}

bool Simulator::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id);
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (generation == 0 || index >= slot_count_) {
    return false;
  }
  Slot& slot = SlotAt(index);
  if (slot.generation != generation || slot.heap_index < 0) {
    return false;  // fired, running, cancelled, or a stale handle
  }
  HeapRemoveAt(static_cast<size_t>(slot.heap_index));
  slot.fn.Reset();
  FreeSlot(index);
  CheckInvariants();
  return true;
}

bool Simulator::Step() {
  assert(!running_ && "Step/RunUntil called from inside an event callback");
  if (heap_.empty()) {
    return false;
  }
  const uint32_t index = heap_[0].slot();
  Slot& slot = SlotAt(index);
  now_ = heap_[0].when;
  // The callback runs in its slot (chunks never move) while its root entry
  // stays in the heap, dead: it is still the minimum, so schedules and
  // cancels from inside the callback see a valid heap.
  slot.heap_index = -1;
  root_dead_ = true;
  running_ = true;
  ++events_executed_;
  slot.fn();
  slot.fn.Reset();
  running_ = false;
  if (root_dead_) {
    root_dead_ = false;
    HeapRemoveAt(0);
  }
  FreeSlot(index);
  CheckInvariants();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  assert(!running_ && "Step/RunUntil called from inside an event callback");
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

void Simulator::SiftUp(size_t pos, HeapEntry moving) {
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

void Simulator::SiftDown(size_t pos, HeapEntry moving) {
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
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // removed the last element
  }
  // The tail element may belong either above or below the hole.
  if (pos > 0 && Before(tail, heap_[Parent(pos)])) {
    SiftUp(pos, tail);
  } else {
    SiftDown(pos, tail);
  }
}

void Simulator::FreeSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.heap_index = -1;
  if (++slot.generation == 0) {
    slot.generation = 1;  // keep live ids nonzero after 2^32 reuses
  }
  free_.push_back(index);
}

}  // namespace lauberhorn

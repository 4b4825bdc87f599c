// The discrete-event simulation core.
//
// A Simulator owns a time-ordered queue of events. Components schedule
// callbacks at future simulated times; Run() drains the queue in timestamp
// order (ties broken by scheduling order, which makes runs fully
// deterministic). Everything else in this repository — the coherence fabric,
// PCIe, the OS, the NIC models — is built on this single clock.
//
// Internals (DESIGN.md "Simulator internals"): event callbacks live in a
// slab of recycled slots; a 4-ary min-heap of (timestamp, sequence, slot)
// entries orders them, ties broken by schedule sequence, with each slot
// tracking its heap position intrusively. EventId handles are generation-tagged
// (slot index in the low 32 bits, slot generation in the high 32), so
// Cancel() is an O(1) liveness check plus an O(log4 n) heap removal — no
// hash set, and no cancelled entries lingering in the queue. Callbacks are
// small-buffer-optimized Function objects (src/sim/callback.h) constructed
// in place in their slab slot; captures up to 64 bytes live inline in the
// slot, larger ones in a recycled spill block, so schedule→fire does not
// reach malloc once the slab and the spill free lists are warm.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/time.h"

namespace lauberhorn {

// Identifies a scheduled event so it can be cancelled. The low 32 bits are a
// slot index into the simulator's event slab; the high 32 bits are the slot's
// generation at scheduling time (never 0 for a live id). A handle goes stale
// the moment its event fires or is cancelled, and is never reissued for a
// different event: slot reuse bumps the generation. Treat ids as opaque.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Negative delays are clamped to 0
  // (the event still runs strictly after the current event completes).
  // `fn` is any nullary callable, or an rvalue Callback; it is constructed
  // straight into its event slot.
  template <typename F>
  EventId Schedule(Duration delay, F&& fn) {
    if (delay < 0) {
      delay = 0;
    }
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at an absolute simulated time (>= Now()).
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    const uint32_t index = AcquireSlot();
    slots_[index].fn.Emplace(std::forward<F>(fn));
    return Enqueue(when, index);
  }

  // Cancels a pending event. Returns true if the event existed and had not
  // yet fired. Cancelling an already-fired or invalid id is a no-op.
  bool Cancel(EventId id);

  // Runs a single event. Returns false if the queue is empty.
  bool Step();

  // Runs events until the queue is empty or `deadline` is passed. Time
  // advances to `deadline` if the queue empties earlier than that.
  void RunUntil(SimTime deadline);

  // Runs until no events remain.
  void RunUntilIdle();

  // Number of events executed so far (for determinism checks and stats).
  uint64_t events_executed() const { return events_executed_; }

  // Number of events scheduled but not yet fired or cancelled. Exactly the
  // heap size: cancellation removes the entry immediately, so — unlike a
  // lazy-deletion queue — pending_events() and the queue's physical size
  // cannot drift apart (CheckInvariants enforces this in debug builds).
  size_t pending_events() const { return heap_.size(); }

  // Slots ever allocated. Bounded by the peak number of simultaneously
  // pending events, not by schedule/cancel traffic — the regression guard
  // for unbounded queue growth under Cancel() churn.
  size_t slab_capacity() const { return slots_.size(); }

 private:
  // The ordering keys travel with the heap entry so sift comparisons stay
  // inside the (contiguous) heap array instead of chasing slab pointers.
  struct HeapEntry {
    SimTime when = 0;
    uint64_t seq = 0;    // schedule order; the FIFO tiebreaker
    uint32_t slot = 0;   // index into slots_
  };
  struct Slot {
    uint32_t generation = 1;  // bumped on free; stale ids fail to match
    int32_t heap_index = -1;  // position in heap_, -1 when free
    Callback fn;
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  // Pops a recycled slot index, or grows the slab by one.
  uint32_t AcquireSlot();
  // Queues the (already filled) slot at `when` and returns its EventId.
  EventId Enqueue(SimTime when, uint32_t index);

  void HeapPlace(size_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_index = static_cast<int32_t>(pos);
  }
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  // Detaches heap_[pos] (fixing the hole with the last element) without
  // touching the slot itself.
  void HeapRemoveAt(size_t pos);
  // Returns the slot to the free list with a bumped generation.
  void FreeSlot(uint32_t slot_index);
  // Every slot is either in the heap or on the free list; pending_events()
  // and the queue's physical size cannot diverge (the old lazy-deletion
  // engine's failure mode under Cancel() churn). Inline, so it compiles away
  // under NDEBUG.
  void CheckInvariants() const { assert(heap_.size() + free_.size() == slots_.size()); }

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  std::vector<Slot> slots_;      // the slab; grows to peak pending, then stable
  std::vector<uint32_t> free_;   // recycled slot indices
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed by (when, seq)
};

}  // namespace lauberhorn

#endif  // SRC_SIM_SIMULATOR_H_

// The discrete-event simulation core.
//
// A Simulator owns a time-ordered queue of events. Components schedule
// callbacks at future simulated times; Run() drains the queue in timestamp
// order (ties broken by scheduling order, which makes runs fully
// deterministic). Everything else in this repository — the coherence fabric,
// PCIe, the OS, the NIC models — is built on this single clock.
//
// Internals (DESIGN.md "Simulator internals"): event callbacks live in a
// slab of recycled slots, allocated in fixed-size chunks so a slot never
// moves; a 4-ary min-heap of 16-byte (timestamp, order key) entries orders
// them, where the order key packs the schedule sequence above the slot index,
// and each slot tracks its heap position intrusively. An event fires in its
// slot: the callback runs in place while its root entry stays in the heap,
// marked dead, and the first event the callback schedules takes that root
// over with one sift-down. EventId handles are generation-tagged (slot index
// in the low 32 bits, slot generation in the high 32), so Cancel() is an O(1)
// liveness check plus an O(log4 n) heap removal — no hash set, and no
// cancelled entries lingering in the queue. Callbacks are
// small-buffer-optimized Function objects (src/sim/callback.h) constructed
// in place in their slab slot; captures up to 64 bytes live inline in the
// slot, larger ones in a recycled spill block, so schedule→fire does not
// reach malloc once the slab and the spill free lists are warm.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <memory>
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
  // Slots per slab chunk. The slab grows a chunk at a time and never moves a
  // slot, so a running callback stays valid while it schedules.
  static constexpr uint32_t kSlabChunkSlots = 256;

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
    SlotAt(index).fn.Emplace(std::forward<F>(fn));
    return Enqueue(when, index);
  }

  // Cancels a pending event. Returns true if the event existed and had not
  // yet fired. Cancelling an already-fired or invalid id is a no-op, and so
  // is a callback cancelling its own, running, event.
  bool Cancel(EventId id);

  // Runs a single event. Returns false if the queue is empty. Must not be
  // called from inside an event callback (nor may RunUntil/RunUntilIdle).
  bool Step();

  // Runs events until the queue is empty or `deadline` is passed. Time
  // advances to `deadline` if the queue empties earlier than that.
  void RunUntil(SimTime deadline);

  // Runs until no events remain.
  void RunUntilIdle();

  // Number of events executed so far (for determinism checks and stats).
  uint64_t events_executed() const { return events_executed_; }

  // Number of events scheduled but not yet fired or cancelled; inside a
  // callback the running event is not counted. Exactly the number of live
  // heap entries: cancellation removes the entry immediately, so — unlike a
  // lazy-deletion queue — pending_events() and the queue's physical size
  // cannot drift apart (CheckInvariants enforces this).
  size_t pending_events() const { return heap_.size() - (root_dead_ ? 1 : 0); }

  // Slots ever allocated. Bounded by the peak number of simultaneously
  // pending events (plus the running one), not by schedule/cancel traffic —
  // the regression guard for unbounded queue growth under Cancel() churn.
  size_t slab_capacity() const { return slot_count_; }

 private:
  // The order key packs the schedule sequence (the FIFO tiebreaker) above
  // the slot index, so one 64-bit comparison breaks timestamp ties and a
  // heap entry is 16 bytes: a node's four children share one cache line.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kMaxSlots = uint64_t{1} << kSlotBits;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kSlotBits);
  static constexpr uint32_t kChunkMask = kSlabChunkSlots - 1;
  static_assert((kSlabChunkSlots & kChunkMask) == 0, "chunk size must be a power of two");

  struct HeapEntry {
    SimTime when = 0;
    uint64_t order = 0;  // seq << kSlotBits | slot
    uint32_t slot() const { return static_cast<uint32_t>(order & (kMaxSlots - 1)); }
  };
  static_assert(sizeof(HeapEntry) == 16);
  struct Slot {
    uint32_t generation = 1;  // bumped on free; stale ids fail to match
    int32_t heap_index = -1;  // position in heap_, -1 when free or running
    Callback fn;
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.order < b.order;
  }

  Slot& SlotAt(uint32_t index) { return chunks_[index / kSlabChunkSlots][index & kChunkMask]; }

  // Pops a recycled slot index, or takes the next fresh one (adding a chunk
  // when the last is full).
  uint32_t AcquireSlot();
  // Queues the (already filled) slot at `when` and returns its EventId.
  EventId Enqueue(SimTime when, uint32_t index);

  void HeapPlace(size_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    SlotAt(entry.slot()).heap_index = static_cast<int32_t>(pos);
  }
  // Both fill the hole at `pos` with `moving`, moving it up (or down) to
  // where it belongs.
  void SiftUp(size_t pos, HeapEntry moving);
  void SiftDown(size_t pos, HeapEntry moving);
  // Detaches heap_[pos] (fixing the hole with the last element) without
  // touching its slot.
  void HeapRemoveAt(size_t pos);
  // Returns the slot to the free list with a bumped generation.
  void FreeSlot(uint32_t slot_index);
  // Every slot is in the heap, on the free list, or running: the dead root
  // is not a live entry. pending_events() and the queue's physical size
  // cannot diverge (the old lazy-deletion engine's failure mode under
  // Cancel() churn).
  void CheckInvariants() const {
    assert(pending_events() + free_.size() + (running_ ? 1 : 0) == slot_count_);
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  // The slab: fixed-size chunks, grown to peak pending and then stable.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slot_count_ = 0;      // slots handed out so far
  std::vector<uint32_t> free_;   // recycled slot indices
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed by (when, order)
  bool running_ = false;         // an event callback is executing
  // heap_[0] is the running event's entry, kept until the callback schedules
  // (which reuses it) or returns (which removes it).
  bool root_dead_ = false;
};

}  // namespace lauberhorn

#endif  // SRC_SIM_SIMULATOR_H_

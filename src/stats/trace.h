// Bounded in-memory event tracing (§6: "support for tracing, debugging, and
// statistics presents interesting properties for further close integration
// with the OS"). The NIC emits fixed-size records into a ring; tools (tests,
// examples) snapshot and decode them. Overflow drops the oldest entries and
// is counted, never blocking the data path.
#ifndef SRC_STATS_TRACE_H_
#define SRC_STATS_TRACE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace lauberhorn {

enum class TraceEvent : uint16_t {
  kNone = 0,
  kWireRx,          // a=endpoint, b=request id (low 32 bits)
  kWireTx,          // a=endpoint, b=request id
  kDispatchHot,     // a=endpoint, b=request id
  kDispatchQueued,  // a=endpoint, b=request id
  kDispatchCold,    // a=endpoint, b=request id
  kTryAgain,        // a=endpoint
  kRetire,          // a=endpoint
  kLoopEnter,       // a=endpoint, b=core
  kLoopExit,        // a=endpoint, b=core
  kDrop,            // a=endpoint, b=reason (ShedReason in src/overload)
  kDegrade,         // a=endpoint, b=tryagain streak at demotion
  kNicCrash,        // whole-NIC firmware crash: volatile state wiped (§16)
  kNicReset,        // host-driven reset completed; dedup replay follows
};

std::string ToString(TraceEvent event);

// The entries live in one array of `capacity` entries, reserved on the first
// Emit, filled in order and then overwritten oldest first.
class TraceRing {
 public:
  // Entries store the endpoint in 16 bits; LauberhornNic rejects a
  // configuration with more endpoints than this.
  static constexpr size_t kMaxEndpoints = size_t{1} << 16;

  explicit TraceRing(size_t capacity = 4096) : capacity_(capacity) {}

  struct Entry {
    SimTime at = 0;
    TraceEvent event = TraceEvent::kNone;
    uint16_t a = 0;  // the endpoint
    uint32_t b = 0;
  };
  static_assert(sizeof(Entry) == 16);

  void Emit(SimTime at, TraceEvent event, uint32_t a = 0, uint32_t b = 0) {
    if (!enabled_) {
      return;
    }
    if (capacity_ == 0) {
      // A zero-capacity ring can hold nothing; count the drop instead.
      ++dropped_;
      return;
    }
    assert(a < kMaxEndpoints && "trace endpoint does not fit in 16 bits");
    const Entry entry{at, event, static_cast<uint16_t>(a), b};
    if (entries_.size() < capacity_) {
      if (entries_.empty()) {
        entries_.reserve(capacity_);
      }
      entries_.push_back(entry);
      return;
    }
    entries_[head_] = entry;  // overwrite the oldest
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++dropped_;
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // The entries, oldest first.
  std::vector<Entry> Snapshot() const {
    std::vector<Entry> out;
    out.reserve(entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i) {
      out.push_back(At(i));
    }
    return out;
  }
  size_t size() const { return entries_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Entries for one endpoint, in order.
  std::vector<Entry> ForEndpoint(uint32_t endpoint) const {
    std::vector<Entry> out;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (At(i).a == endpoint) {
        out.push_back(At(i));
      }
    }
    return out;
  }

 private:
  // The i-th oldest entry.
  const Entry& At(size_t i) const {
    const size_t slot = head_ + i;
    return entries_[slot < capacity_ ? slot : slot - capacity_];
  }

  size_t capacity_;
  bool enabled_ = true;
  std::vector<Entry> entries_;  // at most capacity_ entries, never reallocated
  size_t head_ = 0;             // the oldest entry once the ring is full
  uint64_t dropped_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_STATS_TRACE_H_

// Bounded in-memory event tracing (§6: "support for tracing, debugging, and
// statistics presents interesting properties for further close integration
// with the OS"). The NIC emits fixed-size records into a ring; tools (tests,
// examples) snapshot and decode them. Overflow drops the oldest entries and
// is counted, never blocking the data path.
#ifndef SRC_STATS_TRACE_H_
#define SRC_STATS_TRACE_H_

#include <cstdint>
#include <deque>
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
  kNicReset,        // host-driven reset completed; shadow replay follows
};

std::string ToString(TraceEvent event);

class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 4096) : capacity_(capacity) {}

  struct Entry {
    SimTime at = 0;
    TraceEvent event = TraceEvent::kNone;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  void Emit(SimTime at, TraceEvent event, uint32_t a = 0, uint32_t b = 0) {
    if (!enabled_) {
      return;
    }
    if (capacity_ == 0) {
      // A zero-capacity ring can hold nothing; count the drop instead of
      // popping from an empty deque.
      ++dropped_;
      return;
    }
    if (entries_.size() >= capacity_) {
      entries_.pop_front();
      ++dropped_;
    }
    entries_.push_back(Entry{at, event, a, b});
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  std::vector<Entry> Snapshot() const {
    return std::vector<Entry>(entries_.begin(), entries_.end());
  }
  size_t size() const { return entries_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Entries for one endpoint, in order.
  std::vector<Entry> ForEndpoint(uint32_t endpoint) const {
    std::vector<Entry> out;
    for (const Entry& entry : entries_) {
      if (entry.a == endpoint) {
        out.push_back(entry);
      }
    }
    return out;
  }

 private:
  size_t capacity_;
  bool enabled_ = true;
  std::deque<Entry> entries_;
  uint64_t dropped_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_STATS_TRACE_H_

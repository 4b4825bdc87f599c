// Core types for the cache-coherent interconnect model.
//
// This module models an ECI/CXL.mem-class coherent interconnect at protocol-
// message granularity. The properties the paper depends on are first-class:
//
//  * a device (the NIC) can be the *home agent* for a range of cache lines;
//  * the home may DEFER a cache fill — the requesting core stalls on the load
//    until the home responds (the paper's blocking-load endpoint, §5.1);
//  * the home can issue a fetch-exclusive to pull a dirty line out of a
//    core's cache (how Lauberhorn collects an RPC response);
//  * deferring beyond the platform's coherence timeout is a bus error — which
//    is why Lauberhorn must send TRYAGAIN before that deadline;
//  * every message is counted, so interconnect traffic (the energy proxy in
//    the TRYAGAIN experiment) is measurable.
#ifndef SRC_COHERENCE_COHERENCE_H_
#define SRC_COHERENCE_COHERENCE_H_

#include <cstdint>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/time.h"

namespace lauberhorn {

// Identifies a registered agent (cache agent or home agent).
using AgentId = uint32_t;
inline constexpr AgentId kNoAgent = ~0u;

// Cache-line-aligned physical address.
using LineAddr = uint64_t;

// Contents of one cache line (config.line_size bytes).
using LineData = std::vector<uint8_t>;

// Largest supported cache line: Enzian's 128-byte ECI line. Line-sized
// message fields (DispatchLine, ResponseLine) hold their bytes inline at
// this capacity.
inline constexpr size_t kMaxLineSize = 128;

// MESI-without-E states tracked by cache agents. Exclusive-clean is folded
// into Modified: every exclusive grant is treated as writable ownership,
// which is the only distinction the modelled protocols care about.
enum class LineState : uint8_t {
  kInvalid,
  kShared,
  kModified,
};

enum class CoherenceMsgType : uint8_t {
  kReadShared,      // cache -> home: load miss
  kReadExclusive,   // cache -> home: store miss / upgrade
  kFill,            // home -> cache: data grant (shared or exclusive)
  kProbeFetch,      // home -> cache: fetch(+invalidate) a held line
  kProbeAck,        // cache -> home: probe response (with data if dirty)
  kWriteBack,       // cache -> home: evict dirty line
  kUncachedWrite,   // cache -> home: posted write-through signal
};
inline constexpr int kNumCoherenceMsgTypes = 7;

struct CoherenceConfig {
  size_t line_size = 128;  // bytes; 128 on Enzian (ECI), 64 on x86

  // One-way header latency between a CPU cache agent and a *device* home
  // (crossing the peripheral interconnect: ECI, CXL, ...).
  Duration cpu_device_hop = Nanoseconds(350);
  // One-way latency between a CPU cache agent and the *memory* home or
  // another CPU cache (on-package fabric).
  Duration cpu_mem_hop = Nanoseconds(40);
  // Additional serialization cost for a message that carries line data.
  Duration data_beat = Nanoseconds(15);
  // L1 hit latency for loads/stores that need no interconnect traffic.
  Duration l1_hit = Nanoseconds(2);
  // DRAM access at the memory home agent.
  Duration memory_latency = Nanoseconds(70);
  // If a home agent defers a fill longer than this, the platform raises an
  // unrecoverable bus error (§5.1). Enzian/ECI order of magnitude.
  Duration bus_timeout = Milliseconds(20);
  // Memory-level parallelism per cache agent: outstanding line transactions
  // (MSHRs). This is what makes streaming large payloads through cache-line
  // loads/stores lose to DMA beyond a few KiB (§6).
  size_t mshrs_per_agent = 8;
  // Outstanding fetch/probe transactions a device home agent keeps in flight
  // when pulling a multi-line response.
  size_t device_fetch_window = 8;
};

// Invoked by a home agent to answer a read request. Must be called exactly
// once per request; calling after the bus timeout has fired is ignored (the
// machine is already considered wedged).
using FillFn = Function<void(LineData)>;

// A home agent owns a range of line addresses and answers requests for them.
class HomeAgent {
 public:
  virtual ~HomeAgent() = default;

  // A cache agent requests the line. `exclusive` is true for stores (RFO).
  // The home must eventually call `fill` with the line contents; it may defer
  // the call arbitrarily (up to the bus timeout) — this is the blocking load.
  virtual void OnHomeRead(AgentId requester, LineAddr addr, bool exclusive,
                          FillFn fill) = 0;

  // A dirty line is written back (eviction or probe result).
  virtual void OnHomeWriteBack(AgentId from, LineAddr addr, LineData data) = 0;

  // A posted, uncached write-through aimed at this home (the cheap
  // CPU->device signalling path: scheduling-state pushes, doorbells).
  virtual void OnHomeUncachedWrite(AgentId from, LineAddr addr, size_t offset,
                                   std::vector<uint8_t> data) = 0;
};

// Per-message-type counters; the ENERGY experiment reads these.
struct CoherenceStats {
  uint64_t messages[kNumCoherenceMsgTypes] = {};
  uint64_t data_messages = 0;  // messages that carried a full line
  uint64_t bus_errors = 0;

  uint64_t TotalMessages() const {
    uint64_t total = 0;
    for (uint64_t m : messages) {
      total += m;
    }
    return total;
  }
};

}  // namespace lauberhorn

#endif  // SRC_COHERENCE_COHERENCE_H_

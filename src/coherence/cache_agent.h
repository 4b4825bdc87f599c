// A CPU-side cache agent: the per-core (or per-cluster) cache that cores use
// for loads and stores. Misses generate interconnect traffic; device-homed
// lines therefore put the core in conversation with the NIC.
//
// The model is MSI with a per-line FIFO of outstanding operations (a single
// MSHR per line): operations on a line complete strictly in issue order,
// which matches what a stalled in-order load on Enzian observes. Capacity
// evictions are not modelled — working sets in these experiments are a few
// lines per endpoint — but dirty lines can be written back explicitly.
#ifndef SRC_COHERENCE_CACHE_AGENT_H_
#define SRC_COHERENCE_CACHE_AGENT_H_

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/coherence/coherence.h"
#include "src/coherence/interconnect.h"

namespace lauberhorn {

class CacheAgent {
 public:
  using LoadFn = Function<void(std::vector<uint8_t>)>;
  using StoreFn = Callback;

  struct ProbeResult {
    bool had = false;
    bool dirty = false;
    LineData data;
  };

  explicit CacheAgent(CoherentInterconnect& interconnect);
  CacheAgent(const CacheAgent&) = delete;
  CacheAgent& operator=(const CacheAgent&) = delete;

  AgentId id() const { return id_; }

  // Loads `size` bytes at `addr` (must lie within one cache line). The
  // callback may fire arbitrarily later if the home defers the fill — this is
  // exactly the blocking-load behaviour of a Lauberhorn endpoint.
  void Load(uint64_t addr, size_t size, LoadFn on_done);

  // Stores bytes at `addr` (within one line); acquires ownership first.
  void Store(uint64_t addr, std::span<const uint8_t> data, StoreFn on_done = nullptr);
  // As above, taking ownership of `data` instead of copying it.
  void Store(uint64_t addr, std::vector<uint8_t>&& data, StoreFn on_done = nullptr);

  // Posted uncached write straight to the home agent (no caching, no reply):
  // the cheap CPU->NIC signalling path. Must not target lines this agent
  // also caches.
  void StoreThrough(uint64_t addr, std::span<const uint8_t> data);

  // Non-caching load: always fetches from the home and does NOT install the
  // line locally (the directory gains no sharer). This models the
  // load-to-registers delivery of device-homed control lines (Ruzhanskaia et
  // al.): the device may defer the fill, and no stale copy can linger in the
  // core's cache. One outstanding LoadThrough per line per agent. A
  // full-line load (offset 0, `size` == the fill) hands over the fill itself.
  void LoadThrough(uint64_t addr, size_t size, LoadFn on_done);

  // Writes a dirty line back to its home and drops it. No-op if not held.
  void Flush(LineAddr addr);
  // Drops a clean line without writeback (test helper).
  void Drop(LineAddr addr);

  // Interconnect-side: probe (fetch+invalidate). Returns held data.
  ProbeResult HandleProbe(LineAddr addr);

  LineState StateOf(LineAddr addr) const;

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t loads_through() const { return loads_through_; }

 private:
  struct Op {
    bool is_store = false;
    bool counted = false;  // hit/miss already attributed
    uint64_t addr = 0;
    size_t size = 0;                // loads
    std::vector<uint8_t> data;      // stores
    LoadFn on_load;
    StoreFn on_store;
  };
  struct Line {
    LineState state = LineState::kInvalid;
    LineData data;
  };
  struct PendingLine {
    std::deque<Op> ops;
    bool request_in_flight = false;
  };

  void ProcessQueue(LineAddr line_addr);
  void ExecuteOp(LineAddr line_addr, Op op);
  // MSHR throttling: at most config.mshrs_per_agent line transactions in
  // flight; excess requests queue FIFO.
  void AcquireMshr(Callback start);
  void ReleaseMshr();

  CoherentInterconnect& interconnect_;
  AgentId id_;
  std::unordered_map<LineAddr, Line> lines_;
  std::unordered_map<LineAddr, PendingLine> pending_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t loads_through_ = 0;
  size_t mshrs_in_use_ = 0;
  std::deque<Callback> mshr_waiters_;
};

}  // namespace lauberhorn

#endif  // SRC_COHERENCE_CACHE_AGENT_H_

// The coherent interconnect: routes protocol messages between cache agents
// and home agents with configurable hop latencies, maintains a directory of
// line ownership, and enforces the platform bus timeout on deferred fills.
#ifndef SRC_COHERENCE_INTERCONNECT_H_
#define SRC_COHERENCE_INTERCONNECT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/coherence/coherence.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

class CacheAgent;
class FaultInjector;

// A set of cache agents, iterated in ascending AgentId order. Ids below 64
// live in one inline word; higher ids go to overflow words, which clear()
// zeroes but keeps.
class AgentSet {
 public:
  void insert(AgentId id) {
    if (id < 64) {
      low_ |= uint64_t{1} << id;
      return;
    }
    const size_t word = id / 64 - 1;
    if (word >= high_.size()) {
      high_.resize(word + 1, 0);
    }
    high_[word] |= uint64_t{1} << (id % 64);
  }
  void clear() {
    low_ = 0;
    std::fill(high_.begin(), high_.end(), 0);
  }
  template <typename F>
  void ForEach(F&& f) const {
    ForEachIn(low_, 0, f);
    for (size_t i = 0; i < high_.size(); ++i) {
      ForEachIn(high_[i], static_cast<AgentId>((i + 1) * 64), f);
    }
  }

 private:
  template <typename F>
  static void ForEachIn(uint64_t word, AgentId base, F& f) {
    for (; word != 0; word &= word - 1) {
      f(base + static_cast<AgentId>(std::countr_zero(word)));
    }
  }

  uint64_t low_ = 0;
  std::vector<uint64_t> high_;
};

class CoherentInterconnect {
 public:
  CoherentInterconnect(Simulator& sim, CoherenceConfig config);

  const CoherenceConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }

  // -- Topology ---------------------------------------------------------

  // Registers a CPU-side cache agent.
  AgentId RegisterCacheAgent(CacheAgent* agent);

  // Registers a home agent for [base, base + size). `is_device` selects the
  // cpu_device_hop latency (peripheral interconnect) vs cpu_mem_hop.
  AgentId RegisterHomeAgent(HomeAgent* agent, LineAddr base, uint64_t size,
                            bool is_device);

  // Home agent for an address, or kNoAgent.
  AgentId HomeOf(LineAddr addr) const;
  LineAddr AlignToLine(uint64_t addr) const {
    return addr & ~static_cast<LineAddr>(config_.line_size - 1);
  }

  // -- Cache-agent-initiated traffic (called by CacheAgent) --------------

  // Read request to the home of `addr`. `on_fill` runs at the requester once
  // the fill message arrives back. With `install` false the requester gets
  // the data without becoming a sharer/owner (non-caching load).
  void SendRead(AgentId requester, LineAddr addr, bool exclusive, FillFn on_fill,
                bool install = true);

  // Dirty eviction.
  void SendWriteBack(AgentId from, LineAddr addr, const LineData& data);

  // Posted uncached write (device signalling) of at most one line. Completes
  // at the home after one hop; no response message.
  void SendUncachedWrite(AgentId from, LineAddr addr, size_t offset,
                         std::span<const uint8_t> data);

  // -- Home-agent-initiated traffic --------------------------------------

  // Fetches the current contents of `addr` on behalf of its home and
  // invalidates all cached copies. If a cache holds it Modified, the dirty
  // data flows back; otherwise the home's own copy (supplied via `fallback`)
  // is returned. `done` runs at the home side.
  void FetchExclusive(AgentId home, LineAddr addr, const LineData& fallback,
                      FillFn done);

  // Invalidates all cached copies without returning data (used by the NIC to
  // re-arm a control line so the next CPU load misses and reaches the NIC).
  void Invalidate(AgentId home, LineAddr addr, Callback done = nullptr);

  // -- Introspection ------------------------------------------------------

  const CoherenceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CoherenceStats{}; }

  // Directory state for tests.
  AgentId OwnerOf(LineAddr addr) const;
  std::vector<AgentId> SharersOf(LineAddr addr) const;

  // Test hook invoked on a bus error (fill deferred past bus_timeout).
  void set_bus_error_handler(Function<void(LineAddr)> handler) {
    bus_error_handler_ = std::move(handler);
  }

  // Test hook invoked each time a probe reaches a cache agent.
  void set_probe_observer(Function<void(AgentId, LineAddr)> observer) {
    probe_observer_ = std::move(observer);
  }

  // Optional fault injection (src/fault): fills can be delayed or dropped;
  // a dropped fill is exactly what the bus-timeout watchdog catches.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

 private:
  struct HomeRange {
    HomeAgent* agent = nullptr;
    LineAddr base = 0;
    uint64_t size = 0;
    bool is_device = false;
  };
  struct DirEntry {
    AgentId owner = kNoAgent;  // exclusive/modified holder
    AgentSet sharers;          // shared holders
  };

  Duration HopLatency(AgentId home) const;
  void Count(CoherenceMsgType type, bool with_data);
  DirEntry& Dir(LineAddr addr) { return directory_[addr]; }
  // Delivers a probe (fetch + invalidate) to a cache agent.
  ProbeResult Probe(AgentId holder, LineAddr addr);

  Simulator& sim_;
  CoherenceConfig config_;
  std::vector<CacheAgent*> cache_agents_;
  std::vector<HomeRange> homes_;  // indexed by AgentId - kHomeAgentBase
  // Entries are never erased (a line nobody holds keeps an empty entry), so
  // a pending fill's continuation keeps a pointer to its DirEntry across
  // other lines' inserts (map nodes do not move on rehash).
  std::unordered_map<LineAddr, DirEntry> directory_;
  CoherenceStats stats_;
  Function<void(LineAddr)> bus_error_handler_;
  Function<void(AgentId, LineAddr)> probe_observer_;
  FaultInjector* faults_ = nullptr;

  static constexpr AgentId kHomeAgentBase = 0x1000;
};

}  // namespace lauberhorn

#endif  // SRC_COHERENCE_INTERCONNECT_H_

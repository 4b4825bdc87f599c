// The DRAM home agent: backs ordinary host memory lines, answering every
// read after the configured memory latency. Host DRAM is also shared with
// the PCIe DMA engine (src/pcie), which reads/writes it directly.
#ifndef SRC_COHERENCE_MEMORY_HOME_H_
#define SRC_COHERENCE_MEMORY_HOME_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/coherence/coherence.h"
#include "src/coherence/interconnect.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

class MemoryHomeAgent : public HomeAgent {
 public:
  // Registers itself as home for [base, base + size).
  MemoryHomeAgent(Simulator& sim, CoherentInterconnect& interconnect, LineAddr base,
                  uint64_t size);

  AgentId id() const { return id_; }

  // HomeAgent:
  void OnHomeRead(AgentId requester, LineAddr addr, bool exclusive, FillFn fill) override;
  void OnHomeWriteBack(AgentId from, LineAddr addr, const LineData& data) override;
  void OnHomeUncachedWrite(AgentId from, LineAddr addr, size_t offset,
                           std::span<const uint8_t> data) override;

  // Direct backdoor access for DMA engines and tests (no coherence traffic;
  // a real IOMMU-protected DMA write is snooped, which we approximate by
  // having DMA targets be uncached buffers).
  void WriteBytes(uint64_t addr, std::span<const uint8_t> data);
  // Fills `out` with the bytes at `addr`; never-written bytes read as zero.
  void ReadInto(uint64_t addr, std::span<uint8_t> out) const;
  std::vector<uint8_t> ReadBytes(uint64_t addr, size_t size) const;

 private:
  LineData& LineAt(LineAddr addr);

  Simulator& sim_;
  CoherentInterconnect& interconnect_;
  LineAddr base_;
  uint64_t size_;
  AgentId id_;
  std::unordered_map<LineAddr, LineData> lines_;
};

}  // namespace lauberhorn

#endif  // SRC_COHERENCE_MEMORY_HOME_H_

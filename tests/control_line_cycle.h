// One Lauberhorn CONTROL-line cycle on a device home, without the NIC: the
// core's non-caching load parks at the home until a request "arrives" (the
// deferred fill), the core stores its response into the line (RFO), the home
// pulls it back with fetch-exclusive, then re-arms the line with an
// invalidate. Shared by the allocation test (tests/alloc_test.cc) and the
// BM_CoherenceLineCycle microbenchmark (bench/micro.cc).
#ifndef TESTS_CONTROL_LINE_CYCLE_H_
#define TESTS_CONTROL_LINE_CYCLE_H_

#include <cstdint>
#include <span>
#include <utility>

#include "src/coherence/cache_agent.h"
#include "src/coherence/interconnect.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

class ControlLineCycle : public HomeAgent {
 public:
  static constexpr LineAddr kCtrl = 0x1000'0000;

  ControlLineCycle()
      : interconnect_(sim_, CoherenceConfig{}),
        home_(interconnect_.RegisterHomeAgent(this, kCtrl, 0x1000, /*is_device=*/true)),
        cpu_(interconnect_),
        line_(interconnect_.config().line_size, 0),
        dispatch_(interconnect_.config().line_size, 0x11) {}

  // Runs one cycle; the response carries `tag`.
  void Run(uint8_t tag) {
    cpu_.LoadThrough(kCtrl, line_.size(),
                     [this](std::span<const uint8_t> line) { loaded_ += line[0]; });
    sim_.RunUntil(sim_.Now() + Microseconds(1));  // the load is parked
    FillFn parked = std::move(parked_);
    parked(dispatch_);  // a request arrived
    sim_.RunUntilIdle();
    const uint8_t response[16] = {tag, tag, tag, tag};
    cpu_.Store(kCtrl, response, [this] { ++stores_; });
    sim_.RunUntilIdle();
    interconnect_.FetchExclusive(home_, kCtrl, line_,
                                 [this](const LineData& pulled) { line_ = pulled; });
    sim_.RunUntilIdle();
    interconnect_.Invalidate(home_, kCtrl, [this] { ++invalidates_; });
    sim_.RunUntilIdle();
  }

  // HomeAgent: control-line loads park; the RFO is answered from the store.
  void OnHomeRead(AgentId, LineAddr, bool exclusive, FillFn fill) override {
    if (exclusive) {
      fill(line_);
    } else {
      parked_ = std::move(fill);
    }
  }
  void OnHomeWriteBack(AgentId, LineAddr, const LineData& data) override { line_ = data; }
  void OnHomeUncachedWrite(AgentId, LineAddr, size_t, std::span<const uint8_t>) override {}

  const CoherentInterconnect& interconnect() const { return interconnect_; }
  const CacheAgent& cpu() const { return cpu_; }
  const LineData& line() const { return line_; }
  uint64_t loaded() const { return loaded_; }
  uint64_t stores() const { return stores_; }
  uint64_t invalidates() const { return invalidates_; }

 private:
  Simulator sim_;
  CoherentInterconnect interconnect_;
  AgentId home_;
  CacheAgent cpu_;
  LineData line_;      // the home's copy of the CONTROL line
  LineData dispatch_;  // what every deferred fill delivers
  FillFn parked_;
  uint64_t loaded_ = 0;
  uint64_t stores_ = 0;
  uint64_t invalidates_ = 0;
};

}  // namespace lauberhorn

#endif  // TESTS_CONTROL_LINE_CYCLE_H_

// FIG2 — Figure 2 of the paper: 64-byte message round-trip latencies between
// CPU and NIC, comparing the coherent-interconnect path (ECI-style blocking
// load + uncached write) against DMA descriptor rings over PCIe, on an
// Enzian-class machine, a modern PC server, and a CXL.mem-3.0 projection.
//
// No network is involved: this isolates the CPU<->device interaction cost,
// exactly as the figure does. The DMA path is measured both with MSI-X
// signalling (the robust configuration) and with busy polling (its best
// case); the figure's message is that even polled DMA loses to the coherent
// path.
#include <memory>

#include "bench/common.h"
#include "src/coherence/cache_agent.h"
#include "src/coherence/interconnect.h"
#include "src/coherence/memory_home.h"
#include "src/pcie/iommu.h"
#include "src/pcie/pcie_link.h"
#include "src/pcie/ring.h"

namespace lauberhorn {
namespace {

constexpr int kIterations = 10000;
constexpr size_t kMessageBytes = 64;

// A device that answers a deferred control-line read as soon as a 64-byte
// command arrives by uncached write: the minimal coherent echo firmware.
class EciEchoDevice : public HomeAgent {
 public:
  void OnHomeRead(AgentId, LineAddr, bool, FillFn fill) override {
    pending_fill_ = std::move(fill);
    TryRespond();
  }
  void OnHomeWriteBack(AgentId, LineAddr, const LineData&) override {}
  void OnHomeUncachedWrite(AgentId, LineAddr, size_t,
                           std::span<const uint8_t> data) override {
    command_.assign(data.begin(), data.end());
    TryRespond();
  }

 private:
  void TryRespond() {
    if (!pending_fill_ || command_.empty()) {
      return;
    }
    LineData line(128, 0);
    std::copy(command_.begin(), command_.end(), line.begin());
    auto fill = std::move(pending_fill_);
    pending_fill_ = nullptr;
    command_.clear();
    fill(line);
  }

  FillFn pending_fill_;
  LineData command_;
};

// One coherent ping-pong: issue the (deferred) response load, push the
// command with an uncached write, measure until the fill returns.
Duration MeasureEciRtt(const PlatformSpec& platform) {
  Simulator sim;
  CoherentInterconnect interconnect(sim, platform.coherence);
  EciEchoDevice device;
  const LineAddr base = 0x1'0000'0000;
  interconnect.RegisterHomeAgent(&device, base, 0x1000, /*is_device=*/true);
  CacheAgent cpu(interconnect);

  Histogram rtt;
  const std::vector<uint8_t> command(kMessageBytes, 0xab);
  for (int i = 0; i < kIterations; ++i) {
    const SimTime start = sim.Now();
    bool done = false;
    cpu.LoadThrough(base, kMessageBytes, [&](std::span<const uint8_t>) { done = true; });
    cpu.StoreThrough(base + 128, command);
    sim.RunUntilIdle();
    if (done) {
      rtt.Record(sim.Now() - start);
    }
  }
  return rtt.P50();
}

// One DMA ping-pong through descriptor rings, as a conventional NIC does it:
// host writes command + TX descriptor, rings the doorbell; the device fetches
// the descriptor and payload by DMA, "echoes", DMA-writes the response and a
// completion; the host learns of it via MSI-X or by polling the completion.
Duration MeasureDmaRtt(const PlatformSpec& platform, bool polling) {
  Simulator sim;
  CoherentInterconnect interconnect(sim, platform.coherence);
  MemoryHomeAgent memory(sim, interconnect, 0, 1 << 24);
  Iommu iommu;
  iommu.Map(0, 0, 1 << 24);
  PcieLink pcie(sim, platform.pcie, memory, iommu);
  Msix msix(sim, platform.pcie.msix_latency);

  const uint64_t cmd_desc = 0x1000;
  const uint64_t cmd_buf = 0x2000;
  const uint64_t rsp_buf = 0x3000;
  const uint64_t rsp_desc = 0x4000;

  // Device "firmware": on doorbell, fetch descriptor, fetch payload, echo.
  class Firmware : public MmioDevice {
   public:
    Firmware(Simulator& sim, PcieLink& pcie, Msix& msix, uint64_t cmd_desc,
             uint64_t rsp_buf, uint64_t rsp_desc)
        : sim_(sim), pcie_(pcie), msix_(msix), cmd_desc_(cmd_desc), rsp_buf_(rsp_buf),
          rsp_desc_(rsp_desc) {}
    void OnMmioWrite(uint64_t, uint64_t) override {
      pcie_.DeviceDmaRead(cmd_desc_, kDescriptorSize, [this](std::span<const uint8_t> raw) {
        const Descriptor desc = Descriptor::Decode(raw);
        pcie_.DeviceDmaRead(desc.buffer_iova, desc.length,
                            [this](std::span<const uint8_t> payload) {
                              // Echo the payload back and complete.
                              pcie_.DeviceDmaWrite(rsp_buf_, payload, [this]() {
                                Descriptor done;
                                done.buffer_iova = rsp_buf_;
                                done.length = kMessageBytes;
                                done.flags = kDescDone;
                                pcie_.DeviceDmaWrite(rsp_desc_, done.Encode(),
                                                     [this]() { msix_.Trigger(0); });
                              });
                            });
      });
    }
    uint64_t OnMmioRead(uint64_t) override { return 0; }

   private:
    Simulator& sim_;
    PcieLink& pcie_;
    Msix& msix_;
    uint64_t cmd_desc_, rsp_buf_, rsp_desc_;
  };
  Firmware firmware(sim, pcie, msix, cmd_desc, rsp_buf, rsp_desc);
  pcie.set_device(&firmware);

  Histogram rtt;
  const std::vector<uint8_t> command(kMessageBytes, 0xcd);
  for (int i = 0; i < kIterations; ++i) {
    const SimTime start = sim.Now();
    bool done = false;
    SimTime done_at = 0;

    // Host posts the command.
    memory.WriteBytes(cmd_buf, command);
    Descriptor desc;
    desc.buffer_iova = cmd_buf;
    desc.length = kMessageBytes;
    desc.flags = kDescReady;
    memory.WriteBytes(cmd_desc, desc.Encode());
    memory.WriteBytes(rsp_desc, Descriptor{}.Encode());  // clear completion

    if (polling) {
      // Spin on the completion descriptor in host memory (~per-poll cost of
      // an LLC hit on the polled line). The self-rescheduling closure owns
      // itself via shared_ptr so it outlives this scope.
      auto poll = std::make_shared<std::function<void()>>();
      *poll = [&, poll]() {
        const Descriptor completion =
            Descriptor::Decode(memory.ReadBytes(rsp_desc, kDescriptorSize));
        if ((completion.flags & kDescDone) != 0) {
          done = true;
          done_at = sim.Now();
          return;
        }
        sim.Schedule(Nanoseconds(20), *poll);
      };
      sim.Schedule(Nanoseconds(20), *poll);
    } else {
      msix.SetHandler(0, [&]() {
        done = true;
        done_at = sim.Now();
      });
    }
    pcie.HostMmioWrite(0x0, 1);  // doorbell
    sim.RunUntilIdle();
    if (done) {
      rtt.Record(done_at - start);
    }
  }
  return rtt.P50();
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  const bool csv = lauberhorn::BenchArgs::Parse(argc, argv).csv;
  using namespace lauberhorn;
  PrintHeader("FIG2", "64-byte message round-trip latencies (CPU <-> NIC)");

  Table table({"mechanism", "platform", "RTT p50 (us)", "vs ECI-Enzian"});
  const Duration eci_enzian = MeasureEciRtt(PlatformSpec::EnzianEci());
  auto add = [&](const std::string& mech, const std::string& plat, Duration rtt) {
    table.AddRow({mech, plat, Us(rtt),
                  Table::Num(static_cast<double>(rtt) / static_cast<double>(eci_enzian), 2) + "x"});
  };

  add("coherent load/store (ECI)", "enzian", eci_enzian);
  add("coherent load/store (CXL3 proj.)", "modern-pc",
      MeasureEciRtt(PlatformSpec::Cxl3Projection()));
  add("DMA descriptor ring + MSI-X", "enzian", MeasureDmaRtt(PlatformSpec::EnzianPcie(), false));
  add("DMA descriptor ring + polling", "enzian", MeasureDmaRtt(PlatformSpec::EnzianPcie(), true));
  add("DMA descriptor ring + MSI-X", "modern-pc",
      MeasureDmaRtt(PlatformSpec::ModernPcPcie(), false));
  add("DMA descriptor ring + polling", "modern-pc",
      MeasureDmaRtt(PlatformSpec::ModernPcPcie(), true));
  PrintTable(table, csv);

  std::printf("\nPaper's Figure 2 shape: the coherent-interconnect interaction is several\n"
              "times faster than DMA descriptor rings on the same machine, and remains\n"
              "faster than DMA even on a much newer PCIe server.\n");
  return 0;
}

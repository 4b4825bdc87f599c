// Kernel-bypass RPC runtime (DPDK/IX-style): dedicated cores spin-poll RX
// rings in user space and run handlers to completion. Fast when a flow's
// queue maps to a warm core; rigid (static flow->queue->core binding) and
// energy-hungry (busy-wait) otherwise — the trade-off the paper targets.
#ifndef SRC_NIC_BYPASS_H_
#define SRC_NIC_BYPASS_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/nic/dma_nic.h"
#include "src/nic/software_server.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/proto/service.h"
#include "src/stats/span.h"

namespace lauberhorn {

class BypassRuntime {
 public:
  struct Config {
    // Dedicated polling cores; queue q is served by cores[q].
    std::vector<int> cores;
    size_t poll_batch = 32;
    // One empty poll-loop iteration (ring peek + branch).
    Duration poll_iteration = Nanoseconds(25);
    // After this many consecutive empty polls the loop relaxes (pause/tpause
    // style) to the coarser interval below. The core still burns 100% of its
    // cycles — this only coarsens simulation granularity while idle.
    uint64_t idle_backoff_after = 32;
    Duration idle_poll_interval = Nanoseconds(500);
    // Fixed per-batch receive cost (prefetch, ring maintenance).
    Duration rx_batch_fixed = Nanoseconds(100);
    // Userspace per-packet driver + protocol cost (no skb, no syscalls).
    Duration per_packet = Nanoseconds(300);
    // Userspace TX cost per packet.
    Duration tx_per_packet = Nanoseconds(200);
  };

  // `server` configures the serving core (crypto, dedup, admission). Rings
  // carry no timestamps, so the poll loop's sojourn check runs on *estimated*
  // delay: ring occupancy times the per-request processing estimate. Sheds
  // cost user CPU on the polling core (cheaper than a full handler pass, but
  // not free like Lauberhorn).
  BypassRuntime(Simulator& sim, Kernel& kernel, DmaNicDriver& driver,
                ServiceRegistry& services, Config config,
                RpcServeConfig server);

  // Occupies the dedicated cores and starts spinning.
  void Start();
  void Stop() { running_ = false; }

  // Per-request span tracing: the poll loop stamps pickup + handler bounds.
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }

  // Requests, dedup, sheds and their counters.
  const SoftwareRpcServer& server() const { return server_; }
  uint64_t empty_polls() const { return empty_polls_; }

 private:
  // What serving one polled packet costs the polling core, and what it sends.
  struct Step {
    Duration work = 0;
    std::optional<Packet> reply;
    bool executed = false;  // a handler ran: counts as completed at TX
    uint64_t request_id = 0;
  };

  void Loop(uint32_t q, Core& core);
  void ProcessBatch(uint32_t q, Core& core, std::vector<Packet> packets, size_t index);
  Step ServePacket(uint32_t q, const Packet& packet, size_t batch_remaining);
  // Admission decision for one decoded request on queue `q`;
  // `batch_remaining` counts the packets already polled but not yet served.
  ShedReason AdmissionCheck(uint32_t q, uint32_t service_id, size_t batch_remaining);

  Simulator& sim_;
  Kernel& kernel_;
  DmaNicDriver& driver_;
  ServiceRegistry& services_;
  Config config_;
  SoftwareRpcServer server_;
  SpanCollector* spans_ = nullptr;
  Process* process_ = nullptr;  // the bypass application owns its data plane
  bool running_ = false;
  uint64_t empty_polls_ = 0;
  std::vector<uint64_t> empty_streak_;
  std::unordered_map<uint32_t, TokenBucket> service_quota_;
  std::vector<SojournGate> sojourn_;  // per queue
};

}  // namespace lauberhorn

#endif  // SRC_NIC_BYPASS_H_

// The Linux-baseline RPC stack (Fig. 5 left, §2 steps 1-12).
//
// On top of the DMA NIC: MSI-X interrupt -> top half -> softirq (NAPI) thread
// polls the ring, does protocol processing, socket lookup, and wakeup; the
// scheduler places the service process on a core; the worker performs the
// recv syscall + copyout, software unmarshalling, the handler, marshalling,
// and a send syscall back through the driver. Every stage charges the
// corresponding OsCostModel cost on a real simulated core.
#ifndef SRC_NIC_LINUX_STACK_H_
#define SRC_NIC_LINUX_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/headers.h"
#include "src/nic/dma_nic.h"
#include "src/nic/software_server.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/proto/service.h"
#include "src/stats/span.h"

namespace lauberhorn {

class LinuxRpcStack {
 public:
  struct Config {
    size_t napi_budget = 64;
    int worker_threads_per_service = 1;
  };

  // `server` configures the serving core (crypto, dedup, admission). Its
  // admission runs at the softirq/socket boundary, and every shed (decode +
  // reply TX) costs kernel CPU on the softirq core.
  LinuxRpcStack(Simulator& sim, Kernel& kernel, DmaNic& nic, DmaNicDriver& driver,
                Msix& msix, ServiceRegistry& services, Config config,
                SoftwareRpcServer::Config server);

  // Creates the process, worker thread(s), and socket for a service.
  void RegisterServiceProcess(const ServiceDef& service);

  // Installs MSI-X handlers and creates the per-queue softirq threads.
  void Start();

  // Per-request span tracing: socket enqueue/dequeue and handler start/end.
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }

  // Requests, dedup, sheds and their counters.
  const SoftwareRpcServer& server() const { return server_; }

 private:
  struct ServiceState {
    const ServiceDef* def = nullptr;
    Process* process = nullptr;
    std::vector<Thread*> workers;
    Socket* socket = nullptr;
    size_t next_worker = 0;   // round-robin message distribution
    // Overload admission (per service): quota bucket + CoDel gate over the
    // socket receive queue.
    TokenBucket quota;
    SojournGate sojourn;
  };

  void NapiPoll(uint32_t q, Core& core);
  void PostWorkerWork(ServiceState& state);
  void WorkerStep(ServiceState& state, Core& core);
  // Admission decision for one frame headed to `state`'s socket. The signal
  // is per-service (socket depth, quota, socket sojourn); delay upstream of
  // the softirq is bounded by the device ring/FIFO sizes, where a commodity
  // NIC can only tail-drop silently.
  ShedReason AdmissionCheck(ServiceState& state);
  // Transmits the kOverloaded reply for a shed frame; returns the kernel CPU
  // cost to charge on the softirq core.
  Duration ShedFrame(uint32_t q, const ParsedFrame& frame, ShedReason reason);

  Simulator& sim_;
  Kernel& kernel_;
  DmaNic& nic_;
  DmaNicDriver& driver_;
  Msix& msix_;
  ServiceRegistry& services_;
  Config config_;
  SoftwareRpcServer server_;
  SpanCollector* spans_ = nullptr;
  std::vector<Thread*> softirq_threads_;  // one per queue
  std::unordered_map<uint16_t, std::unique_ptr<ServiceState>> by_port_;
};

}  // namespace lauberhorn

#endif  // SRC_NIC_LINUX_STACK_H_

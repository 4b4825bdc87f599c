// The simulated OS kernel: owns cores, processes, the scheduler, sockets,
// and IPI delivery, and publishes scheduling-state changes to listeners —
// the mechanism by which Lauberhorn's NIC stays aware of OS state (§5.2).
#ifndef SRC_OS_KERNEL_H_
#define SRC_OS_KERNEL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/coherence/interconnect.h"
#include "src/os/core.h"
#include "src/os/cost_model.h"
#include "src/os/process.h"
#include "src/os/scheduler.h"
#include "src/os/socket.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

// Receives OS scheduling-state updates. The Lauberhorn NIC registers one of
// these; updates reach it over the coherent interconnect (the listener models
// that latency itself).
class SchedStateListener {
 public:
  virtual ~SchedStateListener() = default;
  // `running`: the thread started (true) or stopped (false) occupying `core`.
  virtual void OnPlacement(Thread* thread, int core, bool running) = 0;
};

class Kernel {
 public:
  struct Config {
    int num_cores = 8;
    OsCostModel costs;
  };

  Kernel(Simulator& sim, CoherentInterconnect& interconnect, Config config);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Simulator& sim() { return sim_; }
  const OsCostModel& costs() const { return config_.costs; }
  size_t num_cores() const { return cores_.size(); }
  Core& core(size_t index) { return *cores_[index]; }
  Scheduler& scheduler() { return *scheduler_; }

  // -- Processes & threads --------------------------------------------------

  Process* CreateProcess(std::string name);
  Thread* AddThread(Process* process, std::string name, bool kernel_priority = false);
  // The kernel's own process (pid 0) hosting kernel threads.
  Process* kernel_process() { return kernel_process_.get(); }

  // -- Interrupts -------------------------------------------------------------

  // Sends an inter-processor interrupt; `handler_done` runs on the target
  // core in kernel context.
  void SendIpi(size_t target_core, Callback handler_done);

  // -- Sockets ---------------------------------------------------------------

  Socket* CreateSocket(uint16_t port, Thread* owner);
  Socket* LookupSocket(uint16_t port);

  // -- Scheduling-state sharing (§5.2) ---------------------------------------

  void AddSchedListener(SchedStateListener* listener);

  // Sum of busy time across all cores (for cycles/RPC accounting).
  Duration TotalBusyTime() const;
  void ResetAccounting();

 private:
  Simulator& sim_;
  Config config_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<Process> kernel_process_;
  std::vector<std::unique_ptr<Process>> processes_;
  Pid next_pid_ = 1;
  std::unordered_map<uint16_t, std::unique_ptr<Socket>> sockets_;
  std::vector<SchedStateListener*> sched_listeners_;
};

}  // namespace lauberhorn

#endif  // SRC_OS_KERNEL_H_

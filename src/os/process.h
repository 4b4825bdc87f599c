// Processes and threads: the schedulable entities of the simulated OS.
//
// A Thread does not execute real instructions; it executes *work items* —
// closures that model durations on a Core and then either finish (the thread
// blocks awaiting the next message) or re-arm themselves. The components that
// generate work (the Linux net stack, the Lauberhorn user-mode loop, RPC
// handlers) post items to threads; the Scheduler places threads on cores.
#ifndef SRC_OS_PROCESS_H_
#define SRC_OS_PROCESS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/callback.h"

namespace lauberhorn {

class Core;
class Thread;

using Pid = uint32_t;
inline constexpr Pid kNoPid = 0;  // pid 0 is the kernel

struct Process {
  Pid pid = kNoPid;
  std::string name;
  std::vector<std::unique_ptr<Thread>> threads;
};

enum class ThreadState : uint8_t {
  kBlocked,  // no work, not on any queue
  kReady,    // queued, waiting for a core
  kRunning,  // on a core
};

// A unit of modelled execution. The body receives the core it runs on; it
// must eventually call Scheduler::OnWorkDone(core) exactly once (possibly
// after chained Core::Run calls) to release the core.
using WorkItem = Function<void(Core&)>;

class Thread {
 public:
  Thread(Process* process, std::string name, bool kernel_priority = false)
      : process_(process), name_(std::move(name)), kernel_priority_(kernel_priority) {}
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  Process* process() const { return process_; }
  const std::string& name() const { return name_; }
  // Kernel-priority threads (softirq, dispatchers) preempt user threads.
  bool kernel_priority() const { return kernel_priority_; }

  ThreadState state() const { return state_; }
  void set_state(ThreadState s) { state_ = s; }

  int last_core() const { return last_core_; }
  void set_last_core(int core) { last_core_ = core; }

  // Hard affinity: when >= 0 the thread only runs on this core.
  int pinned_core() const { return pinned_core_; }
  void PinTo(int core) { pinned_core_ = core; }

  bool HasWork() const { return !work_.empty(); }
  void PushWork(WorkItem item) { work_.push_back(std::move(item)); }
  // Used when preemption re-posts the remainder of an interrupted item.
  void PushWorkFront(WorkItem item) { work_.push_front(std::move(item)); }
  WorkItem PopWork() {
    WorkItem item = std::move(work_.front());
    work_.pop_front();
    return item;
  }

 private:
  Process* process_;
  std::string name_;
  bool kernel_priority_;
  ThreadState state_ = ThreadState::kBlocked;
  int last_core_ = -1;
  int pinned_core_ = -1;
  std::deque<WorkItem> work_;
};

}  // namespace lauberhorn

#endif  // SRC_OS_PROCESS_H_

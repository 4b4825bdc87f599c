// The kernel scheduler: places ready threads on cores, modelling pick costs,
// context-switch costs, affinity, kernel-priority preemption, and timeslice
// preemption. Publishes thread placement changes so the NIC can mirror
// scheduling state (§5.2).
#ifndef SRC_OS_SCHEDULER_H_
#define SRC_OS_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/os/core.h"
#include "src/os/cost_model.h"
#include "src/os/process.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

class Scheduler {
 public:
  Scheduler(Simulator& sim, const OsCostModel& costs, std::vector<Core*> cores);

  // Makes the thread runnable (it must have work queued) and dispatches it to
  // a core if one is available. `core_hint` (>= 0) prefers that core — used
  // for IRQ-local softirq work.
  void Wake(Thread* thread, int core_hint = -1);

  // A work item finished on `core`; requeues the thread if it has more work,
  // then dispatches the next ready thread.
  void OnWorkDone(Core& core);

  // Dispatches onto `core` if it is available and work is ready.
  void TryDispatch(Core& core);

  // Starts periodic timeslice preemption (call once after setup).
  void StartTimer();

  uint64_t context_switches() const { return context_switches_; }
  uint64_t thread_switches() const { return thread_switches_; }
  uint64_t preemptions() const { return preemptions_; }
  size_t ready_count() const;

  // Invoked when a thread starts/stops occupying a core (drives the shared
  // scheduling state of §5.2).
  Function<void(Thread*, int core, bool running)> on_placement_change;

 private:
  Thread* PickNext(Core& core);
  void Enqueue(Thread* thread);
  void Dispatch(Core& core, Thread* thread);
  void HandlePreempted(Core& core, Duration remaining, CoreMode mode,
                       Callback then);
  void TimerTick();

  Simulator& sim_;
  const OsCostModel& costs_;
  std::vector<Core*> cores_;
  std::deque<Thread*> ready_kernel_;
  std::deque<Thread*> ready_user_;
  // Preempted threads resume on the core they were preempted on (their
  // in-flight continuations reference that core); new global work runs first.
  std::vector<std::deque<Thread*>> resume_;
  uint64_t context_switches_ = 0;
  uint64_t thread_switches_ = 0;
  uint64_t preemptions_ = 0;
  bool timer_started_ = false;
};

}  // namespace lauberhorn

#endif  // SRC_OS_SCHEDULER_H_

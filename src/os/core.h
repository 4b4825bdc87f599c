// A CPU core: executes modelled work, takes interrupts, and can stall on a
// blocking coherent load (the Lauberhorn endpoint mechanism).
//
// Time accounting distinguishes user work, kernel work, spin-polling, idle,
// and blocked-on-load — the categories the paper's efficiency argument is
// about: kernel bypass burns kSpin cycles; Lauberhorn parks cores in
// kBlockedOnLoad, which costs (nearly) nothing.
#ifndef SRC_OS_CORE_H_
#define SRC_OS_CORE_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "src/coherence/cache_agent.h"
#include "src/os/cost_model.h"
#include "src/os/process.h"
#include "src/sim/simulator.h"

namespace lauberhorn {

enum class CoreMode : uint8_t {
  kIdle = 0,
  kUser,
  kKernel,
  kSpin,          // busy-wait polling (kernel-bypass style)
  kBlockedOnLoad, // stalled on a deferred cache fill
};
inline constexpr int kNumCoreModes = 5;

class Core {
 public:
  Core(Simulator& sim, CoherentInterconnect& interconnect, const OsCostModel& costs,
       int index);
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  int index() const { return index_; }
  CacheAgent& cache() { return cache_; }
  CoreMode mode() const { return mode_; }

  // The thread currently occupying the core. While set, the core is not
  // available to the scheduler even if momentarily idle between modelled
  // work chunks (a work chain is still logically running).
  Thread* current_thread() const { return current_thread_; }
  void set_current_thread(Thread* t) { current_thread_ = t; }
  // The thread that last ran here (survives OnWorkDone; used for
  // switch-cost decisions).
  Thread* last_thread() const { return last_thread_; }
  void set_last_thread(Thread* t) { last_thread_ = t; }
  // Address space currently loaded (for context-switch cost decisions).
  Pid loaded_pid() const { return loaded_pid_; }
  void set_loaded_pid(Pid pid) { loaded_pid_ = pid; }

  // -- Execution -----------------------------------------------------------

  // Runs busy in `mode` for `d`, then calls `then`. Long durations are split
  // into max_run_quantum chunks; at chunk boundaries a pending preemption
  // request stops the run and hands the remainder to `on_preempted`.
  // Only one Run may be active at a time.
  void Run(Duration d, CoreMode mode, Callback then);

  // Issues a blocking load: the core stalls (kBlockedOnLoad) until the fill
  // arrives. Pending interrupts are delivered after unblocking, before
  // `then` — matching a stalled core that takes the IRQ when the load
  // retires (§5.1's preemption dance relies on this). `then` borrows the
  // loaded bytes for the call.
  void BlockOnLoad(uint64_t addr, size_t size, CacheAgent::LoadFn then);
  bool blocked_on_load() const { return mode_ == CoreMode::kBlockedOnLoad; }

  // Delivers an interrupt. Running work is paused (resumed afterwards),
  // an idle core wakes, a blocked core queues the IRQ until unblock.
  // `handler_done` runs in kernel context at handler completion; it must not
  // call Run — post work to threads instead.
  void RaiseIrq(Callback handler_done,
                Duration handler_cost = Duration{-1});

  // True if the scheduler may dispatch a thread: idle, nothing paused, no
  // work chain in flight.
  bool Available() const {
    return mode_ == CoreMode::kIdle && !paused_run_.has_value() && !in_irq_ &&
           current_thread_ == nullptr;
  }

  // -- Preemption ------------------------------------------------------------

  // Asks the active Run to stop at the next quantum boundary.
  void RequestPreempt() { preempt_requested_ = true; }
  bool preempt_requested() const { return preempt_requested_; }
  // Receives (remaining, mode, continuation) of a preempted run.
  Function<void(Duration, CoreMode, Callback)> on_preempted;
  // Invoked when the core settles into idle after IRQ processing — the hook
  // the scheduler uses to claim the core for ready threads (a real kernel
  // runs schedule() on the interrupt-return path).
  Function<void(Core&)> on_became_idle;

  // -- Accounting -------------------------------------------------------------

  Duration TimeIn(CoreMode mode) const;
  // user + kernel + spin: cycles actually burned.
  Duration BusyTime() const;
  double BusyCycles() const { return ToCycles(BusyTime(), costs_.frequency_ghz); }
  void ResetAccounting();

 private:
  struct ActiveRun {
    EventId event = kInvalidEventId;
    SimTime chunk_end = 0;
    Duration remaining_after_chunk = 0;
    CoreMode run_mode = CoreMode::kUser;
    Callback then;
  };
  struct PendingIrq {
    Duration cost;
    Callback done;
  };

  void SwitchMode(CoreMode next);
  void StartChunk(Duration total, CoreMode mode, Callback then);
  void FinishChunk();
  void DeliverIrq(PendingIrq irq);
  void AfterIrq();

  Simulator& sim_;
  const OsCostModel& costs_;
  int index_;
  CacheAgent cache_;

  CoreMode mode_ = CoreMode::kIdle;
  SimTime last_transition_ = 0;
  mutable Duration time_in_[kNumCoreModes] = {};

  Thread* current_thread_ = nullptr;
  Thread* last_thread_ = nullptr;
  Pid loaded_pid_ = kNoPid;

  std::optional<ActiveRun> active_run_;
  std::optional<ActiveRun> paused_run_;  // single level: IRQs queue while in IRQ
  bool in_irq_ = false;
  std::deque<PendingIrq> pending_irqs_;
  // Runs after the IRQ queue drains (blocked-load continuation).
  Callback after_irq_hook_;
  bool preempt_requested_ = false;
};

}  // namespace lauberhorn

#endif  // SRC_OS_CORE_H_

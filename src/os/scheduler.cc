#include "src/os/scheduler.h"

#include <cassert>
#include <utility>

namespace lauberhorn {

Scheduler::Scheduler(Simulator& sim, const OsCostModel& costs, std::vector<Core*> cores)
    : sim_(sim), costs_(costs), cores_(std::move(cores)), resume_(cores_.size()) {
  for (Core* core : cores_) {
    core->on_preempted = [this, core](Duration remaining, CoreMode mode,
                                      Callback then) {
      HandlePreempted(*core, remaining, mode, std::move(then));
    };
  }
}

void Scheduler::Enqueue(Thread* thread) {
#ifndef NDEBUG
  for (Thread* t : ready_kernel_) {
    assert(t != thread && "double enqueue (kernel)");
  }
  for (Thread* t : ready_user_) {
    assert(t != thread && "double enqueue (user)");
  }
#endif
  thread->set_state(ThreadState::kReady);
  if (thread->kernel_priority()) {
    ready_kernel_.push_back(thread);
  } else {
    ready_user_.push_back(thread);
  }
}

void Scheduler::Wake(Thread* thread, int core_hint) {
  if (thread->state() != ThreadState::kBlocked || !thread->HasWork()) {
    return;  // already queued/running, or nothing to do
  }
  Enqueue(thread);

  // Find a core: hint, hard pin, last-run affinity, then any available.
  Core* target = nullptr;
  auto consider = [&](int index) {
    if (target == nullptr && index >= 0 && index < static_cast<int>(cores_.size()) &&
        cores_[static_cast<size_t>(index)]->Available()) {
      target = cores_[static_cast<size_t>(index)];
    }
  };
  if (thread->pinned_core() >= 0) {
    consider(thread->pinned_core());
    if (target == nullptr) {
      // Pinned but its core is busy: if it is a kernel-priority thread,
      // preempt the user work running there.
      Core* pinned = cores_[static_cast<size_t>(thread->pinned_core())];
      if (thread->kernel_priority() && pinned->mode() == CoreMode::kUser) {
        pinned->RequestPreempt();
      }
      return;
    }
  } else {
    consider(core_hint);
    consider(thread->last_core());
    for (Core* core : cores_) {
      if (target != nullptr) {
        break;
      }
      if (core->Available()) {
        target = core;
      }
    }
  }

  if (target != nullptr) {
    TryDispatch(*target);
    return;
  }
  // No idle core. Kernel-priority work preempts a user core.
  if (thread->kernel_priority()) {
    for (Core* core : cores_) {
      if (core->mode() == CoreMode::kUser) {
        core->RequestPreempt();
        break;
      }
    }
  }
}

Thread* Scheduler::PickNext(Core& core) {
  auto take = [&](std::deque<Thread*>& q) -> Thread* {
    for (auto it = q.begin(); it != q.end(); ++it) {
      Thread* t = *it;
      if (t->pinned_core() >= 0 && t->pinned_core() != core.index()) {
        continue;
      }
      q.erase(it);
      return t;
    }
    return nullptr;
  };
  if (Thread* t = take(ready_kernel_)) {
    return t;
  }
  if (Thread* t = take(ready_user_)) {
    return t;
  }
  // Nothing global: resume preempted work that belongs to this core.
  auto& resume = resume_[static_cast<size_t>(core.index())];
  if (!resume.empty()) {
    Thread* t = resume.front();
    resume.pop_front();
    return t;
  }
  return nullptr;
}

size_t Scheduler::ready_count() const {
  size_t count = ready_kernel_.size() + ready_user_.size();
  for (const auto& q : resume_) {
    count += q.size();
  }
  return count;
}

void Scheduler::TryDispatch(Core& core) {
  if (!core.Available()) {
    return;
  }
  Thread* next = PickNext(core);
  if (next == nullptr) {
    return;
  }
  Dispatch(core, next);
}

void Scheduler::Dispatch(Core& core, Thread* thread) {
  assert(thread->HasWork());
  thread->set_state(ThreadState::kRunning);
  thread->set_last_core(core.index());

  Duration cost = costs_.sched_pick;
  const Pid next_pid = thread->process() != nullptr ? thread->process()->pid : kNoPid;
  if (core.last_thread() == thread) {
    // Same thread resumes: no switch cost beyond the pick.
  } else if (core.loaded_pid() == next_pid) {
    cost += costs_.thread_switch;
    ++thread_switches_;
  } else {
    cost += costs_.context_switch;
    ++context_switches_;
  }
  core.set_current_thread(thread);
  core.set_last_thread(thread);
  core.set_loaded_pid(next_pid);
  if (on_placement_change) {
    on_placement_change(thread, core.index(), /*running=*/true);
  }

  core.Run(cost, CoreMode::kKernel, [this, &core, thread]() {
    if (!thread->HasWork()) {
      // Work was stolen/cancelled while we switched; give the core back.
      OnWorkDone(core);
      return;
    }
    WorkItem item = thread->PopWork();
    item(core);
  });
}

void Scheduler::OnWorkDone(Core& core) {
  Thread* thread = core.current_thread();
  if (thread != nullptr) {
    assert(thread->state() == ThreadState::kRunning && "OnWorkDone on stale thread");
    if (on_placement_change) {
      on_placement_change(thread, core.index(), /*running=*/false);
    }
    if (thread->HasWork()) {
      Enqueue(thread);
    } else {
      thread->set_state(ThreadState::kBlocked);
    }
    core.set_current_thread(nullptr);  // the core is free again
  }
  TryDispatch(core);
}

void Scheduler::HandlePreempted(Core& core, Duration remaining, CoreMode mode,
                                Callback then) {
  ++preemptions_;
  Thread* thread = core.current_thread();
  assert(thread != nullptr);
  thread->PushWorkFront([remaining, mode, then = std::move(then)](Core& c) mutable {
    c.Run(remaining, mode, std::move(then));
  });
  if (on_placement_change) {
    on_placement_change(thread, core.index(), /*running=*/false);
  }
  // The interrupted continuation references this core; resume here only.
  thread->set_state(ThreadState::kReady);
  resume_[static_cast<size_t>(core.index())].push_back(thread);
  core.set_current_thread(nullptr);
  TryDispatch(core);
}

void Scheduler::TimerTick() {
  // Preempt user work when user threads are waiting for a core (globally, or
  // preempted work parked on that specific core).
  for (size_t i = 0; i < cores_.size(); ++i) {
    Core* core = cores_[i];
    if (core->mode() == CoreMode::kUser &&
        (!ready_user_.empty() || !resume_[i].empty())) {
      core->RequestPreempt();
    }
  }
  sim_.Schedule(costs_.timeslice, [this]() { TimerTick(); });
}

void Scheduler::StartTimer() {
  if (timer_started_) {
    return;
  }
  timer_started_ = true;
  sim_.Schedule(costs_.timeslice, [this]() { TimerTick(); });
}

}  // namespace lauberhorn

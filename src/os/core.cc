#include "src/os/core.h"

#include <cassert>
#include <utility>

namespace lauberhorn {

Core::Core(Simulator& sim, CoherentInterconnect& interconnect, const OsCostModel& costs,
           int index)
    : sim_(sim), costs_(costs), index_(index), cache_(interconnect) {}

void Core::SwitchMode(CoreMode next) {
  time_in_[static_cast<int>(mode_)] += sim_.Now() - last_transition_;
  last_transition_ = sim_.Now();
  mode_ = next;
}

Duration Core::TimeIn(CoreMode mode) const {
  Duration t = time_in_[static_cast<int>(mode)];
  if (mode == mode_) {
    t += sim_.Now() - last_transition_;
  }
  return t;
}

Duration Core::BusyTime() const {
  return TimeIn(CoreMode::kUser) + TimeIn(CoreMode::kKernel) + TimeIn(CoreMode::kSpin);
}

void Core::ResetAccounting() {
  for (auto& t : time_in_) {
    t = 0;
  }
  last_transition_ = sim_.Now();
}

void Core::Run(Duration d, CoreMode mode, Callback then) {
  assert(!active_run_.has_value() && "core already running a work item");
  assert(mode == CoreMode::kUser || mode == CoreMode::kKernel || mode == CoreMode::kSpin);
  StartChunk(d, mode, std::move(then));
}

void Core::StartChunk(Duration total, CoreMode mode, Callback then) {
  SwitchMode(mode);
  const Duration chunk = std::min(total, costs_.max_run_quantum);
  ActiveRun run;
  run.run_mode = mode;
  run.remaining_after_chunk = total - chunk;
  run.chunk_end = sim_.Now() + chunk;
  run.then = std::move(then);
  run.event = sim_.Schedule(chunk, [this]() { FinishChunk(); });
  active_run_ = std::move(run);
}

void Core::FinishChunk() {
  assert(active_run_.has_value());
  ActiveRun run = std::move(*active_run_);
  active_run_.reset();

  if (run.remaining_after_chunk > 0) {
    // Quantum boundary: honour preemption of user work.
    if (preempt_requested_ && run.run_mode == CoreMode::kUser && on_preempted) {
      preempt_requested_ = false;
      SwitchMode(CoreMode::kIdle);
      on_preempted(run.remaining_after_chunk, run.run_mode, std::move(run.then));
      return;
    }
    StartChunk(run.remaining_after_chunk, run.run_mode, std::move(run.then));
    return;
  }

  SwitchMode(CoreMode::kIdle);
  // The continuation usually either starts another Run or returns the core
  // to the scheduler; both re-account the mode themselves.
  run.then();
}

void Core::BlockOnLoad(uint64_t addr, size_t size, CacheAgent::LoadFn then) {
  assert(!active_run_.has_value() && "cannot block while running");
  assert(mode_ != CoreMode::kBlockedOnLoad && "already blocked");
  SwitchMode(CoreMode::kBlockedOnLoad);
  // Control-line loads are non-caching (load-to-registers): the home always
  // sees them and no stale copy can linger locally.
  cache_.LoadThrough(addr, size,
                     [this, then = std::move(then)](std::span<const uint8_t> data) mutable {
    SwitchMode(CoreMode::kIdle);
    if (pending_irqs_.empty()) {
      then(data);
      return;
    }
    // The stalled load has retired; the core takes the queued interrupt(s)
    // before user software sees the data. The continuation runs after the
    // IRQ queue drains.
    assert(!after_irq_hook_ && "continuation already pending");
    after_irq_hook_ = [then = std::move(then), data = LineData(data)]() mutable {
      then(data);
    };
    auto irq = std::move(pending_irqs_.front());
    pending_irqs_.pop_front();
    DeliverIrq(std::move(irq));
  });
}

void Core::RaiseIrq(Callback handler_done, Duration handler_cost) {
  PendingIrq irq;
  irq.cost = handler_cost >= 0 ? handler_cost : costs_.irq_top_half;
  irq.done = std::move(handler_done);

  if (mode_ == CoreMode::kBlockedOnLoad || in_irq_) {
    pending_irqs_.push_back(std::move(irq));
    return;
  }
  if (active_run_.has_value()) {
    // Pause the running work: bank what is left of the current chunk.
    ActiveRun run = std::move(*active_run_);
    active_run_.reset();
    sim_.Cancel(run.event);
    const Duration left_in_chunk = run.chunk_end - sim_.Now();
    run.remaining_after_chunk += left_in_chunk;
    paused_run_ = std::move(run);
  }
  DeliverIrq(std::move(irq));
}

void Core::DeliverIrq(PendingIrq irq) {
  const Duration wake = mode_ == CoreMode::kIdle ? costs_.idle_exit : Duration{0};
  in_irq_ = true;
  SwitchMode(CoreMode::kKernel);
  sim_.Schedule(costs_.irq_entry + wake + irq.cost, [this, done = std::move(irq.done)]() {
    if (done) {
      done();
    }
    AfterIrq();
  });
}

void Core::AfterIrq() {
  if (!pending_irqs_.empty()) {
    auto irq = std::move(pending_irqs_.front());
    pending_irqs_.pop_front();
    DeliverIrq(std::move(irq));
    return;
  }
  in_irq_ = false;
  if (paused_run_.has_value()) {
    ActiveRun run = std::move(*paused_run_);
    paused_run_.reset();
    StartChunk(run.remaining_after_chunk, run.run_mode, std::move(run.then));
    return;
  }
  SwitchMode(CoreMode::kIdle);
  if (after_irq_hook_) {
    auto hook = std::move(after_irq_hook_);
    after_irq_hook_ = nullptr;
    hook();
    return;
  }
  if (on_became_idle) {
    on_became_idle(*this);
  }
}

}  // namespace lauberhorn

#include "src/os/kernel.h"

#include <cassert>
#include <utility>

namespace lauberhorn {

Kernel::Kernel(Simulator& sim, CoherentInterconnect& interconnect, Config config)
    : sim_(sim), config_(std::move(config)) {
  cores_.reserve(static_cast<size_t>(config_.num_cores));
  std::vector<Core*> raw;
  for (int i = 0; i < config_.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(sim_, interconnect, config_.costs, i));
    raw.push_back(cores_.back().get());
  }
  scheduler_ = std::make_unique<Scheduler>(sim_, config_.costs, std::move(raw));
  for (auto& core : cores_) {
    core->on_became_idle = [this](Core& c) {
      // Defer one event so the IRQ machinery fully unwinds first.
      sim_.Schedule(0, [this, &c]() { scheduler_->TryDispatch(c); });
    };
  }
  scheduler_->on_placement_change = [this](Thread* thread, int core, bool running) {
    for (SchedStateListener* listener : sched_listeners_) {
      listener->OnPlacement(thread, core, running);
    }
  };
  kernel_process_ = std::make_unique<Process>();
  kernel_process_->pid = kNoPid;
  kernel_process_->name = "kernel";
}

Process* Kernel::CreateProcess(std::string name) {
  auto process = std::make_unique<Process>();
  process->pid = next_pid_++;
  process->name = std::move(name);
  processes_.push_back(std::move(process));
  return processes_.back().get();
}

Thread* Kernel::AddThread(Process* process, std::string name, bool kernel_priority) {
  assert(process != nullptr);
  process->threads.push_back(
      std::make_unique<Thread>(process, std::move(name), kernel_priority));
  return process->threads.back().get();
}

void Kernel::SendIpi(size_t target_core, Callback handler_done) {
  assert(target_core < cores_.size());
  sim_.Schedule(config_.costs.ipi, [this, target_core,
                                    handler_done = std::move(handler_done)]() mutable {
    cores_[target_core]->RaiseIrq(std::move(handler_done));
  });
}

Socket* Kernel::CreateSocket(uint16_t port, Thread* owner) {
  auto [it, inserted] = sockets_.emplace(port, std::make_unique<Socket>(port, owner));
  assert(inserted && "port already bound");
  return it->second.get();
}

Socket* Kernel::LookupSocket(uint16_t port) {
  auto it = sockets_.find(port);
  return it != sockets_.end() ? it->second.get() : nullptr;
}

void Kernel::AddSchedListener(SchedStateListener* listener) {
  sched_listeners_.push_back(listener);
}

Duration Kernel::TotalBusyTime() const {
  Duration total = 0;
  for (const auto& core : cores_) {
    total += core->BusyTime();
  }
  return total;
}

void Kernel::ResetAccounting() {
  for (auto& core : cores_) {
    core->ResetAccounting();
  }
}

}  // namespace lauberhorn

// Host-clock attribution for the traced run.
//
// The benchmark wraps the public entry points of each layer (a packet sink in
// front of a NIC, the switch or a client; the client and load-balancer call
// paths; each replica's queue-depth probe) in a Scope. Scopes nest: a frame's
// self time is its duration minus the time of the frames opened inside it, so
// the self times of all layers never overlap, and the event loop's host time
// minus their sum is exactly the time no wrapper covers.
#ifndef PERFBENCH_HOST_TIMERS_H_
#define PERFBENCH_HOST_TIMERS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/net/link.h"

namespace lauberhorn::perfbench {

enum class HostLayer : size_t {
  kClientCall,  // RpcClient::CallRaw (single-machine workloads)
  kClientRx,    // RpcClient::ReceivePacket (with ClusterClient's outcome handling)
  kNicRx,       // LauberhornNic / DmaNic ::ReceivePacket
  kSwitch,      // IpSwitch::ReceivePacket
  kLbCall,      // ClusterClient::Call, minus the probes it runs
  kLbProbe,     // ReplicaInfo::queue_depth
  kBench,       // the benchmark's own input generation and output checks
  kCount,
};

class HostTimers {
 public:
  using Clock = std::chrono::steady_clock;

  // Times one call into a layer. A null `timers` makes the scope free, so
  // the untraced run pays one branch.
  class Scope {
   public:
    Scope(HostTimers* timers, HostLayer layer) : timers_(timers), layer_(layer) {
      if (timers_ != nullptr) {
        timers_->Enter();
      }
    }
    ~Scope() {
      if (timers_ != nullptr) {
        timers_->Exit(layer_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTimers* timers_;
    HostLayer layer_;
  };

  int64_t self_ns(HostLayer layer) const { return self_ns_[Index(layer)]; }
  uint64_t calls(HostLayer layer) const { return calls_[Index(layer)]; }
  int64_t total_self_ns() const {
    int64_t total = 0;
    for (const int64_t ns : self_ns_) {
      total += ns;
    }
    return total;
  }
  void Reset() {
    self_ns_.fill(0);
    calls_.fill(0);
  }

 private:
  struct Frame {
    Clock::time_point start;
    int64_t child_ns = 0;
  };

  static size_t Index(HostLayer layer) { return static_cast<size_t>(layer); }

  void Enter() { stack_.push_back({Clock::now(), 0}); }
  void Exit(HostLayer layer) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const int64_t elapsed =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             frame.start)
            .count();
    self_ns_[Index(layer)] += elapsed - frame.child_ns;
    ++calls_[Index(layer)];
    if (!stack_.empty()) {
      stack_.back().child_ns += elapsed;
    }
  }

  std::vector<Frame> stack_;
  std::array<int64_t, static_cast<size_t>(HostLayer::kCount)> self_ns_{};
  std::array<uint64_t, static_cast<size_t>(HostLayer::kCount)> calls_{};
};

// A packet sink that times every delivery into `inner` as one `layer` call.
class TimedSink : public PacketSink {
 public:
  TimedSink(PacketSink* inner, HostTimers* timers, HostLayer layer)
      : inner_(inner), timers_(timers), layer_(layer) {}

  void ReceivePacket(Packet packet) override {
    HostTimers::Scope scope(timers_, layer_);
    inner_->ReceivePacket(std::move(packet));
  }

 private:
  PacketSink* inner_;
  HostTimers* timers_;
  HostLayer layer_;
};

}  // namespace lauberhorn::perfbench

#endif  // PERFBENCH_HOST_TIMERS_H_

// Cluster service directory: maps service ids to replica sets with
// per-replica placement and health.
//
// The paper's dispatch decision (§5.2: the NIC picks hot-user-poll vs
// cold-kernel per packet) happens on one machine; the ROADMAP north star
// ("heavy traffic from millions of users") needs the same decision made
// cluster-wide — which replica, on which machine, on which stack. The
// directory is the shared control-plane state: every client edge resolves
// replicas through it, feeds health observations back (timeout streaks mark
// a replica down; a successful probe marks it up), and the load-balancing
// policies (src/cluster/lb_policy.h) read its per-replica load signals —
// kOverloaded pushes observed at the edge plus the NIC-exported
// admission-queue depth — to steer traffic away from overload before the
// server has to shed it.
#ifndef SRC_CLUSTER_DIRECTORY_H_
#define SRC_CLUSTER_DIRECTORY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/machine.h"

namespace lauberhorn {

// Where a replica's requests land on its machine: parked user-mode poll
// loops (the Lauberhorn hot path) or kernel-mediated dispatch. Placement is
// advisory metadata — LeastLoaded uses it as a tie-break preference, and
// operators read it in DebugReport-style dumps.
enum class PlacementKind {
  kHotUserPoll,
  kColdKernel,
};

std::string ToString(PlacementKind placement);

// Replica health as seen by the dispatch plane. kDegraded is the NIC-recovery
// signal (DESIGN.md §16): the replica's machine is replaying its NIC shadow —
// it still answers (retransmit + dedup carry requests across the blackout),
// so it stays resolvable and keeps its hash-ring keys, but LeastLoaded
// penalizes it until the host publishes recovery completion.
enum class ReplicaHealth {
  kUp,
  kDegraded,
  kDown,
};

std::string ToString(ReplicaHealth health);

// Tenant wildcard: a replica tagged kAnyTenant serves every tenant, and a
// client resolving as kAnyTenant sees every replica (the pre-multi-tenant
// behavior). Matches the NIC's VF model: a tenant's replica set is the
// service endpoints allocated on that tenant's VF.
inline constexpr uint32_t kAnyTenant = 0xffffffffu;

// Static identity + placement of one replica of a service.
struct ReplicaInfo {
  uint32_t machine = 0;  // testbed machine index
  uint32_t ip = 0;       // server L3 address the replica answers on
  uint16_t udp_port = 0;
  // Tenant that owns this replica (the VF id on a Lauberhorn machine).
  uint32_t tenant = kAnyTenant;
  StackKind stack = StackKind::kLauberhorn;
  PlacementKind placement = PlacementKind::kHotUserPoll;
  // NIC-side load signal: instantaneous admission-queue depth for this
  // service on the replica's machine (endpoint pending + cold backlog).
  // Models the NIC exporting its queue registers to the cluster plane;
  // nullable — LeastLoaded falls back to edge-observed signals.
  std::function<size_t()> queue_depth;
};

// Builds a queue-depth probe for a service hosted on a Lauberhorn machine:
// the service's NIC backlog register (its endpoints' pending queues plus its
// central queue) plus the shared cold-queue backlog. The probe captures the
// register's address once, so each call is two loads of live NIC state.
std::function<size_t()> MakeLauberhornDepthProbe(Machine& machine,
                                                 const ServiceDef& service);

class ServiceDirectory {
 public:
  struct Replica {
    ReplicaInfo info;
    // Health: a down replica is skipped by resolution until `down_until`,
    // after which it becomes probe-eligible again (the next pick may land on
    // it; success marks it up). A degraded replica stays eligible — policies
    // read the state and steer around it without evicting its keys.
    ReplicaHealth health = ReplicaHealth::kUp;
    SimTime down_until = 0;
    // Edge-observed load signals, maintained by ClusterClient.
    int outstanding = 0;          // in-flight requests placed on this replica
    double overload_score = 0.0;  // decaying count of kOverloaded replies
    SimTime overload_at = 0;      // last decay anchor
    uint32_t timeout_streak = 0;  // consecutive kTimedOut outcomes
    uint64_t ok = 0;
    uint64_t overloaded = 0;
    uint64_t timeouts = 0;
  };

  struct Stats {
    uint64_t resolutions = 0;
    uint64_t marked_down = 0;
    uint64_t marked_degraded = 0;
    uint64_t marked_up = 0;
  };

  // Registers a replica; returns its index within the service's replica set.
  size_t AddReplica(uint32_t service_id, ReplicaInfo info);

  bool HasService(uint32_t service_id) const {
    return services_.count(service_id) != 0;
  }
  size_t NumReplicas(uint32_t service_id) const;
  const Replica& replica(uint32_t service_id, size_t index) const;
  Replica& replica(uint32_t service_id, size_t index);
  // The whole replica set, indexed like replica(); empty for an unknown
  // service. One lookup for callers that visit many replicas. Invalidated by
  // AddReplica on the same service.
  std::span<const Replica> replicas(uint32_t service_id) const;

  // Fills `eligible` (cleared first) with the indices of replicas eligible
  // for placement at `now`: up, or down but past down_until
  // (probe-eligible), and owned by `tenant` (kAnyTenant replicas match every
  // tenant, and resolving as kAnyTenant sees every replica). Counted as one
  // resolution. The caller owns the buffer, so a reused one never allocates.
  void Resolve(uint32_t service_id, SimTime now, std::vector<size_t>& eligible,
               uint32_t tenant = kAnyTenant);

  void MarkDown(uint32_t service_id, size_t index, SimTime until);
  // Publishes NIC-recovery-in-progress: kUp -> kDegraded. A down replica
  // stays down (degradation never upgrades health).
  void MarkDegraded(uint32_t service_id, size_t index);
  void MarkUp(uint32_t service_id, size_t index);

  const Stats& stats() const { return stats_; }

 private:
  std::unordered_map<uint32_t, std::vector<Replica>> services_;
  Stats stats_;
};

}  // namespace lauberhorn

#endif  // SRC_CLUSTER_DIRECTORY_H_

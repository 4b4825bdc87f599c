#include "src/cluster/directory.h"

#include <cassert>

namespace lauberhorn {

std::string ToString(PlacementKind placement) {
  switch (placement) {
    case PlacementKind::kHotUserPoll:
      return "hot-user-poll";
    case PlacementKind::kColdKernel:
      return "cold-kernel";
  }
  return "?";
}

std::string ToString(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kUp:
      return "up";
    case ReplicaHealth::kDegraded:
      return "degraded";
    case ReplicaHealth::kDown:
      return "down";
  }
  return "?";
}

std::function<size_t()> MakeLauberhornDepthProbe(Machine& machine,
                                                 const ServiceDef& service) {
  LauberhornNic* nic = machine.lauberhorn_nic();
  if (nic == nullptr) {
    return nullptr;
  }
  // The backlog register is the dispatch policy's aggregate signal (§13,
  // §18): every member endpoint's private queue plus the central queue
  // counted once, so least-loaded comparisons stay truthful under c-FCFS /
  // JBSQ (where the per-endpoint queues are empty by design).
  const size_t* backlog = &nic->BacklogRegister(service.service_id);
  return [nic, backlog]() -> size_t { return nic->ColdQueueDepth() + *backlog; };
}

size_t ServiceDirectory::AddReplica(uint32_t service_id, ReplicaInfo info) {
  std::vector<Replica>& set = services_[service_id];
  Replica replica;
  replica.info = std::move(info);
  set.push_back(std::move(replica));
  return set.size() - 1;
}

size_t ServiceDirectory::NumReplicas(uint32_t service_id) const {
  auto it = services_.find(service_id);
  return it == services_.end() ? 0 : it->second.size();
}

const ServiceDirectory::Replica& ServiceDirectory::replica(
    uint32_t service_id, size_t index) const {
  auto it = services_.find(service_id);
  assert(it != services_.end() && index < it->second.size());
  return it->second[index];
}

ServiceDirectory::Replica& ServiceDirectory::replica(uint32_t service_id,
                                                     size_t index) {
  auto it = services_.find(service_id);
  assert(it != services_.end() && index < it->second.size());
  return it->second[index];
}

std::span<const ServiceDirectory::Replica> ServiceDirectory::replicas(
    uint32_t service_id) const {
  auto it = services_.find(service_id);
  if (it == services_.end()) {
    return {};
  }
  return it->second;
}

void ServiceDirectory::Resolve(uint32_t service_id, SimTime now,
                               std::vector<size_t>& eligible, uint32_t tenant) {
  ++stats_.resolutions;
  eligible.clear();
  const std::span<const Replica> set = replicas(service_id);
  for (size_t i = 0; i < set.size(); ++i) {
    const Replica& r = set[i];
    const bool tenant_ok = tenant == kAnyTenant ||
                           r.info.tenant == kAnyTenant ||
                           r.info.tenant == tenant;
    if (tenant_ok &&
        (r.health != ReplicaHealth::kDown || now >= r.down_until)) {
      eligible.push_back(i);
    }
  }
}

void ServiceDirectory::MarkDown(uint32_t service_id, size_t index,
                                SimTime until) {
  Replica& r = replica(service_id, index);
  if (r.health != ReplicaHealth::kDown) {
    ++stats_.marked_down;
  }
  r.health = ReplicaHealth::kDown;
  r.down_until = until;
}

void ServiceDirectory::MarkDegraded(uint32_t service_id, size_t index) {
  Replica& r = replica(service_id, index);
  if (r.health == ReplicaHealth::kUp) {
    ++stats_.marked_degraded;
    r.health = ReplicaHealth::kDegraded;
  }
}

void ServiceDirectory::MarkUp(uint32_t service_id, size_t index) {
  Replica& r = replica(service_id, index);
  if (r.health != ReplicaHealth::kUp) {
    ++stats_.marked_up;
  }
  r.health = ReplicaHealth::kUp;
  r.down_until = 0;
  r.timeout_streak = 0;
}

}  // namespace lauberhorn

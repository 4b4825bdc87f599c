#include "src/cluster/lb_policy.h"

#include <algorithm>
#include <cassert>

namespace lauberhorn {

uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t RoundRobinPolicy::Pick(const ServiceDirectory& directory,
                              uint32_t service_id,
                              const std::vector<size_t>& candidates,
                              uint64_t shard_key, SimTime now) {
  (void)directory;
  (void)shard_key;
  (void)now;
  assert(!candidates.empty());
  uint64_t cursor = next_[service_id]++;
  return candidates[cursor % candidates.size()];
}

bool VnodeCollisionWins(size_t r_new, int v_new, size_t r_old, int v_old) {
  if (r_new != r_old) return r_new < r_old;
  return v_new < v_old;
}

ConsistentHashPolicy::Ring& ConsistentHashPolicy::RingFor(
    uint32_t service_id, size_t num_replicas) {
  Ring& ring = rings_[service_id];
  if (ring.built_for != num_replicas) {
    ring.points.clear();
    // Point collisions must resolve to a deterministic owner, not whichever
    // vnode the build loop visited last/first. Two layers:
    //
    //  1. The old single-mix packing (service<<32) ^ (r<<8) ^ v aliased
    //     structurally — (r, v) and (r+1, v-256) fed MixHash64 the same
    //     input whenever vnodes > 256, so whole vnodes silently vanished
    //     from the ring. Chaining two mixes keys the first stage uniquely
    //     per (service, replica) so the vnode index can no longer carry
    //     into the replica bits.
    //  2. Any residual 64-bit hash collision is broken explicitly by the
    //     smallest (replica id, vnode index) pair.
    struct Owner {
      size_t r;
      int v;
    };
    std::map<uint64_t, Owner> owners;
    for (size_t r = 0; r < num_replicas; ++r) {
      const uint64_t replica_seed =
          MixHash64((static_cast<uint64_t>(service_id) << 32) |
                    static_cast<uint64_t>(r));
      for (int v = 0; v < vnodes_; ++v) {
        const uint64_t point =
            MixHash64(replica_seed ^ static_cast<uint64_t>(v));
        auto [it, inserted] = owners.emplace(point, Owner{r, v});
        if (!inserted && VnodeCollisionWins(r, v, it->second.r, it->second.v)) {
          it->second = Owner{r, v};
        }
      }
    }
    for (const auto& [point, owner] : owners) {
      ring.points.emplace(point, owner.r);
    }
    ring.built_for = num_replicas;
  }
  return ring;
}

size_t ConsistentHashPolicy::Pick(const ServiceDirectory& directory,
                                  uint32_t service_id,
                                  const std::vector<size_t>& candidates,
                                  uint64_t shard_key, SimTime now) {
  (void)now;
  assert(!candidates.empty());
  const size_t num_replicas = directory.NumReplicas(service_id);
  Ring& ring = RingFor(service_id, num_replicas);
  // Walk clockwise from the key's point until an eligible replica owns the
  // position: keys of a downed replica spill to the next vnode owner while
  // everyone else's assignment stays put.
  uint64_t key = MixHash64(shard_key);
  auto it = ring.points.lower_bound(key);
  for (size_t step = 0; step < ring.points.size(); ++step) {
    if (it == ring.points.end()) {
      it = ring.points.begin();
    }
    if (std::binary_search(candidates.begin(), candidates.end(), it->second)) {
      return it->second;
    }
    ++it;
  }
  return candidates.front();  // ring empty (no vnodes): degrade gracefully
}

double LeastLoadedPolicy::Score(const ServiceDirectory::Replica& r) const {
  double score = weights_.outstanding * static_cast<double>(r.outstanding) +
                 weights_.overload_score * r.overload_score;
  if (weights_.queue_depth > 0 && r.info.queue_depth) {
    score += weights_.queue_depth * static_cast<double>(r.info.queue_depth());
  }
  if (r.info.placement == PlacementKind::kColdKernel) {
    score += weights_.cold_penalty;
  }
  if (r.health == ReplicaHealth::kDegraded) {
    score += weights_.degraded_penalty;
  }
  return score;
}

size_t LeastLoadedPolicy::Pick(const ServiceDirectory& directory,
                               uint32_t service_id,
                               const std::vector<size_t>& candidates,
                               uint64_t shard_key, SimTime now) {
  (void)shard_key;
  (void)now;
  assert(!candidates.empty());
  const std::span<const ServiceDirectory::Replica> set =
      directory.replicas(service_id);
  // Ties rotate so an all-idle set still spreads instead of hammering the
  // lowest index.
  const size_t offset = tie_breaker_++ % candidates.size();
  size_t best = candidates[offset];
  double best_score = Score(set[best]);
  for (size_t i = 1; i < candidates.size(); ++i) {
    size_t idx = candidates[(offset + i) % candidates.size()];
    double score = Score(set[idx]);
    if (score < best_score) {
      best = idx;
      best_score = score;
    }
  }
  return best;
}

}  // namespace lauberhorn

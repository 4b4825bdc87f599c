// ClusterClient: a machine's edge into the cluster dispatch plane.
//
// Wraps the machine-local RpcClient: each Call resolves the service through
// the ServiceDirectory, lets the configured LbPolicy pick a replica, and
// sends with RpcClient::CallRawTo. The edge then closes the loop:
//
//   - every outcome updates the picked replica's load signals (outstanding,
//     decayed overload score, timeout streak) so LeastLoaded sees fresh data;
//   - a kOverloaded reply optionally diverts the request to a different
//     replica (the server sheds *before* executing — PR-3's admission layer
//     aborts the dedup entry — so a divert cannot double-execute);
//   - a kTimedOut outcome optionally fails over to a different replica.
//     Crash windows in this model are fail-stop (inbound RX is blackholed;
//     nothing executes without responding), so a timeout means the request
//     did not commit at that replica and retrying elsewhere preserves
//     at-most-once cluster-wide. Consecutive timeouts mark the replica down
//     for `down_duration`, after which it becomes probe-eligible.
//
// Retransmits of a single attempt stay pinned to the attempt's replica
// (dedup caches are per machine); only a fresh attempt — a new request id —
// moves to a new replica.
#ifndef SRC_CLUSTER_CLUSTER_CLIENT_H_
#define SRC_CLUSTER_CLUSTER_CLIENT_H_

#include <cstdint>
#include <vector>

#include "src/cluster/directory.h"
#include "src/cluster/lb_policy.h"
#include "src/core/client.h"

namespace lauberhorn {

class ClusterClient {
 public:
  struct Config {
    // Extra replicas tried after the first pick (failover/divert budget).
    int max_failovers = 2;
    // Consecutive kTimedOut outcomes before a replica is marked down...
    uint32_t down_after_timeouts = 2;
    // ...for this long (then probe-eligible again).
    Duration down_duration = Milliseconds(2);
    // Half-life of the per-replica kOverloaded score LeastLoaded reads.
    Duration overload_decay = Microseconds(200);
    // Tenant this edge belongs to: resolution only sees replicas owned by
    // this tenant (plus kAnyTenant replicas). Default: no scoping.
    uint32_t tenant = kAnyTenant;
  };

  struct Stats {
    uint64_t calls = 0;      // top-level Call() invocations
    uint64_t attempts = 0;   // replica sends (calls + failovers + diverts)
    uint64_t ok = 0;
    uint64_t failovers = 0;  // re-picks after kTimedOut
    uint64_t diverts = 0;    // re-picks after kOverloaded
    uint64_t exhausted = 0;  // delivered a failure after the retry budget
    uint64_t no_replica = 0; // resolution returned an empty eligible set
  };

  using DoneFn = Function<void(const RpcMessage&, Duration rtt)>;

  ClusterClient(Simulator& sim, RpcClient& client, ServiceDirectory& directory,
                LbPolicy& policy);
  ClusterClient(Simulator& sim, RpcClient& client, ServiceDirectory& directory,
                LbPolicy& policy, Config config);

  // Issues one cluster call. `shard_key` feeds consistent hashing (0 = no
  // affinity). `on_done` sees the final outcome after any failovers; `rtt`
  // spans the whole call including failed attempts.
  void Call(uint32_t service_id, uint16_t method_id,
            std::vector<uint8_t> payload, uint64_t shard_key = 0,
            DoneFn on_done = nullptr);

  const Stats& stats() const { return stats_; }
  ServiceDirectory& directory() { return directory_; }

 private:
  struct CallCtx {
    uint32_t service_id = 0;
    uint16_t method_id = 0;
    std::vector<uint8_t> payload;
    uint64_t shard_key = 0;
    DoneFn on_done;
    SimTime started_at = 0;
    int attempts_left = 0;
    std::vector<size_t> tried;  // replica indices already attempted
  };

  void Attempt(CallCtx* ctx);
  void Finish(CallCtx* ctx, const RpcMessage& response);
  void OnOutcome(CallCtx* ctx, size_t replica_index, const RpcMessage& response);
  // Applies the exponential half-life decay up to `now`, then adds `add`.
  void BumpOverloadScore(ServiceDirectory::Replica& replica, double add);

  Simulator& sim_;
  RpcClient& client_;
  ServiceDirectory& directory_;
  LbPolicy& policy_;
  Config config_;
  Stats stats_;
  // Attempt's scratch: the eligible set and its not-yet-tried subset.
  std::vector<size_t> candidates_;
  std::vector<size_t> untried_;
};

}  // namespace lauberhorn

#endif  // SRC_CLUSTER_CLUSTER_CLIENT_H_

// Cluster dispatch plane (src/cluster): directory health, load-balancing
// policies, failover at-most-once under crash windows, cluster-unique
// request ids, and the queued fabric's drop accounting.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "src/cluster/cluster_client.h"
#include "src/core/testbed.h"
#include "src/net/link.h"

namespace lauberhorn {
namespace {

ReplicaInfo StubReplica(uint32_t machine) {
  ReplicaInfo info;
  info.machine = machine;
  info.ip = MakeIpv4(10, 0, static_cast<uint8_t>(machine), 2);
  info.udp_port = 7000;
  return info;
}

// Echo-with-sequence service; bumps `executions[seq]` per handler run so
// tests can prove at-most-once execution cluster-wide.
ServiceDef MakeSeqService(uint32_t id, uint16_t port,
                          std::unordered_map<uint64_t, uint32_t>* executions) {
  ServiceDef def;
  def.service_id = id;
  def.name = "seq";
  def.udp_port = port;
  MethodDef echo;
  echo.method_id = 0;
  echo.request_sig.args = {WireType::kU64};
  echo.response_sig.args = {WireType::kU64};
  echo.handler = [executions](const std::vector<WireValue>& args) {
    if (executions != nullptr) {
      ++(*executions)[args[0].scalar];
    }
    return std::vector<WireValue>{WireValue::U64(args[0].scalar)};
  };
  echo.SetFixedServiceTime(Microseconds(1));
  def.methods[0] = std::move(echo);
  return def;
}

std::vector<uint8_t> SeqPayload(uint64_t seq) {
  std::vector<uint8_t> payload;
  MarshalArgs(MethodSignature{{WireType::kU64}},
              std::vector<WireValue>{WireValue::U64(seq)}, payload);
  return payload;
}

TEST(DirectoryTest, ResolveSkipsDownUntilDeadline) {
  ServiceDirectory directory;
  directory.AddReplica(1, StubReplica(0));
  directory.AddReplica(1, StubReplica(1));
  directory.AddReplica(1, StubReplica(2));

  std::vector<size_t> eligible;
  directory.Resolve(1, 0, eligible);
  EXPECT_EQ(eligible.size(), 3u);

  // The buffer is reused: each Resolve replaces its contents.
  directory.MarkDown(1, 1, Microseconds(100));
  directory.Resolve(1, Microseconds(50), eligible);
  EXPECT_EQ(eligible, (std::vector<size_t>{0, 2}));

  // Past down_until the replica is probe-eligible again.
  directory.Resolve(1, Microseconds(100), eligible);
  EXPECT_EQ(eligible.size(), 3u);

  directory.MarkUp(1, 1);
  directory.Resolve(1, 0, eligible);
  EXPECT_EQ(eligible.size(), 3u);
  EXPECT_EQ(directory.stats().resolutions, 4u);
  EXPECT_EQ(directory.stats().marked_down, 1u);
  EXPECT_EQ(directory.stats().marked_up, 1u);
}

TEST(DirectoryTest, MarkUpResetsTimeoutStreak) {
  ServiceDirectory directory;
  directory.AddReplica(1, StubReplica(0));
  directory.replica(1, 0).timeout_streak = 5;
  directory.MarkDown(1, 0, Microseconds(10));
  directory.MarkUp(1, 0);
  EXPECT_EQ(directory.replica(1, 0).timeout_streak, 0u);
  EXPECT_EQ(directory.replica(1, 0).health, ReplicaHealth::kUp);
}

TEST(DirectoryTest, DegradedStaysEligibleAndNeverUpgradesDown) {
  ServiceDirectory directory;
  directory.AddReplica(1, StubReplica(0));
  directory.AddReplica(1, StubReplica(1));

  // kDegraded keeps the replica resolvable.
  directory.MarkDegraded(1, 0);
  EXPECT_EQ(directory.replica(1, 0).health, ReplicaHealth::kDegraded);
  std::vector<size_t> eligible;
  directory.Resolve(1, 0, eligible);
  EXPECT_EQ(eligible.size(), 2u);
  EXPECT_EQ(directory.stats().marked_degraded, 1u);

  // Degrading a down replica does not resurrect it.
  directory.MarkDown(1, 1, Microseconds(100));
  directory.MarkDegraded(1, 1);
  EXPECT_EQ(directory.replica(1, 1).health, ReplicaHealth::kDown);
  EXPECT_EQ(directory.stats().marked_degraded, 1u);

  // Only MarkUp clears degradation.
  directory.MarkUp(1, 0);
  EXPECT_EQ(directory.replica(1, 0).health, ReplicaHealth::kUp);
}

TEST(LbPolicyTest, LeastLoadedPenalizesDegradedReplica) {
  ServiceDirectory directory;
  directory.AddReplica(1, StubReplica(0));
  directory.AddReplica(1, StubReplica(1));
  // Replica 0 is busier but up; replica 1 idle but degraded. The degraded
  // penalty must dominate a realistic load spread.
  directory.replica(1, 0).outstanding = 20;
  directory.MarkDegraded(1, 1);
  LeastLoadedPolicy policy;
  std::vector<size_t> candidates = {0, 1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(policy.Pick(directory, 1, candidates, 0, 0), 0u);
  }
  EXPECT_LT(policy.Score(directory.replica(1, 0)),
            policy.Score(directory.replica(1, 1)));
}

TEST(LbPolicyTest, ConsistentHashRingUnchangedByDegrade) {
  ServiceDirectory directory;
  for (uint32_t m = 0; m < 4; ++m) directory.AddReplica(1, StubReplica(m));
  ConsistentHashPolicy policy;
  std::vector<size_t> candidates = {0, 1, 2, 3};
  std::vector<size_t> before;
  for (uint64_t key = 0; key < 200; ++key) {
    before.push_back(policy.Pick(directory, 1, candidates, key, 0));
  }
  // Degraded replicas stay in the candidate set and keep their keys: zero
  // ring churn, unlike a MarkDown (which sheds the downed replica's keys).
  directory.MarkDegraded(1, 2);
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(policy.Pick(directory, 1, candidates, key, 0), before[key]);
  }
}

TEST(DirectoryTest, TenantScopedResolve) {
  ServiceDirectory directory;
  ReplicaInfo a = StubReplica(0);
  a.tenant = 1;
  ReplicaInfo b = StubReplica(1);
  b.tenant = 2;
  ReplicaInfo shared = StubReplica(2);  // kAnyTenant: serves everyone
  directory.AddReplica(1, a);
  directory.AddReplica(1, b);
  directory.AddReplica(1, shared);

  // A tenant-scoped edge sees only its own replicas plus shared ones.
  std::vector<size_t> eligible;
  directory.Resolve(1, 0, eligible, /*tenant=*/1);
  EXPECT_EQ(eligible, (std::vector<size_t>{0, 2}));
  directory.Resolve(1, 0, eligible, /*tenant=*/2);
  EXPECT_EQ(eligible, (std::vector<size_t>{1, 2}));
  // An unscoped edge (explicitly or by default) sees everything.
  directory.Resolve(1, 0, eligible, kAnyTenant);
  EXPECT_EQ(eligible.size(), 3u);
  directory.Resolve(1, 0, eligible);
  EXPECT_EQ(eligible.size(), 3u);
  // Health filtering still composes with tenant filtering.
  directory.MarkDown(1, 0, Microseconds(100));
  directory.Resolve(1, Microseconds(50), eligible, /*tenant=*/1);
  EXPECT_EQ(eligible, (std::vector<size_t>{2}));
}

TEST(DirectoryTest, ReplicasSpanMatchesIndexedLookup) {
  ServiceDirectory directory;
  EXPECT_TRUE(directory.replicas(1).empty());
  for (uint32_t m = 0; m < 3; ++m) directory.AddReplica(1, StubReplica(m));
  const std::span<const ServiceDirectory::Replica> set = directory.replicas(1);
  ASSERT_EQ(set.size(), directory.NumReplicas(1));
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(&set[i], &directory.replica(1, i));
  }
  std::vector<size_t> eligible = {7, 8, 9};
  directory.Resolve(2, 0, eligible);  // unknown service: cleared, not kept
  EXPECT_TRUE(eligible.empty());
}

TEST(LbPolicyTest, ConsistentHashVnodeIdentitiesNeverAlias) {
  // Regression for the old ring-point packing ((service_id<<32) ^ (r<<8) ^ v),
  // which structurally aliased distinct (replica, vnode) pairs once vnodes
  // exceeded 256 — e.g. (r=1, v=256) collided with (r=2, v=0) before hashing,
  // silently thinning the ring. With seed-then-mix derivation every identity
  // is distinct: the ring holds exactly replicas * vnodes points.
  ConsistentHashPolicy policy(/*vnodes_per_replica=*/300);
  EXPECT_EQ(policy.RingPointCount(/*service_id=*/1, /*num_replicas=*/2),
            600u);
  EXPECT_EQ(policy.RingPointCount(/*service_id=*/1, /*num_replicas=*/8),
            2400u);
}

TEST(LbPolicyTest, VnodeCollisionTieBreakIsDeterministic) {
  // If two vnodes ever do land on the same hash point, ownership must not
  // depend on insertion order: the (replica id, vnode index)-smallest wins.
  EXPECT_TRUE(VnodeCollisionWins(/*r_new=*/1, /*v_new=*/5, /*r_old=*/2,
                                 /*v_old=*/0));
  EXPECT_FALSE(VnodeCollisionWins(2, 0, 1, 5));
  EXPECT_TRUE(VnodeCollisionWins(1, 3, 1, 7));
  EXPECT_FALSE(VnodeCollisionWins(1, 7, 1, 3));
  // Antisymmetry: swapping arguments flips the answer for distinct vnodes.
  for (size_t r1 = 0; r1 < 3; ++r1) {
    for (int v1 = 0; v1 < 3; ++v1) {
      for (size_t r2 = 0; r2 < 3; ++r2) {
        for (int v2 = 0; v2 < 3; ++v2) {
          if (r1 == r2 && v1 == v2) continue;
          EXPECT_NE(VnodeCollisionWins(r1, v1, r2, v2),
                    VnodeCollisionWins(r2, v2, r1, v1));
        }
      }
    }
  }
}

TEST(LbPolicyTest, RoundRobinCycles) {
  ServiceDirectory directory;
  for (uint32_t m = 0; m < 3; ++m) directory.AddReplica(1, StubReplica(m));
  RoundRobinPolicy policy;
  std::vector<size_t> candidates = {0, 1, 2};
  std::vector<size_t> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(policy.Pick(directory, 1, candidates, 0, 0));
  }
  EXPECT_EQ(picks, (std::vector<size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(LbPolicyTest, ConsistentHashStableAndMinimallyDisruptive) {
  ServiceDirectory directory;
  for (uint32_t m = 0; m < 4; ++m) directory.AddReplica(1, StubReplica(m));
  ConsistentHashPolicy policy;
  std::vector<size_t> all = {0, 1, 2, 3};

  // Same key -> same replica, every time.
  std::unordered_map<uint64_t, size_t> owner;
  for (uint64_t key = 0; key < 200; ++key) {
    size_t pick = policy.Pick(directory, 1, all, key, 0);
    owner[key] = pick;
    EXPECT_EQ(policy.Pick(directory, 1, all, key, 0), pick);
  }

  // Removing replica 2 moves only replica 2's keys.
  std::vector<size_t> without2 = {0, 1, 3};
  for (uint64_t key = 0; key < 200; ++key) {
    size_t pick = policy.Pick(directory, 1, without2, key, 0);
    if (owner[key] != 2) {
      EXPECT_EQ(pick, owner[key]) << "key " << key << " moved unnecessarily";
    } else {
      EXPECT_NE(pick, 2u);
    }
  }
}

TEST(LbPolicyTest, LeastLoadedUsesSignalsAndNicProbe) {
  ServiceDirectory directory;
  size_t probe_depth = 0;
  for (uint32_t m = 0; m < 3; ++m) {
    ReplicaInfo info = StubReplica(m);
    if (m == 0) {
      info.queue_depth = [&probe_depth] { return probe_depth; };
    }
    directory.AddReplica(1, std::move(info));
  }
  LeastLoadedPolicy policy;
  std::vector<size_t> all = {0, 1, 2};

  // Outstanding load steers away.
  directory.replica(1, 1).outstanding = 10;
  directory.replica(1, 2).outstanding = 10;
  EXPECT_EQ(policy.Pick(directory, 1, all, 0, 0), 0u);

  // A deep NIC admission queue (probe) overrides an otherwise-idle replica.
  probe_depth = 100;
  size_t pick = policy.Pick(directory, 1, all, 0, 0);
  EXPECT_NE(pick, 0u);

  // Overload pushback score dominates similarly.
  probe_depth = 0;
  directory.replica(1, 1).outstanding = 0;
  directory.replica(1, 2).outstanding = 0;
  directory.replica(1, 1).overload_score = 50.0;
  directory.replica(1, 2).overload_score = 50.0;
  EXPECT_EQ(policy.Pick(directory, 1, all, 0, 0), 0u);

  // Cold-kernel placement loses ties against hot-user-poll.
  directory.replica(1, 1).overload_score = 0.0;
  directory.replica(1, 2).overload_score = 0.0;
  directory.replica(1, 1).info.placement = PlacementKind::kColdKernel;
  directory.replica(1, 2).info.placement = PlacementKind::kColdKernel;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(policy.Pick(directory, 1, all, 0, 0), 0u);
  }
}

TEST(ClusterTest, RequestIdsDisjointAcrossMachines) {
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  std::vector<Machine*> machines;
  for (int i = 0; i < 3; ++i) {
    machines.push_back(&testbed.AddMachine(config));
    machines.back()->AddService(MakeSeqService(1, 7000, nullptr));
    machines.back()->Start();
  }

  std::unordered_set<uint64_t> ids;
  for (uint64_t m = 0; m < machines.size(); ++m) {
    for (int i = 0; i < 50; ++i) {
      uint64_t id = machines[m]->client().CallRaw(7000, 1, 0, SeqPayload(0));
      EXPECT_EQ(id >> 40, m) << "client ids must carry the machine index";
      EXPECT_EQ(id & (1ULL << 63), 0u) << "bit 63 is the nested-id space";
      EXPECT_TRUE(ids.insert(id).second) << "request id collision across machines";
    }
  }
}

TEST(ClusterTest, FailoverPreservesAtMostOnceUnderCrashWindow) {
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(100);
  config.client_max_retransmits = 2;
  config.server_dedup = true;

  std::unordered_map<uint64_t, uint32_t> executions;
  std::vector<Machine*> machines;
  for (int m = 0; m < 3; ++m) {
    MachineConfig mc = config;
    if (m == 1) {
      // Replica 1's OS crashes at 3ms and stays down for 3ms: inbound RX is
      // blackholed (fail-stop), so a timed-out attempt there never executed.
      mc.faults.os.first_crash_at = Milliseconds(3);
      mc.faults.os.restart_delay = Milliseconds(3);
    }
    machines.push_back(&testbed.AddMachine(mc));
  }
  ServiceDirectory directory;
  for (uint32_t m = 0; m < machines.size(); ++m) {
    const ServiceDef& def =
        machines[m]->AddService(MakeSeqService(1, 7000, &executions));
    machines[m]->Start();
    machines[m]->StartHotLoop(def);
    ReplicaInfo info;
    info.machine = m;
    info.ip = machines[m]->config().server_ip;
    info.udp_port = 7000;
    info.queue_depth = MakeLauberhornDepthProbe(*machines[m], def);
    directory.AddReplica(1, std::move(info));
  }

  RoundRobinPolicy policy;  // deterministic rotation probes the dead replica
  ClusterClient::Config ccfg;
  ccfg.max_failovers = 2;
  ccfg.down_after_timeouts = 2;
  ccfg.down_duration = Milliseconds(1);
  ClusterClient cluster(testbed.sim(), machines[0]->client(), directory,
                        policy, ccfg);

  // One call every 50us from 1ms to 9ms: spans before, during, and after the
  // outage window.
  uint64_t sent = 0, ok = 0;
  for (int i = 0; i < 160; ++i) {
    testbed.sim().ScheduleAt(Milliseconds(1) + i * Microseconds(50), [&] {
      const uint64_t seq = sent++;
      cluster.Call(1, 0, SeqPayload(seq), 0,
                   [&](const RpcMessage& r, Duration) {
                     if (r.status == RpcStatus::kOk) ++ok;
                   });
    });
  }
  testbed.sim().RunUntil(Milliseconds(20));

  EXPECT_EQ(ok, sent) << "every call must complete within the retry budget";
  EXPECT_GT(cluster.stats().failovers, 0u);
  EXPECT_EQ(cluster.stats().exhausted, 0u);
  EXPECT_GE(directory.stats().marked_down, 1u);
  // The replica recovered: a probe after the outage marked it up again.
  EXPECT_GE(directory.stats().marked_up, 1u);
  EXPECT_EQ(directory.replica(1, 1).health, ReplicaHealth::kUp);
  // At-most-once cluster-wide: no sequence number executed twice, anywhere.
  for (const auto& [seq, count] : executions) {
    EXPECT_EQ(count, 1u) << "seq " << seq << " executed " << count << " times";
  }
  EXPECT_EQ(executions.size(), sent);
}

TEST(ClusterTest, OverloadDivertReroutesWithoutDoubleExecution) {
  // Replica 0 sheds everything (zero admission quota); the edge must divert
  // to replica 1 and still execute each request exactly once.
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(200);
  config.server_dedup = true;

  std::unordered_map<uint64_t, uint32_t> executions;
  std::vector<Machine*> machines;
  for (int m = 0; m < 2; ++m) {
    MachineConfig mc = config;
    if (m == 0) {
      mc.admission.enabled = true;
      mc.admission.quota_rps = 1.0;  // effectively: shed every request
      mc.admission.quota_burst = 1.0;
    }
    machines.push_back(&testbed.AddMachine(mc));
  }
  ServiceDirectory directory;
  for (uint32_t m = 0; m < machines.size(); ++m) {
    const ServiceDef& def =
        machines[m]->AddService(MakeSeqService(1, 7000, &executions));
    machines[m]->Start();
    // Replica 0 stays cold-kernel so requests pass the admission gate (the
    // immediate hot path admits unconditionally: dispatch implies admit).
    if (m != 0) {
      machines[m]->StartHotLoop(def);
    }
    directory.AddReplica(1, StubReplica(m));
    directory.replica(1, m).info.ip = machines[m]->config().server_ip;
    directory.replica(1, m).info.placement =
        m == 0 ? PlacementKind::kColdKernel : PlacementKind::kHotUserPoll;
  }

  RoundRobinPolicy policy;
  ClusterClient cluster(testbed.sim(), machines[0]->client(), directory, policy);

  uint64_t sent = 0, ok = 0;
  for (int i = 0; i < 40; ++i) {
    testbed.sim().ScheduleAt(Milliseconds(1) + i * Microseconds(100), [&] {
      const uint64_t seq = sent++;
      cluster.Call(1, 0, SeqPayload(seq), 0,
                   [&](const RpcMessage& r, Duration) {
                     if (r.status == RpcStatus::kOk) ++ok;
                   });
    });
  }
  testbed.sim().RunUntil(Milliseconds(20));

  EXPECT_EQ(ok, sent);
  EXPECT_GT(cluster.stats().diverts, 0u);
  for (const auto& [seq, count] : executions) {
    EXPECT_EQ(count, 1u);
  }
}

TEST(ClusterTest, NestedRpcFailoverUnderCrashWindowStaysAtMostOnce) {
  // Frontend service replicated on machines 0 and 1, each nesting into one
  // backend on machine 2. Machine 1's OS crashes mid-run: clustered calls
  // routed there time out and fail over to machine 0's frontend. The backend
  // counts executions per app-level sequence number — nested ids are seeded
  // with the frontend's machine index (bit 63 | index << 40), so the two
  // frontends never collide at the backend, and at-most-once holds
  // cluster-wide across the failover.
  Testbed testbed;
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(100);
  config.client_max_retransmits = 2;
  config.server_dedup = true;

  std::unordered_map<uint64_t, uint32_t> backend_executions;
  MachineConfig crashing = config;
  crashing.faults.os.first_crash_at = Milliseconds(3);
  crashing.faults.os.restart_delay = Milliseconds(4);
  Machine& front0 = testbed.AddMachine(config);
  Machine& front1 = testbed.AddMachine(crashing);
  Machine& back = testbed.AddMachine(config);

  ServiceDef backend_def;
  backend_def.service_id = 9;
  backend_def.name = "backend";
  backend_def.udp_port = 7100;
  {
    MethodDef count;
    count.method_id = 0;
    count.request_sig.args = {WireType::kU64};
    count.response_sig.args = {WireType::kU64};
    count.handler = [&backend_executions](const std::vector<WireValue>& args) {
      ++backend_executions[args[0].scalar];
      return std::vector<WireValue>{WireValue::U64(args[0].scalar + 1)};
    };
    count.SetFixedServiceTime(Microseconds(1));
    backend_def.methods[0] = std::move(count);
  }
  const ServiceDef& backend = back.AddService(backend_def);

  auto make_frontend = [&]() {
    ServiceDef def;
    def.service_id = 1;
    def.name = "frontend";
    def.udp_port = 7000;
    MethodDef relay;
    relay.method_id = 0;
    relay.request_sig.args = {WireType::kU64};
    relay.response_sig.args = {WireType::kU64};
    relay.SetFixedServiceTime(Microseconds(1));
    uint32_t backend_ip = back.config().server_ip;
    relay.nested_call = [backend_ip](const std::vector<WireValue>& args) {
      MethodDef::NestedCall call;
      call.dst_ip = backend_ip;
      call.dst_port = 7100;
      call.service_id = 9;
      call.method_id = 0;
      call.args = {WireValue::U64(args[0].scalar)};
      call.request_sig.args = {WireType::kU64};
      call.response_sig.args = {WireType::kU64};
      return call;
    };
    relay.nested_finish = [](const std::vector<WireValue>&,
                             const std::vector<WireValue>& reply) {
      return std::vector<WireValue>{WireValue::U64(reply[0].scalar)};
    };
    def.methods[0] = std::move(relay);
    return def;
  };
  const ServiceDef& f0 = front0.AddService(make_frontend());
  const ServiceDef& f1 = front1.AddService(make_frontend());
  front0.Start();
  front1.Start();
  back.Start();
  front0.StartHotLoop(f0);
  front1.StartHotLoop(f1);
  back.StartHotLoop(backend);

  ServiceDirectory directory;
  Machine* fronts[2] = {&front0, &front1};
  const ServiceDef* defs[2] = {&f0, &f1};
  for (uint32_t m = 0; m < 2; ++m) {
    ReplicaInfo info;
    info.machine = m;
    info.ip = fronts[m]->config().server_ip;
    info.udp_port = 7000;
    info.queue_depth = MakeLauberhornDepthProbe(*fronts[m], *defs[m]);
    directory.AddReplica(1, std::move(info));
  }

  RoundRobinPolicy policy;
  ClusterClient::Config ccfg;
  ccfg.max_failovers = 2;
  ccfg.down_after_timeouts = 2;
  ccfg.down_duration = Milliseconds(1);
  ClusterClient cluster(testbed.sim(), back.client(), directory, policy, ccfg);

  uint64_t sent = 0, ok = 0, wrong = 0;
  for (int i = 0; i < 160; ++i) {
    testbed.sim().ScheduleAt(Milliseconds(1) + i * Microseconds(50), [&] {
      const uint64_t seq = sent++;
      cluster.Call(1, 0, SeqPayload(seq), 0,
                   [&, seq](const RpcMessage& r, Duration) {
                     if (r.status != RpcStatus::kOk) return;
                     std::vector<WireValue> out;
                     if (UnmarshalArgs(MethodSignature{{WireType::kU64}},
                                       r.payload, out) &&
                         out[0].scalar == seq + 1) {
                       ++ok;
                     } else {
                       ++wrong;
                     }
                   });
    });
  }
  testbed.sim().RunUntil(Milliseconds(25));

  EXPECT_EQ(ok, sent);
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(cluster.stats().failovers, 0u);
  EXPECT_EQ(cluster.stats().exhausted, 0u);
  EXPECT_GE(directory.stats().marked_down, 1u);
  for (const auto& [seq, count] : backend_executions) {
    EXPECT_EQ(count, 1u) << "seq " << seq << " executed " << count
                         << " times at the backend";
  }
  EXPECT_EQ(backend_executions.size(), sent);
}

TEST(FabricTest, PortQueueOverflowDropsAndExportsCounters) {
  FabricConfig fabric;
  fabric.port_bandwidth_gbps = 1.0;  // slow egress: back-to-back bursts queue
  fabric.port_queue_limit = 4;
  Testbed testbed(fabric);
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  Machine& a = testbed.AddMachine(config);
  Machine& b = testbed.AddMachine(config);
  b.AddService(MakeSeqService(1, 7000, nullptr));
  a.Start();
  b.Start();
  testbed.sim().RunUntil(Milliseconds(1));

  // A burst far deeper than the 4-packet port buffer, sent in one tick.
  for (uint64_t i = 0; i < 64; ++i) {
    a.client().CallRawTo(b.config().server_ip, 7000, 1, 0, SeqPayload(i));
  }
  testbed.sim().RunUntil(Milliseconds(5));

  EXPECT_GT(testbed.fabric().queue_drops(), 0u);
  EXPECT_EQ(testbed.fabric().dropped(), 0u);  // routable, just overflowed
  EXPECT_GT(testbed.fabric().forwarded(), 0u);

  MetricsRegistry metrics;
  testbed.ExportMetrics(metrics);
  EXPECT_TRUE(metrics.HasCounter("fabric/queue_drops"));
  EXPECT_GT(metrics.Counter("fabric/queue_drops"), 0u);
  bool some_port_dropped = false;
  // The drops are also attributed to the a -> b pair that suffered them.
  const std::string pair_suffix = "/pair_drop/" +
                                  FormatIpv4(a.config().client_ip) + "->" +
                                  FormatIpv4(b.config().server_ip);
  uint64_t pair_drops = 0;
  for (size_t port = 0; port < testbed.fabric().num_ports(); ++port) {
    const std::string base = "fabric/port" + std::to_string(port);
    const std::string key = base + "/queue_drops";
    EXPECT_TRUE(metrics.HasCounter(key));
    some_port_dropped |= metrics.Counter(key) > 0;
    if (metrics.HasCounter(base + pair_suffix)) {
      pair_drops += metrics.Counter(base + pair_suffix);
    }
  }
  EXPECT_TRUE(some_port_dropped);
  EXPECT_GT(pair_drops, 0u);
  EXPECT_TRUE(metrics.HasCounter("m0/wire/client_egress_packets"));
  EXPECT_GT(metrics.Counter("m0/wire/client_egress_packets"), 0u);
}

TEST(LinkTest, EgressQueueLimitTailDrops) {
  Simulator sim;
  LinkConfig config;
  config.bandwidth_gbps = 10.0;  // (80+20)B = 80ns per packet
  config.queue_limit = 2;
  Link link(sim, config);

  struct CountingSink : PacketSink {
    void ReceivePacket(Packet) override { ++received; }
    int received = 0;
  } sink;
  link.a_to_b().set_sink(&sink);

  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.bytes.assign(80, 0);
    link.a_to_b().Send(std::move(p));
  }
  EXPECT_EQ(link.a_to_b().queue_depth(sim.Now()), 2u);
  sim.RunUntilIdle();

  EXPECT_EQ(sink.received, 2);
  EXPECT_EQ(link.a_to_b().queue_drops(), 3u);
  EXPECT_EQ(link.a_to_b().queue_depth(sim.Now()), 0u);

  // The buffer drained, so new sends are accepted again.
  Packet p;
  p.bytes.assign(80, 0);
  link.a_to_b().Send(std::move(p));
  sim.RunUntilIdle();
  EXPECT_EQ(sink.received, 3);
  EXPECT_EQ(link.a_to_b().queue_drops(), 3u);
}

}  // namespace
}  // namespace lauberhorn

#include "src/cluster/cluster_client.h"

#include <algorithm>
#include <cmath>

namespace lauberhorn {

ClusterClient::ClusterClient(Simulator& sim, RpcClient& client,
                             ServiceDirectory& directory, LbPolicy& policy)
    : ClusterClient(sim, client, directory, policy, Config()) {}

ClusterClient::ClusterClient(Simulator& sim, RpcClient& client,
                             ServiceDirectory& directory, LbPolicy& policy,
                             Config config)
    : sim_(sim),
      client_(client),
      directory_(directory),
      policy_(policy),
      config_(config) {}

void ClusterClient::Call(uint32_t service_id, uint16_t method_id,
                         std::vector<uint8_t> payload, uint64_t shard_key,
                         DoneFn on_done) {
  ++stats_.calls;
  // Heap context: the chain of attempt callbacks shares it; freed in Finish.
  auto* ctx = new CallCtx();
  ctx->service_id = service_id;
  ctx->method_id = method_id;
  ctx->payload = std::move(payload);
  ctx->shard_key = shard_key;
  ctx->on_done = std::move(on_done);
  ctx->started_at = sim_.Now();
  ctx->attempts_left = 1 + std::max(0, config_.max_failovers);
  Attempt(ctx);
}

void ClusterClient::Attempt(CallCtx* ctx) {
  size_t pick = 0;
  uint32_t dst_ip = 0;
  uint16_t dst_port = 0;
  directory_.Resolve(ctx->service_id, sim_.Now(), candidates_, config_.tenant);
  // Prefer replicas this call has not touched yet; once every replica has
  // been tried, allow re-tries (a fresh request id, still at-most-once).
  // A first attempt has tried nothing, so every candidate is untried.
  const std::vector<size_t>* pool = &candidates_;
  if (!ctx->tried.empty()) {
    untried_.clear();
    for (size_t idx : candidates_) {
      if (std::find(ctx->tried.begin(), ctx->tried.end(), idx) ==
          ctx->tried.end()) {
        untried_.push_back(idx);
      }
    }
    if (!untried_.empty()) {
      pool = &untried_;
    }
  }
  if (pool->empty()) {
    ++stats_.no_replica;
  } else {
    --ctx->attempts_left;
    ++stats_.attempts;
    pick = policy_.Pick(directory_, ctx->service_id, *pool, ctx->shard_key,
                        sim_.Now());
    ctx->tried.push_back(pick);
    ServiceDirectory::Replica& replica =
        directory_.replica(ctx->service_id, pick);
    ++replica.outstanding;
    dst_ip = replica.info.ip;
    dst_port = replica.info.udp_port;
  }
  if (dst_ip == 0) {
    RpcMessage failure;
    failure.kind = MessageKind::kResponse;
    failure.service_id = ctx->service_id;
    failure.method_id = ctx->method_id;
    failure.status = RpcStatus::kNoSuchService;
    Finish(ctx, failure);
    return;
  }
  client_.CallRawTo(
      dst_ip, dst_port, ctx->service_id, ctx->method_id,
      ctx->payload,  // copy: failover may need to resend it
      [this, ctx, pick](const RpcMessage& response, Duration /*rtt*/) {
        OnOutcome(ctx, pick, response);
      });
}

void ClusterClient::OnOutcome(CallCtx* ctx, size_t replica_index,
                              const RpcMessage& response) {
  // Update the replica's signals, decide the next move, then act.
  bool retry = false;
  ServiceDirectory::Replica& replica =
      directory_.replica(ctx->service_id, replica_index);
  replica.outstanding = std::max(0, replica.outstanding - 1);

  if (response.status == kTimedOut) {
    ++replica.timeouts;
    ++replica.timeout_streak;
    if (replica.timeout_streak >= config_.down_after_timeouts) {
      directory_.MarkDown(ctx->service_id, replica_index,
                          sim_.Now() + config_.down_duration);
    }
    if (ctx->attempts_left > 0) {
      ++stats_.failovers;
      retry = true;
    } else {
      ++stats_.exhausted;
    }
  } else if (response.status == RpcStatus::kOverloaded) {
    ++replica.overloaded;
    BumpOverloadScore(replica, 1.0);
    if (ctx->attempts_left > 0) {
      ++stats_.diverts;
      retry = true;
    } else {
      ++stats_.exhausted;
    }
  } else {
    // Any substantive response (kOk or an application error) proves the
    // replica is alive and serving.
    replica.timeout_streak = 0;
    BumpOverloadScore(replica, 0.0);  // decay only
    // A served request clears kDown (the replica answered), but never
    // kDegraded: that state is published by the replica's host during NIC
    // recovery and only the host clears it — answers are expected while
    // degraded, they are not evidence that recovery finished.
    if (replica.health == ReplicaHealth::kDown) {
      directory_.MarkUp(ctx->service_id, replica_index);
    }
    if (response.status == RpcStatus::kOk) {
      ++replica.ok;
      ++stats_.ok;
    }
  }
  if (retry) {
    Attempt(ctx);
    return;
  }
  Finish(ctx, response);
}

void ClusterClient::Finish(CallCtx* ctx, const RpcMessage& response) {
  if (ctx->on_done) {
    ctx->on_done(response, sim_.Now() - ctx->started_at);
  }
  delete ctx;
}

void ClusterClient::BumpOverloadScore(ServiceDirectory::Replica& replica,
                                      double add) {
  if (config_.overload_decay > 0 && replica.overload_at < sim_.Now() &&
      replica.overload_score > 0) {
    const double elapsed =
        static_cast<double>(sim_.Now() - replica.overload_at);
    replica.overload_score *=
        std::exp2(-elapsed / static_cast<double>(config_.overload_decay));
    if (replica.overload_score < 1e-6) {
      replica.overload_score = 0;
    }
  }
  replica.overload_at = sim_.Now();
  replica.overload_score += add;
}

}  // namespace lauberhorn

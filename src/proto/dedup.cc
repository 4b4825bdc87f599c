#include "src/proto/dedup.h"

#include <algorithm>
#include <vector>

namespace lauberhorn {

RpcDedupCache::Verdict RpcDedupCache::Admit(uint64_t flow, uint64_t request_id) {
  const Key key{flow, request_id};
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) {
    ++stats_.admitted;
    return Verdict::kNew;
  }
  if (it->second.state == State::kCompleted) {
    ++stats_.duplicates_replayed;
    return Verdict::kCompleted;
  }
  ++stats_.duplicates_in_flight;
  return Verdict::kInFlight;
}

void RpcDedupCache::MarkDelivered(uint64_t flow, uint64_t request_id) {
  auto it = entries_.find(Key{flow, request_id});
  if (it != entries_.end() && it->second.state == State::kInFlight) {
    it->second.state = State::kDelivered;
  }
}

void RpcDedupCache::Complete(uint64_t flow, uint64_t request_id,
                             const RpcMessage& response) {
  const Key key{flow, request_id};
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.state == State::kCompleted) {
    return;
  }
  it->second.state = State::kCompleted;
  it->second.response = response;
  completed_order_.push_back(key);
  while (completed_order_.size() > completed_window_) {
    auto victim = entries_.find(completed_order_.front());
    completed_order_.pop_front();
    if (victim != entries_.end() && victim->second.state == State::kCompleted) {
      entries_.erase(victim);
      ++stats_.evictions;
    }
  }
}

void RpcDedupCache::Abort(uint64_t flow, uint64_t request_id) {
  auto it = entries_.find(Key{flow, request_id});
  if (it != entries_.end() && it->second.state != State::kCompleted) {
    entries_.erase(it);
  }
}

const RpcMessage* RpcDedupCache::Lookup(uint64_t flow, uint64_t request_id) const {
  auto it = entries_.find(Key{flow, request_id});
  if (it == entries_.end() || it->second.state != State::kCompleted) {
    return nullptr;
  }
  return &it->second.response;
}

RpcMessage RpcDedupCache::Replay(uint64_t flow, const RpcMessage& request) const {
  if (const RpcMessage* cached = Lookup(flow, request.request_id)) {
    return *cached;
  }
  RpcMessage response =
      ResponseHeader(request.service_id, request.method_id, request.request_id);
  response.status = RpcStatus::kInternal;
  return response;
}

RpcDedupCache::ReplayCounts RpcDedupCache::ReplayAfterCrash() {
  ReplayCounts counts;
  std::vector<Key> unanswered;  // pinned by the previous replay
  for (auto it = entries_.begin(); it != entries_.end();) {
    switch (it->second.state) {
      case State::kInFlight:
        ++counts.dropped;
        it = entries_.erase(it);
        continue;
      case State::kDelivered:
        it->second.state = State::kPinned;
        ++counts.pinned;
        break;
      case State::kPinned:
        unanswered.push_back(it->first);
        break;
      case State::kCompleted:
        ++counts.completed;
        break;
    }
    ++it;
  }
  std::sort(unanswered.begin(), unanswered.end());
  for (const Key& key : unanswered) {
    Entry& entry = entries_.at(key);
    entry.state = State::kCompleted;
    entry.response.kind = MessageKind::kResponse;
    entry.response.status = RpcStatus::kInternal;
    entry.response.request_id = key.request_id;
    completed_order_.push_back(key);
    ++counts.completed;
  }
  return counts;
}

}  // namespace lauberhorn

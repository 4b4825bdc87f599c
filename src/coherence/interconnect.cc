#include "src/coherence/interconnect.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/coherence/cache_agent.h"
#include "src/fault/fault.h"

namespace lauberhorn {

CoherentInterconnect::CoherentInterconnect(Simulator& sim, CoherenceConfig config)
    : sim_(sim), config_(std::move(config)) {
  assert(config_.line_size <= kMaxLineSize && "line larger than kMaxLineSize");
}

AgentId CoherentInterconnect::RegisterCacheAgent(CacheAgent* agent) {
  cache_agents_.push_back(agent);
  return static_cast<AgentId>(cache_agents_.size() - 1);
}

AgentId CoherentInterconnect::RegisterHomeAgent(HomeAgent* agent, LineAddr base,
                                                uint64_t size, bool is_device) {
  homes_.push_back(HomeRange{agent, base, size, is_device});
  return kHomeAgentBase + static_cast<AgentId>(homes_.size() - 1);
}

AgentId CoherentInterconnect::HomeOf(LineAddr addr) const {
  for (size_t i = 0; i < homes_.size(); ++i) {
    const HomeRange& h = homes_[i];
    if (addr >= h.base && addr < h.base + h.size) {
      return kHomeAgentBase + static_cast<AgentId>(i);
    }
  }
  return kNoAgent;
}

Duration CoherentInterconnect::HopLatency(AgentId home) const {
  const HomeRange& h = homes_[home - kHomeAgentBase];
  return h.is_device ? config_.cpu_device_hop : config_.cpu_mem_hop;
}

void CoherentInterconnect::Count(CoherenceMsgType type, bool with_data) {
  ++stats_.messages[static_cast<int>(type)];
  if (with_data) {
    ++stats_.data_messages;
  }
}

void CoherentInterconnect::SendRead(AgentId requester, LineAddr addr, bool exclusive,
                                    FillFn on_fill, bool install) {
  const AgentId home_id = HomeOf(addr);
  assert(home_id != kNoAgent && "read to unhomed address");
  HomeAgent* home = homes_[home_id - kHomeAgentBase].agent;
  const Duration hop = HopLatency(home_id);
  Count(exclusive ? CoherenceMsgType::kReadExclusive : CoherenceMsgType::kReadShared,
        /*with_data=*/false);

  sim_.Schedule(hop, [this, requester, addr, exclusive, home, home_id, install,
                      on_fill = std::move(on_fill), hop]() mutable {
    // Recall the line from any other holder before involving the home, so the
    // home answers with current data (directory serialization point).
    DirEntry& entry = Dir(addr);
    Duration recall_extra = 0;
    if (entry.owner != kNoAgent && entry.owner != requester) {
      CacheAgent* holder = cache_agents_[entry.owner];
      const CacheAgent::ProbeResult result = holder->HandleProbe(addr);
      Count(CoherenceMsgType::kProbeFetch, false);
      Count(CoherenceMsgType::kProbeAck, result.dirty);
      if (result.had && result.dirty) {
        home->OnHomeWriteBack(entry.owner, addr, result.data);
      }
      entry.owner = kNoAgent;
      recall_extra = 2 * config_.cpu_mem_hop;  // probe there and back
    }
    if (exclusive) {
      for (AgentId sharer : entry.sharers) {
        if (sharer == requester) {
          continue;
        }
        cache_agents_[sharer]->HandleProbe(addr);
        Count(CoherenceMsgType::kProbeFetch, false);
        Count(CoherenceMsgType::kProbeAck, false);
        recall_extra = std::max(recall_extra, 2 * config_.cpu_mem_hop);
      }
      entry.sharers.clear();
    }

    // Arm the bus-timeout watchdog for this fill.
    const uint64_t token = next_fill_token_++;
    outstanding_fills_.insert(token);
    const EventId watchdog = sim_.Schedule(config_.bus_timeout, [this, token, addr]() {
      if (outstanding_fills_.erase(token) != 0) {
        ++stats_.bus_errors;
        if (bus_error_handler_) {
          bus_error_handler_(addr);
        }
      }
    });

    FillFn respond = [this, requester, addr, exclusive, install,
                      on_fill = std::move(on_fill), hop, token, watchdog,
                      recall_extra](LineData data) mutable {
      if (faults_ != nullptr && faults_->CoherenceShouldDropFill()) {
        // Swallow the fill message: the token stays outstanding, so the
        // watchdog armed above fires and raises a bus error.
        return;
      }
      if (outstanding_fills_.erase(token) == 0) {
        return;  // bus error already raised; machine considered wedged
      }
      sim_.Cancel(watchdog);
      Count(CoherenceMsgType::kFill, true);
      if (install) {
        DirEntry& e = Dir(addr);
        if (exclusive) {
          e.owner = requester;
          e.sharers.clear();
        } else {
          e.sharers.insert(requester);
        }
      }
      Duration fault_delay = 0;
      if (faults_ != nullptr) {
        fault_delay = faults_->CoherenceFillDelay();
      }
      sim_.Schedule(hop + config_.data_beat + recall_extra + fault_delay,
                    [on_fill = std::move(on_fill), data = std::move(data)]() mutable {
                      on_fill(std::move(data));
                    });
    };
    home->OnHomeRead(requester, addr, exclusive, std::move(respond));
  });
}

void CoherentInterconnect::SendWriteBack(AgentId from, LineAddr addr, LineData data) {
  const AgentId home_id = HomeOf(addr);
  assert(home_id != kNoAgent && "writeback to unhomed address");
  HomeAgent* home = homes_[home_id - kHomeAgentBase].agent;
  Count(CoherenceMsgType::kWriteBack, true);
  sim_.Schedule(HopLatency(home_id) + config_.data_beat,
                [this, from, addr, home, data = std::move(data)]() mutable {
                  DirEntry& entry = Dir(addr);
                  if (entry.owner == from) {
                    entry.owner = kNoAgent;
                  }
                  home->OnHomeWriteBack(from, addr, std::move(data));
                });
}

void CoherentInterconnect::SendUncachedWrite(AgentId from, LineAddr addr, size_t offset,
                                             std::vector<uint8_t> data) {
  const AgentId home_id = HomeOf(addr);
  assert(home_id != kNoAgent && "uncached write to unhomed address");
  HomeAgent* home = homes_[home_id - kHomeAgentBase].agent;
  Count(CoherenceMsgType::kUncachedWrite, !data.empty());
  sim_.Schedule(HopLatency(home_id),
                [from, addr, offset, home, data = std::move(data)]() mutable {
                  home->OnHomeUncachedWrite(from, addr, offset, std::move(data));
                });
}

void CoherentInterconnect::FetchExclusive(AgentId home, LineAddr addr, LineData fallback,
                                          Function<void(LineData)> done) {
  const Duration hop = HopLatency(home);
  auto it = directory_.find(addr);
  const AgentId owner = it != directory_.end() ? it->second.owner : kNoAgent;

  // Invalidate any shared copies (no data flows back for those).
  if (it != directory_.end()) {
    for (AgentId sharer : it->second.sharers) {
      Count(CoherenceMsgType::kProbeFetch, false);
      Count(CoherenceMsgType::kProbeAck, false);
      sim_.Schedule(hop, [this, sharer, addr]() {
        cache_agents_[sharer]->HandleProbe(addr);
      });
    }
    it->second.sharers.clear();
  }

  if (owner == kNoAgent) {
    // Nothing cached elsewhere: the home's own copy is current.
    sim_.Schedule(0, [done = std::move(done), fb = std::move(fallback)]() mutable {
      done(std::move(fb));
    });
    return;
  }

  Count(CoherenceMsgType::kProbeFetch, false);
  Dir(addr).owner = kNoAgent;
  sim_.Schedule(hop, [this, owner, addr, hop, fb = std::move(fallback),
                      done = std::move(done)]() mutable {
    CacheAgent::ProbeResult result = cache_agents_[owner]->HandleProbe(addr);
    Count(CoherenceMsgType::kProbeAck, result.had);
    LineData data = result.had ? std::move(result.data) : std::move(fb);
    sim_.Schedule(hop + config_.data_beat,
                  [done = std::move(done), data = std::move(data)]() mutable {
                    done(std::move(data));
                  });
  });
}

void CoherentInterconnect::Invalidate(AgentId home, LineAddr addr,
                                      Callback done) {
  const Duration hop = HopLatency(home);
  auto it = directory_.find(addr);
  Duration longest = 0;
  if (it != directory_.end()) {
    std::vector<AgentId> holders(it->second.sharers.begin(), it->second.sharers.end());
    if (it->second.owner != kNoAgent) {
      holders.push_back(it->second.owner);
    }
    for (AgentId holder : holders) {
      Count(CoherenceMsgType::kProbeFetch, false);
      Count(CoherenceMsgType::kProbeAck, false);
      sim_.Schedule(hop, [this, holder, addr]() {
        cache_agents_[holder]->HandleProbe(addr);
      });
      longest = 2 * hop;
    }
    it->second.sharers.clear();
    it->second.owner = kNoAgent;
  }
  if (done) {
    sim_.Schedule(longest, std::move(done));
  }
}

AgentId CoherentInterconnect::OwnerOf(LineAddr addr) const {
  auto it = directory_.find(addr);
  return it != directory_.end() ? it->second.owner : kNoAgent;
}

std::vector<AgentId> CoherentInterconnect::SharersOf(LineAddr addr) const {
  auto it = directory_.find(addr);
  if (it == directory_.end()) {
    return {};
  }
  return {it->second.sharers.begin(), it->second.sharers.end()};
}

}  // namespace lauberhorn

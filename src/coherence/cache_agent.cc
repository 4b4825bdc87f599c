#include "src/coherence/cache_agent.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace lauberhorn {

CacheAgent::CacheAgent(CoherentInterconnect& interconnect)
    : interconnect_(interconnect), id_(interconnect.RegisterCacheAgent(this)) {}

void CacheAgent::Load(uint64_t addr, size_t size, LoadFn on_done) {
  const size_t line_size = interconnect_.config().line_size;
  const LineAddr line_addr = interconnect_.AlignToLine(addr);
  assert(addr - line_addr + size <= line_size && "load spans a cache line");
  Op op;
  op.is_store = false;
  op.addr = addr;
  op.size = size;
  op.on_load = std::move(on_done);
  pending_[line_addr].ops.push_back(std::move(op));
  ProcessQueue(line_addr);
}

void CacheAgent::Store(uint64_t addr, std::span<const uint8_t> data, StoreFn on_done) {
  Store(addr, std::vector<uint8_t>(data.begin(), data.end()), std::move(on_done));
}

void CacheAgent::Store(uint64_t addr, std::vector<uint8_t>&& data, StoreFn on_done) {
  const size_t line_size = interconnect_.config().line_size;
  const LineAddr line_addr = interconnect_.AlignToLine(addr);
  assert(addr - line_addr + data.size() <= line_size && "store spans a cache line");
  Op op;
  op.is_store = true;
  op.addr = addr;
  op.data = std::move(data);
  op.on_store = std::move(on_done);
  pending_[line_addr].ops.push_back(std::move(op));
  ProcessQueue(line_addr);
}

void CacheAgent::StoreThrough(uint64_t addr, std::span<const uint8_t> data) {
  const LineAddr line_addr = interconnect_.AlignToLine(addr);
  assert(StateOf(line_addr) == LineState::kInvalid &&
         "StoreThrough to a line this agent caches");
  interconnect_.SendUncachedWrite(id_, line_addr, addr - line_addr,
                                  std::vector<uint8_t>(data.begin(), data.end()));
}

void CacheAgent::AcquireMshr(Callback start) {
  if (mshrs_in_use_ < interconnect_.config().mshrs_per_agent) {
    ++mshrs_in_use_;
    start();
    return;
  }
  mshr_waiters_.push_back(std::move(start));
}

void CacheAgent::ReleaseMshr() {
  assert(mshrs_in_use_ > 0);
  if (!mshr_waiters_.empty()) {
    auto next = std::move(mshr_waiters_.front());
    mshr_waiters_.pop_front();
    next();  // slot transfers to the waiter
    return;
  }
  --mshrs_in_use_;
}

void CacheAgent::LoadThrough(uint64_t addr, size_t size, LoadFn on_done) {
  const size_t line_size = interconnect_.config().line_size;
  const LineAddr line_addr = interconnect_.AlignToLine(addr);
  assert(addr - line_addr + size <= line_size && "load spans a cache line");
  ++loads_through_;
  const size_t offset = addr - line_addr;
  // A locally cached copy is by definition current (we own or share it);
  // the load hits L1 instead of crossing the interconnect.
  if (auto it = lines_.find(line_addr); it != lines_.end()) {
    std::vector<uint8_t> out(size, 0);
    std::memcpy(out.data(), it->second.data.data() + offset, size);
    interconnect_.sim().Schedule(interconnect_.config().l1_hit,
                                 [out = std::move(out),
                                  on_done = std::move(on_done)]() mutable {
                                   on_done(std::move(out));
                                 });
    return;
  }
  AcquireMshr([this, line_addr, offset, size, on_done = std::move(on_done)]() mutable {
    interconnect_.SendRead(
        id_, line_addr, /*exclusive=*/false,
        [this, offset, size, on_done = std::move(on_done)](LineData data) mutable {
          ReleaseMshr();
          if (offset == 0 && data.size() == size) {
            on_done(std::move(data));
            return;
          }
          std::vector<uint8_t> out(size, 0);
          if (data.size() >= offset + size) {
            std::memcpy(out.data(), data.data() + offset, size);
          }
          on_done(std::move(out));
        },
        /*install=*/false);
  });
}

void CacheAgent::Flush(LineAddr addr) {
  auto it = lines_.find(addr);
  if (it == lines_.end()) {
    return;
  }
  if (it->second.state == LineState::kModified) {
    interconnect_.SendWriteBack(id_, addr, std::move(it->second.data));
  }
  lines_.erase(it);
}

void CacheAgent::Drop(LineAddr addr) { lines_.erase(addr); }

void CacheAgent::ProcessQueue(LineAddr line_addr) {
  auto pit = pending_.find(line_addr);
  if (pit == pending_.end()) {
    return;
  }
  PendingLine& pl = pit->second;
  if (pl.request_in_flight) {
    return;  // the fill handler will resume us
  }
  if (pl.ops.empty()) {
    pending_.erase(pit);
    return;
  }

  Op& front = pl.ops.front();
  const Line* line = nullptr;
  if (auto lit = lines_.find(line_addr); lit != lines_.end()) {
    line = &lit->second;
  }
  const LineState state = line != nullptr ? line->state : LineState::kInvalid;
  const bool satisfiable = front.is_store ? state == LineState::kModified
                                          : state != LineState::kInvalid;

  if (satisfiable) {
    if (!front.counted) {
      ++hits_;
      front.counted = true;
    }
    Op op = std::move(front);
    pl.ops.pop_front();
    // The L1 access takes l1_hit; subsequent queued ops run after it.
    interconnect_.sim().Schedule(interconnect_.config().l1_hit,
                                 [this, line_addr, op = std::move(op)]() mutable {
                                   ExecuteOp(line_addr, std::move(op));
                                   ProcessQueue(line_addr);
                                 });
    return;
  }

  // Miss (or upgrade): fetch the line with the exclusivity the front op needs.
  if (!front.counted) {
    ++misses_;
    front.counted = true;
  }
  pl.request_in_flight = true;
  const bool exclusive = front.is_store;
  AcquireMshr([this, line_addr, exclusive]() {
    interconnect_.SendRead(id_, line_addr, exclusive, [this, line_addr,
                                                       exclusive](LineData data) {
      ReleaseMshr();
      Line& installed = lines_[line_addr];
      installed.state = exclusive ? LineState::kModified : LineState::kShared;
      installed.data = std::move(data);
      installed.data.resize(interconnect_.config().line_size);
      auto it = pending_.find(line_addr);
      if (it != pending_.end()) {
        it->second.request_in_flight = false;
      }
      ProcessQueue(line_addr);
    });
  });
}

void CacheAgent::ExecuteOp(LineAddr line_addr, Op op) {
  auto lit = lines_.find(line_addr);
  if (lit == lines_.end()) {
    // The line was probed away between scheduling and execution; retry the
    // operation from scratch so it re-fetches.
    if (op.is_store) {
      Store(op.addr, std::move(op.data), std::move(op.on_store));
    } else {
      Load(op.addr, op.size, std::move(op.on_load));
    }
    return;
  }
  Line& line = lit->second;
  const size_t offset = op.addr - line_addr;
  if (op.is_store) {
    assert(line.state == LineState::kModified);
    std::memcpy(line.data.data() + offset, op.data.data(), op.data.size());
    if (op.on_store) {
      op.on_store();
    }
  } else {
    std::vector<uint8_t> out(op.size);
    std::memcpy(out.data(), line.data.data() + offset, op.size);
    if (op.on_load) {
      op.on_load(std::move(out));
    }
  }
}

CacheAgent::ProbeResult CacheAgent::HandleProbe(LineAddr addr) {
  ProbeResult result;
  auto it = lines_.find(addr);
  if (it == lines_.end()) {
    return result;
  }
  result.had = true;
  result.dirty = it->second.state == LineState::kModified;
  result.data = std::move(it->second.data);
  lines_.erase(it);
  return result;
}

LineState CacheAgent::StateOf(LineAddr addr) const {
  auto it = lines_.find(addr);
  return it != lines_.end() ? it->second.state : LineState::kInvalid;
}

}  // namespace lauberhorn

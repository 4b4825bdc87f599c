#include "src/coherence/cache_agent.h"

#include <algorithm>
#include <cassert>
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
  Enqueue(lines_[line_addr], line_addr, std::move(op));
}

void CacheAgent::Store(uint64_t addr, std::span<const uint8_t> data, StoreFn on_done) {
  const size_t line_size = interconnect_.config().line_size;
  const LineAddr line_addr = interconnect_.AlignToLine(addr);
  assert(addr - line_addr + data.size() <= line_size && "store spans a cache line");
  Op op;
  op.is_store = true;
  op.addr = addr;
  op.data = LineData(data);
  op.on_store = std::move(on_done);
  Enqueue(lines_[line_addr], line_addr, std::move(op));
}

void CacheAgent::Enqueue(Line& line, LineAddr line_addr, Op op) {
  line.ops.push_back(std::move(op));
  ProcessQueue(line, line_addr);
}

CacheAgent::Op CacheAgent::Line::PopFront() {
  Op op = std::move(ops[head++]);
  if (idle()) {
    ops.clear();  // keeps the capacity
    head = 0;
  }
  return op;
}

void CacheAgent::StoreThrough(uint64_t addr, std::span<const uint8_t> data) {
  const LineAddr line_addr = interconnect_.AlignToLine(addr);
  assert(StateOf(line_addr) == LineState::kInvalid &&
         "StoreThrough to a line this agent caches");
  interconnect_.SendUncachedWrite(id_, line_addr, addr - line_addr, data);
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
  if (auto it = lines_.find(line_addr);
      it != lines_.end() && it->second.state != LineState::kInvalid) {
    interconnect_.sim().Schedule(
        interconnect_.config().l1_hit,
        [out = LineData(std::span(it->second.data).subspan(offset, size)),
         on_done = std::move(on_done)]() mutable { on_done(out); });
    return;
  }
  AcquireMshr([this, line_addr, offset, size, on_done = std::move(on_done)]() mutable {
    interconnect_.SendRead(
        id_, line_addr, /*exclusive=*/false,
        [this, offset, size, on_done = std::move(on_done)](const LineData& data) mutable {
          ReleaseMshr();
          if (data.size() >= offset + size) {
            on_done(std::span(data).subspan(offset, size));
          } else {
            on_done(LineData(size, 0));  // a short fill reads as zeros
          }
        },
        /*install=*/false);
  });
}

void CacheAgent::Flush(LineAddr addr) {
  auto it = lines_.find(addr);
  if (it == lines_.end() || it->second.state == LineState::kInvalid) {
    return;
  }
  if (it->second.state == LineState::kModified) {
    interconnect_.SendWriteBack(id_, addr, it->second.data);
  }
  it->second.state = LineState::kInvalid;
}

void CacheAgent::ProcessQueue(Line& line, LineAddr line_addr) {
  if (line.request_in_flight || line.idle()) {
    return;  // the fill handler will resume us, or nothing to do
  }

  Op& front = line.front();
  if (Satisfies(front, line.state)) {
    if (!front.counted) {
      ++hits_;
      front.counted = true;
    }
    // The L1 access takes l1_hit; subsequent queued ops run after it.
    interconnect_.sim().Schedule(interconnect_.config().l1_hit,
                                 [this, line = &line, line_addr,
                                  op = line.PopFront()]() mutable {
                                   ExecuteOp(*line, line_addr, std::move(op));
                                   ProcessQueue(*line, line_addr);
                                 });
    return;
  }

  // Miss (or upgrade): fetch the line with the exclusivity the front op needs.
  if (!front.counted) {
    ++misses_;
    front.counted = true;
  }
  line.request_in_flight = true;
  const bool exclusive = front.is_store;
  AcquireMshr([this, line = &line, line_addr, exclusive]() {
    interconnect_.SendRead(id_, line_addr, exclusive, [this, line, line_addr,
                                                       exclusive](const LineData& data) {
      ReleaseMshr();
      line->state = exclusive ? LineState::kModified : LineState::kShared;
      line->data = data;
      line->data.resize(interconnect_.config().line_size);
      line->request_in_flight = false;
      ProcessQueue(*line, line_addr);
    });
  });
}

void CacheAgent::ExecuteOp(Line& line, LineAddr line_addr, Op op) {
  if (!Satisfies(op, line.state)) {
    // The line was probed away between scheduling and execution: queue the
    // op again (it keeps its hit/miss attribution) so it re-fetches.
    Enqueue(line, line_addr, std::move(op));
    return;
  }
  const size_t offset = op.addr - line_addr;
  if (op.is_store) {
    std::copy(op.data.begin(), op.data.end(), line.data.begin() + offset);
    if (op.on_store) {
      op.on_store();
    }
  } else if (op.on_load) {
    op.on_load(std::span(line.data).subspan(offset, op.size));
  }
}

ProbeResult CacheAgent::HandleProbe(LineAddr addr) {
  ProbeResult result;
  auto it = lines_.find(addr);
  if (it == lines_.end() || it->second.state == LineState::kInvalid) {
    return result;
  }
  result.had = true;
  result.dirty = it->second.state == LineState::kModified;
  result.data = it->second.data;
  it->second.state = LineState::kInvalid;
  return result;
}

LineState CacheAgent::StateOf(LineAddr addr) const {
  auto it = lines_.find(addr);
  return it != lines_.end() ? it->second.state : LineState::kInvalid;
}

}  // namespace lauberhorn

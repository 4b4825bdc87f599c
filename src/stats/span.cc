#include "src/stats/span.h"

namespace lauberhorn {

const char* SpanSegmentName(size_t segment) {
  static constexpr const char* kNames[kSpanSegmentCount] = {
      "ingest",    // wire_rx -> admitted
      "dispatch",  // admitted -> dispatched
      "deliver",   // dispatched -> delivered
      "sched",     // delivered -> handler_start
      "handler",   // handler_start -> handler_end
      "egress",    // handler_end -> wire_tx
      "return",    // wire_tx -> client_rx
  };
  return segment < kSpanSegmentCount ? kNames[segment] : "?";
}

std::string ToString(SpanDispatch dispatch) {
  switch (dispatch) {
    case SpanDispatch::kUnknown:
      return "unknown";
    case SpanDispatch::kHot:
      return "hot";
    case SpanDispatch::kQueued:
      return "queued";
    case SpanDispatch::kCold:
      return "cold";
    case SpanDispatch::kWorker:
      return "worker";
    case SpanDispatch::kPolled:
      return "polled";
  }
  return "?";
}

void SpanCollector::Record(uint64_t request_id, SpanStage stage, SimTime at) {
  if (!enabled_) {
    return;
  }
  const size_t idx = static_cast<size_t>(stage);
  if (stage == SpanStage::kWireRx) {
    auto [it, inserted] = open_.try_emplace(request_id);
    if (!inserted) {
      // A retransmit of an in-flight request: keep the original timeline.
      ++reopened_;
      return;
    }
    it->second.request_id = request_id;
    it->second.at[idx] = at;
    return;
  }
  auto it = open_.find(request_id);
  if (it == open_.end()) {
    // Replay of an already-completed request, a nested-RPC internal id, or a
    // stage emitted for traffic the span layer never saw arrive.
    ++orphan_marks_;
    return;
  }
  RequestSpan& span = it->second;
  if (span.at[idx] == RequestSpan::kUnset) {
    span.at[idx] = at;
  }
  if (stage == SpanStage::kClientRx) {
    if (capacity_ == 0) {
      ++dropped_;
    } else {
      if (completed_.size() >= capacity_) {
        completed_.pop_front();
        ++dropped_;
      }
      completed_.push_back(span);
    }
    open_.erase(it);
  }
}

void SpanCollector::Annotate(uint64_t request_id, SpanDispatch dispatch,
                             uint32_t endpoint) {
  if (!enabled_) {
    return;
  }
  auto it = open_.find(request_id);
  if (it == open_.end()) {
    ++orphan_marks_;
    return;
  }
  if (it->second.dispatch == SpanDispatch::kUnknown) {
    it->second.dispatch = dispatch;
    it->second.endpoint = endpoint;
  }
}

void SpanCollector::RecordDispatch(uint64_t request_id, SpanDispatch dispatch,
                                   uint32_t endpoint, SimTime at) {
  Record(request_id, SpanStage::kAdmitted, at);
  Record(request_id, SpanStage::kDispatched, at);
  Annotate(request_id, dispatch, endpoint);
}

SpanCollector::StageBudget SpanCollector::Aggregate() const {
  StageBudget budget;
  for (const RequestSpan& span : completed_) {
    for (size_t i = 0; i < kSpanSegmentCount; ++i) {
      const Duration seg = span.Segment(i);
      if (seg >= 0) {
        budget.segments[i].Record(seg);
      }
    }
    const Duration total = span.Total();
    if (total >= 0) {
      budget.total.Record(total);
    }
  }
  return budget;
}

}  // namespace lauberhorn

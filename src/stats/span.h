// Per-request span tracing (§6: "tracing, debugging, and statistics").
//
// A RequestSpan answers "where did this request's nanoseconds go": every
// stack (Lauberhorn NIC + runtime, Linux kernel path, kernel bypass) stamps
// the same eight stages as a request moves from the wire to the handler and
// back to the client, and a SpanCollector stitches the stamps together by
// request id. Stages are deliberately stack-neutral — each stack maps its own
// mechanism onto them (a CONTROL-line fill, a socket dequeue, and a poll-loop
// pickup are all kDelivered) so per-stage budgets compare across stacks,
// which is exactly the attribution nanoPU and Dagger built their evaluations
// around. Collection is pull-free and allocation-light, and every emission
// site is gated on a null check so a machine without a collector pays one
// predictable branch.
#ifndef SRC_STATS_SPAN_H_
#define SRC_STATS_SPAN_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "src/sim/time.h"
#include "src/stats/histogram.h"

namespace lauberhorn {

// Stage timestamps, in request order. Consecutive stages may legitimately
// share a timestamp (e.g. an admission verdict and a hot dispatch decided in
// the same NIC pipeline step), so "monotonic" means non-decreasing.
enum class SpanStage : uint8_t {
  kWireRx = 0,     // request frame arrives at the server NIC
  kAdmitted,       // overload admission said yes (trivially so when disabled)
  kDispatched,     // dispatch decision made (hot/queued/cold or analog)
  kDelivered,      // CONTROL-line fill / socket dequeue / poll-loop pickup
  kHandlerStart,   // service handler begins on a core
  kHandlerEnd,     // handler (and response marshalling) charged
  kWireTx,         // response frame leaves the server NIC
  kClientRx,       // response arrives back at the client
};

inline constexpr size_t kSpanStageCount = 8;
inline constexpr size_t kSpanSegmentCount = kSpanStageCount - 1;

std::string ToString(SpanStage stage);

// Name of the segment between stage i and stage i+1 (e.g. segment 0 is
// "ingest": wire RX to admission verdict).
const char* SpanSegmentName(size_t segment);

// How the dispatch decision routed the request. The first three are the
// Lauberhorn NIC's outcomes; kWorker is the Linux socket->worker handoff and
// kPolled the bypass run-to-completion poll loop.
enum class SpanDispatch : uint8_t {
  kUnknown = 0,
  kHot,     // filled a stalled CONTROL-line load directly
  kQueued,  // NIC-side endpoint queue, delivered on the next poll
  kCold,    // kernel control channel (dispatcher thread)
  kWorker,  // Linux: socket enqueue + worker wakeup
  kPolled,  // bypass: picked from the RX ring by a spinning core
};

std::string ToString(SpanDispatch dispatch);

struct RequestSpan {
  static constexpr SimTime kUnset = -1;

  uint64_t request_id = 0;
  uint32_t endpoint = 0;  // endpoint (Lauberhorn) or queue index (DMA stacks)
  SpanDispatch dispatch = SpanDispatch::kUnknown;
  std::array<SimTime, kSpanStageCount> at{};

  RequestSpan() { at.fill(kUnset); }

  bool Has(SpanStage stage) const {
    return at[static_cast<size_t>(stage)] != kUnset;
  }
  SimTime At(SpanStage stage) const { return at[static_cast<size_t>(stage)]; }

  // All eight stages stamped.
  bool Complete() const {
    for (const SimTime t : at) {
      if (t == kUnset) {
        return false;
      }
    }
    return true;
  }

  // Stamped stages never go backwards in stage order (missing stages are
  // skipped, so a shed request's partial span is still monotonic).
  bool Monotonic() const {
    SimTime last = 0;
    for (const SimTime t : at) {
      if (t == kUnset) {
        continue;
      }
      if (t < last) {
        return false;
      }
      last = t;
    }
    return true;
  }

  // Duration of segment i (stage i -> stage i+1); -1 if either end is unset.
  Duration Segment(size_t segment) const {
    const SimTime from = at[segment];
    const SimTime to = at[segment + 1];
    return (from == kUnset || to == kUnset) ? -1 : to - from;
  }

  // Wire RX to client RX; -1 unless both ends are stamped.
  Duration Total() const {
    return (Has(SpanStage::kWireRx) && Has(SpanStage::kClientRx))
               ? At(SpanStage::kClientRx) - At(SpanStage::kWireRx)
               : -1;
  }
};

// Stitches stage records into RequestSpans by request id. A span opens on
// kWireRx and completes (moving to the bounded `completed` ring) on
// kClientRx. Stage records for ids that are not open — replays of completed
// requests, nested-RPC internals — are counted and dropped rather than
// manufacturing partial spans. First write wins per stage, so a retransmit
// cannot smear an in-flight span.
class SpanCollector {
 public:
  explicit SpanCollector(size_t capacity = 1 << 16) : capacity_(capacity) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Record(uint64_t request_id, SpanStage stage, SimTime at);
  // Attaches the dispatch outcome and serving endpoint/queue to an open span.
  void Annotate(uint64_t request_id, SpanDispatch dispatch, uint32_t endpoint);
  // The admission verdict and dispatch decision taken in one step at `at`:
  // stamps kAdmitted and kDispatched, then annotates the outcome.
  void RecordDispatch(uint64_t request_id, SpanDispatch dispatch,
                      uint32_t endpoint, SimTime at);

  const std::deque<RequestSpan>& completed() const { return completed_; }
  size_t open_count() const { return open_.size(); }
  // Completed spans evicted because the ring was full.
  uint64_t dropped() const { return dropped_; }
  // Stage records that arrived for an id with no open span.
  uint64_t orphan_marks() const { return orphan_marks_; }
  // kWireRx records for an id that already had an open span (retransmits).
  uint64_t reopened() const { return reopened_; }

  void Clear();

  // Per-segment latency budget over the completed spans (incomplete spans
  // contribute only the segments they have).
  struct StageBudget {
    std::array<Histogram, kSpanSegmentCount> segments;
    Histogram total;
  };
  StageBudget Aggregate() const;

 private:
  size_t capacity_;
  bool enabled_ = true;
  std::unordered_map<uint64_t, RequestSpan> open_;
  std::deque<RequestSpan> completed_;
  uint64_t dropped_ = 0;
  uint64_t orphan_marks_ = 0;
  uint64_t reopened_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_STATS_SPAN_H_

// At-most-once request deduplication for the server-side RPC paths.
//
// The client retransmit layer means a server can legitimately see the same
// (flow, request id) twice: once for the original, once per retransmit. This
// cache is the server's half of at-most-once semantics — a request is
// admitted for execution exactly once; while it executes, duplicates are
// dropped (the eventual response answers every copy); after it completes, the
// cached response is replayed without re-running the handler.
//
// Keying is per flow (client ip + source port) plus request id, so distinct
// clients reusing id spaces never collide. The completed window is bounded:
// oldest completed entries are evicted FIFO. Entries that are not completed
// are never evicted — they are dropped only via Complete() or Abort() — so an
// admitted request cannot lose its dedup slot while the handler runs.
//
// On the Lauberhorn stack this table lives in host-coherent memory the OS
// owns (DESIGN.md §16), so it outlives a NIC firmware crash. The host then
// calls ReplayAfterCrash(), which applies one rule per entry state:
//
//   kInFlight  — admitted, never handed to a handler: erased, so a
//                retransmit executes fresh (its first execution).
//   kDelivered — a handler saw it, but its response died with the NIC:
//                becomes kPinned. Admit answers kInFlight, so retransmits
//                are dropped and the client times out. Goodput loss, but
//                never a second execution.
//   kPinned    — still unanswered at the *next* replay: completed with a
//                synthetic kInternal terminal, so a retransmit gets an error
//                reply instead of staying pinned forever.
//   kCompleted — response known: kept, retransmits get the cached response.
//
// A late Complete() on a pinned entry (a response path that outlived the
// crash) still stores the real response. The Linux and bypass stacks never
// call MarkDelivered or ReplayAfterCrash; for them an entry is only ever
// in flight or completed.
#ifndef SRC_PROTO_DEDUP_H_
#define SRC_PROTO_DEDUP_H_

#include <compare>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/proto/rpc_message.h"

namespace lauberhorn {

// The flow half of the dedup key.
constexpr uint64_t DedupFlowKey(uint32_t src_ip, uint16_t src_port) {
  return (static_cast<uint64_t>(src_ip) << 16) | src_port;
}

class RpcDedupCache {
 public:
  enum class Verdict {
    kNew,        // first sighting: execute it
    kInFlight,   // already executing: drop this copy
    kCompleted,  // already executed: replay the cached response
  };

  struct Stats {
    uint64_t admitted = 0;
    uint64_t duplicates_in_flight = 0;
    uint64_t duplicates_replayed = 0;
    uint64_t evictions = 0;
  };

  // What one ReplayAfterCrash() did.
  struct ReplayCounts {
    uint64_t completed = 0;  // completed entries kept, synthetic ones included
    uint64_t pinned = 0;     // delivered entries pinned in flight
    uint64_t dropped = 0;    // undelivered entries forgotten
  };

  explicit RpcDedupCache(size_t completed_window = 1024)
      : completed_window_(completed_window) {}

  // Classifies an incoming request and, for kNew, records it as in flight.
  Verdict Admit(uint64_t flow, uint64_t request_id);

  // Records that an in-flight request reached a handler. No-op otherwise.
  void MarkDelivered(uint64_t flow, uint64_t request_id);

  // Marks a request completed and caches its response for replay.
  // Idempotent: completing an already-completed entry keeps the first
  // response (a replay must not re-cache).
  void Complete(uint64_t flow, uint64_t request_id, const RpcMessage& response);

  // Forgets an uncompleted request without caching anything — used when the
  // server sheds the request instead of executing it (e.g. queue overload),
  // so a retransmit gets a fresh chance to run.
  void Abort(uint64_t flow, uint64_t request_id);

  // The cached response for a kCompleted verdict.
  const RpcMessage* Lookup(uint64_t flow, uint64_t request_id) const;

  // The answer to a kCompleted duplicate of `request`: a copy of the cached
  // response, or a kInternal header with the request's ids when none is
  // cached.
  RpcMessage Replay(uint64_t flow, const RpcMessage& request) const;

  // Applies the crash-replay rules above. Completed entries keep their
  // completion order; the synthetic terminals are appended in (flow, id)
  // order, so the result never depends on hash-table iteration order.
  ReplayCounts ReplayAfterCrash();

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }

 private:
  enum class State : uint8_t { kInFlight, kDelivered, kPinned, kCompleted };

  struct Key {
    uint64_t flow = 0;
    uint64_t request_id = 0;
    auto operator<=>(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix-style finalizer over the xor of the halves.
      uint64_t x = key.flow ^ (key.request_id * 0x9e3779b97f4a7c15ULL);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    State state = State::kInFlight;
    RpcMessage response;  // valid when kCompleted
  };

  size_t completed_window_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::deque<Key> completed_order_;
  Stats stats_;
};

}  // namespace lauberhorn

#endif  // SRC_PROTO_DEDUP_H_

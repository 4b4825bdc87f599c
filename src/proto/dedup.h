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
//
// Storage is flat, with no heap node per entry. Completed responses sit in a
// ring of fixed-size records in completion order (the response's header
// fields and where its payload lies), and their payloads in one byte ring in
// the same order, so FIFO eviction advances both heads. An open-addressing
// index (linear probing, backward-shift deletion) maps (flow, request id) to
// the entry's state and, once completed, its record. Once the rings and the
// index have grown to the window, Admit, MarkDelivered and Complete allocate
// nothing.
#ifndef SRC_PROTO_DEDUP_H_
#define SRC_PROTO_DEDUP_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/proto/rpc_message.h"
#include "src/stats/metrics.h"

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

  // The answer to a kCompleted duplicate of `request`: a copy of the cached
  // response, or a kInternal header with the request's ids when none is
  // cached.
  RpcMessage Replay(uint64_t flow, const RpcMessage& request) const;

  // Applies the crash-replay rules above. Completed entries keep their
  // completion order; the synthetic terminals are appended in (flow, id)
  // order, so the result never depends on the index's slot order.
  ReplayCounts ReplayAfterCrash();

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_; }

  // Named memory bound: the live heap of a cache whose window (a power of
  // two, at least 8) is full of responses with `payload_bytes` of payload
  // each, with at most window / 2 requests in flight. Each completed entry
  // costs a record and its payload; the index has at most 2 * window slots
  // of a key and a state word.
  static constexpr size_t FullWindowHeapBytes(size_t window, size_t payload_bytes) {
    return window * (sizeof(Record) + payload_bytes) +
           2 * window * (sizeof(Key) + sizeof(uint32_t));
  }

 private:
  struct Key {
    uint64_t flow = 0;
    uint64_t request_id = 0;
    auto operator<=>(const Key&) const = default;
  };
  // One completed response, minus its payload bytes.
  struct Record {
    uint64_t request_id = 0;  // the response's
    uint32_t service_id = 0;
    uint32_t slot = 0;         // index slot holding this entry's key
    uint32_t payload_at = 0;   // offset in bytes_
    uint32_t payload_size = 0;
    uint16_t method_id = 0;
    RpcStatus status = RpcStatus::kOk;
    uint16_t grant = 0;
    MessageKind kind = MessageKind::kResponse;
    uint8_t flags = 0;
  };
  static_assert(sizeof(Record) == 32);

  // An index slot's state word: one of the values below, or kCompletedBit
  // plus the entry's position in records_.
  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kInFlight = 1;   // admitted, not yet delivered
  static constexpr uint32_t kDelivered = 2;  // a handler saw it
  static constexpr uint32_t kPinned = 3;     // delivered before a crash
  static constexpr uint32_t kCompletedBit = uint32_t{1} << 31;
  static constexpr size_t kNoSlot = ~size_t{0};
  static constexpr size_t kMinIndexSlots = 16;
  static constexpr size_t kMinRecords = 16;

  static bool IsCompleted(uint32_t state) { return (state & kCompletedBit) != 0; }
  static size_t Hash(const Key& key);
  size_t Home(const Key& key) const { return Hash(key) & (keys_.size() - 1); }

  // The slot holding `key`, or kNoSlot.
  size_t Find(const Key& key) const;
  // The first free slot of `key`'s probe run.
  size_t FreeSlotFor(const Key& key) const;
  // Writes `key` and `state` into `slot`; a completed entry's record is
  // pointed back at the slot.
  void Put(size_t slot, const Key& key, uint32_t state);
  // Stores `key` with `state` in a free slot, growing the index first when
  // it would pass three quarters full. `key` must be absent.
  void Insert(const Key& key, uint32_t state);
  void GrowIndex();
  // Frees `slot`, shifting later entries of its probe run back into the gap.
  void EraseSlot(size_t slot);

  // Appends a completed entry for the key in `slot`: its record and a copy
  // of the response's payload, growing either ring first if it is full.
  void Append(size_t slot, const RpcMessage& response);
  // Evicts the oldest completed entry.
  void EvictOldest();
  void GrowRecords(size_t needed);
  void GrowBytes(size_t needed);
  // Copies `record`'s payload, which may wrap around the ring's end, to `out`.
  void CopyPayload(const Record& record, uint8_t* out) const;
  size_t RecordAt(size_t i) const;  // position of the i-th oldest record

  size_t completed_window_;

  // Index: keys_ and states_ are parallel, with a power-of-two size.
  std::vector<Key> keys_;
  std::vector<uint32_t> states_;
  size_t entries_ = 0;

  // Completed entries, oldest first from records_head_.
  std::vector<Record> records_;
  size_t records_head_ = 0;
  size_t records_count_ = 0;

  // Their payloads, in the same order, oldest first from bytes_head_. A
  // payload may wrap around the end.
  std::vector<uint8_t> bytes_;
  size_t bytes_head_ = 0;
  size_t bytes_used_ = 0;

  Stats stats_;
};

// Exported under the serving stack's prefix: nic/, linux/ or bypass/.
inline constexpr StatsField<RpcDedupCache::Stats> kDedupStatsFields[] = {
    {"dedup_admitted", &RpcDedupCache::Stats::admitted},
    {"dup_drops_in_flight", &RpcDedupCache::Stats::duplicates_in_flight},
    {"dup_replays", &RpcDedupCache::Stats::duplicates_replayed},
    {"dedup_evictions", &RpcDedupCache::Stats::evictions},
};
static_assert(CoversStats(kDedupStatsFields));

}  // namespace lauberhorn

#endif  // SRC_PROTO_DEDUP_H_

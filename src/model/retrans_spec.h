// Small-scope specification of the end-to-end reliability layer: a client
// retransmits one request over a lossy, duplicating network; the server runs
// an at-most-once dedup stage (src/proto/dedup.h) in front of the handler.
// The NIC may crash (up to a small budget); each crash applies the dedup
// table's crash-replay rules: an admitted but undelivered entry is erased, a
// delivered one is pinned, and one still pinned gets a synthetic terminal.
//
// Checked properties:
//   * AtMostOnce  — the handler never executes more than once, no matter how
//                   the network interleaves losses, duplicates, and
//                   retransmissions (the tentpole invariant of this layer);
//   * goal        — the client can complete (the protocol is live when at
//                   least one copy gets through);
//   * terminal ok — the only quiescent states are "client done" or "client
//                   exhausted its retry budget", with all channels drained.
//
// Three mutations reproduce real bug classes and must be caught by the
// checker:
//   * bug_forget_completed: the dedup window drops completed entries while
//     retransmits are still possible, so a late duplicate re-executes;
//   * bug_execute_inflight_dup: a duplicate of an in-flight request is
//     admitted instead of dropped (no in-flight tracking);
//   * bug_forget_delivered: crash replay erases delivered entries like
//     undelivered ones, so a retransmit re-runs a handler that already ran.
#ifndef SRC_MODEL_RETRANS_SPEC_H_
#define SRC_MODEL_RETRANS_SPEC_H_

#include <cstdint>

#include "src/model/checker.h"

namespace lauberhorn {

struct RetransState {
  enum Server : uint8_t {
    kIdle = 0,    // request id never seen (or forgotten by a crash)
    kAdmitted,    // in flight on the NIC, not yet handed to a handler
    kDelivered,   // handler running
    kPinned,      // delivered when the NIC crashed; response lost
    kCompleted,   // response (real or synthetic) cached for replay
  };

  uint8_t attempts_left = 0;  // client sends remaining (original + retries)
  uint8_t dups_left = 0;      // network duplication budget (bounds the space)
  uint8_t crashes_left = 0;   // NIC crash budget
  uint8_t req_in_flight = 0;  // request copies on the wire
  uint8_t resp_in_flight = 0; // response copies on the wire
  uint8_t server = kIdle;
  uint8_t executions = 0;     // times the handler actually ran
  bool client_done = false;

  bool operator==(const RetransState& other) const = default;
};

struct RetransStateHash {
  size_t operator()(const RetransState& s) const {
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(s.attempts_left);
    mix(s.dups_left);
    mix(s.crashes_left);
    mix(s.req_in_flight);
    mix(s.resp_in_flight);
    mix(s.server);
    mix(s.executions);
    mix(s.client_done ? 1 : 0);
    return static_cast<size_t>(h);
  }
};

using RetransChecker = ModelChecker<RetransState, RetransStateHash>;

struct RetransSpecConfig {
  int max_attempts = 3;    // client retry budget (original + retransmits)
  int dup_budget = 2;      // network may duplicate at most this many times
  int channel_capacity = 3;  // copies simultaneously in flight per direction
  int crash_budget = 2;    // NIC crashes (each followed by replay)
  // Mutations (see header comment); the checker must flag each.
  bool bug_forget_completed = false;
  bool bug_execute_inflight_dup = false;
  bool bug_forget_delivered = false;
};

RetransState RetransInitialState(const RetransSpecConfig& config);
RetransChecker::SuccessorFn RetransSuccessors(RetransSpecConfig config);
std::vector<RetransChecker::NamedInvariant> RetransInvariants();
bool RetransTerminalOk(const RetransState& state);
bool RetransGoal(const RetransState& state);

}  // namespace lauberhorn

#endif  // SRC_MODEL_RETRANS_SPEC_H_

#include "src/model/retrans_spec.h"

#include <string>

namespace lauberhorn {
namespace {

void Push(std::vector<RetransChecker::Transition>& out, std::string label,
          RetransState next) {
  out.push_back(RetransChecker::Transition{std::move(label), next});
}

}  // namespace

RetransState RetransInitialState(const RetransSpecConfig& config) {
  RetransState state;
  state.attempts_left = static_cast<uint8_t>(config.max_attempts);
  state.dups_left = static_cast<uint8_t>(config.dup_budget);
  state.crashes_left = static_cast<uint8_t>(config.crash_budget);
  return state;
}

RetransChecker::SuccessorFn RetransSuccessors(RetransSpecConfig config) {
  const auto cap = static_cast<uint8_t>(config.channel_capacity);
  return [config, cap](const RetransState& s,
                       std::vector<RetransChecker::Transition>& out) {
    // -- Client sends (the original, or a retransmit after a timeout) ---------
    if (!s.client_done && s.attempts_left > 0 && s.req_in_flight < cap) {
      RetransState n = s;
      --n.attempts_left;
      ++n.req_in_flight;
      Push(out, "ClientSend", n);
    }

    // -- Network: duplicate or drop a request copy ----------------------------
    if (s.req_in_flight > 0 && s.dups_left > 0 && s.req_in_flight < cap) {
      RetransState n = s;
      --n.dups_left;
      ++n.req_in_flight;
      Push(out, "NetDupReq", n);
    }
    if (s.req_in_flight > 0) {
      RetransState n = s;
      --n.req_in_flight;
      Push(out, "NetDropReq", n);
    }

    // -- Server receives one request copy -------------------------------------
    if (s.req_in_flight > 0) {
      RetransState n = s;
      --n.req_in_flight;
      switch (s.server) {
        case RetransState::kIdle:
          // First sighting: admit; the NIC delivers it to a handler later.
          n.server = RetransState::kAdmitted;
          Push(out, "ServerAdmit", n);
          break;
        case RetransState::kAdmitted:
        case RetransState::kDelivered:
        case RetransState::kPinned:
          if (config.bug_execute_inflight_dup) {
            // Mutation: no in-flight tracking — the duplicate runs too.
            ++n.executions;
            Push(out, "BuggyExecInFlightDup", n);
          } else {
            // Duplicate of an uncompleted request: dropped; the original's
            // response (or the client's timeout) will answer it.
            Push(out, "ServerDropInFlightDup", n);
          }
          break;
        case RetransState::kCompleted:
          if (config.bug_forget_completed) {
            // Mutation: the completed entry was evicted — re-execute.
            n.server = RetransState::kDelivered;
            ++n.executions;
            Push(out, "BuggyReExecute", n);
          } else if (s.resp_in_flight < cap) {
            // Replay the cached response without touching the handler.
            ++n.resp_in_flight;
            Push(out, "ServerReplay", n);
          } else {
            Push(out, "ServerReplaySuppressed", n);  // channel full: drop copy
          }
          break;
      }
    }

    // -- NIC hands the admitted request to a handler, which runs it ----------
    if (s.server == RetransState::kAdmitted) {
      RetransState n = s;
      n.server = RetransState::kDelivered;
      ++n.executions;
      Push(out, "Deliver", n);
    }

    // -- Handler finishes; response cached and transmitted --------------------
    // From kPinned this is a response path that outlived the crash: it still
    // stores the real response.
    if ((s.server == RetransState::kDelivered ||
         s.server == RetransState::kPinned) &&
        s.resp_in_flight < cap) {
      RetransState n = s;
      n.server = RetransState::kCompleted;
      ++n.resp_in_flight;
      Push(out, s.server == RetransState::kPinned ? "LateExecDone" : "ExecDone",
           n);
    }

    // -- NIC crash, reset, and dedup crash replay -----------------------------
    // Wire copies survive; the NIC's own state (an admitted request waiting
    // for a handler) does not.
    if (s.crashes_left > 0) {
      RetransState n = s;
      --n.crashes_left;
      if (s.server == RetransState::kAdmitted ||
          (s.server == RetransState::kDelivered && config.bug_forget_delivered)) {
        n.server = RetransState::kIdle;  // forgotten: a retransmit runs fresh
      } else if (s.server == RetransState::kDelivered) {
        n.server = RetransState::kPinned;
      } else if (s.server == RetransState::kPinned) {
        n.server = RetransState::kCompleted;  // synthetic kInternal terminal
      }
      Push(out, "NicCrashReplay", n);
    }

    // -- Network: duplicate or drop a response copy ---------------------------
    if (s.resp_in_flight > 0 && s.dups_left > 0 && s.resp_in_flight < cap) {
      RetransState n = s;
      --n.dups_left;
      ++n.resp_in_flight;
      Push(out, "NetDupResp", n);
    }
    if (s.resp_in_flight > 0) {
      RetransState n = s;
      --n.resp_in_flight;
      Push(out, "NetDropResp", n);
    }

    // -- Client receives a response (late copies are absorbed) ----------------
    if (s.resp_in_flight > 0) {
      RetransState n = s;
      --n.resp_in_flight;
      n.client_done = true;
      Push(out, s.client_done ? "ClientLateResponse" : "ClientComplete", n);
    }
  };
}

std::vector<RetransChecker::NamedInvariant> RetransInvariants() {
  std::vector<RetransChecker::NamedInvariant> invariants;
  invariants.push_back({"AtMostOnce", [](const RetransState& s) {
    return s.executions <= 1;
  }});
  invariants.push_back({"DoneImpliesExecuted", [](const RetransState& s) {
    // The client only completes off a genuine response, so a done client
    // implies the handler ran (no fabricated responses).
    return !s.client_done || s.executions >= 1;
  }});
  return invariants;
}

bool RetransTerminalOk(const RetransState& state) {
  // Quiescence is legitimate only once the wire is drained and the client is
  // either done or out of retries (a timeout surfaces to the caller).
  return state.req_in_flight == 0 && state.resp_in_flight == 0 &&
         (state.client_done || state.attempts_left == 0);
}

bool RetransGoal(const RetransState& state) { return state.client_done; }

}  // namespace lauberhorn

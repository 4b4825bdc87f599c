// The request-serving policy all three stacks apply the same way. The
// Lauberhorn NIC runs it in hardware; SoftwareRpcServer runs it on a host
// core for the Linux and bypass stacks. Machine builds it once for both.
#ifndef SRC_NIC_SERVE_CONFIG_H_
#define SRC_NIC_SERVE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/overload/overload.h"

namespace lauberhorn {

struct RpcServeConfig {
  // Transport crypto (§6): open request payloads and seal responses with
  // per-service keys derived from crypto_root_key.
  bool crypto = false;
  uint64_t crypto_root_key = 0;
  // At-most-once execution: remember (flow, request id) per request so a
  // client retransmit never runs the handler twice. Duplicates of an
  // in-flight request are dropped (the original's response answers them);
  // duplicates of a completed request replay the cached response.
  bool dedup = true;
  size_t dedup_window = 1024;  // completed entries remembered
  // Overload admission (src/overload): quota and sojourn checks before a
  // request is queued; a shed answers with a kOverloaded reply.
  AdmissionConfig admission;
};

}  // namespace lauberhorn

#endif  // SRC_NIC_SERVE_CONFIG_H_

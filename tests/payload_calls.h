// Calls whose request and response sizes are chosen per call, for the
// payload tests: a "shape" service whose handler returns a response of the
// size the request asks for, with bytes derived from every request byte, and
// closed-loop callers that record each call's response by call index. A
// response that carries another call's bytes, or stale bytes, differs from
// the handler's answer to its own request. Shared by the cross-stack payload
// oracle (tests/payload_oracle_test.cc) and the Lauberhorn crash tests
// (tests/lauberhorn_test.cc).
#ifndef TESTS_PAYLOAD_CALLS_H_
#define TESTS_PAYLOAD_CALLS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/core/machine.h"

namespace lauberhorn {

// Marshalled sizes of one call: its request arguments and its response
// payload, as the NIC sees them.
struct CallSize {
  size_t request = 0;
  size_t response = 0;
};

// Request signature {u32 response length, bytes body}: 8 bytes of framing.
inline constexpr size_t kShapeRequestFraming = 8;
// Response signature {bytes out}: a 4-byte length prefix.
inline constexpr size_t kShapeResponseFraming = 4;

// The handler's answer: `out_len` bytes, each a function of its index and
// an FNV-1a hash of the whole body.
inline std::vector<uint8_t> ShapeBytes(uint32_t out_len, std::span<const uint8_t> body) {
  uint64_t hash = 14695981039346656037ULL ^ body.size();
  for (const uint8_t b : body) {
    hash = (hash ^ b) * 1099511628211ULL;
  }
  std::vector<uint8_t> out(out_len);
  for (uint32_t i = 0; i < out_len; ++i) {
    out[i] = static_cast<uint8_t>((hash >> (8 * (i % 8))) + i * 13);
  }
  return out;
}

inline MethodDef MakeShapeMethod() {
  MethodDef method;
  method.method_id = 0;
  method.name = "shape";
  method.request_sig.args = {WireType::kU32, WireType::kBytes};
  method.response_sig.args = {WireType::kBytes};
  method.handler = [](const std::vector<WireValue>& args) {
    return std::vector<WireValue>{WireValue::Bytes(
        ShapeBytes(static_cast<uint32_t>(args.at(0).scalar), args.at(1).bytes))};
  };
  method.SetFixedServiceTime(Nanoseconds(0));
  return method;
}

inline ServiceDef MakeShapeService(uint32_t service_id, uint16_t port) {
  ServiceDef def;
  def.service_id = service_id;
  def.name = "shape-" + std::to_string(service_id);
  def.udp_port = port;
  def.methods[0] = MakeShapeMethod();
  return def;
}

// The arguments of call `index`: a body of distinct bytes, sized so that
// the marshalled request and response are exactly `size`.
inline std::vector<WireValue> ShapeArgs(CallSize size, uint64_t index) {
  std::vector<uint8_t> body(size.request - kShapeRequestFraming);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(index * 31 + i * 7 + (i >> 8));
  }
  return {WireValue::U32(static_cast<uint32_t>(size.response - kShapeResponseFraming)),
          WireValue::Bytes(std::move(body))};
}

// `callers` closed-loop callers: each issues the next call of `sizes` when
// its previous call returns. Records the response payload of every call that
// returned kOk, by call index.
class ClosedLoopCalls {
 public:
  ClosedLoopCalls(Machine& machine, const ServiceDef& service, std::vector<CallSize> sizes)
      : machine_(machine), service_(service), sizes_(std::move(sizes)),
        responses_(sizes_.size()) {}

  void Start(int callers) {
    for (int i = 0; i < callers && next_ < sizes_.size(); ++i) {
      Call();
    }
  }

  bool done() const { return returned_ == sizes_.size(); }
  const std::vector<std::optional<std::vector<uint8_t>>>& responses() const {
    return responses_;
  }

 private:
  void Call() {
    const size_t index = next_++;
    machine_.client().Call(service_, 0, ShapeArgs(sizes_[index], index),
                           [this, index](const RpcMessage& r, Duration) {
                             ++returned_;
                             if (r.status == RpcStatus::kOk) {
                               responses_[index] = r.payload;
                             }
                             if (next_ < sizes_.size()) {
                               Call();
                             }
                           });
  }

  Machine& machine_;
  const ServiceDef& service_;
  const std::vector<CallSize> sizes_;
  std::vector<std::optional<std::vector<uint8_t>>> responses_;
  size_t next_ = 0;
  size_t returned_ = 0;
};

}  // namespace lauberhorn

#endif  // TESTS_PAYLOAD_CALLS_H_

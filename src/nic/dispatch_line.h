// Cache-line message formats of the Lauberhorn NIC<->CPU protocol (Fig. 4).
//
// A DispatchLine is what a stalled load on a CONTROL line returns: everything
// the core needs to run the RPC — code pointer, data pointer, and the
// unmarshalled arguments inline (overflowing into AUX lines, or into host
// memory via DMA for large payloads, §6). A ResponseLine is what the CPU
// writes back into the same line for the NIC to collect with fetch-exclusive.
#ifndef SRC_NIC_DISPATCH_LINE_H_
#define SRC_NIC_DISPATCH_LINE_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/coherence/coherence.h"

namespace lauberhorn {

enum class LineKind : uint8_t {
  kEmpty = 0,
  kRpcDispatch = 1,     // request delivered to a user endpoint
  kTryAgain = 2,        // §5.1: deadline-bounded dummy fill; retry the load
  kRetire = 3,          // §5.2: give the core back to the OS
  kKernelDispatch = 4,  // request delivered to a kernel control channel
  kResponse = 5,        // CPU -> NIC: RPC result
};

// Fixed header of a DispatchLine; inline argument bytes follow.
inline constexpr size_t kDispatchHeaderSize = 44;
// Fixed header of a ResponseLine; inline payload bytes follow.
inline constexpr size_t kResponseHeaderSize = 20;

struct DispatchLine {
  LineKind kind = LineKind::kEmpty;
  uint8_t aux_lines = 0;   // AUX lines carrying overflow argument bytes
  uint16_t method_id = 0;
  uint32_t service_id = 0;
  uint64_t request_id = 0;
  uint64_t code_ptr = 0;   // first instruction of the target function (§4)
  uint64_t data_ptr = 0;   // process data pointer, or DMA buffer IOVA
  uint32_t arg_len = 0;    // total marshalled argument bytes
  bool via_dma = false;    // args are in host memory, not inline/AUX
  uint16_t endpoint_id = 0;  // kKernelDispatch: target endpoint
  uint32_t pid = 0;          // kKernelDispatch: target process
  LineData inline_args;      // bytes that fit in this line

  // Serializes into exactly `line_size` bytes (inline_args must fit).
  LineData Encode(size_t line_size) const;
  // Rejects lines shorter than the header or longer than kMaxLineSize.
  static std::optional<DispatchLine> Decode(std::span<const uint8_t> line);

  static size_t InlineCapacity(size_t line_size) {
    return line_size - kDispatchHeaderSize;
  }
};

struct ResponseLine {
  LineKind kind = LineKind::kResponse;
  uint8_t aux_lines = 0;
  uint16_t status = 0;      // RpcStatus
  uint32_t resp_len = 0;    // total marshalled response bytes
  uint64_t request_id = 0;
  bool via_dma = false;     // payload in host memory
  LineData inline_payload;

  LineData Encode(size_t line_size) const;
  // Rejects lines shorter than the header or longer than kMaxLineSize.
  static std::optional<ResponseLine> Decode(std::span<const uint8_t> line);

  static size_t InlineCapacity(size_t line_size) {
    return line_size - kResponseHeaderSize;
  }
};

}  // namespace lauberhorn

#endif  // SRC_NIC_DISPATCH_LINE_H_

// Cache-line message formats of the Lauberhorn NIC<->CPU protocol (Fig. 4).
//
// A DispatchLine is what a stalled load on a CONTROL line returns: everything
// the core needs to run the RPC — code pointer, data pointer, and the
// unmarshalled arguments inline (overflowing into AUX lines, or into host
// memory via DMA for large payloads, §6). A ResponseLine is what the CPU
// writes back into the same line for the NIC to collect with fetch-exclusive.
#ifndef SRC_NIC_DISPATCH_LINE_H_
#define SRC_NIC_DISPATCH_LINE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <type_traits>

#include "src/coherence/coherence.h"

namespace lauberhorn {

// Up to one line of bytes, held inline (no heap): the argument or payload
// bytes carried in a DispatchLine or ResponseLine. Copying a line message is
// therefore a fixed-size copy, never an allocation.
class LineBytes {
 public:
  using value_type = uint8_t;
  using iterator = uint8_t*;
  using const_iterator = const uint8_t*;

  LineBytes() = default;
  LineBytes(std::initializer_list<uint8_t> bytes) { assign(bytes.begin(), bytes.end()); }

  static constexpr size_t capacity() { return kMaxLineSize; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* begin() { return data(); }
  uint8_t* end() { return data() + size_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t& operator[](size_t i) { return bytes_[i]; }

  template <typename It>
    requires(!std::is_integral_v<It>)
  void assign(It first, It last) {
    const auto n = static_cast<size_t>(std::distance(first, last));
    assert(n <= capacity());
    std::copy(first, last, bytes_.begin());
    size_ = static_cast<uint16_t>(n);
  }
  void assign(size_t n, uint8_t value) {
    assert(n <= capacity());
    std::fill_n(bytes_.begin(), n, value);
    size_ = static_cast<uint16_t>(n);
  }
  // Grows with zero bytes or truncates, like std::vector::resize.
  void resize(size_t n) {
    assert(n <= capacity());
    if (n > size_) {
      std::fill(bytes_.begin() + size_, bytes_.begin() + n, 0);
    }
    size_ = static_cast<uint16_t>(n);
  }

  friend bool operator==(const LineBytes& a, const LineBytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  uint16_t size_ = 0;
  std::array<uint8_t, kMaxLineSize> bytes_{};
};

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
  LineBytes inline_args;     // bytes that fit in this line

  // Serializes into exactly `line_size` bytes (inline_args must fit).
  LineData Encode(size_t line_size) const;
  // Rejects lines shorter than the header or longer than kMaxLineSize.
  static std::optional<DispatchLine> Decode(const LineData& line);

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
  LineBytes inline_payload;

  LineData Encode(size_t line_size) const;
  // Rejects lines shorter than the header or longer than kMaxLineSize.
  static std::optional<ResponseLine> Decode(const LineData& line);

  static size_t InlineCapacity(size_t line_size) {
    return line_size - kResponseHeaderSize;
  }
};

}  // namespace lauberhorn

#endif  // SRC_NIC_DISPATCH_LINE_H_

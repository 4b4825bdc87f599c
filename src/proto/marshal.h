// Argument (un)marshalling for the LRPC wire format.
//
// The format is a flat little-endian encoding driven by a MethodSignature:
// fixed-size scalars are encoded in place, byte strings are length-prefixed.
// The same signature tables are loaded into the simulated Lauberhorn NIC so
// that it can unmarshal arguments in hardware, as the paper's deserialization
// accelerator does (§5.1, citing Optimus Prime / ProtoAcc).
#ifndef SRC_PROTO_MARSHAL_H_
#define SRC_PROTO_MARSHAL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace lauberhorn {

enum class WireType : uint8_t {
  kU8 = 1,
  kU16 = 2,
  kU32 = 3,
  kU64 = 4,
  kI64 = 5,
  kF64 = 6,
  kBytes = 7,   // length-prefixed (u32) byte string
  kString = 8,  // length-prefixed (u32) UTF-8 string
};

// A single argument or return value.
struct WireValue {
  WireType type = WireType::kU64;
  uint64_t scalar = 0;       // kU8..kI64 (kI64 stored two's-complement)
  double f64 = 0.0;          // kF64
  std::vector<uint8_t> bytes;  // kBytes
  std::string str;           // kString

  static WireValue U8(uint8_t v) { return {WireType::kU8, v, 0.0, {}, {}}; }
  static WireValue U16(uint16_t v) { return {WireType::kU16, v, 0.0, {}, {}}; }
  static WireValue U32(uint32_t v) { return {WireType::kU32, v, 0.0, {}, {}}; }
  static WireValue U64(uint64_t v) { return {WireType::kU64, v, 0.0, {}, {}}; }
  static WireValue I64(int64_t v) {
    return {WireType::kI64, static_cast<uint64_t>(v), 0.0, {}, {}};
  }
  static WireValue F64(double v) { return {WireType::kF64, 0, v, {}, {}}; }
  static WireValue Bytes(std::vector<uint8_t> v) {
    return {WireType::kBytes, 0, 0.0, std::move(v), {}};
  }
  static WireValue Str(std::string v) {
    return {WireType::kString, 0, 0.0, {}, std::move(v)};
  }

  int64_t AsI64() const { return static_cast<int64_t>(scalar); }
  bool operator==(const WireValue& other) const;
};

// Ordered argument types of one RPC method. The NIC's unmarshal stage walks
// this to compute the in-register layout of the dispatch cache line.
struct MethodSignature {
  std::vector<WireType> args;

  // Encoded size of values matching this signature; kBytes/kString contribute
  // 4 + payload length.
  size_t EncodedSize(std::span<const WireValue> values) const;
  bool Matches(std::span<const WireValue> values) const;
};

// Serializes values (which must match `sig`) onto the end of `out`, growing
// it once to the exact encoded size. Returns false on signature mismatch.
bool MarshalArgs(const MethodSignature& sig, std::span<const WireValue> values,
                 std::vector<uint8_t>& out);

// Deserializes exactly the values described by `sig` from `in` (trailing
// bytes are ignored; `consumed` reports how many were read). The elements
// already in `out` are reused, so a vector kept across calls keeps its
// byte and string buffers. On malformed input returns false and leaves `out`
// empty.
bool UnmarshalArgs(const MethodSignature& sig, std::span<const uint8_t> in,
                   std::vector<WireValue>& out, size_t* consumed = nullptr);

// True exactly when UnmarshalArgs(sig, in, ...) would succeed, without
// building the values: the NIC's validate-only unmarshal stage.
bool ValidateArgs(const MethodSignature& sig, std::span<const uint8_t> in);

// Low-level primitives shared with the header codec.
void PutU16Le(std::vector<uint8_t>& out, uint16_t v);
void PutU32Le(std::vector<uint8_t>& out, uint32_t v);
void PutU64Le(std::vector<uint8_t>& out, uint64_t v);

// Reads the little-endian integer at `p`, which must hold sizeof(T) bytes,
// as one load.
static_assert(std::endian::native == std::endian::little,
              "LoadLe reads wire integers in host byte order");
template <typename T>
inline T LoadLe(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Reads a little-endian integer at `off` and advances past it; false (with
// `off` and `v` untouched) when fewer than sizeof(T) bytes remain.
template <typename T>
inline bool GetLe(std::span<const uint8_t> in, size_t& off, T& v) {
  if (off + sizeof(T) > in.size()) {
    return false;
  }
  v = LoadLe<T>(in.data() + off);
  off += sizeof(T);
  return true;
}
inline bool GetU16Le(std::span<const uint8_t> in, size_t& off, uint16_t& v) {
  return GetLe(in, off, v);
}
inline bool GetU32Le(std::span<const uint8_t> in, size_t& off, uint32_t& v) {
  return GetLe(in, off, v);
}
inline bool GetU64Le(std::span<const uint8_t> in, size_t& off, uint64_t& v) {
  return GetLe(in, off, v);
}

}  // namespace lauberhorn

#endif  // SRC_PROTO_MARSHAL_H_

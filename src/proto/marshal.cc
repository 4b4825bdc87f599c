#include "src/proto/marshal.h"

#include <cstring>

namespace lauberhorn {

bool WireValue::operator==(const WireValue& other) const {
  if (type != other.type) {
    return false;
  }
  switch (type) {
    case WireType::kF64:
      return f64 == other.f64;
    case WireType::kBytes:
      return bytes == other.bytes;
    case WireType::kString:
      return str == other.str;
    default:
      return scalar == other.scalar;
  }
}

namespace {

// Appends the low `N` bytes of `v`, least significant first, in one insert.
template <size_t N>
void PutLe(std::vector<uint8_t>& out, uint64_t v) {
  uint8_t bytes[N];
  for (size_t i = 0; i < N; ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  out.insert(out.end(), bytes, bytes + N);
}

// Encoded width of a fixed-size type; 0 for the length-prefixed ones.
size_t ScalarSize(WireType t) {
  switch (t) {
    case WireType::kU8:
      return 1;
    case WireType::kU16:
      return 2;
    case WireType::kU32:
      return 4;
    case WireType::kU64:
    case WireType::kI64:
    case WireType::kF64:
      return 8;
    default:
      return 0;
  }
}

// The one decoder walk behind UnmarshalArgs and ValidateArgs, so the two
// accept exactly the same bytes. Calls `emit(type, bits, bytes)` once per
// argument: `bits` holds a scalar (an f64's IEEE bits), `bytes` the body of a
// kBytes/kString value. Leaves `off` just past the last argument.
template <typename Emit>
bool WalkArgs(const MethodSignature& sig, std::span<const uint8_t> in, size_t& off,
              Emit&& emit) {
  for (WireType t : sig.args) {
    uint64_t bits = 0;
    std::span<const uint8_t> bytes;
    if (const size_t width = ScalarSize(t); width > 0) {
      if (off + width > in.size()) {
        return false;
      }
      for (size_t i = 0; i < width; ++i) {
        bits |= static_cast<uint64_t>(in[off + i]) << (8 * i);
      }
      off += width;
    } else {
      uint32_t len = 0;
      if (!GetU32Le(in, off, len) || off + len > in.size()) {
        return false;
      }
      bytes = in.subspan(off, len);
      off += len;
    }
    emit(t, bits, bytes);
  }
  return true;
}

}  // namespace

void PutU16Le(std::vector<uint8_t>& out, uint16_t v) { PutLe<2>(out, v); }

void PutU32Le(std::vector<uint8_t>& out, uint32_t v) { PutLe<4>(out, v); }

void PutU64Le(std::vector<uint8_t>& out, uint64_t v) { PutLe<8>(out, v); }

size_t MethodSignature::EncodedSize(std::span<const WireValue> values) const {
  size_t total = 0;
  for (size_t i = 0; i < args.size() && i < values.size(); ++i) {
    const size_t s = ScalarSize(args[i]);
    if (s > 0) {
      total += s;
    } else if (args[i] == WireType::kBytes) {
      total += 4 + values[i].bytes.size();
    } else {
      total += 4 + values[i].str.size();
    }
  }
  return total;
}

bool MethodSignature::Matches(std::span<const WireValue> values) const {
  if (values.size() != args.size()) {
    return false;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (values[i].type != args[i]) {
      return false;
    }
  }
  return true;
}

bool MarshalArgs(const MethodSignature& sig, std::span<const WireValue> values,
                 std::vector<uint8_t>& out) {
  if (!sig.Matches(values)) {
    return false;
  }
  // One allocation at most: the per-field appends below never regrow `out`.
  out.reserve(out.size() + sig.EncodedSize(values));
  for (const WireValue& v : values) {
    switch (v.type) {
      case WireType::kU8:
        out.push_back(static_cast<uint8_t>(v.scalar));
        break;
      case WireType::kU16:
        PutU16Le(out, static_cast<uint16_t>(v.scalar));
        break;
      case WireType::kU32:
        PutU32Le(out, static_cast<uint32_t>(v.scalar));
        break;
      case WireType::kU64:
      case WireType::kI64:
        PutU64Le(out, v.scalar);
        break;
      case WireType::kF64: {
        uint64_t bits = 0;
        std::memcpy(&bits, &v.f64, sizeof(bits));
        PutU64Le(out, bits);
        break;
      }
      case WireType::kBytes:
        PutU32Le(out, static_cast<uint32_t>(v.bytes.size()));
        out.insert(out.end(), v.bytes.begin(), v.bytes.end());
        break;
      case WireType::kString:
        PutU32Le(out, static_cast<uint32_t>(v.str.size()));
        out.insert(out.end(), v.str.begin(), v.str.end());
        break;
    }
  }
  return true;
}

bool UnmarshalArgs(const MethodSignature& sig, std::span<const uint8_t> in,
                   std::vector<WireValue>& out, size_t* consumed) {
  out.reserve(sig.args.size());
  size_t count = 0;
  size_t off = 0;
  const bool ok = WalkArgs(sig, in, off,
                           [&out, &count](WireType t, uint64_t bits,
                                          std::span<const uint8_t> bytes) {
                             if (count == out.size()) {
                               out.emplace_back();
                             }
                             // A reused element is reset field by field, so
                             // its byte and string buffers stay allocated.
                             WireValue& v = out[count++];
                             v.type = t;
                             v.scalar = 0;
                             v.f64 = 0.0;
                             v.bytes.clear();
                             v.str.clear();
                             if (t == WireType::kF64) {
                               std::memcpy(&v.f64, &bits, sizeof(v.f64));
                             } else if (t == WireType::kBytes) {
                               v.bytes.assign(bytes.begin(), bytes.end());
                             } else if (t == WireType::kString) {
                               v.str.assign(bytes.begin(), bytes.end());
                             } else {
                               v.scalar = bits;
                             }
                           });
  if (!ok) {
    out.clear();
    return false;
  }
  out.resize(count);
  if (consumed != nullptr) {
    *consumed = off;
  }
  return true;
}

bool ValidateArgs(const MethodSignature& sig, std::span<const uint8_t> in) {
  size_t off = 0;
  return WalkArgs(sig, in, off, [](WireType, uint64_t, std::span<const uint8_t>) {});
}

}  // namespace lauberhorn

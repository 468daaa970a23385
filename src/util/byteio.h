// Little-endian encoding and the integrity envelope shared by the binary
// on-disk formats: the "ANCK" training checkpoint, the "ANSV" serving
// artifact and the "ANEL" event log. Serialisation is byte-order-explicit so
// files are portable across hosts; doubles are carried via their IEEE-754
// bit pattern, so values round-trip bit-exactly (including -0.0 and
// denormals).
//
// Every format wears the same 20-byte envelope (docs/robustness.md §6):
//   bytes 0..3   magic
//   bytes 4..7   u32 format version
//   bytes 8..15  u64 payload size in bytes
//   bytes 16..19 u32 CRC-32 (IEEE 802.3) of the payload
//   bytes 20..   payload (format-specific, fixed little-endian field order)
#ifndef ANECI_UTIL_BYTEIO_H_
#define ANECI_UTIL_BYTEIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace aneci {

/// CRC-32 (reflected, polynomial 0xEDB88320) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

template <typename T>
inline void PutScalarLe(std::string* out, T value) {
  static_assert(std::is_integral_v<T>);
  for (size_t i = 0; i < sizeof(T); ++i)
    out->push_back(
        static_cast<char>((static_cast<uint64_t>(value) >> (8 * i)) & 0xff));
}

inline void PutDoubleLe(std::string* out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutScalarLe<uint64_t>(out, bits);
}

/// The dense-tensor encoding: i32 rows, i32 cols, then rows * cols
/// row-major doubles.
void PutTensorLe(std::string* out, int32_t rows, int32_t cols,
                 const double* data);

/// Sequential little-endian reader over a byte string. Every Get checks the
/// remaining length first, so a truncated payload surfaces as a precise
/// Status ("<what> truncated: <origin>") instead of reading past the end.
class ByteReader {
 public:
  /// `what` names the payload kind in errors ("checkpoint payload", "model
  /// artifact payload"); `origin` names the file or buffer being decoded.
  ByteReader(std::string_view bytes, std::string what, std::string origin)
      : bytes_(bytes), what_(std::move(what)), origin_(std::move(origin)) {}

  template <typename T>
  Status Get(T* value) {
    static_assert(std::is_integral_v<T>);
    if (bytes_.size() - pos_ < sizeof(T)) return Truncated();
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += sizeof(T);
    *value = static_cast<T>(v);
    return Status::OK();
  }

  Status GetDouble(double* value) {
    uint64_t bits = 0;
    ANECI_RETURN_IF_ERROR(Get(&bits));
    std::memcpy(value, &bits, sizeof(bits));
    return Status::OK();
  }

  /// Reads `n` doubles into `out`, resized to `n` only after checking that
  /// `n * 8` bytes remain — a corrupt count fails fast instead of OOMing.
  Status GetDoubles(size_t n, std::vector<double>* out);

  /// Fails as truncated unless `count` items of `item_bytes` each fit in the
  /// bytes left. Call before sizing an allocation from a decoded count.
  Status CheckCount(uint64_t count, size_t item_bytes) const {
    if (count > remaining() / item_bytes) return Truncated();
    return Status::OK();
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Truncated() const {
    return Status::InvalidArgument(what_ + " truncated: " + origin_);
  }

  std::string_view bytes_;
  std::string what_;
  std::string origin_;
  size_t pos_ = 0;
};

/// Wraps `payload` in the envelope: `magic` (4 bytes), `version`, size, CRC.
std::string Seal(std::string_view magic, uint32_t version,
                 std::string_view payload);

struct Envelope {
  uint32_t version = 0;
  std::string_view payload;  ///< Points into the bytes given to Open.
};

/// Verifies, in order, that `bytes` holds a whole header, carries `magic`, a
/// version in [min_version, max_version], exactly the declared payload size,
/// and a payload matching the CRC. `what` names the format in errors
/// ("checkpoint", "model artifact", "event log"); `origin` the source.
StatusOr<Envelope> Open(std::string_view bytes, std::string_view magic,
                        uint32_t min_version, uint32_t max_version,
                        const std::string& what, const std::string& origin);

}  // namespace aneci

#endif  // ANECI_UTIL_BYTEIO_H_

#include "util/byteio.h"

#include <bit>
#include <cstdio>

namespace aneci {
namespace {

constexpr size_t kHeaderSize = 4 + 4 + 8 + 4;  // magic, version, size, crc.

/// "0xdeadbeef" — CRC values quoted in corruption errors.
std::string HexU32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  // Reflected CRC-32 with the IEEE 802.3 polynomial; table built on first use.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i)
    crc = table[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

void PutTensorLe(std::string* out, int32_t rows, int32_t cols,
                 const double* data) {
  PutScalarLe<int32_t>(out, rows);
  PutScalarLe<int32_t>(out, cols);
  const size_t n = static_cast<size_t>(rows) * cols;
  // On a little-endian host the in-memory doubles already are the file bytes.
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0)
      out->append(reinterpret_cast<const char*>(data), n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) PutDoubleLe(out, data[i]);
  }
}

Status ByteReader::GetDoubles(size_t n, std::vector<double>* out) {
  ANECI_RETURN_IF_ERROR(CheckCount(n, sizeof(double)));
  out->resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0)
      std::memcpy(out->data(), bytes_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
  } else {
    for (double& v : *out) ANECI_RETURN_IF_ERROR(GetDouble(&v));
  }
  return Status::OK();
}

std::string Seal(std::string_view magic, uint32_t version,
                 std::string_view payload) {
  std::string file;
  file.reserve(kHeaderSize + payload.size());
  file.append(magic);
  PutScalarLe<uint32_t>(&file, version);
  PutScalarLe<uint64_t>(&file, payload.size());
  PutScalarLe<uint32_t>(&file, Crc32(payload.data(), payload.size()));
  file.append(payload);
  return file;
}

StatusOr<Envelope> Open(std::string_view bytes, std::string_view magic,
                        uint32_t min_version, uint32_t max_version,
                        const std::string& what, const std::string& origin) {
  if (bytes.size() < kHeaderSize)
    return Status::InvalidArgument(what + " too short for header: " + origin);
  if (bytes.substr(0, magic.size()) != magic)
    return Status::InvalidArgument(what + " has bad magic (want \"" +
                                   std::string(magic) + "\"): " + origin);
  ByteReader header(bytes.substr(4, kHeaderSize - 4), what + " header",
                    origin);
  Envelope envelope;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  ANECI_RETURN_IF_ERROR(header.Get(&envelope.version));
  ANECI_RETURN_IF_ERROR(header.Get(&payload_size));
  ANECI_RETURN_IF_ERROR(header.Get(&crc));
  if (envelope.version < min_version || envelope.version > max_version) {
    const std::string readable =
        min_version == max_version
            ? "version " + std::to_string(max_version)
            : "versions " + std::to_string(min_version) + ".." +
                  std::to_string(max_version);
    return Status::InvalidArgument(
        "unsupported " + what + " version " +
        std::to_string(envelope.version) + " (this build reads " + readable +
        "): " + origin);
  }
  envelope.payload = bytes.substr(kHeaderSize);
  if (envelope.payload.size() != payload_size)
    return Status::InvalidArgument(
        what + " truncated: header declares " + std::to_string(payload_size) +
        " payload bytes, file has " +
        std::to_string(envelope.payload.size()) + ": " + origin);
  const uint32_t actual_crc =
      Crc32(envelope.payload.data(), envelope.payload.size());
  if (actual_crc != crc)
    return Status::InvalidArgument(
        what + " CRC mismatch (corrupt): header declares " + HexU32(crc) +
        ", payload hashes to " + HexU32(actual_crc) + ": " + origin);
  return envelope;
}

}  // namespace aneci

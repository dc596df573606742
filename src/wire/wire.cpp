#include "wire/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.hpp"

namespace rfidsim::wire {

namespace {

/// Slicing-by-8 tables for CRC-16-CCITT (poly 0x1021, MSB first).
/// Row 0 is the classic byte table; row k maps a byte to its CRC
/// contribution when k zero bytes follow it, so one step folds eight input
/// bytes with eight independent lookups instead of a serial chain of eight.
using CrcTables = std::array<std::array<std::uint16_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc & 0x8000u) ? (crc << 1) ^ 0x1021u
                                                       : crc << 1);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint16_t prev = t[k - 1][i];
      t[k][i] = static_cast<std::uint16_t>((prev << 8) ^ t[0][prev >> 8]);
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

bool known_opcode(std::uint8_t op) {
  switch (static_cast<OpCode>(op)) {
    case OpCode::kEventBatch:
    case OpCode::kCheckpointHeader:
    case OpCode::kCheckpointShard:
    case OpCode::kCheckpointEnd:
      return true;
  }
  return false;
}

/// First SOH at or after `from` (buffer end if none) — the resync target
/// after a corrupt frame.
std::size_t resync_offset(const std::uint8_t* data, std::size_t size,
                          std::size_t from) {
  for (std::size_t i = from; i < size; ++i) {
    if (data[i] == kSoh) return i;
  }
  return size;
}

DecodeResult fail(DecodeErrorKind kind, const std::uint8_t* data,
                  std::size_t size, std::size_t scan_from) {
  DecodeResult result;
  result.ok = false;
  result.error = kind;
  result.next_offset = resync_offset(data, size, scan_from);
  return result;
}

}  // namespace

const char* decode_error_name(DecodeErrorKind kind) {
  switch (kind) {
    case DecodeErrorKind::kBadMagic: return "bad_magic";
    case DecodeErrorKind::kTruncated: return "truncated";
    case DecodeErrorKind::kBadLength: return "bad_length";
    case DecodeErrorKind::kBadCrc: return "bad_crc";
    case DecodeErrorKind::kUnknownVersion: return "unknown_version";
    case DecodeErrorKind::kUnknownOpcode: return "unknown_opcode";
    case DecodeErrorKind::kBadPayload: return "bad_payload";
  }
  return "unknown";
}

std::uint16_t crc16(const std::uint8_t* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  std::uint16_t crc = 0xFFFFu;
  std::size_t i = 0;
  // The 16-bit register folds into the first two bytes of each block.
  for (; i + 8 <= size; i += 8) {
    const std::uint8_t* b = data + i;
    crc = static_cast<std::uint16_t>(
        t[7][b[0] ^ (crc >> 8)] ^ t[6][b[1] ^ (crc & 0xFFu)] ^ t[5][b[2]] ^
        t[4][b[3]] ^ t[3][b[4]] ^ t[2][b[5]] ^ t[1][b[6]] ^ t[0][b[7]]);
  }
  for (; i < size; ++i) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ t[0][((crc >> 8) ^ data[i]) & 0xFFu]);
  }
  return crc;
}

std::uint16_t crc16(const std::vector<std::uint8_t>& data) {
  return crc16(data.data(), data.size());
}

void seal_frame(std::uint8_t* frame, std::size_t payload_size, OpCode opcode,
                std::uint8_t version) {
  require(payload_size <= kMaxPayloadBytes,
          "wire::seal_frame: payload exceeds kMaxPayloadBytes");
  const std::uint32_t len = static_cast<std::uint32_t>(payload_size);
  frame[0] = kSoh;
  frame[1] = static_cast<std::uint8_t>(len & 0xFFu);
  frame[2] = static_cast<std::uint8_t>((len >> 8) & 0xFFu);
  frame[3] = static_cast<std::uint8_t>((len >> 16) & 0xFFu);
  frame[4] = static_cast<std::uint8_t>((len >> 24) & 0xFFu);
  frame[5] = static_cast<std::uint8_t>(opcode);
  frame[6] = version;
  // CRC covers length..payload (header byte excluded), big-endian per Mercury.
  const std::uint16_t crc = crc16(frame + 1, 6 + payload_size);
  std::uint8_t* trailer = frame + kFrameHeaderBytes + payload_size;
  trailer[0] = static_cast<std::uint8_t>(crc >> 8);
  trailer[1] = static_cast<std::uint8_t>(crc & 0xFFu);
}

void append_frame(std::vector<std::uint8_t>& out, OpCode opcode,
                  const std::vector<std::uint8_t>& payload,
                  std::uint8_t version) {
  require(payload.size() <= kMaxPayloadBytes,
          "wire::append_frame: payload exceeds kMaxPayloadBytes");
  const std::size_t begin = out.size();
  const std::size_t need = begin + payload.size() + kFrameOverhead;
  // Grow geometrically: a checkpoint appends dozens of frames to one
  // buffer, and an exact-fit reserve would copy the whole prefix each time.
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  out.resize(need);
  std::uint8_t* frame = out.data() + begin;
  if (!payload.empty()) {
    std::memcpy(frame + kFrameHeaderBytes, payload.data(), payload.size());
  }
  seal_frame(frame, payload.size(), opcode, version);
}

std::vector<std::uint8_t> make_frame(OpCode opcode,
                                     const std::vector<std::uint8_t>& payload,
                                     std::uint8_t version) {
  std::vector<std::uint8_t> out;
  append_frame(out, opcode, payload, version);
  return out;
}

DecodeResult next_frame(const std::uint8_t* data, std::size_t size,
                        std::size_t offset) {
  if (offset >= size) {
    DecodeResult result;
    result.ok = false;
    result.error = DecodeErrorKind::kTruncated;
    result.next_offset = size;
    return result;
  }
  if (data[offset] != kSoh) {
    // Resync from the *next* byte: the bad byte itself cannot start a frame.
    return fail(DecodeErrorKind::kBadMagic, data, size, offset + 1);
  }
  // Envelope prefix: SOH + length(4) + opcode + version.
  if (size - offset < 7) {
    return fail(DecodeErrorKind::kTruncated, data, size, offset + 1);
  }
  const std::uint32_t len = static_cast<std::uint32_t>(data[offset + 1]) |
                            (static_cast<std::uint32_t>(data[offset + 2]) << 8) |
                            (static_cast<std::uint32_t>(data[offset + 3]) << 16) |
                            (static_cast<std::uint32_t>(data[offset + 4]) << 24);
  if (len > kMaxPayloadBytes) {
    return fail(DecodeErrorKind::kBadLength, data, size, offset + 1);
  }
  const std::size_t total = static_cast<std::size_t>(len) + kFrameOverhead;
  if (size - offset < total) {
    return fail(DecodeErrorKind::kTruncated, data, size, offset + 1);
  }
  // CRC over length..payload (header byte excluded), big-endian on the wire.
  const std::size_t body_begin = offset + 1;
  const std::size_t body_size = 6 + len;  // length(4) + opcode + version + payload.
  const std::uint16_t want =
      static_cast<std::uint16_t>((static_cast<std::uint16_t>(data[offset + 7 + len]) << 8) |
                                 data[offset + 8 + len]);
  if (crc16(data + body_begin, body_size) != want) {
    return fail(DecodeErrorKind::kBadCrc, data, size, offset + 1);
  }
  // CRC passed, so the envelope was transmitted as-is: skip the whole
  // frame rather than rescanning its interior for a stray SOH.
  if (data[offset + 6] != kWireVersion) {
    DecodeResult result;
    result.ok = false;
    result.error = DecodeErrorKind::kUnknownVersion;
    result.next_offset = offset + total;
    return result;
  }
  if (!known_opcode(data[offset + 5])) {
    DecodeResult result;
    result.ok = false;
    result.error = DecodeErrorKind::kUnknownOpcode;
    result.next_offset = offset + total;
    return result;
  }
  DecodeResult result;
  result.ok = true;
  result.frame.opcode = static_cast<OpCode>(data[offset + 5]);
  result.frame.version = data[offset + 6];
  result.frame.payload = data + offset + 7;
  result.frame.payload_size = len;
  result.next_offset = offset + total;
  return result;
}

DecodeResult next_frame(const std::vector<std::uint8_t>& buffer,
                        std::size_t offset) {
  return next_frame(buffer.data(), buffer.size(), offset);
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_varint_signed(std::vector<std::uint8_t>& out, std::int64_t value) {
  put_varint(out, zigzag(value));
}

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

bool Reader::get_varint(std::uint64_t& value) {
  std::uint64_t result = 0;
  for (std::size_t shift = 0; shift < 70; shift += 7) {
    if (pos >= size) return false;
    const std::uint8_t byte = data[pos++];
    if (shift == 63 && (byte & 0xFEu)) return false;  // Overflows 64 bits.
    result |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      value = result;
      return true;
    }
  }
  return false;  // More than 10 continuation bytes.
}

bool Reader::get_varint_signed(std::int64_t& value) {
  std::uint64_t raw = 0;
  if (!get_varint(raw)) return false;
  value = unzigzag(raw);
  return true;
}

bool Reader::get_u8(std::uint8_t& value) {
  if (pos >= size) return false;
  value = data[pos++];
  return true;
}

bool Reader::get_u64le(std::uint64_t& value) {
  if (pos + 8 > size) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)]) << (8 * i);
  }
  pos += 8;
  value = v;
  return true;
}

}  // namespace rfidsim::wire

#include "wire/batch_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace rfidsim::wire {

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

double double_of(std::uint64_t u) {
  double x = 0.0;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

/// Longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

/// Payload bytes encode_payload may write for `events` events: facility,
/// the two raw times, the dictionary and event counts, at most one
/// dictionary entry per event, and five varints per event.
std::size_t max_payload_bytes(std::size_t events) {
  return 3 * kMaxVarintBytes + 16 + events * 6 * kMaxVarintBytes;
}

std::uint8_t* write_varint(std::uint8_t* p, std::uint64_t value) {
  while (value >= 0x80u) {
    *p++ = static_cast<std::uint8_t>(value) | 0x80u;
    value >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(value);
  return p;
}

std::uint8_t* write_u64le(std::uint8_t* p, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(value >> (8 * i));
  return p;
}

/// Writes the payload at `p`, which must have max_payload_bytes room;
/// returns one past the last byte written.
std::uint8_t* encode_payload(const EventBatch& batch, std::uint8_t* p) {
  p = write_varint(p, batch.facility);
  p = write_u64le(p, bits_of(batch.sent_time_s));
  p = write_u64le(p, bits_of(batch.arrival_time_s));

  // EPC dictionary: distinct tag ids, ascending, delta-encoded.
  std::vector<std::uint64_t> dict;
  dict.reserve(batch.events.size());
  for (const sys::ReadEvent& ev : batch.events) dict.push_back(ev.tag.value);
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  p = write_varint(p, dict.size());
  std::uint64_t prev_epc = 0;
  for (std::size_t i = 0; i < dict.size(); ++i) {
    p = write_varint(p, i == 0 ? dict[0] : dict[i] - prev_epc);
    prev_epc = dict[i];
  }

  p = write_varint(p, batch.events.size());
  std::uint64_t prev_time_bits = bits_of(batch.sent_time_s);
  std::uint64_t prev_rssi_bits = 0;
  for (const sys::ReadEvent& ev : batch.events) {
    const auto it = std::lower_bound(dict.begin(), dict.end(), ev.tag.value);
    p = write_varint(p, static_cast<std::uint64_t>(it - dict.begin()));
    p = write_varint(p, ev.reader_index);
    p = write_varint(p, ev.antenna_index);
    const std::uint64_t time_bits = bits_of(ev.time_s);
    const std::uint64_t rssi_bits = bits_of(ev.rssi.value());
    p = write_varint(p, zigzag(static_cast<std::int64_t>(time_bits - prev_time_bits)));
    p = write_varint(p, zigzag(static_cast<std::int64_t>(rssi_bits - prev_rssi_bits)));
    prev_time_bits = time_bits;
    prev_rssi_bits = rssi_bits;
  }
  return p;
}

}  // namespace

bool operator==(const EventBatch& a, const EventBatch& b) {
  if (a.facility != b.facility || bits_of(a.sent_time_s) != bits_of(b.sent_time_s) ||
      bits_of(a.arrival_time_s) != bits_of(b.arrival_time_s) ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const sys::ReadEvent& x = a.events[i];
    const sys::ReadEvent& y = b.events[i];
    if (x.tag != y.tag || bits_of(x.time_s) != bits_of(y.time_s) ||
        x.reader_index != y.reader_index || x.antenna_index != y.antenna_index ||
        bits_of(x.rssi.value()) != bits_of(y.rssi.value())) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> encode_event_batch(const EventBatch& batch) {
  std::vector<std::uint8_t> out(max_payload_bytes(batch.events.size()));
  const std::uint8_t* end = encode_payload(batch, out.data());
  out.resize(static_cast<std::size_t>(end - out.data()));
  return out;
}

std::vector<std::uint8_t> encode_event_batch_frame(const EventBatch& batch) {
  // Envelope space, the payload written in place, then the CRC trailer:
  // one buffer, no payload copy.
  std::vector<std::uint8_t> out(kFrameOverhead + max_payload_bytes(batch.events.size()));
  std::uint8_t* payload = out.data() + kFrameHeaderBytes;
  const std::size_t payload_size =
      static_cast<std::size_t>(encode_payload(batch, payload) - payload);
  seal_frame(out.data(), payload_size, OpCode::kEventBatch);
  out.resize(payload_size + kFrameOverhead);
  return out;
}

std::optional<EventBatch> decode_event_batch(const std::uint8_t* payload,
                                             std::size_t size) {
  Reader in{payload, size, 0};
  EventBatch batch;
  std::uint64_t facility = 0;
  if (!in.get_varint(facility) || facility > 0xFFFFFFFFull) return std::nullopt;
  batch.facility = static_cast<std::uint32_t>(facility);
  std::uint64_t sent_bits = 0, arrival_bits = 0;
  if (!in.get_u64le(sent_bits) || !in.get_u64le(arrival_bits)) return std::nullopt;
  batch.sent_time_s = double_of(sent_bits);
  batch.arrival_time_s = double_of(arrival_bits);

  std::uint64_t dict_size = 0;
  if (!in.get_varint(dict_size)) return std::nullopt;
  // A dictionary entry costs at least one byte on the wire; a count beyond
  // the remaining payload is malformed, not a huge allocation.
  if (dict_size > size - in.pos) return std::nullopt;
  std::vector<std::uint64_t> dict(static_cast<std::size_t>(dict_size));
  std::uint64_t prev_epc = 0;
  for (std::size_t i = 0; i < dict.size(); ++i) {
    std::uint64_t delta = 0;
    if (!in.get_varint(delta)) return std::nullopt;
    if (i > 0 && (delta == 0 || delta > ~prev_epc)) return std::nullopt;
    prev_epc = i == 0 ? delta : prev_epc + delta;
    dict[i] = prev_epc;
  }

  std::uint64_t count = 0;
  if (!in.get_varint(count)) return std::nullopt;
  // Each event costs at least 5 bytes (five varints).
  if (count > (size - in.pos) / 5 + 1) return std::nullopt;
  batch.events.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev_time_bits = sent_bits;
  std::uint64_t prev_rssi_bits = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t dict_index = 0, reader = 0, antenna = 0;
    std::int64_t time_delta = 0, rssi_delta = 0;
    if (!in.get_varint(dict_index) || !in.get_varint(reader) ||
        !in.get_varint(antenna) || !in.get_varint_signed(time_delta) ||
        !in.get_varint_signed(rssi_delta)) {
      return std::nullopt;
    }
    if (dict_index >= dict.size()) return std::nullopt;
    sys::ReadEvent ev;
    ev.tag = scene::TagId{dict[static_cast<std::size_t>(dict_index)]};
    ev.reader_index = static_cast<std::size_t>(reader);
    ev.antenna_index = static_cast<std::size_t>(antenna);
    prev_time_bits += static_cast<std::uint64_t>(time_delta);
    prev_rssi_bits += static_cast<std::uint64_t>(rssi_delta);
    ev.time_s = double_of(prev_time_bits);
    ev.rssi = DbmPower{double_of(prev_rssi_bits)};
    batch.events.push_back(ev);
  }
  if (!in.done()) return std::nullopt;  // Trailing bytes: malformed.
  return batch;
}

std::optional<EventBatch> decode_event_batch(const FrameView& frame) {
  if (frame.opcode != OpCode::kEventBatch) return std::nullopt;
  return decode_event_batch(frame.payload, frame.payload_size);
}

}  // namespace rfidsim::wire

#include "wire/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "wire/batch_codec.hpp"

namespace rfidsim::wire {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::strlen(s));
}

TEST(Crc16Test, MatchesCcittFalseReferenceVectors) {
  // The canonical CRC-16/CCITT-FALSE check value (poly 0x1021, init
  // 0xFFFF) over "123456789" — the vector every published table lists.
  EXPECT_EQ(crc16(bytes_of("123456789")), 0x29B1);
  EXPECT_EQ(crc16(bytes_of("")), 0xFFFF);  // Init value untouched.
  EXPECT_EQ(crc16(bytes_of("A")), 0xB915);
}

TEST(Crc16Test, DetectsEverySingleBitError) {
  const std::vector<std::uint8_t> data = bytes_of("reliability");
  const std::uint16_t good = crc16(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = data;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc16(damaged), good) << "missed flip at bit " << bit;
  }
}

/// CRC-16-CCITT straight from the definition, one bit at a time: the
/// oracle the table-driven crc16 must match.
std::uint16_t crc16_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint16_t crc = 0xFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = static_cast<std::uint16_t>(crc ^ (data[i] << 8));
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc & 0x8000u) ? (crc << 1) ^ 0x1021u : crc << 1);
    }
  }
  return crc;
}

TEST(Crc16Test, SlicingMatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(0xC16);
  std::vector<std::uint8_t> buf(1024 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  // Every start offset inside one 8-byte block, every length through 1 KiB:
  // the 8-byte main loop, the byte tail and their seam at each alignment.
  for (std::size_t start = 0; start < 8; ++start) {
    const std::uint8_t* p = buf.data() + start;
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc16(p, len), crc16_bitwise(p, len))
          << "start " << start << ", length " << len;
    }
  }
}

/// Doubles from raw bit patterns, so NaN payloads and -0.0 travel too.
double from_bits(std::uint64_t bits) {
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

/// A batch with hostile field values: full-width EPCs, arbitrary time and
/// RSSI bit patterns (NaN payloads, -0.0, infinities), and huge reader and
/// antenna indices, so every varint can reach its 10-byte worst case.
EventBatch hostile_batch(Rng& rng, std::size_t events) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t specials[] = {0,
                                    kMax,
                                    0x8000000000000000ULL,  // -0.0
                                    0x7FF8DEADBEEF0001ULL,  // quiet NaN, payload
                                    0xFFF0000000000001ULL,  // signalling NaN
                                    0x7FF0000000000000ULL,  // +inf
                                    1};
  auto pick = [&]() -> std::uint64_t {
    if (rng.bernoulli(0.3)) {
      return specials[static_cast<std::size_t>(rng.uniform_int(0, std::size(specials) - 1))];
    }
    return rng.next_u64() >> rng.uniform_int(0, 63);
  };
  EventBatch batch;
  batch.facility = static_cast<std::uint32_t>(rng.bernoulli(0.5) ? rng.next_u64() : 0xFFFFFFFFu);
  batch.sent_time_s = from_bits(pick());
  batch.arrival_time_s = from_bits(pick());
  for (std::size_t i = 0; i < events; ++i) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{i > 0 && rng.bernoulli(0.4) ? batch.events[static_cast<std::size_t>(
                                                             rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]
                                                            .tag.value
                                                      : pick()};
    ev.time_s = from_bits(pick());
    ev.reader_index = static_cast<std::size_t>(pick());
    ev.antenna_index = static_cast<std::size_t>(pick());
    ev.rssi = DbmPower{from_bits(pick())};
    batch.events.push_back(ev);
  }
  return batch;
}

TEST(EventBatchFrameTest, OneBufferEncoderMatchesFramedPayload) {
  Rng rng(0xF4A3E);
  std::vector<std::size_t> sizes = {0, 1, 2, 32, 33, 257};
  for (int i = 0; i < 200; ++i) sizes.push_back(static_cast<std::size_t>(rng.uniform_int(0, 64)));
  for (const std::size_t n : sizes) {
    const EventBatch batch = hostile_batch(rng, n);
    const std::vector<std::uint8_t> frame = encode_event_batch_frame(batch);
    ASSERT_EQ(frame, make_frame(OpCode::kEventBatch, encode_event_batch(batch)))
        << n << " events";
    const DecodeResult res = next_frame(frame, 0);
    ASSERT_TRUE(res.ok);
    const std::optional<EventBatch> decoded = decode_event_batch(res.frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(*decoded == batch) << n << " events";
  }
}

TEST(EventBatchFrameTest, WorstCaseVarintsFitTheEncoderBound) {
  // Every per-event field at its widest: each event's EPC is distinct and
  // far from its neighbours, indices are SIZE_MAX, and time/RSSI bits
  // alternate between extremes so each zigzag delta needs 10 bytes.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EventBatch batch;
  batch.facility = 0xFFFFFFFFu;
  batch.sent_time_s = from_bits(0);
  for (std::size_t i = 0; i < 64; ++i) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{kMax - i * (kMax / 64)};
    ev.time_s = from_bits(i % 2 == 0 ? 0x8000000000000000ULL : 0);
    ev.reader_index = std::numeric_limits<std::size_t>::max();
    ev.antenna_index = std::numeric_limits<std::size_t>::max();
    ev.rssi = DbmPower{from_bits(i % 2 == 0 ? 0x8000000000000000ULL : 0)};
    batch.events.push_back(ev);
  }
  const std::vector<std::uint8_t> frame = encode_event_batch_frame(batch);
  ASSERT_EQ(frame, make_frame(OpCode::kEventBatch, encode_event_batch(batch)));
  const DecodeResult res = next_frame(frame, 0);
  ASSERT_TRUE(res.ok);
  const std::optional<EventBatch> decoded = decode_event_batch(res.frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == batch);
}

TEST(FrameTest, RoundTripsPayloadAndMetadata) {
  const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef, 0x00};
  const std::vector<std::uint8_t> frame =
      make_frame(OpCode::kEventBatch, payload);
  ASSERT_EQ(frame.size(), payload.size() + kFrameOverhead);
  EXPECT_EQ(frame[0], kSoh);

  const DecodeResult res = next_frame(frame, 0);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.frame.opcode, OpCode::kEventBatch);
  EXPECT_EQ(res.frame.version, kWireVersion);
  ASSERT_EQ(res.frame.payload_size, payload.size());
  EXPECT_EQ(std::memcmp(res.frame.payload, payload.data(), payload.size()), 0);
  EXPECT_EQ(res.next_offset, frame.size());
}

TEST(FrameTest, EmptyPayloadIsAValidFrame) {
  const std::vector<std::uint8_t> frame = make_frame(OpCode::kCheckpointEnd, {});
  const DecodeResult res = next_frame(frame, 0);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.frame.payload_size, 0u);
}

TEST(FrameTest, WalksAStreamOfBackToBackFrames) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, OpCode::kEventBatch, {1, 2, 3});
  append_frame(stream, OpCode::kCheckpointHeader, {});
  append_frame(stream, OpCode::kCheckpointEnd, {9});

  std::size_t offset = 0;
  std::vector<OpCode> seen;
  while (offset < stream.size()) {
    const DecodeResult res = next_frame(stream, offset);
    ASSERT_TRUE(res.ok) << "at offset " << offset;
    seen.push_back(res.frame.opcode);
    offset = res.next_offset;
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], OpCode::kEventBatch);
  EXPECT_EQ(seen[1], OpCode::kCheckpointHeader);
  EXPECT_EQ(seen[2], OpCode::kCheckpointEnd);
}

TEST(FrameTest, ClassifiesBadMagic) {
  std::vector<std::uint8_t> frame = make_frame(OpCode::kEventBatch, {1, 2});
  frame[0] = 0x55;
  const DecodeResult res = next_frame(frame, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.error, DecodeErrorKind::kBadMagic);
  EXPECT_STREQ(decode_error_name(res.error), "bad_magic");
}

TEST(FrameTest, ClassifiesTruncation) {
  const std::vector<std::uint8_t> full = make_frame(OpCode::kEventBatch, {1, 2, 3});
  for (std::size_t keep = 1; keep < full.size(); ++keep) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<std::ptrdiff_t>(keep));
    const DecodeResult res = next_frame(cut, 0);
    ASSERT_FALSE(res.ok) << "kept " << keep << " bytes";
    EXPECT_EQ(res.error, DecodeErrorKind::kTruncated);
    // Resync has nowhere to go in a truncated buffer with one SOH.
    EXPECT_LE(res.next_offset, cut.size());
  }
}

TEST(FrameTest, ClassifiesBadLength) {
  std::vector<std::uint8_t> frame = make_frame(OpCode::kEventBatch, {1});
  // Length field is bytes 1..4 (LE); forge one beyond kMaxPayloadBytes.
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(frame.data() + 1, &huge, sizeof huge);
  const DecodeResult res = next_frame(frame, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.error, DecodeErrorKind::kBadLength);
}

TEST(FrameTest, ClassifiesBadCrc) {
  std::vector<std::uint8_t> frame = make_frame(OpCode::kEventBatch, {7, 8, 9});
  frame[frame.size() - 4] ^= 0x01;  // One payload bit.
  const DecodeResult res = next_frame(frame, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.error, DecodeErrorKind::kBadCrc);
}

TEST(FrameTest, ClassifiesUnknownVersionAndOpcode) {
  const std::vector<std::uint8_t> v =
      make_frame(OpCode::kEventBatch, {1}, kWireVersion + 1);
  const DecodeResult rv = next_frame(v, 0);
  ASSERT_FALSE(rv.ok);
  EXPECT_EQ(rv.error, DecodeErrorKind::kUnknownVersion);
  // The envelope passed CRC, so resync can safely skip the whole frame.
  EXPECT_EQ(rv.next_offset, v.size());

  const std::vector<std::uint8_t> o =
      make_frame(static_cast<OpCode>(0x7f), {1});
  const DecodeResult ro = next_frame(o, 0);
  ASSERT_FALSE(ro.ok);
  EXPECT_EQ(ro.error, DecodeErrorKind::kUnknownOpcode);
  EXPECT_EQ(ro.next_offset, o.size());
}

TEST(FrameTest, ResynchronizesAfterACorruptFrame) {
  // garbage + damaged frame + good frame: the decoder must surface the
  // failure, then find the good frame by hunting for the next SOH.
  std::vector<std::uint8_t> stream = {0x42, 0x42, 0x42};
  std::vector<std::uint8_t> damaged = make_frame(OpCode::kEventBatch, {1, 2, 3, 4});
  damaged[7] ^= 0x10;  // Payload bit -> bad CRC.
  stream.insert(stream.end(), damaged.begin(), damaged.end());
  const std::size_t good_at = stream.size();
  append_frame(stream, OpCode::kEventBatch, {0xAA, 0xBB});

  std::size_t offset = 0;
  bool found_good = false;
  std::size_t failures = 0;
  while (offset < stream.size()) {
    const DecodeResult res = next_frame(stream, offset);
    if (res.ok) {
      EXPECT_EQ(offset, good_at);
      ASSERT_EQ(res.frame.payload_size, 2u);
      EXPECT_EQ(res.frame.payload[0], 0xAA);
      found_good = true;
      offset = res.next_offset;
      continue;
    }
    ++failures;
    ASSERT_GT(res.next_offset, offset) << "resync must make progress";
    offset = res.next_offset;
  }
  EXPECT_TRUE(found_good);
  EXPECT_GE(failures, 1u);
  EXPECT_LE(failures, 4u);  // One corrupt frame costs a few scans, not the stream.
}

TEST(FrameTest, EverySingleBitFlipIsDetected) {
  // CRC-16 catches all 1-bit errors; SOH flips are bad magic; CRC-field
  // flips mismatch. No single-bit flip may yield a *different* valid frame.
  const std::vector<std::uint8_t> payload = {10, 20, 30, 40, 50, 60};
  const std::vector<std::uint8_t> frame = make_frame(OpCode::kEventBatch, payload);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = frame;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const DecodeResult res = next_frame(damaged, 0);
    EXPECT_FALSE(res.ok) << "undetected flip at bit " << bit;
  }
}

TEST(FrameTest, RejectsOversizedPayloadAtEncode) {
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> too_big(kMaxPayloadBytes + 1, 0);
  EXPECT_ANY_THROW(append_frame(out, OpCode::kEventBatch, too_big));
}

TEST(VarintTest, RoundTripsEdgeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0x7fffffffULL,
                                  0xffffffffULL,
                                  0x7fffffffffffffffULL,
                                  0xffffffffffffffffULL};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    Reader r{buf.data(), buf.size(), 0};
    std::uint64_t got = 0;
    ASSERT_TRUE(r.get_varint(got));
    EXPECT_EQ(got, v);
    EXPECT_TRUE(r.done());
  }
}

TEST(VarintTest, SignedZigzagRoundTrips) {
  const std::int64_t values[] = {0, -1, 1, -2, 63, -64, 1'000'000,
                                 -1'000'000,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint_signed(buf, v);
    Reader r{buf.data(), buf.size(), 0};
    std::int64_t got = 0;
    ASSERT_TRUE(r.get_varint_signed(got));
    EXPECT_EQ(got, v);
  }
}

TEST(VarintTest, RejectsTruncatedAndOverlongInput) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 0xffffffffffffffffULL);
  buf.pop_back();  // Continuation bit says more, buffer says no.
  Reader r{buf.data(), buf.size(), 0};
  std::uint64_t v = 0;
  EXPECT_FALSE(r.get_varint(v));

  // 11 continuation bytes: more than a u64 can carry.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  Reader r2{overlong.data(), overlong.size(), 0};
  EXPECT_FALSE(r2.get_varint(v));
}

}  // namespace
}  // namespace rfidsim::wire

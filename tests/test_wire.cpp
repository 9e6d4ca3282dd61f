// Wire-format round-trip and rejection fuzzing (distrib/wire.hpp).
//
// Properties, all meant to run under ASan/UBSan in CI:
//   * every frame the v2 encoder can produce — deliveries, watermarks, and
//     kDeliveryBatch frames over a randomized delivery corpus — decodes
//     back to an identical frame, both through the Frame-level decoder and
//     the streaming BatchReader;
//   * validate_frame (the readers' no-allocation structural walk) returns
//     exactly the status a full decode would, on valid and corrupt input;
//   * every strict prefix of a valid encoding is rejected (no partial
//     frame ever half-applies);
//   * arbitrary single-byte corruption and pure random bytes never crash
//     or read out of bounds — they either decode to *something* (payload
//     bits are not checksummed) or return a DecodeStatus, but length and
//     count fields can never trigger giant allocations or overreads;
//   * a frame of any other version — the retired version 1 included — is
//     rejected with kBadVersion by every decode entry point: no UB, no
//     hang, no partial decode.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "distrib/wire.hpp"
#include "support/rng.hpp"

namespace df::distrib::wire {
namespace {

event::Value random_value(support::Rng& rng) {
  switch (rng.next_below(9)) {
    case 0:
      return event::Value();
    case 1:
      return event::Value(rng.next_bernoulli(0.5));
    case 2:
      return event::Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3:
      return event::Value(rng.next_normal() * 1e12);
    case 4: {
      // Strings with arbitrary bytes: NULs, high bits, no terminator help.
      std::string text;
      const std::size_t length = rng.next_below(64);
      for (std::size_t i = 0; i < length; ++i) {
        text.push_back(static_cast<char>(rng.next_below(256)));
      }
      return event::Value(std::move(text));
    }
    case 5: {
      std::vector<double> values(rng.next_below(32));
      for (double& v : values) {
        v = rng.next_normal();
      }
      return event::Value(std::move(values));
    }
    case 6:
      // Small ints are the varint encoding's sweet spot; cover them and
      // the sign boundary explicitly, not just as a sliver of case 2.
      return event::Value(rng.next_int(-300, 300));
    case 7: {
      // Strings around the short-string (u8 length) boundary.
      std::string text(250 + rng.next_below(12), 'x');
      return event::Value(std::move(text));
    }
    default:
      return event::Value(rng.next_double());
  }
}

core::Delivery random_delivery(support::Rng& rng) {
  core::Delivery delivery;
  delivery.to_index = static_cast<std::uint32_t>(rng.next_u64());
  delivery.to_port = static_cast<graph::Port>(rng.next_below(1 << 16));
  delivery.value = random_value(rng);
  return delivery;
}

Frame random_frame(support::Rng& rng) {
  Frame frame;
  frame.seq = rng.next_u64();
  frame.phase = rng.next_below(1 << 20);
  const std::uint64_t pick = rng.next_below(10);
  if (pick < 4) {
    frame.type = FrameType::kDelivery;
    frame.delivery = random_delivery(rng);
  } else if (pick < 8) {
    frame.type = FrameType::kDeliveryBatch;
    const std::size_t count = 1 + rng.next_below(24);
    for (std::size_t i = 0; i < count; ++i) {
      frame.batch.push_back(random_delivery(rng));
    }
  } else {
    frame.type = FrameType::kWatermark;
  }
  return frame;
}

void encode(const Frame& frame, std::vector<std::uint8_t>& out) {
  switch (frame.type) {
    case FrameType::kDelivery:
      encode_delivery(frame.seq, frame.phase, frame.delivery, out);
      break;
    case FrameType::kDeliveryBatch:
      encode_delivery_batch(frame.seq, frame.phase, frame.batch, out);
      break;
    case FrameType::kWatermark:
      encode_watermark(frame.seq, frame.phase, out);
      break;
  }
}

void expect_frames_equal(const Frame& decoded, const Frame& frame) {
  EXPECT_EQ(decoded.type, frame.type);
  EXPECT_EQ(decoded.seq, frame.seq);
  EXPECT_EQ(decoded.phase, frame.phase);
  if (frame.type == FrameType::kDelivery) {
    EXPECT_EQ(decoded.delivery.to_index, frame.delivery.to_index);
    EXPECT_EQ(decoded.delivery.to_port, frame.delivery.to_port);
    EXPECT_EQ(decoded.delivery.value, frame.delivery.value);
  }
  if (frame.type == FrameType::kDeliveryBatch) {
    ASSERT_EQ(decoded.batch.size(), frame.batch.size());
    for (std::size_t i = 0; i < frame.batch.size(); ++i) {
      EXPECT_EQ(decoded.batch[i].to_index, frame.batch[i].to_index);
      EXPECT_EQ(decoded.batch[i].to_port, frame.batch[i].to_port);
      EXPECT_EQ(decoded.batch[i].value, frame.batch[i].value);
    }
  }
}

TEST(WireRoundTrip, RandomFramesEncodeDecodeIdentically) {
  support::Rng rng(2026);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 2000; ++i) {
    const Frame frame = random_frame(rng);
    encode(frame, bytes);
    ASSERT_EQ(validate_frame(bytes), DecodeStatus::kOk) << "iteration " << i;
    Frame decoded;
    ASSERT_EQ(decode_frame(bytes, decoded), DecodeStatus::kOk)
        << "iteration " << i;
    expect_frames_equal(decoded, frame);
  }
}

TEST(WireRoundTrip, BatchReaderStreamsDeliveriesIdentically) {
  support::Rng rng(2027);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 500; ++i) {
    std::vector<core::Delivery> deliveries(1 + rng.next_below(40));
    for (core::Delivery& d : deliveries) {
      d = random_delivery(rng);
    }
    encode_delivery_batch(rng.next_u64(), rng.next_below(1 << 20),
                          deliveries, bytes);
    BatchReader reader;
    ASSERT_EQ(reader.open(bytes), DecodeStatus::kOk);
    ASSERT_EQ(reader.header().type, FrameType::kDeliveryBatch);
    ASSERT_EQ(reader.remaining(), deliveries.size());
    for (const core::Delivery& want : deliveries) {
      core::Delivery got;
      ASSERT_EQ(reader.next(got), DecodeStatus::kOk);
      EXPECT_EQ(got.to_index, want.to_index);
      EXPECT_EQ(got.to_port, want.to_port);
      EXPECT_EQ(got.value, want.value);
    }
    EXPECT_EQ(reader.remaining(), 0U);
  }
}

TEST(WireRoundTrip, ValueLevelHelpersRoundTrip) {
  support::Rng rng(7);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 2000; ++i) {
    const event::Value value = random_value(rng);
    bytes.clear();
    encode_value(value, bytes);
    std::size_t cursor = 0;
    event::Value decoded;
    ASSERT_EQ(decode_value(bytes, cursor, decoded), DecodeStatus::kOk);
    EXPECT_EQ(cursor, bytes.size()) << "decoder left trailing bytes";
    EXPECT_EQ(decoded, value);
  }
}

TEST(WireDensity, DenseEncodingIsSmallerOnCommonSmallValues) {
  // The whole point of the dense value tags: common small payloads cost a
  // fraction of their fixed-width size (tag + u64 for an int, tag + u32
  // length + bytes for a string).
  const event::Value small_ints[] = {
      event::Value(0), event::Value(1), event::Value(-1), event::Value(4096)};
  std::vector<std::uint8_t> bytes;
  for (const event::Value& value : small_ints) {
    bytes.clear();
    encode_value(value, bytes);
    EXPECT_LE(bytes.size(), 3U) << value.to_string();
  }
  bytes.clear();
  encode_value(event::Value(std::string("alert")), bytes);
  EXPECT_EQ(bytes.size(), 1U + 1U + 5U);
}

TEST(WireDensity, BatchAmortizesTheFrameHeader) {
  // 64 single-delivery frames vs one 64-delivery batch over typical small
  // payloads: the batch must cut total bytes by well over half.
  support::Rng rng(31);
  std::vector<core::Delivery> deliveries(64);
  std::uint32_t index = 5;
  for (core::Delivery& d : deliveries) {
    index += static_cast<std::uint32_t>(rng.next_below(4));
    d.to_index = index;
    d.to_port = static_cast<graph::Port>(rng.next_below(4));
    d.value = event::Value(static_cast<std::int64_t>(rng.next_below(1000)));
  }
  std::size_t single_total = 0;
  std::vector<std::uint8_t> bytes;
  for (const core::Delivery& d : deliveries) {
    encode_delivery(7, 3, d, bytes);
    single_total += bytes.size();
  }
  encode_delivery_batch(7, 3, deliveries, bytes);
  EXPECT_LT(bytes.size() * 2, single_total)
      << "batch " << bytes.size() << "B vs singles " << single_total << "B";
  // Per-delivery framing cost (everything except the value payload) must
  // be a few bytes, not 21+.
  const std::size_t value_bytes = [&deliveries] {
    std::vector<std::uint8_t> tmp;
    std::size_t total = 0;
    for (const core::Delivery& d : deliveries) {
      tmp.clear();
      encode_value(d.value, tmp);
      total += tmp.size();
    }
    return total;
  }();
  const std::size_t framing = bytes.size() - value_bytes;
  EXPECT_LE(framing, kHeaderBytes + 1 + 4 * deliveries.size())
      << "framing overhead " << framing << "B for " << deliveries.size()
      << " deliveries";
}

TEST(WireRejection, EveryStrictPrefixOfAValidFrameIsRejected) {
  support::Rng rng(11);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 120; ++i) {
    const Frame frame = random_frame(rng);
    encode(frame, bytes);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(bytes.data(), cut);
      Frame decoded;
      EXPECT_NE(decode_frame(prefix, decoded), DecodeStatus::kOk)
          << "prefix of " << cut << "/" << bytes.size()
          << " bytes decoded as a whole frame";
      EXPECT_NE(validate_frame(prefix), DecodeStatus::kOk);
    }
  }
}

TEST(WireRejection, TrailingBytesAreRejected) {
  support::Rng rng(13);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 200; ++i) {
    encode(random_frame(rng), bytes);
    bytes.push_back(0);
    Frame decoded;
    EXPECT_EQ(decode_frame(bytes, decoded), DecodeStatus::kTrailingBytes);
    EXPECT_EQ(validate_frame(bytes), DecodeStatus::kTrailingBytes);
  }
}

TEST(WireRejection, SingleByteCorruptionNeverCrashesAndValidateAgrees) {
  support::Rng rng(17);
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint8_t> corrupted;
  std::uint64_t rejected = 0;
  std::uint64_t still_decoded = 0;
  for (int i = 0; i < 400; ++i) {
    encode(random_frame(rng), bytes);
    for (int flip = 0; flip < 8; ++flip) {
      corrupted = bytes;
      const std::size_t at = rng.next_below(corrupted.size());
      corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      Frame decoded;
      // Either outcome is fine — payload bits carry no checksum — but the
      // decode must stay in bounds (ASan/UBSan enforce that part), and the
      // readers' allocation-free validate must agree with the real decode.
      const DecodeStatus status = decode_frame(corrupted, decoded);
      EXPECT_EQ(validate_frame(corrupted), status);
      if (status == DecodeStatus::kOk) {
        ++still_decoded;
      } else {
        ++rejected;
      }
    }
  }
  // Corrupting magic/version/type/length bytes must reject; corrupting
  // payload bits usually survives. Both branches need real coverage.
  EXPECT_GT(rejected, 0U);
  EXPECT_GT(still_decoded, 0U);
}

TEST(WireRejection, RandomGarbageNeverCrashesAndValidateAgrees) {
  support::Rng rng(23);
  std::vector<std::uint8_t> garbage;
  for (int i = 0; i < 2000; ++i) {
    garbage.resize(rng.next_below(96));
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    Frame decoded;
    EXPECT_EQ(validate_frame(garbage), decode_frame(garbage, decoded));
  }
}

TEST(WireRejection, CorruptedLengthFieldCannotTriggerGiantAllocation) {
  // A delivery carrying a long (fixed-width, u32 length) string whose length
  // field is corrupted to a huge value: the decoder must reject before
  // allocating (kTruncated), because the claimed length exceeds the
  // remaining bytes.
  core::Delivery delivery;
  delivery.to_index = 9;
  delivery.to_port = 1;
  delivery.value = event::Value(std::string(300, 'a'));
  std::vector<std::uint8_t> bytes;
  encode_delivery(5, 3, delivery, bytes);
  // Header (21) + to_index (4) + to_port (2) + tag (1) => length at 28.
  const std::size_t length_at = 28;
  ASSERT_LT(length_at + 3, bytes.size());
  ASSERT_EQ(bytes[length_at - 1],
            static_cast<std::uint8_t>(event::Value::Kind::kString));
  bytes[length_at + 0] = 0xff;
  bytes[length_at + 1] = 0xff;
  bytes[length_at + 2] = 0xff;
  bytes[length_at + 3] = 0x7f;
  Frame decoded;
  EXPECT_EQ(decode_frame(bytes, decoded), DecodeStatus::kTruncated);

  // Same for a vector count (varint in v2: saturate the count bytes).
  delivery.value = event::Value(std::vector<double>{1.0, 2.0});
  encode_delivery(6, 3, delivery, bytes);
  std::vector<std::uint8_t> huge_count(bytes.begin(), bytes.begin() + 28);
  for (int i = 0; i < 9; ++i) {
    huge_count.push_back(0xff);  // varint continuation bytes
  }
  huge_count.push_back(0x01);
  EXPECT_EQ(decode_frame(huge_count, decoded), DecodeStatus::kTruncated);
}

TEST(WireRejection, CorruptedBatchCountCannotTriggerGiantAllocation) {
  // A batch frame whose count varint is corrupted to a value the remaining
  // bytes cannot possibly hold must be rejected before any reserve() —
  // each delivery occupies at least 3 payload bytes.
  std::vector<core::Delivery> deliveries(4);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    deliveries[i].to_index = static_cast<std::uint32_t>(10 + i);
    deliveries[i].to_port = 0;
    deliveries[i].value = event::Value(static_cast<std::int64_t>(i));
  }
  std::vector<std::uint8_t> bytes;
  encode_delivery_batch(1, 2, deliveries, bytes);
  // The count varint sits immediately after the header; 4 fits one byte.
  ASSERT_EQ(bytes[kHeaderBytes], 4);
  // Splice in a 5-byte varint claiming ~2^31 deliveries.
  std::vector<std::uint8_t> corrupted(bytes.begin(),
                                      bytes.begin() + kHeaderBytes);
  corrupted.insert(corrupted.end(), {0xff, 0xff, 0xff, 0xff, 0x07});
  corrupted.insert(corrupted.end(), bytes.begin() + kHeaderBytes + 1,
                   bytes.end());
  Frame decoded;
  EXPECT_EQ(decode_frame(corrupted, decoded), DecodeStatus::kTruncated);
  EXPECT_EQ(validate_frame(corrupted), DecodeStatus::kTruncated);
  BatchReader reader;
  EXPECT_EQ(reader.open(corrupted), DecodeStatus::kTruncated);

  // An explicitly empty batch is structurally invalid (the encoder never
  // emits one), not a silent no-op.
  std::vector<std::uint8_t> empty_batch(bytes.begin(),
                                        bytes.begin() + kHeaderBytes);
  empty_batch.push_back(0);
  EXPECT_EQ(decode_frame(empty_batch, decoded), DecodeStatus::kBadPayload);
}

TEST(WireVersioning, VersionOneFramesAreRejected) {
  // No version-1 peer exists any more; a frame claiming that version must
  // be rejected cleanly by every entry point the transport uses.
  support::Rng rng(29);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 200; ++i) {
    encode(random_frame(rng), bytes);
    bytes[3] = 1;  // the version byte
    Frame decoded;
    FrameHeader header;
    BatchReader reader;
    EXPECT_EQ(decode_frame(bytes, decoded), DecodeStatus::kBadVersion);
    EXPECT_EQ(validate_frame(bytes), DecodeStatus::kBadVersion);
    EXPECT_EQ(decode_header(bytes, header), DecodeStatus::kBadVersion);
    EXPECT_EQ(reader.open(bytes), DecodeStatus::kBadVersion);
  }
}

TEST(WireRejection, WrongMagicVersionAndTypeAreDistinguished) {
  std::vector<std::uint8_t> bytes;
  encode_watermark(1, 2, bytes);
  {
    auto copy = bytes;
    copy[0] = 'X';
    Frame f;
    EXPECT_EQ(decode_frame(copy, f), DecodeStatus::kBadMagic);
  }
  {
    auto copy = bytes;
    copy[3] = kVersion + 1;
    Frame f;
    EXPECT_EQ(decode_frame(copy, f), DecodeStatus::kBadVersion);
  }
  {
    auto copy = bytes;
    copy[4] = 0x7e;  // not a FrameType
    Frame f;
    EXPECT_EQ(decode_frame(copy, f), DecodeStatus::kBadFrameType);
  }
  {
    std::vector<std::uint8_t> oversized(kMaxFrameBytes + 1, 0);
    Frame f;
    EXPECT_EQ(decode_frame(oversized, f), DecodeStatus::kOversized);
    EXPECT_EQ(validate_frame(oversized), DecodeStatus::kOversized);
  }
}

}  // namespace
}  // namespace df::distrib::wire

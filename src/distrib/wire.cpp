#include "distrib/wire.hpp"

#include <bit>
#include <cstring>
#include <string>

#include "support/check.hpp"

namespace df::distrib::wire {

namespace {

constexpr std::uint8_t kMagic[3] = {'D', 'F', 'W'};

// Dense value tags appended (never reordered) after the Value::Kind range.
// See the header comment for the layout contract.
constexpr std::uint8_t kTagIntVarint = 6;     // zigzag varint int64
constexpr std::uint8_t kTagShortString = 7;   // u8 length + bytes
constexpr std::uint8_t kTagVectorVarint = 8;  // varint count + doubles

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t size = 1;
  while (v >= 0x80) {
    ++size;
    v >>= 7;
  }
  return size;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Bounds-checked little-endian reader. Every `read_*` either succeeds and
/// advances the cursor or returns false leaving the cursor untouched, so a
/// decoder can bail with kTruncated at any point without having read past
/// the buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  std::size_t cursor() const { return cursor_; }

  bool read_u8(std::uint8_t& v) {
    if (remaining() < 1) {
      return false;
    }
    v = bytes_[cursor_++];
    return true;
  }

  bool read_u16(std::uint16_t& v) {
    if (remaining() < 2) {
      return false;
    }
    v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(bytes_[cursor_]) |
        (static_cast<std::uint16_t>(bytes_[cursor_ + 1]) << 8));
    cursor_ += 2;
    return true;
  }

  bool read_u32(std::uint32_t& v) {
    if (remaining() < 4) {
      return false;
    }
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[cursor_ + i]) << (8 * i);
    }
    cursor_ += 4;
    return true;
  }

  bool read_u64(std::uint64_t& v) {
    if (remaining() < 8) {
      return false;
    }
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[cursor_ + i]) << (8 * i);
    }
    cursor_ += 8;
    return true;
  }

  /// LEB128 varint, at most 10 bytes; an 11th continuation byte or bits
  /// past the 64th are kBadPayload (no silent wraparound for the fuzzer to
  /// find).
  DecodeStatus read_varint(std::uint64_t& v) {
    v = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      std::uint8_t byte = 0;
      if (!read_u8(byte)) {
        return DecodeStatus::kTruncated;
      }
      if (i == 9 && (byte & 0xfe) != 0) {
        return DecodeStatus::kBadPayload;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        return DecodeStatus::kOk;
      }
      shift += 7;
    }
    return DecodeStatus::kBadPayload;
  }

  bool read_bytes(std::size_t count, const std::uint8_t*& data) {
    if (remaining() < count) {
      return false;
    }
    data = bytes_.data() + cursor_;
    cursor_ += count;
    return true;
  }

  bool skip(std::size_t count) {
    if (remaining() < count) {
      return false;
    }
    cursor_ += count;
    return true;
  }

  void seek(std::size_t cursor) { cursor_ = cursor; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

/// Decodes one value. `out == nullptr` walks the exact same validation
/// without materializing anything (the no-allocation path validate_frame
/// is built on) and returns the exact status a materializing decode would.
DecodeStatus decode_value_at(Reader& reader, event::Value* out) {
  std::uint8_t tag = 0;
  if (!reader.read_u8(tag)) {
    return DecodeStatus::kTruncated;
  }
  switch (tag) {
    case static_cast<std::uint8_t>(event::Value::Kind::kEmpty):
      if (out != nullptr) {
        *out = event::Value();
      }
      return DecodeStatus::kOk;
    case static_cast<std::uint8_t>(event::Value::Kind::kBool): {
      std::uint8_t byte = 0;
      if (!reader.read_u8(byte)) {
        return DecodeStatus::kTruncated;
      }
      if (byte > 1) {
        return DecodeStatus::kBadPayload;
      }
      if (out != nullptr) {
        *out = event::Value(byte == 1);
      }
      return DecodeStatus::kOk;
    }
    case static_cast<std::uint8_t>(event::Value::Kind::kInt): {
      std::uint64_t bits = 0;
      if (!reader.read_u64(bits)) {
        return DecodeStatus::kTruncated;
      }
      if (out != nullptr) {
        *out = event::Value(static_cast<std::int64_t>(bits));
      }
      return DecodeStatus::kOk;
    }
    case static_cast<std::uint8_t>(event::Value::Kind::kDouble): {
      std::uint64_t bits = 0;
      if (!reader.read_u64(bits)) {
        return DecodeStatus::kTruncated;
      }
      if (out != nullptr) {
        *out = event::Value(std::bit_cast<double>(bits));
      }
      return DecodeStatus::kOk;
    }
    case static_cast<std::uint8_t>(event::Value::Kind::kString): {
      std::uint32_t length = 0;
      if (!reader.read_u32(length)) {
        return DecodeStatus::kTruncated;
      }
      // Validate against the remaining bytes *before* allocating, so a
      // corrupted length cannot trigger a giant allocation.
      const std::uint8_t* data = nullptr;
      if (!reader.read_bytes(length, data)) {
        return DecodeStatus::kTruncated;
      }
      if (out != nullptr) {
        *out = event::Value(std::string_view(
            reinterpret_cast<const char*>(data), length));
      }
      return DecodeStatus::kOk;
    }
    case static_cast<std::uint8_t>(event::Value::Kind::kVector): {
      std::uint32_t count = 0;
      if (!reader.read_u32(count)) {
        return DecodeStatus::kTruncated;
      }
      if (reader.remaining() / 8 < count) {
        return DecodeStatus::kTruncated;
      }
      if (out == nullptr) {
        reader.skip(std::size_t{count} * 8);
        return DecodeStatus::kOk;
      }
      std::vector<double> values;
      values.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t bits = 0;
        reader.read_u64(bits);
        values.push_back(std::bit_cast<double>(bits));
      }
      *out = event::Value(std::move(values));
      return DecodeStatus::kOk;
    }
    case kTagIntVarint: {
      std::uint64_t encoded = 0;
      const DecodeStatus status = reader.read_varint(encoded);
      if (status != DecodeStatus::kOk) {
        return status;
      }
      if (out != nullptr) {
        *out = event::Value(unzigzag(encoded));
      }
      return DecodeStatus::kOk;
    }
    case kTagShortString: {
      std::uint8_t length = 0;
      if (!reader.read_u8(length)) {
        return DecodeStatus::kTruncated;
      }
      const std::uint8_t* data = nullptr;
      if (!reader.read_bytes(length, data)) {
        return DecodeStatus::kTruncated;
      }
      if (out != nullptr) {
        *out = event::Value(std::string_view(
            reinterpret_cast<const char*>(data), length));
      }
      return DecodeStatus::kOk;
    }
    case kTagVectorVarint: {
      std::uint64_t count = 0;
      const DecodeStatus status = reader.read_varint(count);
      if (status != DecodeStatus::kOk) {
        return status;
      }
      if (reader.remaining() / 8 < count) {
        return DecodeStatus::kTruncated;
      }
      if (out == nullptr) {
        reader.skip(static_cast<std::size_t>(count) * 8);
        return DecodeStatus::kOk;
      }
      std::vector<double> values;
      values.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t bits = 0;
        reader.read_u64(bits);
        values.push_back(std::bit_cast<double>(bits));
      }
      *out = event::Value(std::move(values));
      return DecodeStatus::kOk;
    }
    default:
      return DecodeStatus::kBadValueTag;
  }
}

/// The fixed-width form of every Value::Kind (tags 0..5): the fallback of
/// encode_value_dense for kinds or magnitudes the dense tags do not cover.
void encode_value_fixed(const event::Value& value,
                        std::vector<std::uint8_t>& out) {
  put_u8(out, static_cast<std::uint8_t>(value.kind()));
  switch (value.kind()) {
    case event::Value::Kind::kEmpty:
      break;
    case event::Value::Kind::kBool:
      put_u8(out, value.as_bool() ? 1 : 0);
      break;
    case event::Value::Kind::kInt:
      put_u64(out, static_cast<std::uint64_t>(value.as_int()));
      break;
    case event::Value::Kind::kDouble:
      put_u64(out, std::bit_cast<std::uint64_t>(value.as_double()));
      break;
    case event::Value::Kind::kString: {
      const std::string& text = value.as_string();
      put_u32(out, static_cast<std::uint32_t>(text.size()));
      out.insert(out.end(), text.begin(), text.end());
      break;
    }
    case event::Value::Kind::kVector: {
      const std::vector<double>& values = value.as_vector();
      put_u32(out, static_cast<std::uint32_t>(values.size()));
      for (const double v : values) {
        put_u64(out, std::bit_cast<std::uint64_t>(v));
      }
      break;
    }
  }
}

void encode_value_dense(const event::Value& value,
                        std::vector<std::uint8_t>& out) {
  switch (value.kind()) {
    case event::Value::Kind::kInt: {
      const std::uint64_t encoded = zigzag(value.as_int());
      // The zigzag varint beats the fixed u64 form up to 8 payload bytes;
      // huge magnitudes (rare) keep the fixed-width form.
      if (varint_size(encoded) <= 8) {
        put_u8(out, kTagIntVarint);
        put_varint(out, encoded);
      } else {
        put_u8(out, static_cast<std::uint8_t>(event::Value::Kind::kInt));
        put_u64(out, static_cast<std::uint64_t>(value.as_int()));
      }
      break;
    }
    case event::Value::Kind::kString: {
      const std::string& text = value.as_string();
      if (text.size() <= 0xff) {
        put_u8(out, kTagShortString);
        put_u8(out, static_cast<std::uint8_t>(text.size()));
        out.insert(out.end(), text.begin(), text.end());
      } else {
        put_u8(out, static_cast<std::uint8_t>(event::Value::Kind::kString));
        put_u32(out, static_cast<std::uint32_t>(text.size()));
        out.insert(out.end(), text.begin(), text.end());
      }
      break;
    }
    case event::Value::Kind::kVector: {
      const std::vector<double>& values = value.as_vector();
      put_u8(out, kTagVectorVarint);
      put_varint(out, values.size());
      for (const double v : values) {
        put_u64(out, std::bit_cast<std::uint64_t>(v));
      }
      break;
    }
    default:
      encode_value_fixed(value, out);
      break;
  }
}

void encode_header(FrameType type, std::uint64_t seq, event::PhaseId phase,
                   std::vector<std::uint8_t>& out) {
  out.clear();
  out.push_back(kMagic[0]);
  out.push_back(kMagic[1]);
  out.push_back(kMagic[2]);
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u64(out, seq);
  put_u64(out, phase);
}

/// Header checks shared by every decode entry point; on kOk the reader is
/// positioned at the first payload byte.
DecodeStatus decode_header_at(std::span<const std::uint8_t> bytes,
                              Reader& reader, FrameHeader& out) {
  if (bytes.size() > kMaxFrameBytes) {
    return DecodeStatus::kOversized;
  }
  if (bytes.size() < kHeaderBytes) {
    return DecodeStatus::kTruncated;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return DecodeStatus::kBadMagic;
  }
  reader.seek(sizeof kMagic);
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  reader.read_u8(version);
  reader.read_u8(type);
  if (version != kVersion) {
    return DecodeStatus::kBadVersion;
  }
  std::uint64_t phase = 0;
  reader.read_u64(out.seq);
  reader.read_u64(phase);
  out.phase = phase;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kDelivery:
    case FrameType::kWatermark:
    case FrameType::kDeliveryBatch:
      break;
    default:
      return DecodeStatus::kBadFrameType;
  }
  out.type = static_cast<FrameType>(type);
  return DecodeStatus::kOk;
}

/// Reads a batch frame's delivery count and applies the allocation guard:
/// every delivery occupies at least 3 payload bytes (index delta, port,
/// value tag), so a count the remaining bytes cannot possibly hold is
/// rejected *before* any reserve().
DecodeStatus read_batch_count(Reader& reader, std::uint32_t& count) {
  std::uint64_t raw = 0;
  const DecodeStatus status = reader.read_varint(raw);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  if (raw == 0) {
    return DecodeStatus::kBadPayload;  // the encoder never emits empty batches
  }
  if (raw > reader.remaining() / 3) {
    return DecodeStatus::kTruncated;
  }
  count = static_cast<std::uint32_t>(raw);
  return DecodeStatus::kOk;
}

/// Decodes one batched delivery (index delta, port, value) in place.
DecodeStatus decode_batch_delivery(Reader& reader, std::uint32_t& prev_index,
                                   core::Delivery* out, bool materialize) {
  std::uint64_t delta_bits = 0;
  DecodeStatus status = reader.read_varint(delta_bits);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  const std::int64_t index =
      static_cast<std::int64_t>(prev_index) + unzigzag(delta_bits);
  if (index < 0 || index > static_cast<std::int64_t>(UINT32_MAX)) {
    return DecodeStatus::kBadPayload;
  }
  prev_index = static_cast<std::uint32_t>(index);
  std::uint64_t port = 0;
  status = reader.read_varint(port);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  if (port > 0xffff) {
    return DecodeStatus::kBadPayload;
  }
  if (materialize) {
    out->to_index = prev_index;
    out->to_port = static_cast<graph::Port>(port);
    return decode_value_at(reader, &out->value);
  }
  return decode_value_at(reader, nullptr);
}

}  // namespace

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kBadMagic:
      return "bad magic";
    case DecodeStatus::kBadVersion:
      return "unsupported version";
    case DecodeStatus::kBadFrameType:
      return "unknown frame type";
    case DecodeStatus::kBadValueTag:
      return "unknown value tag";
    case DecodeStatus::kBadPayload:
      return "invalid payload";
    case DecodeStatus::kTrailingBytes:
      return "trailing bytes";
    case DecodeStatus::kOversized:
      return "oversized frame";
  }
  return "unknown status";
}

// --- entry points ----------------------------------------------------------

void encode_value(const event::Value& value, std::vector<std::uint8_t>& out) {
  encode_value_dense(value, out);
}

DecodeStatus decode_value(std::span<const std::uint8_t> bytes,
                          std::size_t& cursor, event::Value& out) {
  Reader reader(bytes);
  reader.seek(cursor);
  const DecodeStatus status = decode_value_at(reader, &out);
  if (status == DecodeStatus::kOk) {
    cursor = reader.cursor();
  }
  return status;
}

void encode_delivery(std::uint64_t seq, event::PhaseId phase,
                     const core::Delivery& delivery,
                     std::vector<std::uint8_t>& out) {
  encode_header(FrameType::kDelivery, seq, phase, out);
  put_u32(out, delivery.to_index);
  put_u16(out, delivery.to_port);
  encode_value_dense(delivery.value, out);
}

void encode_watermark(std::uint64_t seq, event::PhaseId phase,
                      std::vector<std::uint8_t>& out) {
  encode_header(FrameType::kWatermark, seq, phase, out);
}

void patch_seq(std::span<std::uint8_t> frame, std::uint64_t seq) {
  // Header layout: magic (3) + version (1) + type (1), then seq as u64 LE
  // at offset 5 (see the module comment).
  DF_CHECK(frame.size() >= kHeaderBytes,
           "patch_seq needs a complete frame header, got ", frame.size(),
           " bytes");
  for (std::size_t i = 0; i < 8; ++i) {
    frame[5 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
}

void encode_delivery_batch(std::uint64_t seq, event::PhaseId phase,
                           std::span<const core::Delivery> deliveries,
                           std::vector<std::uint8_t>& out) {
  BatchEncoder encoder;
  for (const core::Delivery& delivery : deliveries) {
    encoder.add(delivery);
  }
  encoder.finish(seq, phase, out);
}

void BatchEncoder::add(const core::Delivery& delivery) {
  const std::int64_t delta = static_cast<std::int64_t>(delivery.to_index) -
                             static_cast<std::int64_t>(prev_index_);
  put_varint(payload_, zigzag(delta));
  prev_index_ = delivery.to_index;
  put_varint(payload_, delivery.to_port);
  encode_value_dense(delivery.value, payload_);
  ++count_;
}

void BatchEncoder::finish(std::uint64_t seq, event::PhaseId phase,
                          std::vector<std::uint8_t>& out) {
  encode_header(FrameType::kDeliveryBatch, seq, phase, out);
  put_varint(out, count_);
  out.insert(out.end(), payload_.begin(), payload_.end());
  payload_.clear();
  count_ = 0;
  prev_index_ = 0;
}

DecodeStatus decode_header(std::span<const std::uint8_t> bytes,
                           FrameHeader& out) {
  Reader reader(bytes);
  return decode_header_at(bytes, reader, out);
}

DecodeStatus validate_frame(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  FrameHeader header;
  DecodeStatus status = decode_header_at(bytes, reader, header);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  switch (header.type) {
    case FrameType::kWatermark:
      break;
    case FrameType::kDelivery: {
      if (!reader.skip(4 + 2)) {  // to_index + to_port
        return DecodeStatus::kTruncated;
      }
      status = decode_value_at(reader, nullptr);
      if (status != DecodeStatus::kOk) {
        return status;
      }
      break;
    }
    case FrameType::kDeliveryBatch: {
      std::uint32_t count = 0;
      status = read_batch_count(reader, count);
      if (status != DecodeStatus::kOk) {
        return status;
      }
      std::uint32_t prev_index = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        status = decode_batch_delivery(reader, prev_index, nullptr,
                                       /*materialize=*/false);
        if (status != DecodeStatus::kOk) {
          return status;
        }
      }
      break;
    }
  }
  if (reader.remaining() != 0) {
    return DecodeStatus::kTrailingBytes;
  }
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame(std::span<const std::uint8_t> bytes, Frame& out) {
  Reader reader(bytes);
  FrameHeader header;
  DecodeStatus status = decode_header_at(bytes, reader, header);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  out.type = header.type;
  out.seq = header.seq;
  out.phase = header.phase;
  out.delivery = core::Delivery{};
  out.batch.clear();

  switch (header.type) {
    case FrameType::kWatermark:
      break;
    case FrameType::kDelivery: {
      if (!reader.read_u32(out.delivery.to_index)) {
        return DecodeStatus::kTruncated;
      }
      std::uint16_t port = 0;
      if (!reader.read_u16(port)) {
        return DecodeStatus::kTruncated;
      }
      out.delivery.to_port = port;
      status = decode_value_at(reader, &out.delivery.value);
      if (status != DecodeStatus::kOk) {
        return status;
      }
      break;
    }
    case FrameType::kDeliveryBatch: {
      std::uint32_t count = 0;
      status = read_batch_count(reader, count);
      if (status != DecodeStatus::kOk) {
        return status;
      }
      out.batch.reserve(count);
      std::uint32_t prev_index = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        core::Delivery delivery;
        status = decode_batch_delivery(reader, prev_index, &delivery,
                                       /*materialize=*/true);
        if (status != DecodeStatus::kOk) {
          return status;
        }
        out.batch.push_back(std::move(delivery));
      }
      break;
    }
  }
  if (reader.remaining() != 0) {
    return DecodeStatus::kTrailingBytes;
  }
  return DecodeStatus::kOk;
}

DecodeStatus BatchReader::open(std::span<const std::uint8_t> bytes) {
  bytes_ = bytes;
  Reader reader(bytes_);
  DecodeStatus status = decode_header_at(bytes_, reader, header_);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  if (header_.type != FrameType::kDeliveryBatch) {
    return DecodeStatus::kBadFrameType;
  }
  status = read_batch_count(reader, remaining_);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  prev_index_ = 0;
  cursor_ = reader.cursor();
  return DecodeStatus::kOk;
}

DecodeStatus BatchReader::next(core::Delivery& out) {
  Reader reader(bytes_);
  reader.seek(cursor_);
  const DecodeStatus status =
      decode_batch_delivery(reader, prev_index_, &out, /*materialize=*/true);
  if (status != DecodeStatus::kOk) {
    return status;
  }
  cursor_ = reader.cursor();
  --remaining_;
  if (remaining_ == 0 && reader.remaining() != 0) {
    return DecodeStatus::kTrailingBytes;
  }
  return DecodeStatus::kOk;
}

}  // namespace df::distrib::wire

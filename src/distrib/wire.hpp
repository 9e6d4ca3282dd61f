// Wire format for cross-partition transport frames (DESIGN.md, "Real
// transport").
//
// The partitioned TransportEngine (distrib/transport.hpp) moves *serialized
// bytes* between partition engines — unlike the simulated ClusterExecutor,
// nothing crosses a partition boundary as a live C++ object. This module
// defines the frame format those bytes follow. All frames share one header:
//
//   offset  size  field
//   0       3     magic "DFW"
//   3       1     version (kVersion; receivers reject anything else)
//   4       1     frame type (FrameType)
//   5       8     sequence number, little-endian (per-channel, starts at 0,
//                 counts every frame; the receiver reassembles the exact
//                 send order from it and drops duplicates)
//   13      8     phase id, little-endian
//   21      ...   type-specific payload
//
// Version 2 (current) payloads:
//   kDeliveryBatch — every delivery of one (channel, phase) flush in a
//     single frame: varint count, then per delivery a zigzag-varint
//     to_index delta (vs the previous delivery's to_index, starting from
//     0), a varint to_port, and one dense-encoded Value. This amortizes
//     the 21-byte header plus per-frame seq/phase over the whole flush —
//     the per-delivery framing cost drops from 21+ bytes to typically 2–3.
//   kDelivery — u32 to_index, u16 to_port, one dense-encoded Value (kept
//     for single-message sends; the transport egress only emits batches).
//   kWatermark — empty; the phase field *is* the watermark ("every
//     delivery I will ever send for phases <= p precedes this frame").
//
// Values serialize as one tag byte followed by a tag-specific payload. Tags
// 0..5 are event::Value::Kind verbatim (a wire contract — alternatives may
// be appended, never reordered): nothing (empty), u8 0/1 (bool), u64 two's
// complement (int), u64 bit pattern (double), u32 length + raw bytes
// (string), u32 count + count doubles (vector). Version 2 appends dense
// tags for the common small kinds: 6 = zigzag-varint int, 7 = short string
// (u8 length), 8 = vector with varint count. The encoder picks whichever
// form is smaller; the decoder accepts all nine tags. Frames of any other
// version (including the retired version 1) are rejected with kBadVersion.
//
// Decoding is total: every read is bounds-checked, length/count fields are
// validated against the remaining bytes *before* any allocation, and
// trailing bytes are rejected, so truncated or corrupted frames produce a
// DecodeStatus — never undefined behaviour (test_wire.cpp fuzzes exactly
// this under ASan/UBSan).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/delivery.hpp"
#include "event/phase.hpp"
#include "event/value.hpp"

namespace df::distrib::wire {

inline constexpr std::uint8_t kVersion = 2;

/// Sanity bound on a single frame; anything larger is rejected both by the
/// decoder and by the socket channel's length-prefix reader (a corrupted
/// length field must not trigger a giant allocation).
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 22;

/// Fixed header size shared by every frame type.
inline constexpr std::size_t kHeaderBytes = 3 + 1 + 1 + 8 + 8;

enum class FrameType : std::uint8_t {
  kDelivery = 1,
  kWatermark = 2,
  kDeliveryBatch = 3,
};

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,      // frame ends before a required field
  kBadMagic,       // not a DFW frame
  kBadVersion,     // version this decoder does not speak
  kBadFrameType,   // unknown FrameType
  kBadValueTag,    // unknown Value tag
  kBadPayload,     // structurally invalid payload (e.g. bool not 0/1)
  kTrailingBytes,  // frame longer than its content
  kOversized,      // exceeds kMaxFrameBytes
};

const char* to_string(DecodeStatus status);

/// The fixed frame header, decodable without touching the payload.
struct FrameHeader {
  FrameType type = FrameType::kWatermark;
  std::uint64_t seq = 0;
  event::PhaseId phase = 0;
};

/// One fully decoded frame. `delivery` is meaningful only for kDelivery,
/// `batch` only for kDeliveryBatch.
struct Frame {
  FrameType type = FrameType::kWatermark;
  std::uint64_t seq = 0;
  event::PhaseId phase = 0;
  core::Delivery delivery;
  std::vector<core::Delivery> batch;
};

// --- encode ----------------------------------------------------------------

/// Replaces `out` with the encoded frame.
void encode_delivery(std::uint64_t seq, event::PhaseId phase,
                     const core::Delivery& delivery,
                     std::vector<std::uint8_t>& out);
void encode_watermark(std::uint64_t seq, event::PhaseId phase,
                      std::vector<std::uint8_t>& out);
void encode_delivery_batch(std::uint64_t seq, event::PhaseId phase,
                           std::span<const core::Delivery> deliveries,
                           std::vector<std::uint8_t>& out);

/// Rewrites the sequence-number field of an already-encoded frame in place.
/// The transport's two-level egress encodes batches for *future* phases
/// while earlier phases are still open (a worker pool finishes pairs out of
/// phase order), but the per-channel seq must reflect *send* order — so
/// oversized batches are encoded with a placeholder seq and patched here at
/// flush time. `frame` must hold at least a complete header.
void patch_seq(std::span<std::uint8_t> frame, std::uint64_t seq);

/// Incremental kDeliveryBatch encoder for the transport's egress hot path:
/// deliveries append into an internal scratch payload (dense-encoded as
/// they arrive, so nothing is staged as live Delivery objects) and
/// `finish` emits the complete frame. Scratch capacity is retained across
/// batches, so a warmed-up sender encodes with zero allocations.
class BatchEncoder {
 public:
  void add(const core::Delivery& delivery);

  std::uint32_t pending() const { return count_; }
  std::size_t payload_bytes() const { return payload_.size(); }

  /// Replaces `out` with the complete frame for everything added since the
  /// last finish, then resets for the next batch. pending() must be > 0.
  void finish(std::uint64_t seq, event::PhaseId phase,
              std::vector<std::uint8_t>& out);

 private:
  std::vector<std::uint8_t> payload_;
  std::uint32_t count_ = 0;
  std::uint32_t prev_index_ = 0;
};

// --- decode ----------------------------------------------------------------

/// Decodes the fixed header only (magic/version/type checked). The payload
/// is not examined.
DecodeStatus decode_header(std::span<const std::uint8_t> bytes,
                           FrameHeader& out);

/// Walks the entire frame with bounds checks but without materializing any
/// value — no allocation on any input. Returns exactly the status a full
/// decode_frame would: readers use it to reject corrupt frames off the
/// engine's critical path while forwarding the raw bytes untouched.
DecodeStatus validate_frame(std::span<const std::uint8_t> bytes);

/// Decodes one complete frame; `out` is valid only when kOk is returned.
DecodeStatus decode_frame(std::span<const std::uint8_t> bytes, Frame& out);

/// Streaming decoder over a kDeliveryBatch frame: deliveries decode one at
/// a time straight into a caller-owned Delivery (whose value the caller
/// typically moves into its destination bundle), so a batch never
/// materializes as an intermediate vector. open() validates the header and
/// the count's allocation guard; next() decodes the following delivery.
class BatchReader {
 public:
  /// Binds to a complete encoded frame. On kOk, header() and remaining()
  /// are valid and `bytes` must outlive the reader.
  DecodeStatus open(std::span<const std::uint8_t> bytes);

  const FrameHeader& header() const { return header_; }
  std::uint32_t remaining() const { return remaining_; }

  /// Decodes the next delivery; remaining() must be > 0. After the last
  /// delivery, checks the frame for trailing bytes.
  DecodeStatus next(core::Delivery& out);

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
  FrameHeader header_;
  std::uint32_t remaining_ = 0;
  std::uint32_t prev_index_ = 0;
};

// Value-level encode/append and decode, exposed for the round-trip fuzz
// tests; decode_value advances `cursor` past the consumed bytes. The
// encoder uses the dense tags where smaller.
void encode_value(const event::Value& value, std::vector<std::uint8_t>& out);
DecodeStatus decode_value(std::span<const std::uint8_t> bytes,
                          std::size_t& cursor, event::Value& out);

}  // namespace df::distrib::wire

// Bidirectional byte archive for checkpoint state.
//
// One `persist` function per component serves both directions: in save mode
// every primitive call appends the value's little-endian encoding; in load
// mode it reads the same bytes back and overwrites the argument. Keeping a
// single code path makes it structurally impossible for the writer and
// reader to disagree about field order — the failure mode that torn-image
// tests exist to catch is then limited to genuinely corrupt bytes, which the
// bounds-checked reads reject loudly (DF_CHECK → df::support::check_error)
// instead of reading out of bounds.
//
// The encoding is deliberately dumb: fixed-width little-endian integers, bit
// patterns for doubles, u64 length prefixes for sequences. Checkpoint images
// are consumed by the process family that wrote them (same build), so there
// is no varint/compat machinery here — wire.hpp owns the network format.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace df::support {

class StateArchive {
 public:
  /// Archive that appends into a fresh byte buffer (save mode).
  static StateArchive saver() { return StateArchive(); }

  /// Archive that reads back from an existing image (load mode). The caller
  /// keeps ownership of nothing: the bytes are copied in so the image may be
  /// freed immediately.
  static StateArchive loader(std::vector<std::uint8_t> bytes) {
    StateArchive ar;
    ar.saving_ = false;
    ar.bytes_ = std::move(bytes);
    return ar;
  }

  bool saving() const { return saving_; }
  bool loading() const { return !saving_; }

  void u8(std::uint8_t& v) { fixed(v); }
  void u32(std::uint32_t& v) { fixed(v); }
  void u64(std::uint64_t& v) { fixed(v); }
  void i64(std::int64_t& v) {
    std::uint64_t bits = 0;
    if (saving_) std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
    if (!saving_) std::memcpy(&v, &bits, sizeof v);
  }
  void f64(double& v) {
    std::uint64_t bits = 0;
    if (saving_) std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
    if (!saving_) std::memcpy(&v, &bits, sizeof v);
  }
  void boolean(bool& v) {
    std::uint8_t byte = v ? 1 : 0;
    u8(byte);
    if (!saving_) {
      DF_CHECK(byte <= 1, "state archive: bool byte out of range");
      v = byte != 0;
    }
  }
  void size(std::size_t& v) {
    std::uint64_t wide = v;
    u64(wide);
    if (!saving_) {
      DF_CHECK(wide <= SIZE_MAX, "state archive: size_t overflow");
      v = static_cast<std::size_t>(wide);
    }
  }

  void str(std::string& v) {
    std::uint64_t n = v.size();
    u64(n);
    if (saving_) {
      bytes_.insert(bytes_.end(), v.begin(), v.end());
    } else {
      DF_CHECK(n <= remaining(), "state archive: string length exceeds image");
      v.assign(reinterpret_cast<const char*>(bytes_.data() + cursor_),
               static_cast<std::size_t>(n));
      cursor_ += static_cast<std::size_t>(n);
    }
  }

  /// Persists a resizable container: length prefix, then one callback per
  /// element. Load mode clear()s and resize()s first, with the length bounded
  /// by the remaining image size so a corrupt prefix cannot force a huge
  /// allocation before the per-element reads fail.
  template <typename Container, typename Fn>
  void sequence(Container& c, Fn per_element) {
    std::uint64_t n = saving_ ? c.size() : 0;
    u64(n);
    if (!saving_) {
      DF_CHECK(n <= remaining(),
               "state archive: sequence length exceeds image");
      c.clear();
      c.resize(static_cast<std::size_t>(n));
    }
    for (auto&& e : c) per_element(*this, e);
  }

  /// std::vector<bool> needs its own overload (proxy references).
  void bool_vector(std::vector<bool>& c) {
    std::uint64_t n = saving_ ? c.size() : 0;
    u64(n);
    if (!saving_) {
      DF_CHECK(n <= remaining(),
               "state archive: sequence length exceeds image");
      c.assign(static_cast<std::size_t>(n), false);
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      bool b = c[i];
      boolean(b);
      if (!saving_) c[i] = b;
    }
  }

  template <typename T, typename Fn>
  void optional(std::optional<T>& v, Fn per_value) {
    bool engaged = v.has_value();
    boolean(engaged);
    if (!saving_ && engaged && !v.has_value()) v.emplace();
    if (!saving_ && !engaged) v.reset();
    if (engaged) per_value(*this, *v);
  }

  std::size_t remaining() const { return bytes_.size() - cursor_; }

  /// Load mode: asserts the image was consumed exactly.
  void finish() {
    DF_CHECK(saving_ || cursor_ == bytes_.size(),
             "state archive: trailing bytes after load");
  }

  /// Save mode: yields the encoded image.
  std::vector<std::uint8_t> take() && {
    DF_CHECK(saving_, "state archive: take() on a loader");
    return std::move(bytes_);
  }

 private:
  StateArchive() = default;

  template <typename T>
  void fixed(T& v) {
    if (saving_) {
      std::uint8_t raw[sizeof(T)];
      std::memcpy(raw, &v, sizeof(T));
      bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
    } else {
      DF_CHECK(remaining() >= sizeof(T),
               "state archive: truncated image (read past end)");
      std::memcpy(&v, bytes_.data() + cursor_, sizeof(T));
      cursor_ += sizeof(T);
    }
  }

  bool saving_ = true;
  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

/// FNV-1a over a byte range — the checkpoint image trailer checksum.
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace df::support

// Checkpoint image helpers behind the engine snapshot
// (Engine::snapshot_state / restore_state).
//
// Crash-restart recovery (DESIGN.md "Crash-restart recovery") serializes a
// partition's execution state into self-validating byte images: a magic +
// version header up front and an FNV-1a checksum trailer sealed over the
// body. Torn, bit-flipped, or wrong-version images fail open_image /
// restore_state with a df::support::check_error instead of reading garbage;
// the caller's discipline is to discard the half-restored object and fall
// back to the previous intact checkpoint.
//
// Value persistence lives here (not in event/) because the checkpoint
// encoding is a core-layer concern: the wire format in distrib/wire.hpp
// has its own, varint-based encoding with compat guarantees, while
// checkpoint images are consumed only by the build that wrote them.
#pragma once

#include <cstdint>
#include <vector>

#include "event/value.hpp"
#include "support/state_archive.hpp"

namespace df::core {

/// Bidirectional persistence of one Value. The Kind tag byte uses the
/// stable discriminants 0..5 from event::Value::Kind; unknown tags fail
/// loudly on load.
void persist_value(support::StateArchive& ar, event::Value& value);

/// Appends the FNV-1a checksum trailer over `body` and returns the sealed
/// image.
std::vector<std::uint8_t> seal_image(std::vector<std::uint8_t> body);

/// Verifies and strips the checksum trailer. DF_CHECKs (throwing
/// support::check_error) on truncated images or checksum mismatch; `what`
/// names the image kind in the failure message.
std::vector<std::uint8_t> open_image(const std::vector<std::uint8_t>& image,
                                     const char* what);

}  // namespace df::core

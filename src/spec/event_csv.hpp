// Timestamped event files: load recorded sensor streams from CSV and turn
// them into phases — the ingestion path a downstream user needs to run the
// correlator over real data instead of simulated sources.
//
// Format (header optional, detected by a non-numeric first field, and
// only on the first row that is neither blank nor a '#' comment):
//
//   timestamp,vertex,port,type,value
//   100,flood_gauge,0,double,0.52
//   100,wind_gauge,0,double,12.1
//   160,flood_gauge,0,double,0.61
//
// `vertex` is the specification vertex id; `type` is one of
// bool|int|double|string. Rows must be non-decreasing in timestamp (the
// paper's arrival model); equal timestamps form one phase.
//
// The grammar, exactly:
//   - Lines end at '\n' (a final '\n' opens no empty line) and are numbered
//     from 1, blank and comment lines included. Each line is trimmed of the
//     C locale's whitespace (support::trim, so a CRLF line end reads like
//     LF); a line that is then empty or starts with '#' is skipped.
//   - A row has exactly 5 comma-separated fields, each trimmed the same way.
//     There is no quoting: a vertex name or string value holds no ',' or
//     line break and no leading or trailing whitespace, and
//     write_event_csv refuses one that does.
//   - Numbers (timestamp, port, int and double values) follow the one
//     number grammar of support::parse_int/parse_uint/parse_double
//     (support/strings.hpp); bool values follow support::parse_bool.
//   - A row's checks run in this order, and the first that fails throws
//     check_error naming the line: field count; timestamp (a non-numeric
//     one is the header, allowed on the first row only); non-decreasing
//     timestamps; unknown vertex; port <= 0xffff; value type and value.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "event/phase.hpp"
#include "graph/dag.hpp"

namespace df::spec {

/// Parses CSV text into timestamped events, resolving vertex names through
/// `dag`, in one pass over `text`. Throws via DF_CHECK with the offending
/// line number on bad input.
std::vector<event::TimestampedEvent> parse_event_csv(std::string_view text,
                                                     const graph::Dag& dag);

/// Reads a CSV file from disk; a path that cannot be opened or read (a
/// directory, say) throws check_error naming it.
std::vector<event::TimestampedEvent> load_event_csv_file(
    const std::string& path, const graph::Dag& dag);

/// Groups a timestamped event stream into per-phase batches (phase k is
/// batches[k-1]); the inverse of one-batch-per-timestamp recording.
std::vector<std::vector<event::ExternalEvent>> assemble_batches(
    const std::vector<event::TimestampedEvent>& events);

/// Writes events back out in the same format (round-trip support). Throws
/// check_error for a vertex name or string value the reader would not read
/// back: one that holds ',', '\n' or '\r', or has leading or trailing
/// whitespace.
void write_event_csv(std::ostream& out,
                     const std::vector<event::TimestampedEvent>& events,
                     const graph::Dag& dag);

}  // namespace df::spec

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
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "event/phase.hpp"
#include "graph/dag.hpp"

namespace df::spec {

/// Parses CSV text into timestamped events, resolving vertex names through
/// `dag`. Throws via DF_CHECK with the offending line number on bad input.
std::vector<event::TimestampedEvent> parse_event_csv(const std::string& text,
                                                     const graph::Dag& dag);

/// Reads a CSV file from disk.
std::vector<event::TimestampedEvent> load_event_csv_file(
    const std::string& path, const graph::Dag& dag);

/// Groups a timestamped event stream into per-phase batches (phase k is
/// batches[k-1]); the inverse of one-batch-per-timestamp recording.
std::vector<std::vector<event::ExternalEvent>> assemble_batches(
    const std::vector<event::TimestampedEvent>& events);

/// Writes events back out in the same format (round-trip support).
void write_event_csv(std::ostream& out,
                     const std::vector<event::TimestampedEvent>& events,
                     const graph::Dag& dag);

}  // namespace df::spec

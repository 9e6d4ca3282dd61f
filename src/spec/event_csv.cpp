#include "spec/event_csv.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace df::spec {

namespace {

/// The shortest valid row, "1,a,0,int,1\n", is twelve bytes.
constexpr std::size_t kShortestRow = 12;

using Fields = std::array<std::string_view, 5>;

/// The number of '\n' bytes in `text` (memchr runs about three times as
/// fast as std::count here).
std::size_t count_newlines(std::string_view text) {
  std::size_t count = 0;
  const char* cursor = text.data();
  const char* const end = cursor + text.size();
  while (cursor != end) {
    const auto* newline = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<std::size_t>(end - cursor)));
    if (newline == nullptr) {
      break;
    }
    ++count;
    cursor = newline + 1;
  }
  return count;
}

/// Splits `line` on ',' and returns the field count; only the first
/// fields.size() fields are kept, as views into `line`.
std::size_t split_fields(std::string_view line, Fields& fields) {
  std::size_t count = 0;
  const char* begin = line.data();
  const char* const end = begin + line.size();
  while (true) {
    const auto* comma = static_cast<const char*>(
        std::memchr(begin, ',', static_cast<std::size_t>(end - begin)));
    const char* field_end = comma != nullptr ? comma : end;
    if (count < fields.size()) {
      fields[count] =
          std::string_view(begin, static_cast<std::size_t>(field_end - begin));
    }
    ++count;
    if (comma == nullptr) {
      return count;
    }
    begin = comma + 1;
  }
}

/// Checks that `text` reads back as itself from a CSV field: the reader
/// splits rows on '\n' and ',' and trims every field.
void check_writable(std::string_view what, std::string_view text) {
  DF_CHECK(text.find_first_of(",\n\r") == std::string_view::npos &&
               support::trim(text).size() == text.size(),
           what, " '", text,
           "' cannot be written to CSV: it holds ',', '\\n' or '\\r', or "
           "leading or trailing whitespace");
}

event::Value parse_value(std::string_view type, std::string_view text,
                         std::size_t line) {
  if (type == "bool") {
    const auto parsed = support::parse_bool(text);
    DF_CHECK(parsed.has_value(), "line ", line, ": bad bool '", text, "'");
    return event::Value(*parsed);
  }
  if (type == "int") {
    const auto parsed = support::parse_int(text);
    DF_CHECK(parsed.has_value(), "line ", line, ": bad int '", text, "'");
    return event::Value(*parsed);
  }
  if (type == "double") {
    const auto parsed = support::parse_double(text);
    DF_CHECK(parsed.has_value(), "line ", line, ": bad double '", text, "'");
    return event::Value(*parsed);
  }
  if (type == "string") {
    return event::Value(text);
  }
  DF_CHECK(false, "line ", line, ": unknown value type '", type, "'");
  return {};
}

}  // namespace

std::vector<event::TimestampedEvent> parse_event_csv(std::string_view text,
                                                     const graph::Dag& dag) {
  std::vector<event::TimestampedEvent> events;
  events.reserve(std::min(count_newlines(text), text.size() / kShortestRow));
  std::size_t line_number = 0;
  event::Timestamp previous = std::numeric_limits<event::Timestamp>::min();
  bool first_row = true;
  Fields fields;
  const char* cursor = text.data();
  const char* const end = cursor + text.size();
  while (cursor != end) {
    // Lines end at '\n', and a final '\n' opens no empty line: the lines
    // and line numbers std::getline reads.
    const auto* newline = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<std::size_t>(end - cursor)));
    const char* line_end = newline != nullptr ? newline : end;
    const std::string_view line = support::trim(
        std::string_view(cursor, static_cast<std::size_t>(line_end - cursor)));
    cursor = newline != nullptr ? newline + 1 : end;
    ++line_number;
    if (line.empty() || line.front() == '#') {
      continue;
    }
    const bool header_allowed = std::exchange(first_row, false);
    const std::size_t field_count = split_fields(line, fields);
    DF_CHECK(field_count == fields.size(), "line ", line_number,
             ": expected 5 fields, got ", field_count);
    const auto timestamp = support::parse_int(support::trim(fields[0]));
    if (!timestamp.has_value()) {
      // Non-numeric first field: the header, which only the first row that
      // is neither blank nor a comment may be.
      DF_CHECK(header_allowed, "line ", line_number, ": bad timestamp '",
               fields[0], "'");
      continue;
    }
    DF_CHECK(*timestamp >= previous, "line ", line_number,
             ": timestamps must be non-decreasing");
    previous = *timestamp;

    const std::string_view vertex_name = support::trim(fields[1]);
    const std::optional<graph::VertexId> vertex = dag.find_vertex(vertex_name);
    DF_CHECK(vertex.has_value(), "line ", line_number, ": unknown vertex '",
             vertex_name, "'");
    const auto port = support::parse_uint(support::trim(fields[2]));
    DF_CHECK(port.has_value() && *port <= 0xffff, "line ", line_number,
             ": bad port '", fields[2], "'");

    event::TimestampedEvent& ev = events.emplace_back();
    ev.timestamp = *timestamp;
    ev.event.vertex = *vertex;
    ev.event.port = static_cast<graph::Port>(*port);
    ev.event.value = parse_value(support::trim(fields[3]),
                                 support::trim(fields[4]), line_number);
  }
  return events;
}

std::vector<event::TimestampedEvent> load_event_csv_file(
    const std::string& path, const graph::Dag& dag) {
  return parse_event_csv(support::read_file(path, "event file"), dag);
}

std::vector<std::vector<event::ExternalEvent>> assemble_batches(
    const std::vector<event::TimestampedEvent>& events) {
  std::vector<std::vector<event::ExternalEvent>> batches;
  event::PhaseAssembler assembler;
  const auto take = [&batches](std::optional<event::PhaseBatch> batch) {
    if (batch.has_value()) {
      batches.push_back(std::move(batch->events));
    }
  };
  for (const event::TimestampedEvent& ev : events) {
    take(assembler.feed(ev));
  }
  take(assembler.flush());
  return batches;
}

void write_event_csv(std::ostream& out,
                     const std::vector<event::TimestampedEvent>& events,
                     const graph::Dag& dag) {
  out << "timestamp,vertex,port,type,value\n";
  for (const event::TimestampedEvent& ev : events) {
    const std::string& vertex = dag.name(ev.event.vertex);
    check_writable("vertex name", vertex);
    out << ev.timestamp << ',' << vertex << ',' << ev.event.port << ',';
    const event::Value& value = ev.event.value;
    if (value.is_bool()) {
      out << "bool," << (value.as_bool() ? "true" : "false");
    } else if (value.is_int()) {
      out << "int," << value.as_int();
    } else if (value.is_double()) {
      std::ostringstream num;
      num.precision(17);
      num << value.as_double();
      out << "double," << num.str();
    } else if (value.is_string()) {
      check_writable("string value", value.as_string());
      out << "string," << value.as_string();
    } else {
      DF_CHECK(false, "unsupported value type for CSV: ",
               value.to_string());
    }
    out << '\n';
  }
}

}  // namespace df::spec

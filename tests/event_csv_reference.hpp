// The reference event CSV parser for the differential fuzz
// (test_event_csv_fuzz.cpp): the line-by-line std::getline loop that
// spec::parse_event_csv replaced, with its own std::isspace trim and
// std::string split. It checks rows in the same order and words its
// rejections the same way, so for any text the two parsers must return
// equal events or throw check_error with the same message after " — ".
// Numbers go through the same support::parse_* as the scanner, so the fuzz
// checks the scanner; the number grammar is pinned by
// test_support_misc's Strings.NumberGrammarTable.
#pragma once

#include <cctype>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "event/phase.hpp"
#include "graph/dag.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace df::testutil {

inline std::string_view reference_trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

inline std::vector<std::string> reference_split(std::string_view text,
                                                char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

inline event::Value reference_parse_value(const std::string& type,
                                          const std::string& text,
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

inline std::vector<event::TimestampedEvent> reference_parse_event_csv(
    const std::string& text, const graph::Dag& dag) {
  std::vector<event::TimestampedEvent> events;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  event::Timestamp previous = std::numeric_limits<event::Timestamp>::min();
  bool first_row = true;
  while (std::getline(lines, line)) {
    ++line_number;
    const auto trimmed = reference_trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    const bool header_allowed = std::exchange(first_row, false);
    const auto fields = reference_split(trimmed, ',');
    DF_CHECK(fields.size() == 5, "line ", line_number,
             ": expected 5 fields, got ", fields.size());
    const auto timestamp = support::parse_int(reference_trim(fields[0]));
    if (!timestamp.has_value()) {
      DF_CHECK(header_allowed, "line ", line_number, ": bad timestamp '",
               fields[0], "'");
      continue;
    }
    DF_CHECK(*timestamp >= previous, "line ", line_number,
             ": timestamps must be non-decreasing");
    previous = *timestamp;

    const std::string vertex_name(reference_trim(fields[1]));
    DF_CHECK(dag.find_vertex(vertex_name).has_value(), "line ", line_number,
             ": unknown vertex '", vertex_name, "'");
    const auto port = support::parse_uint(reference_trim(fields[2]));
    DF_CHECK(port.has_value() && *port <= 0xffff, "line ", line_number,
             ": bad port '", fields[2], "'");

    event::TimestampedEvent ev;
    ev.timestamp = *timestamp;
    ev.event.vertex = dag.vertex(vertex_name);
    ev.event.port = static_cast<graph::Port>(*port);
    ev.event.value = reference_parse_value(
        std::string(reference_trim(fields[3])),
        std::string(reference_trim(fields[4])), line_number);
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace df::testutil

#include "spec/event_csv.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace df::spec {

namespace {

event::Value parse_value(const std::string& type, const std::string& text,
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

std::vector<event::TimestampedEvent> parse_event_csv(const std::string& text,
                                                     const graph::Dag& dag) {
  std::vector<event::TimestampedEvent> events;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  event::Timestamp previous = std::numeric_limits<event::Timestamp>::min();
  bool first_row = true;
  while (std::getline(lines, line)) {
    ++line_number;
    const auto trimmed = support::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    const bool header_allowed = std::exchange(first_row, false);
    const auto fields = support::split(trimmed, ',');
    DF_CHECK(fields.size() == 5, "line ", line_number,
             ": expected 5 fields, got ", fields.size());
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

    const std::string vertex_name(support::trim(fields[1]));
    DF_CHECK(dag.has_vertex(vertex_name), "line ", line_number,
             ": unknown vertex '", vertex_name, "'");
    const auto port = support::parse_uint(support::trim(fields[2]));
    DF_CHECK(port.has_value() && *port <= 0xffff, "line ", line_number,
             ": bad port '", fields[2], "'");

    event::TimestampedEvent ev;
    ev.timestamp = *timestamp;
    ev.event.vertex = dag.vertex(vertex_name);
    ev.event.port = static_cast<graph::Port>(*port);
    ev.event.value =
        parse_value(std::string(support::trim(fields[3])),
                    std::string(support::trim(fields[4])), line_number);
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<event::TimestampedEvent> load_event_csv_file(
    const std::string& path, const graph::Dag& dag) {
  std::ifstream in(path);
  DF_CHECK(in.good(), "cannot open event file '", path, "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_event_csv(buffer.str(), dag);
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
    out << ev.timestamp << ',' << dag.name(ev.event.vertex) << ','
        << ev.event.port << ',';
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
      out << "string," << value.as_string();
    } else {
      DF_CHECK(false, "unsupported value type for CSV: ",
               value.to_string());
    }
    out << '\n';
  }
}

}  // namespace df::spec

// Differential fuzz of the event CSV scanner: seeded mutations of valid
// event files must, in spec::parse_event_csv and in the reference parser
// (event_csv_reference.hpp), either parse to equal events or throw
// check_error with the same message after " — ". A failure prints the
// seed, the trial and the mutant, so it replays exactly.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "event_csv_reference.hpp"
#include "graph/dag.hpp"
#include "spec/event_csv.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace df::spec {
namespace {

const std::array<const char*, 5> kVertices = {"s1", "s10", "flood", "w x",
                                              "gauge_7"};

graph::Dag fuzz_dag() {
  graph::Dag dag;
  for (const char* name : kVertices) {
    dag.add_vertex(name);
  }
  return dag;
}

const char* pick(support::Rng& rng, const std::vector<const char*>& items) {
  return items[rng.next_below(items.size())];
}

std::string value_field(support::Rng& rng) {
  char buffer[64];
  switch (rng.next_below(4)) {
    case 0:
      return std::string("bool,") +
             pick(rng, {"true", "false", "1", "0", "yes", "NO", "True"});
    case 1:
      if (rng.next_bernoulli(0.2)) {
        return std::string("int,") + pick(rng, {"-9223372036854775808",
                                                "9223372036854775807", "+7",
                                                "-0", "007"});
      }
      return "int," + std::to_string(rng.next_int(-100000, 100000));
    case 2:
      if (rng.next_bernoulli(0.2)) {
        return std::string("double,") +
               pick(rng, {"inf", "-inf", "nan", "-0", "1e-310", "1.5e300",
                          ".5", "5.", "+2.25"});
      }
      std::snprintf(buffer, sizeof buffer,
                    rng.next_bernoulli(0.5) ? "%.17g" : "%.6f",
                    rng.next_normal(0.0, 1000.0));
      return std::string("double,") + buffer;
    default:
      return std::string("string,") +
             pick(rng, {"high", "low", "", "a b", "x#y", "-1", "nan"});
  }
}

/// A valid event file: an optional header, comments and blank lines, and
/// rows with non-decreasing timestamps over every value type.
std::string valid_file(support::Rng& rng) {
  std::string text;
  if (rng.next_bernoulli(0.3)) {
    text += "# recorded streams\n";
  }
  if (rng.next_bernoulli(0.5)) {
    text += "timestamp,vertex,port,type,value\n";
  }
  std::int64_t timestamp = rng.next_int(-50, 50);
  const std::uint64_t rows = 3 + rng.next_below(20);
  for (std::uint64_t r = 0; r < rows; ++r) {
    if (rng.next_bernoulli(0.1)) {
      text += rng.next_bernoulli(0.5) ? "\n" : "# note\n";
    }
    timestamp += static_cast<std::int64_t>(rng.next_below(3));
    text += std::to_string(timestamp) + "," +
            kVertices[rng.next_below(kVertices.size())] + "," +
            pick(rng, {"0", "0", "1", "3", "65535"}) + "," + value_field(rng);
    if (r + 1 < rows || rng.next_bernoulli(0.8)) {
      text += '\n';
    }
  }
  return text;
}

std::size_t random_position(support::Rng& rng, const std::string& text) {
  return static_cast<std::size_t>(rng.next_below(text.size() + 1));
}

/// The start of a random line (0 or just past a '\n').
std::size_t random_line_start(support::Rng& rng, const std::string& text) {
  const std::size_t pos = random_position(rng, text);
  const std::size_t newline = pos == 0 ? std::string::npos
                                       : text.rfind('\n', pos - 1);
  return newline == std::string::npos ? 0 : newline + 1;
}

void mutate(support::Rng& rng, std::string& text) {
  const std::size_t pos = random_position(rng, text);
  const bool inside = pos < text.size();
  switch (rng.next_below(14)) {
    case 0:  // flip a byte
      if (inside) {
        text[pos] = static_cast<char>(rng.next_below(256));
      }
      break;
    case 1:  // delete a byte
      if (inside) {
        text.erase(pos, 1);
      }
      break;
    case 2:  // duplicate a byte
      if (inside) {
        text.insert(pos, 1, text[pos]);
      }
      break;
    case 3:  // truncate
      text.resize(pos);
      break;
    case 4:  // insert a comma
      text.insert(pos, 1, ',');
      break;
    case 5: {  // drop a comma
      const std::size_t comma = text.find(',', pos);
      if (comma != std::string::npos) {
        text.erase(comma, 1);
      }
      break;
    }
    case 6:  // insert a newline
      text.insert(pos, 1, '\n');
      break;
    case 7: {  // drop a newline
      const std::size_t newline = text.find('\n', pos);
      if (newline != std::string::npos) {
        text.erase(newline, 1);
      }
      break;
    }
    case 8: {  // CRLF line ends
      std::string crlf;
      for (const char c : text) {
        if (c == '\n') {
          crlf += '\r';
        }
        crlf += c;
      }
      text = crlf;
      break;
    }
    case 9:  // '#' at a line start
      text.insert(random_line_start(rng, text), 1, '#');
      break;
    case 10: {  // whitespace padding, C-locale and not
      const std::string pads[] = {" ", "\t", "\v", "\f", "\r", "  \t",
                                  "\xa0", "\x85"};
      text.insert(pos, pads[rng.next_below(std::size(pads))]);
      break;
    }
    case 11: {  // a huge number over a random field
      const std::size_t begin =
          pos == 0 ? std::string::npos : text.find_last_of(",\n", pos - 1);
      const std::size_t first = begin == std::string::npos ? 0 : begin + 1;
      const std::size_t end = text.find_first_of(",\n", first);
      const std::size_t last = end == std::string::npos ? text.size() : end;
      text.replace(first, last - first,
                   pick(rng, {"1234567890123456789012345", "1e400", "-1e400",
                              "1e-400", "99999999999999999999",
                              "-9223372036854775809"}));
      break;
    }
    case 12:  // an embedded NUL
      text.insert(pos, 1, '\0');
      break;
    default:  // a second header row
      text.insert(random_line_start(rng, text),
                  "timestamp,vertex,port,type,value\n");
      break;
  }
}

struct Outcome {
  bool threw = false;
  std::string message;  // the check_error text after " — "
  std::vector<event::TimestampedEvent> events;
};

template <typename Parse>
Outcome outcome_of(Parse parse) {
  Outcome out;
  try {
    out.events = parse();
  } catch (const support::check_error& e) {
    constexpr std::string_view kDash = " — ";
    const std::string what = e.what();
    const std::size_t dash = what.find(kDash);
    out.threw = true;
    out.message =
        dash == std::string::npos ? what : what.substr(dash + kDash.size());
  }
  return out;
}

bool same_value(const event::Value& a, const event::Value& b) {
  if (a.is_double() && b.is_double()) {  // NaN != NaN, -0.0 == 0.0
    return std::bit_cast<std::uint64_t>(a.as_double()) ==
           std::bit_cast<std::uint64_t>(b.as_double());
  }
  return a == b;
}

bool same_events(const std::vector<event::TimestampedEvent>& a,
                 const std::vector<event::TimestampedEvent>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].timestamp != b[i].timestamp ||
        a[i].event.vertex != b[i].event.vertex ||
        a[i].event.port != b[i].event.port ||
        !same_value(a[i].event.value, b[i].event.value)) {
      return false;
    }
  }
  return true;
}

std::string escaped(const std::string& text) {
  std::string out;
  char buffer[8];
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n\n";
    } else if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
    } else {
      std::snprintf(buffer, sizeof buffer, "\\x%02x", byte);
      out += buffer;
    }
  }
  return out;
}

/// The kind of a rejection: its message with the line number and any
/// quoted text dropped.
std::string rejection_kind(const std::string& message) {
  const std::size_t colon = message.find(": ");
  const std::string rest =
      colon == std::string::npos ? message : message.substr(colon + 2);
  return rest.substr(0, rest.find_first_of("'0123456789"));
}

TEST(EventCsvFuzz, ScannerMatchesReferenceOnMutatedFiles) {
  const graph::Dag dag = fuzz_dag();
  constexpr int kTrials = 400;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  std::map<std::string, std::size_t> kinds;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    support::Rng rng(seed);
    for (int trial = 0; trial < kTrials; ++trial) {
      std::string text = valid_file(rng);
      const int mutations = static_cast<int>(rng.next_below(5));
      for (int m = 0; m < mutations; ++m) {
        mutate(rng, text);
      }
      const Outcome scanner =
          outcome_of([&] { return parse_event_csv(text, dag); });
      const Outcome reference = outcome_of(
          [&] { return testutil::reference_parse_event_csv(text, dag); });
      const bool agree =
          scanner.threw == reference.threw &&
          (scanner.threw ? scanner.message == reference.message
                         : same_events(scanner.events, reference.events));
      if (!agree) {
        ADD_FAILURE() << "seed " << seed << " trial " << trial << " ("
                      << mutations << " mutations)\nscanner: "
                      << (scanner.threw ? scanner.message : "parsed")
                      << "\nreference: "
                      << (reference.threw ? reference.message : "parsed")
                      << "\nmutant:\n"
                      << escaped(text);
        return;
      }
      if (mutations == 0) {
        EXPECT_FALSE(scanner.threw) << "seed " << seed << " trial " << trial
                                    << ": " << scanner.message;
      }
      if (scanner.threw) {
        ++rejected;
        ++kinds[rejection_kind(scanner.message)];
      } else {
        ++parsed;
      }
    }
  }
  // Both outcomes, and every kind of rejection, must actually occur.
  EXPECT_GT(parsed, 8U * kTrials / 5);
  EXPECT_GT(rejected, 8U * kTrials / 5);
  for (const char* kind :
       {"expected ", "bad timestamp ", "timestamps must be non-decreasing",
        "unknown vertex ", "bad port ", "bad bool ", "bad int ",
        "bad double ", "unknown value type "}) {
    EXPECT_GT(kinds[kind], 0U) << "no mutant was rejected with '" << kind
                               << "'";
  }
}

}  // namespace
}  // namespace df::spec

#include "support/strings.hpp"

#include <charconv>
#include <fstream>

#include "support/check.hpp"

namespace df::support {

namespace {

/// The C locale's std::isspace set: space, \t, \n, \v, \f, \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The grammar in strings.hpp: leading whitespace, one '+' that does not
/// precede a '-', then a from_chars body that reaches the end of `text`.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() && is_space(text[begin])) {
    ++begin;
  }
  if (begin < text.size() && text[begin] == '+') {
    ++begin;
    if (begin < text.size() && text[begin] == '-') {
      return std::nullopt;
    }
  }
  const char* last = text.data() + text.size();
  T value{};
  const auto [end, error] = std::from_chars(text.data() + begin, last, value);
  if (error != std::errc{} || end != last) {
    return std::nullopt;
  }
  return value;
}

/// ASCII case-insensitive equality against an all-lowercase `lower`.
bool equals_lowered(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) {
    return false;
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if ((c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) !=
        lower[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) {
    ++begin;
  }
  while (end > begin && is_space(text[end - 1])) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  return parse_number<std::int64_t>(text);
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  return parse_number<std::uint64_t>(text);
}

std::optional<double> parse_double(std::string_view text) {
  return parse_number<double>(text);
}

std::optional<bool> parse_bool(std::string_view text) {
  const std::string_view word = trim(text);
  if (equals_lowered(word, "true") || word == "1" ||
      equals_lowered(word, "yes")) {
    return true;
  }
  if (equals_lowered(word, "false") || word == "0" ||
      equals_lowered(word, "no")) {
    return false;
  }
  return std::nullopt;
}

std::string read_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  DF_CHECK(in.is_open(), "cannot open ", what, " '", path, "'");
  // istream::read turns a failing read(2), e.g. EISDIR, into badbit.
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  DF_CHECK(!in.bad(), "cannot read ", what, " '", path, "'");
  return text;
}

}  // namespace df::support

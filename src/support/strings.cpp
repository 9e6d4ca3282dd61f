#include "support/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace df::support {

std::vector<std::string> split(std::string_view text, char delimiter) {
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

std::string_view trim(std::string_view text) {
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

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(value);
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  // strtoull skips leading whitespace and then negates a '-' number into a
  // huge unsigned one, so the sign is looked for past that whitespace.
  const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
  if (first == std::string_view::npos || text[first] == '-') {
    return std::nullopt;
  }
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> parse_bool(std::string_view text) {
  const std::string lowered = to_lower(trim(text));
  if (lowered == "true" || lowered == "1" || lowered == "yes") {
    return true;
  }
  if (lowered == "false" || lowered == "0" || lowered == "no") {
    return false;
  }
  return std::nullopt;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string join(const std::vector<std::string>& items,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) {
      out += separator;
    }
    out += items[i];
  }
  return out;
}

}  // namespace df::support

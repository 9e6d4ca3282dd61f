// Small string utilities shared by the spec parser and the CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace df::support {

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Strict parsers: the whole string must be consumed, otherwise nullopt.
/// Leading whitespace and a '+' sign are accepted; parse_uint rejects a '-'
/// sign, also after leading whitespace.
std::optional<std::int64_t> parse_int(std::string_view text);
std::optional<std::uint64_t> parse_uint(std::string_view text);
std::optional<double> parse_double(std::string_view text);
std::optional<bool> parse_bool(std::string_view text);  // true/false/1/0

std::string to_lower(std::string_view text);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

}  // namespace df::support

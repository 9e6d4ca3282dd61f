// Small string utilities shared by the spec parser, the event CSV reader and
// the CLI, and the whole-file reader behind both file loaders.
//
// The number grammar. parse_int, parse_uint and parse_double are the one
// number parser for every outside input: spec XML attributes, module
// parameters, CLI flags and event CSV fields. Each accepts
//
//   [whitespace*] ['+'] <std::from_chars body>
//
// where whitespace is the C locale's std::isspace set (space, \t, \n, \v,
// \f, \r) and the body must run to the end of the text. So the parsers
//   - accept leading whitespace and one leading '+' (not "+-1");
//   - reject empty text, trailing text (trailing whitespace included),
//     embedded NULs and values out of the type's range;
//   - parse_int accepts one '-'; parse_uint rejects any '-';
//   - parse_double accepts decimal and exponent forms, inf/infinity and
//     nan/nan(chars) in any case, and rejects values that overflow or
//     underflow to zero (1e400, 1e-400);
//   - ignore the locale.
//
// Against the strtoll/strtoull/strtod grammar these parsers replaced, two
// spellings changed:
//   - hex floats (0x1p3, 0x10) no longer parse as doubles;
//   - subnormal doubles (1e-310, 4.9e-324) now parse; strtod rejected them
//     through ERANGE, so write_event_csv's output for them did not read back.
// A NaN's payload (nan(123)) is not kept: every NaN reads as the default
// quiet NaN.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace df::support {

/// Strips the C locale's std::isspace set (space, \t, \n, \v, \f, \r) from
/// both ends, whatever the current locale.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Strict parsers over the grammar above; nullopt when the text does not
/// match it.
std::optional<std::int64_t> parse_int(std::string_view text);
std::optional<std::uint64_t> parse_uint(std::string_view text);
std::optional<double> parse_double(std::string_view text);
/// true/false/1/0/yes/no in any case, with surrounding whitespace trimmed.
std::optional<bool> parse_bool(std::string_view text);

/// The whole contents of the file at `path`. Throws check_error naming
/// `what` and the path when the file cannot be opened or read (a directory
/// opens but cannot be read).
std::string read_file(const std::string& path, std::string_view what);

}  // namespace df::support

// Small string utilities shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace qcenv::common {

/// Splits on a delimiter; empty segments are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// Lowercases ASCII.
std::string to_lower(std::string_view text);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Shortest decimal representation that round-trips the double exactly
/// ("0.98", not "0.97999999999999998").
std::string format_double_shortest(double value);

/// Fixed-width human-friendly engineering formatting, e.g. "1.23 ms".
std::string format_duration_ns(long long ns);

/// Strict decimal parse for untrusted text (REST ids and query values,
/// replication headers, the epoch file, Content-Length): all of `text`
/// must be ASCII digits -- no sign, space, exponent or fraction -- and fit
/// in a uint64. The invalid_argument error names `what`:
/// "<what> must be a non-negative integer, got '<text>'" or
/// "<what> is out of range".
Result<std::uint64_t> parse_decimal(std::string_view text,
                                    std::string_view what);

/// Random lowercase-hex token of `bytes*2` characters (for session tokens).
std::string random_token(std::size_t bytes = 16);

}  // namespace qcenv::common

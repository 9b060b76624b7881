#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <random>
#include <system_error>

namespace qcenv::common {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string format_double_shortest(double value) {
  char buffer[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string format_duration_ns(long long ns) {
  const double abs_ns = ns < 0 ? -static_cast<double>(ns) : static_cast<double>(ns);
  if (abs_ns < 1e3) return format("%lld ns", ns);
  if (abs_ns < 1e6) return format("%.2f us", static_cast<double>(ns) / 1e3);
  if (abs_ns < 1e9) return format("%.2f ms", static_cast<double>(ns) / 1e6);
  return format("%.3f s", static_cast<double>(ns) / 1e9);
}

Result<std::uint64_t> parse_decimal(std::string_view text,
                                    std::string_view what) {
  const char* const end = text.data() + text.size();
  std::uint64_t value = 0;
  // Unsigned from_chars accepts no sign, whitespace or exponent, so only
  // overflow needs a message of its own.
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return err::invalid_argument(std::string(what) + " is out of range");
  }
  if (ec != std::errc{} || stop != end) {
    return err::invalid_argument(std::string(what) +
                                 " must be a non-negative integer, got '" +
                                 std::string(text) + "'");
  }
  return value;
}

std::string random_token(std::size_t bytes) {
  static thread_local std::mt19937_64 rng{std::random_device{}()};
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes * 2);
  for (std::size_t i = 0; i < bytes; ++i) {
    const auto byte = static_cast<unsigned>(rng() & 0xFF);
    out += kHex[byte >> 4];
    out += kHex[byte & 0xF];
  }
  return out;
}

}  // namespace qcenv::common

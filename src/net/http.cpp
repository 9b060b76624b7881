#include "net/http.hpp"

#include <algorithm>
#include <cctype>

#include "common/strings.hpp"

namespace qcenv::net {

using common::Result;

bool CaseInsensitiveLess::operator()(const std::string& a,
                                     const std::string& b) const {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
        return std::tolower(static_cast<unsigned char>(x)) <
               std::tolower(static_cast<unsigned char>(y));
      });
}

std::string HttpRequest::path() const {
  const std::size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::optional<std::string> HttpRequest::query_param(
    const std::string& key) const {
  const std::size_t q = target.find('?');
  if (q == std::string::npos) return std::nullopt;
  for (const auto& pair : common::split(target.substr(q + 1), '&')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (pair.substr(0, eq) == key) return pair.substr(eq + 1);
  }
  return std::nullopt;
}

std::string HttpRequest::serialize() const {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  bool has_length = false;
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
    if (common::iequals(name, "content-length")) has_length = true;
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

HttpResponse HttpResponse::json(int status, const std::string& body) {
  HttpResponse response;
  response.status = status;
  response.reason = status < 300   ? "OK"
                    : status < 400 ? "Redirect"
                    : status < 500 ? "Client Error"
                                   : "Server Error";
  response.headers["Content-Type"] = "application/json";
  response.body = body;
  return response;
}

HttpResponse HttpResponse::text(int status, const std::string& body) {
  HttpResponse response = json(status, body);
  response.headers["Content-Type"] = "text/plain";
  return response;
}

std::string HttpResponse::serialize() const {
  std::string out =
      "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  bool has_length = false;
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
    if (common::iequals(name, "content-length")) has_length = true;
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

Result<Headers> parse_header_block(std::string_view block) {
  Headers headers;
  for (const auto& line : common::split(block, '\n')) {
    std::string_view trimmed = common::trim(line);
    if (trimmed.empty()) continue;
    const std::size_t colon = trimmed.find(':');
    if (colon == std::string_view::npos) {
      return common::err::protocol("malformed header line: " +
                                   std::string(trimmed));
    }
    const std::string name(common::trim(trimmed.substr(0, colon)));
    const std::string value(common::trim(trimmed.substr(colon + 1)));
    if (name.empty()) return common::err::protocol("empty header name");
    headers[name] = value;
  }
  return headers;
}

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 64 * 1024 * 1024;

/// Shared framing logic: returns true when the message is complete.
template <typename Msg, typename StartLineFn>
Result<bool> feed_message(std::string& buffer, std::string_view bytes,
                          bool& headers_done, bool& complete,
                          std::size_t& body_expected, Msg& msg,
                          StartLineFn&& parse_start_line) {
  if (complete) return true;
  buffer.append(bytes);
  if (!headers_done) {
    const std::size_t end = buffer.find("\r\n\r\n");
    if (end == std::string::npos) {
      if (buffer.size() > kMaxHeaderBytes) {
        return common::err::protocol("header block too large");
      }
      return false;
    }
    const std::string head = buffer.substr(0, end);
    buffer.erase(0, end + 4);
    const std::size_t line_end = head.find("\r\n");
    const std::string start_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    auto status = parse_start_line(start_line);
    if (!status.ok()) return status.error();
    auto headers = parse_header_block(
        line_end == std::string::npos ? "" : head.substr(line_end + 2));
    if (!headers.ok()) return headers.error();
    msg.headers = std::move(headers).value();
    body_expected = 0;
    const auto it = msg.headers.find("Content-Length");
    if (it != msg.headers.end()) {
      const auto len = common::parse_decimal(it->second, "Content-Length");
      if (!len.ok() || len.value() > kMaxBodyBytes) {
        return common::err::protocol("bad Content-Length");
      }
      body_expected = static_cast<std::size_t>(len.value());
    }
    headers_done = true;
  }
  if (buffer.size() >= body_expected) {
    msg.body = buffer.substr(0, body_expected);
    buffer.erase(0, body_expected);
    complete = true;
    return true;
  }
  return false;
}

}  // namespace

Result<bool> HttpRequestParser::feed(std::string_view bytes) {
  return feed_message(
      buffer_, bytes, headers_done_, complete_, body_expected_, request_,
      [this](const std::string& line) -> common::Status {
        const auto parts = common::split(line, ' ');
        if (parts.size() < 3 || parts[0].empty() || parts[1].empty()) {
          return common::err::protocol("malformed request line: " + line);
        }
        if (!common::starts_with(parts[2], "HTTP/1.")) {
          return common::err::protocol("unsupported HTTP version");
        }
        request_.method = parts[0];
        request_.target = parts[1];
        return common::Status::ok_status();
      });
}

Result<bool> HttpResponseParser::feed(std::string_view bytes) {
  return feed_message(
      buffer_, bytes, headers_done_, complete_, body_expected_, response_,
      [this](const std::string& line) -> common::Status {
        const auto parts = common::split(line, ' ');
        if (parts.size() < 2 || !common::starts_with(parts[0], "HTTP/1.")) {
          return common::err::protocol("malformed status line: " + line);
        }
        char* end_ptr = nullptr;
        const long code = std::strtol(parts[1].c_str(), &end_ptr, 10);
        if (end_ptr == parts[1].c_str() || code < 100 || code > 599) {
          return common::err::protocol("bad status code: " + parts[1]);
        }
        response_.status = static_cast<int>(code);
        response_.reason = parts.size() > 2 ? parts[2] : "";
        return common::Status::ok_status();
      });
}

}  // namespace qcenv::net

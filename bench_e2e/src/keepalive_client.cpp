#include "keepalive_client.hpp"

namespace qcenv::bench_e2e {

common::Result<net::HttpResponse> KeepAliveClient::send(
    const std::string& method, const std::string& target,
    const std::string& body, const net::Headers& headers) {
  if (!socket_.valid()) {
    auto connected = net::connect_local(port_, 30 * common::kSecond);
    if (!connected.ok()) return connected.error();
    socket_ = std::move(connected).value();
  }
  net::HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  request.headers = headers;
  if (!body.empty()) request.headers["Content-Type"] = "application/json";
  if (auto sent = socket_.send_all(request.serialize()); !sent.ok()) {
    socket_.close();
    return sent.error();
  }
  net::HttpResponseParser parser;
  while (!parser.complete()) {
    auto chunk = socket_.recv_some();
    if (!chunk.ok() || chunk.value().empty()) {
      socket_.close();
      if (!chunk.ok()) return chunk.error();
      return common::err::protocol("connection closed mid-response");
    }
    auto progress = parser.feed(chunk.value());
    if (!progress.ok()) {
      socket_.close();
      return progress.error();
    }
  }
  return std::move(parser.response());
}

}  // namespace qcenv::bench_e2e

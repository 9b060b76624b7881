// Keep-alive HTTP/1.1 client for the load generator. net::HttpClient opens
// one connection per request; the benchmark instead holds a connection
// open the way a long-lived SDK session does, so each one pins exactly
// one daemon HTTP worker for the whole run.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"

namespace qcenv::bench_e2e {

class KeepAliveClient {
 public:
  explicit KeepAliveClient(std::uint16_t port) : port_(port) {}

  /// One request/response exchange; connects lazily. Any transport error
  /// drops the connection so the next call starts a fresh one.
  common::Result<net::HttpResponse> send(const std::string& method,
                                         const std::string& target,
                                         const std::string& body,
                                         const net::Headers& headers);

  /// Closes the connection, releasing the daemon worker serving it.
  void close() { socket_.close(); }

 private:
  std::uint16_t port_;
  net::Socket socket_;
};

}  // namespace qcenv::bench_e2e

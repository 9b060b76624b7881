// HTTP codec: parsing, serialization, router matching.
#include <gtest/gtest.h>

#include "net/http.hpp"
#include "net/http_server.hpp"

namespace qcenv::net {
namespace {

TEST(HttpCodec, RequestSerializeAddsContentLength) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/jobs";
  request.body = "hello";
  const std::string wire = request.serialize();
  EXPECT_NE(wire.find("POST /v1/jobs HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nhello"), std::string::npos);
}

TEST(HttpCodec, RequestParserHandlesSplitDelivery) {
  HttpRequestParser parser;
  const std::string wire =
      "GET /v1/device?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: "
      "4\r\n\r\nbody";
  // Feed byte by byte.
  for (const char c : wire) {
    auto progress = parser.feed(std::string_view(&c, 1));
    ASSERT_TRUE(progress.ok());
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().path(), "/v1/device");
  EXPECT_EQ(parser.request().query_param("verbose").value(), "1");
  EXPECT_EQ(parser.request().body, "body");
}

TEST(HttpCodec, HeadersAreCaseInsensitive) {
  HttpRequestParser parser;
  ASSERT_TRUE(
      parser.feed("GET / HTTP/1.1\r\ncontent-length: 0\r\nX-A: b\r\n\r\n")
          .ok());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().headers.at("Content-Length"), "0");
  EXPECT_EQ(parser.request().headers.at("x-a"), "b");
}

TEST(HttpCodec, MalformedRequestLineRejected) {
  HttpRequestParser parser;
  auto result = parser.feed("NOT_A_REQUEST\r\n\r\n");
  EXPECT_FALSE(result.ok());
}

TEST(HttpCodec, UnsupportedVersionRejected) {
  HttpRequestParser parser;
  EXPECT_FALSE(parser.feed("GET / HTTP/2\r\n\r\n").ok());
}

TEST(HttpCodec, BadContentLengthRejected) {
  // Content-Length is 1*DIGIT: no sign, exponent or overflow.
  for (const char* bad :
       {"banana", "+5", "-1", "5e0", "99999999999999999999"}) {
    const std::string head =
        std::string("GET / HTTP/1.1\r\nContent-Length: ") + bad + "\r\n\r\n";
    HttpRequestParser parser;
    EXPECT_FALSE(parser.feed(head).ok()) << bad;
  }
}

TEST(HttpCodec, ResponseRoundTrip) {
  HttpResponse response = HttpResponse::json(201, R"({"id":1})");
  HttpResponseParser parser;
  ASSERT_TRUE(parser.feed(response.serialize()).ok());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().status, 201);
  EXPECT_EQ(parser.response().body, R"({"id":1})");
  EXPECT_EQ(parser.response().headers.at("Content-Type"),
            "application/json");
}

TEST(HttpCodec, ParseHeaderBlockErrors) {
  EXPECT_FALSE(parse_header_block("no colon here").ok());
  EXPECT_FALSE(parse_header_block(": empty name").ok());
  auto ok = parse_header_block("A: 1\r\nB: two\r\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().at("A"), "1");
}

TEST(Router, ExactAndParamMatching) {
  Router router;
  router.add("GET", "/v1/jobs/:id", [](const HttpRequest&,
                                       const PathParams& params) {
    return HttpResponse::json(200, params.at("id"));
  });
  router.add("GET", "/v1/jobs", [](const HttpRequest&, const PathParams&) {
    return HttpResponse::json(200, "list");
  });
  HttpRequest request;
  request.method = "GET";
  request.target = "/v1/jobs/42";
  EXPECT_EQ(router.dispatch(request).body, "42");
  request.target = "/v1/jobs";
  EXPECT_EQ(router.dispatch(request).body, "list");
}

TEST(Router, NotFoundAndMethodNotAllowed) {
  Router router;
  router.add("GET", "/thing", [](const HttpRequest&, const PathParams&) {
    return HttpResponse::json(200, "ok");
  });
  HttpRequest request;
  request.method = "GET";
  request.target = "/other";
  EXPECT_EQ(router.dispatch(request).status, 404);
  request.method = "POST";
  request.target = "/thing";
  EXPECT_EQ(router.dispatch(request).status, 405);
}

TEST(Router, MultipleParams) {
  Router router;
  router.add("GET", "/a/:x/b/:y",
             [](const HttpRequest&, const PathParams& params) {
               return HttpResponse::json(200,
                                         params.at("x") + "-" + params.at("y"));
             });
  HttpRequest request;
  request.method = "GET";
  request.target = "/a/1/b/2";
  EXPECT_EQ(router.dispatch(request).body, "1-2");
}

}  // namespace
}  // namespace qcenv::net

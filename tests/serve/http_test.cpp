// serve HTTP transport: the incremental RequestParser is exercised
// without any socket (every protocol edge maps to its precise status),
// then HttpServer + HttpClient prove the loopback round trip, keep-alive
// reuse, pipelining and the drain-style shutdown contract.
#include "serve/http.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"

namespace art9::serve {
namespace {

// --- parser, socket-free -----------------------------------------------------

TEST(RequestParser, ParsesASimplePostWithBody) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("POST /v1/images?format=rv32 HTTP/1.1\r\n"
                        "Host: localhost\r\n"
                        "Content-Type: text/plain\r\n"
                        "Content-Length: 5\r\n"
                        "\r\n"
                        "hello"),
            ParseStatus::kDone);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/images?format=rv32");
  EXPECT_EQ(request.path(), "/v1/images");
  EXPECT_EQ(request.query("format"), "rv32");
  EXPECT_EQ(request.query("absent"), "");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.header("content-type"), "text/plain");  // case-insensitive
  EXPECT_EQ(request.body, "hello");
  EXPECT_TRUE(request.keep_alive);  // 1.1 default
}

TEST(RequestParser, TruncatedHeadersStayIncompleteUntilCompleted) {
  // Byte-at-a-time delivery: the parser must never commit early.
  const std::string wire =
      "GET /v1/metrics HTTP/1.1\r\nHost: a\r\n\r\n";
  RequestParser parser;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.feed(wire.substr(i, 1)), ParseStatus::kIncomplete) << "byte " << i;
  }
  EXPECT_EQ(parser.feed(wire.substr(wire.size() - 1)), ParseStatus::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(RequestParser, MalformedRequestLineIs400) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("NOT-A-REQUEST-LINE\r\n\r\n"), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParser, MalformedHeaderIs400) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParser, BadContentLengthIs400) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParser, WrongVersionIs505) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("GET / HTTP/2.0\r\n\r\n"), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(RequestParser, ChunkedTransferIs501) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(RequestParser, OversizedBodyIs413BeforeTheBodyArrives) {
  RequestParser parser(ParserLimits{16 * 1024, 64});
  // Rejected from the declared length alone — no need to send the bytes.
  EXPECT_EQ(parser.feed("POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n"), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(RequestParser, OversizedHeadersAre431) {
  RequestParser parser(ParserLimits{128, 1024});
  std::string wire = "GET / HTTP/1.1\r\nX-Padding: ";
  wire += std::string(256, 'x');
  EXPECT_EQ(parser.feed(wire), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParser, KeepAliveResolution) {
  struct Case {
    const char* wire;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},                            // 1.1 default on
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},      // explicit close
      {"GET / HTTP/1.0\r\n\r\n", false},                           // 1.0 default off
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},  // 1.0 opt-in
  };
  for (const Case& c : cases) {
    RequestParser parser;
    ASSERT_EQ(parser.feed(c.wire), ParseStatus::kDone) << c.wire;
    EXPECT_EQ(parser.request().keep_alive, c.keep_alive) << c.wire;
  }
}

TEST(RequestParser, ResetReparsesPipelinedRequests) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\n"
                        "oneGET /b HTTP/1.1\r\n\r\n"),
            ParseStatus::kDone);
  EXPECT_EQ(parser.request().target, "/a");
  EXPECT_EQ(parser.request().body, "one");
  EXPECT_EQ(parser.reset(), ParseStatus::kDone);  // second request already buffered
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.reset(), ParseStatus::kIncomplete);
}

TEST(HttpResponseSerialization, CarriesStatusTypeLengthAndConnection) {
  const std::string wire =
      serialize_response(HttpResponse{404, "application/json", "{\"error\": \"x\"}\n", true});
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 15\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 15), "{\"error\": \"x\"}\n");
}

// --- loopback server + client ------------------------------------------------

TEST(HttpServer, EchoRoundTripKeepAliveAndCounters) {
  HttpServer server(HttpServer::Options{}, [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.method + " " + std::string(request.path()) + " " + request.body;
    return response;
  });
  server.start();
  ASSERT_NE(server.port(), 0);

  HttpClient client("127.0.0.1", server.port());
  const HttpResponse first = client.post("/echo", "payload");
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, "POST /echo payload");
  // Same connection, second request (keep-alive reuse).
  const HttpResponse second = client.get("/again");
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body, "GET /again ");

  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 2u);
  server.stop();
}

TEST(HttpServer, HandlerExceptionBecomesA500) {
  // The message is echoed as a JSON string the reader accepts back,
  // quotes and control characters included.
  static const std::string kMessage = "deliberate \"failure\"\n\x01";
  HttpServer server(HttpServer::Options{}, [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error(kMessage);
  });
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const HttpResponse response = client.get("/boom");
  EXPECT_EQ(response.status, 500);
  EXPECT_EQ(json::parse_json(response.body).get_string("message", ""), kMessage) << response.body;
  server.stop();
}

TEST(HttpServer, ProtocolErrorsAnsweredWithTheParserStatus) {
  HttpServer server(HttpServer::Options{},
                    [](const HttpRequest&) { return HttpResponse{}; });
  server.start();
  // Raw garbage on the wire: the connection must answer with the parser's
  // status line and close (it cannot resynchronize after a framing error).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string garbage = "GET / HTTP/2.0\"\r\n\r\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  std::string reply;
  char buf[512];
  for (ssize_t n = 0; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;) {
    reply.append(buf, static_cast<std::size_t>(n));  // until the server closes
  }
  ::close(fd);
  EXPECT_EQ(reply.rfind("HTTP/1.1 505 ", 0), 0u) << reply;
  EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos) << reply;
  // The echoed version, quote and all, stays inside a valid JSON string.
  const std::size_t body = reply.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos) << reply;
  EXPECT_EQ(json::parse_json(reply.substr(body + 4)).get_string("message", ""),
            "unsupported HTTP version 'HTTP/2.0\"'")
      << reply;
  server.stop();
}

TEST(HttpServer, StopDrainsAndJoins) {
  std::atomic<int> served{0};
  auto server = std::make_unique<HttpServer>(HttpServer::Options{}, [&](const HttpRequest&) {
    ++served;
    return HttpResponse{};
  });
  server->start();
  const uint16_t port = server->port();
  {
    HttpClient client("127.0.0.1", port);
    EXPECT_EQ(client.get("/").status, 200);
  }
  server->request_stop();
  server->wait();          // joins accept loop + connections
  server.reset();          // destructor after an explicit drain: no-op
  EXPECT_EQ(served.load(), 1);
}

TEST(HttpServer, ManyConcurrentClients) {
  HttpServer server(HttpServer::Options{}, [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  server.start();
  constexpr int kClients = 8;
  constexpr int kRequests = 16;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server.port());
      for (int r = 0; r < kRequests; ++r) {
        std::string body = "c";
        body += std::to_string(c);
        body += 'r';
        body += std::to_string(r);
        const HttpResponse response = client.post("/echo", body);
        if (response.status == 200 && response.body == body) ++ok;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kClients * kRequests));
  server.stop();
}

}  // namespace
}  // namespace art9::serve

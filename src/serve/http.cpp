#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/json.hpp"

namespace art9::serve {

namespace {

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// send(2) the whole buffer; false on a broken connection.  MSG_NOSIGNAL
/// turns a peer reset into an error return instead of SIGPIPE.
bool send_all(int fd, std::string_view data) noexcept {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// --- HttpRequest -------------------------------------------------------------

std::string_view HttpRequest::header(std::string_view name) const noexcept {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return value;
  }
  return {};
}

std::string_view HttpRequest::path() const noexcept {
  const std::string_view t = target;
  const std::size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

std::string_view HttpRequest::query(std::string_view key) const noexcept {
  const std::string_view t = target;
  const std::size_t q = t.find('?');
  if (q == std::string_view::npos) return {};
  std::string_view rest = t.substr(q + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) return pair.substr(eq + 1);
    if (eq == std::string_view::npos && pair == key) return {};
    if (amp == std::string_view::npos) break;
    rest.remove_prefix(amp + 1);
  }
  return {};
}

// --- RequestParser -----------------------------------------------------------

ParseStatus RequestParser::fail(int status, std::string message) {
  status_ = ParseStatus::kError;
  error_status_ = status;
  error_ = std::move(message);
  return status_;
}

ParseStatus RequestParser::feed(std::string_view data) {
  buffer_.append(data);
  if (status_ != ParseStatus::kIncomplete) return status_;  // buffer for the next reset()
  return advance();
}

ParseStatus RequestParser::reset() {
  // Drop the finished request's bytes; a failed parse poisons the whole
  // connection (framing is lost), so reset after kError starts empty.
  if (status_ == ParseStatus::kError) {
    buffer_.clear();
    consumed_ = 0;
  } else {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  request_ = HttpRequest{};
  headers_done_ = false;
  body_start_ = 0;
  content_length_ = 0;
  status_ = ParseStatus::kIncomplete;
  error_status_ = 400;
  error_.clear();
  return advance();
}

ParseStatus RequestParser::advance() {
  if (!headers_done_) {
    const std::size_t end = buffer_.find("\r\n\r\n");
    const std::size_t header_bytes = end == std::string::npos ? buffer_.size() : end + 4;
    if (header_bytes > limits_.max_header_bytes) {
      return fail(431, "request headers exceed " + std::to_string(limits_.max_header_bytes) +
                           " bytes");
    }
    if (end == std::string::npos) return status_;  // truncated: wait for more

    // Request line.
    std::string_view head(buffer_.data(), end);
    const std::size_t line_end = head.find("\r\n");
    std::string_view line = head.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                          : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        line.find(' ', sp2 + 1) != std::string_view::npos) {
      return fail(400, "malformed request line");
    }
    request_.method = std::string(line.substr(0, sp1));
    request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(line.substr(sp2 + 1));
    if (request_.method.empty() || request_.target.empty() || request_.target[0] != '/') {
      return fail(400, "malformed request line");
    }
    for (char c : request_.method) {
      if (!std::isupper(static_cast<unsigned char>(c))) return fail(400, "malformed method");
    }
    if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
      return fail(505, "unsupported HTTP version '" + request_.version + "'");
    }

    // Header fields.
    std::string_view rest = line_end == std::string_view::npos ? std::string_view{}
                                                               : head.substr(line_end + 2);
    while (!rest.empty()) {
      const std::size_t eol = rest.find("\r\n");
      const std::string_view field = rest.substr(0, eol);
      rest = eol == std::string_view::npos ? std::string_view{} : rest.substr(eol + 2);
      const std::size_t colon = field.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return fail(400, "malformed header field");
      }
      std::string_view value = field.substr(colon + 1);
      while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
        value.remove_prefix(1);
      }
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
        value.remove_suffix(1);
      }
      request_.headers.emplace_back(std::string(field.substr(0, colon)), std::string(value));
    }

    // Framing: Content-Length only; any transfer coding is out of scope.
    if (!request_.header("Transfer-Encoding").empty()) {
      return fail(501, "transfer codings are not supported");
    }
    const std::string_view length = request_.header("Content-Length");
    content_length_ = 0;
    if (!length.empty()) {
      uint64_t parsed = 0;
      for (char c : length) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          return fail(400, "malformed Content-Length");
        }
        parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
        if (parsed > (1ull << 40)) return fail(400, "malformed Content-Length");
      }
      content_length_ = static_cast<std::size_t>(parsed);
    }
    if (content_length_ > limits_.max_body_bytes) {
      return fail(413, "request body of " + std::to_string(content_length_) +
                           " bytes exceeds the " + std::to_string(limits_.max_body_bytes) +
                           "-byte budget");
    }

    // Keep-alive: 1.1 defaults on, 1.0 defaults off, Connection decides.
    const std::string_view connection = request_.header("Connection");
    if (request_.version == "HTTP/1.1") {
      request_.keep_alive = !iequals(connection, "close");
    } else {
      request_.keep_alive = iequals(connection, "keep-alive");
    }

    headers_done_ = true;
    body_start_ = end + 4;
  }

  if (buffer_.size() - body_start_ < content_length_) return status_;  // body still arriving

  request_.body = buffer_.substr(body_start_, content_length_);
  consumed_ = body_start_ + content_length_;
  status_ = ParseStatus::kDone;
  return status_;
}

// --- responses ---------------------------------------------------------------

std::string_view status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
  }
  return "Unknown";
}

std::string serialize_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += status_text(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += response.close ? "close" : "keep-alive";
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

// --- HttpServer --------------------------------------------------------------

HttpServer::HttpServer(Options options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    throw std::runtime_error("serve: invalid bind address '" + options_.bind + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close_fd(listen_fd_);
    throw std::runtime_error("serve: cannot bind " + options_.bind + ":" +
                             std::to_string(options_.port) + " (" + std::strerror(err) + ")");
  }
  if (::listen(listen_fd_, 64) != 0) {
    close_fd(listen_fd_);
    throw std::runtime_error("serve: listen() failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

void HttpServer::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  // shutdown(2) is async-signal-safe; it unblocks accept(2) so the
  // accept loop notices the flag without this thread taking any lock.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void HttpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stop_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      break;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener gone
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options_.read_timeout_seconds > 0) {
      timeval tv{};
      tv.tv_sec = options_.read_timeout_seconds;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
    connections_accepted_.fetch_add(1, std::memory_order_acq_rel);

    std::lock_guard<std::mutex> lock(mutex_);
    reap_finished_locked();
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Transport-level admission: answer 503 synchronously and close.
      int reject_fd = fd;
      send_all(reject_fd, serialize_response(HttpResponse{
                              503, "application/json",
                              "{\"error\": \"too_many_connections\"}", true}));
      close_fd(reject_fd);
      continue;
    }
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { serve_connection(*raw); });
    connections_.push_back(std::move(connection));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accept_done_ = true;
  }
  stopped_cv_.notify_all();
}

void HttpServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      close_fd((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpServer::serve_connection(Connection& connection) {
  RequestParser parser(options_.limits);
  char buf[8192];
  bool open = true;
  while (open) {
    // Serve every already-buffered (pipelined) request before reading.
    while (open && parser.status() == ParseStatus::kDone) {
      HttpResponse response;
      try {
        response = handler_(parser.request());
      } catch (const std::exception& e) {
        response = HttpResponse{500, "application/json",
                                "{\"error\": \"internal\", \"message\": " +
                                    json::quote(e.what()) + "}",
                                true};
      }
      const bool keep = parser.request().keep_alive && !response.close &&
                        !stop_.load(std::memory_order_acquire);
      response.close = !keep;
      requests_served_.fetch_add(1, std::memory_order_acq_rel);
      if (!send_all(connection.fd, serialize_response(response)) || !keep) {
        open = false;
        break;
      }
      parser.reset();
    }
    if (!open) break;
    if (parser.status() == ParseStatus::kError) {
      const HttpResponse response{parser.error_status(), "application/json",
                                  "{\"error\": \"bad_request\", \"message\": " +
                                      json::quote(parser.error()) + "}",
                                  true};
      send_all(connection.fd, serialize_response(response));
      break;
    }
    const ssize_t n = ::recv(connection.fd, buf, sizeof buf, 0);
    if (n == 0) break;  // peer closed (or read side shut down for drain)
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // timeout / reset
    }
    parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  // shutdown(2) sends the FIN the peer is owed on a `Connection: close`
  // response, but the fd is NOT closed here: wait() may be concurrently
  // reading it to shutdown(2) idle peers, and a close racing that could
  // hand the drain a recycled descriptor.  The reaper/drainer closes it
  // after join(), which orders the close after every use on this thread.
  ::shutdown(connection.fd, SHUT_RDWR);
  connection.done.store(true, std::memory_order_release);
  stopped_cv_.notify_all();
}

void HttpServer::wait() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;  // never started
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopped_cv_.wait(lock, [this] { return accept_done_; });
    if (drained_) return;
    drained_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain: unblock reads (idle keep-alive connections) but leave the
  // write side up so an in-flight response still goes out, then join.
  std::list<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RD);
  }
  for (auto& connection : connections) {
    connection->thread.join();
    close_fd(connection->fd);
  }
  close_fd(listen_fd_);
}

void HttpServer::stop() {
  request_stop();
  wait();
}

// --- HttpClient --------------------------------------------------------------

HttpClient::HttpClient(std::string host, uint16_t port)
    : host_(std::move(host)), port_(port) {
  connect();
}

HttpClient::~HttpClient() { close(); }

void HttpClient::close() noexcept { close_fd(fd_); }

void HttpClient::connect() {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("http client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("http client: invalid address '" + host_ + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close();
    throw std::runtime_error("http client: cannot connect to " + host_ + ":" +
                             std::to_string(port_) + " (" + std::strerror(err) + ")");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool HttpClient::try_roundtrip(const std::string& wire, HttpResponse& out) {
  if (fd_ < 0) return false;
  if (!send_all(fd_, wire)) return false;

  // Parse the response: status line + headers, then Content-Length bytes.
  std::string data;
  std::size_t header_end = std::string::npos;
  char buf[8192];
  while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) return false;
    data.append(buf, static_cast<std::size_t>(n));
    if (data.size() > (1u << 20)) throw std::runtime_error("http client: response headers too large");
  }
  const std::string_view head(data.data(), header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
    throw std::runtime_error("http client: malformed status line");
  }
  out.status = std::atoi(std::string(status_line.substr(9, 3)).c_str());

  std::size_t content_length = 0;
  bool server_close = false;
  std::string_view rest = head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view field = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{} : rest.substr(eol + 2);
    const std::size_t colon = field.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view name = field.substr(0, colon);
    std::string_view value = field.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (iequals(name, "Content-Length")) {
      content_length = static_cast<std::size_t>(std::atoll(std::string(value).c_str()));
    } else if (iequals(name, "Content-Type")) {
      out.content_type = std::string(value);
    } else if (iequals(name, "Connection") && iequals(value, "close")) {
      server_close = true;
    }
  }

  const std::size_t body_start = header_end + 4;
  while (data.size() - body_start < content_length) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) return false;
    data.append(buf, static_cast<std::size_t>(n));
  }
  out.body = data.substr(body_start, content_length);
  out.close = server_close;
  if (server_close) close();
  return true;
}

HttpResponse HttpClient::request(const std::string& method, const std::string& target,
                                 const std::string& body, const std::string& content_type) {
  std::string wire = method + " " + target + " HTTP/1.1\r\nHost: " + host_ + ":" +
                     std::to_string(port_) + "\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    wire += "Content-Type: " + content_type + "\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += body;

  HttpResponse response;
  if (try_roundtrip(wire, response)) return response;
  // The server may have reaped an idle keep-alive connection between
  // requests: reconnect once and retry.
  connect();
  if (try_roundtrip(wire, response)) return response;
  throw std::runtime_error("http client: connection lost mid-request");
}

}  // namespace art9::serve

#ifndef STHSL_SERVE_HTTP_H_
#define STHSL_SERVE_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/trace.h"
#include "util/status.h"

namespace sthsl::serve {

/// One parsed HTTP/1.1 request. Header names are lower-cased.
struct HttpRequest {
  std::string method;
  std::string target;  // path, query string included verbatim
  std::string version;
  std::map<std::string, std::string> headers;
  std::string body;
  /// Wall time spent in the (successful) ParseHttpRequest call, filled by
  /// the server before the handler runs; feeds the header_parse stage.
  double header_parse_us = 0.0;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (name, value), e.g. the echoed `traceparent`.
  std::vector<std::pair<std::string, std::string>> headers;

  // Request-scoped annotations filled by handlers, consumed by the access
  // log — never serialized onto the wire. `trace` with an empty trace_id
  // means the handler did not attach a context and the server synthesizes
  // one. batch_size < 0 means "not a predict request" (detail omitted).
  RequestContext trace;
  bool cache_hit = false;
  int64_t batch_size = -1;
};

/// Outcome of one incremental parse attempt over a receive buffer.
enum class HttpParse {
  kNeedMore,         // incomplete; read more bytes and retry
  kOk,               // one full request parsed; `consumed` bytes used
  kBadRequest,       // malformed request line / headers → 400, close
  kPayloadTooLarge,  // Content-Length above the limit → 413, close
};

/// Parses one request from the front of `buffer`. On kOk, `*out` holds the
/// request and `*consumed` the bytes to drop from the buffer (pipelined
/// requests keep their bytes). Limits: 64 KiB of headers, `max_body_bytes`
/// of body; chunked transfer encoding is not supported (kBadRequest).
HttpParse ParseHttpRequest(const std::string& buffer, size_t max_body_bytes,
                           HttpRequest* out, size_t* consumed);

/// Serializes `response` with Content-Length and Connection headers.
std::string RenderHttpResponse(const HttpResponse& response, bool keep_alive);

/// `{"error":<message>}`, the body of every error response.
std::string ErrorBody(const std::string& message);

/// Reason phrase for the handful of status codes the server emits.
const char* HttpStatusReason(int status);

/// Minimal HTTP/1.1 server over POSIX sockets: blocking accept loop on its
/// own thread, one thread per connection with keep-alive, exact-match
/// routing, graceful drain. Zero dependencies beyond the C library.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer();
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact (method, path) matches. Must be called
  /// before Start.
  void Route(const std::string& method, const std::string& path,
             Handler handler);

  /// Largest accepted request body; beyond it the server answers 413.
  void set_max_body_bytes(size_t bytes) { max_body_bytes_ = bytes; }

  /// Binds `host:port` (port 0 picks an ephemeral port, see port()) and
  /// starts accepting connections.
  Status Start(const std::string& host, int port);

  /// The bound port (after Start).
  int port() const { return port_; }

  /// Requests served so far (completed responses).
  int64_t requests_served() const { return requests_served_.load(); }

  /// Graceful drain: stops accepting, lets in-flight requests finish,
  /// closes idle keep-alive connections, joins every thread. Idempotent.
  void Drain();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  std::map<std::string, Handler> routes_;  // "METHOD path" → handler
  size_t max_body_bytes_ = 8 * 1024 * 1024;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> requests_served_{0};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_HTTP_H_

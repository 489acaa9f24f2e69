#ifndef STHSL_SERVE_HTTP_H_
#define STHSL_SERVE_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
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

/// One response as HttpClient reads it. Header names are lower-cased.
struct HttpReply {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
  /// True when the request carried a well-formed `traceparent` and the
  /// response echoed its trace id in a well-formed `traceparent` of its own.
  bool trace_echoed = false;

  /// The value of header `name` (lower-case), or "" when absent.
  std::string Header(const std::string& name) const;
};

/// Parses one response from the front of `buffer`: the client-side mirror
/// of ParseHttpRequest, with the same header-field grammar. The body is
/// framed by Content-Length alone, so a response without one, with a
/// repeated or non-numeric one, with Transfer-Encoding or with a malformed
/// status line is kBadRequest. On kOk, `*consumed` counts the bytes used;
/// pipelined responses keep theirs.
HttpParse ParseHttpResponse(const std::string& buffer, HttpReply* out,
                            size_t* consumed);

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

  /// One connection's thread and whether HandleConnection has returned.
  /// List nodes never move, so the thread can set `done` through a pointer.
  struct ConnThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conn_mu_;
  std::list<ConnThread> conn_threads_;
};

/// Blocking HTTP/1.1 client over one keep-alive connection to `host:port`,
/// the counterpart of HttpServer (used by the serving tests and
/// sthsl_loadgen). Connecting, and every send and receive, gives up after
/// kTimeoutMs, so a stalled or absent server is an error rather than a
/// hang; sends never raise SIGPIPE. Not thread-safe: one client per thread.
class HttpClient {
 public:
  static constexpr int kTimeoutMs = 5000;

  HttpClient(std::string host, int port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Opens a fresh connection, closing any open one.
  Status Connect();
  void Close();

  /// Sends `method target` with `headers` and `body` (as application/json
  /// when not empty), connecting first when no connection is open, and
  /// reads the response. A request without a `traceparent` header gets one
  /// minted by MakeRequestContext; HttpReply::trace_echoed says whether the
  /// server echoed its trace id. The connection stays open for the next
  /// request unless the response says `Connection: close`; any error
  /// closes it.
  Result<HttpReply> Request(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::vector<std::pair<std::string, std::string>>& headers = {});

  /// Writes `bytes` as they are (e.g. half a request), connecting first
  /// when no connection is open.
  Status SendRaw(const std::string& bytes);

  /// Reads the next response on the connection.
  Result<HttpReply> ReadResponse();

 private:
  Status Fail(const std::string& what, const std::string& error);

  std::string host_;
  int port_;
  int fd_ = -1;
  std::string buffer_;  // received bytes not yet parsed into a response
};

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_HTTP_H_

// sthsl_loadgen — closed-loop load generator for sthsl_serve.
//
//   sthsl_loadgen --bundle DIR [--host 127.0.0.1] [--port 8080]
//                 [--connections 4] [--seconds 5] [--distinct-windows 16]
//                 [--min-qps 0] [--out BENCH_serve.json]
//
// Reads the bundle manifest to learn the window shape, waits for /healthz,
// then runs N closed-loop worker threads. Each worker holds one keep-alive
// connection and POSTs /v1/predict back-to-back, cycling through a small
// pool of distinct deterministic windows so the run exercises both the
// cache-miss (first pass) and cache-hit (subsequent passes) paths.
//
// Every request carries a unique W3C traceparent header; the server must
// echo the same trace id back (with a fresh span id) or the request counts
// as an error. After the run the tool scrapes GET /metrics (JSON) and
// prints the server-reported per-stage latency histograms next to the
// client-measured round-trip latency, so queue/batch/inference time can be
// separated from network and parse overhead without extra tooling.
//
// On completion it prints QPS and latency percentiles, writes them as JSON
// to --out (client numbers plus the scraped server stats under "server"),
// and exits non-zero if any request failed or QPS fell below --min-qps —
// which is what the CI smoke job gates on.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/bundle.h"
#include "util/json_mini.h"

namespace {

struct Options {
  std::string bundle_dir;
  std::string host = "127.0.0.1";
  int port = 8080;
  int connections = 4;
  double seconds = 5.0;
  int distinct_windows = 16;
  double min_qps = 0.0;
  std::string out = "BENCH_serve.json";
};

int Usage() {
  std::fprintf(stderr,
               "usage: sthsl_loadgen --bundle DIR [--host ADDR] [--port N]\n"
               "                     [--connections N] [--seconds S]\n"
               "                     [--distinct-windows N] [--min-qps Q]\n"
               "                     [--out FILE]\n");
  return 2;
}

// One blocking client connection. Minimal on purpose: the only server it
// must talk to is sthsl_serve, which always answers with Content-Length.
class Connection {
 public:
  ~Connection() { Close(); }

  bool Open(const std::string& host, int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool connected() const { return fd_ >= 0; }

  // Writes one buffer fully; workers send the per-request header block and
  // the pre-rendered body as two buffers to avoid copying the body just to
  // splice in a fresh traceparent header.
  bool SendAll(const std::string& data) {
    if (fd_ < 0) return false;
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one response; fills `status` and `body`, and when `head` is
  // non-null the raw header block (for traceparent echo checks).
  bool ReadResponse(int* status, std::string* body, std::string* head_out) {
    // Read until the header block is complete, then until Content-Length
    // bytes of body have arrived. Leftover bytes stay in buffer_ for the
    // next response on this keep-alive connection.
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = buffer_.substr(0, header_end);
    if (head_out != nullptr) *head_out = head;
    if (std::sscanf(head.c_str(), "HTTP/1.1 %d", status) != 1) return false;
    size_t content_length = 0;
    std::string lower(head);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const size_t cl = lower.find("content-length:");
    if (cl != std::string::npos) {
      content_length = std::strtoul(head.c_str() + cl + 15, nullptr, 10);
    }
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + content_length) {
      if (!Fill()) return false;
    }
    *body = buffer_.substr(body_start, content_length);
    buffer_.erase(0, body_start + content_length);
    return true;
  }

  // Sends one request and reads one response; fills `status` and `body`.
  bool RoundTrip(const std::string& request, int* status, std::string* body) {
    return SendAll(request) && ReadResponse(status, body, nullptr);
  }

 private:
  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// Deterministic non-negative "crime counts" so re-runs hit the same cache
// keys; index k yields a window distinct from every other k.
std::string RenderPredictBody(const std::vector<int64_t>& shape, int k) {
  int64_t numel = 1;
  for (int64_t extent : shape) numel *= extent;
  sthsl::json::JsonWriter json;
  json.BeginObject().Key("window").BeginArray();
  uint32_t state = 2654435761u * static_cast<uint32_t>(k + 1);
  for (int64_t i = 0; i < numel; ++i) {
    state = state * 1664525u + 1013904223u;
    json.Int(state % 7);
  }
  json.EndArray().EndObject();
  return std::move(json).str();
}

std::string RenderRequest(const std::string& host, const std::string& target,
                          const std::string& body) {
  std::string request = body.empty() ? "GET " : "POST ";
  request += target + " HTTP/1.1\r\nHost: " + host + "\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "Connection: keep-alive\r\n\r\n" + body;
  return request;
}

// Header block for a predict POST, left open so the worker can append its
// per-request traceparent line plus the terminating blank line, then send
// the (shared, pre-rendered) body as a second buffer.
std::string RenderPredictHead(const std::string& host, size_t body_size) {
  return "POST /v1/predict HTTP/1.1\r\nHost: " + host +
         "\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body_size) + "\r\nConnection: keep-alive\r\n";
}

// Per-worker deterministic trace-id source (splitmix64). Distinct workers
// seed from their index so ids never collide within a run.
struct TraceIdSource {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return z != 0 ? z : 1;
  }
  std::string HexId(int hex_digits) {
    static const char* kDigits = "0123456789abcdef";
    std::string id(static_cast<size_t>(hex_digits), '0');
    for (int filled = 0; filled < hex_digits; filled += 16) {
      uint64_t value = Next();
      for (int i = 0; i < 16 && filled + i < hex_digits; ++i) {
        id[static_cast<size_t>(filled + i)] =
            kDigits[(value >> (60 - 4 * i)) & 0xF];
      }
    }
    return id;
  }
};

// Case-insensitive single-header lookup in a raw response header block.
std::string HeaderValue(const std::string& head, const std::string& name) {
  std::string lower(head);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const std::string needle = "\r\n" + name + ":";
  const size_t at = lower.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  while (begin < head.size() && head[begin] == ' ') ++begin;
  size_t end = head.find("\r\n", begin);
  if (end == std::string::npos) end = head.size();
  return head.substr(begin, end - begin);
}

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  // Nearest-rank, matching obs::MetricsRegistry histogram percentiles.
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(p / 100.0 * sorted_us.size())));
  return sorted_us[std::min(rank, sorted_us.size()) - 1];
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--bundle") opts.bundle_dir = value;
    else if (arg == "--host") opts.host = value;
    else if (arg == "--port") opts.port = std::atoi(value.c_str());
    else if (arg == "--connections") opts.connections = std::atoi(value.c_str());
    else if (arg == "--seconds") opts.seconds = std::atof(value.c_str());
    else if (arg == "--distinct-windows")
      opts.distinct_windows = std::atoi(value.c_str());
    else if (arg == "--min-qps") opts.min_qps = std::atof(value.c_str());
    else if (arg == "--out") opts.out = value;
    else return Usage();
  }
  if (opts.bundle_dir.empty() || opts.connections < 1 ||
      opts.distinct_windows < 1 || opts.seconds <= 0 || argc % 2 == 0) {
    return Usage();
  }

  auto manifest_or = sthsl::serve::ReadManifest(opts.bundle_dir);
  if (!manifest_or.ok()) {
    std::fprintf(stderr, "cannot read bundle manifest: %s\n",
                 manifest_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<int64_t> shape = manifest_or.value().WindowShape();

  // Wait for the server to come up: /healthz must answer 200 within ~10s.
  {
    bool healthy = false;
    const std::string probe = RenderRequest(opts.host, "/healthz", "");
    for (int attempt = 0; attempt < 100 && !healthy; ++attempt) {
      Connection probe_conn;
      int status = 0;
      std::string body;
      if (probe_conn.Open(opts.host, opts.port) &&
          probe_conn.RoundTrip(probe, &status, &body) && status == 200) {
        healthy = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!healthy) {
      std::fprintf(stderr, "server %s:%d did not become healthy within 10s\n",
                   opts.host.c_str(), opts.port);
      return 1;
    }
  }

  // Pre-render one body (and its open-ended header block) per distinct
  // window; workers cycle the bodies and append a fresh traceparent line
  // per request.
  std::vector<std::string> bodies;
  std::vector<std::string> heads;
  bodies.reserve(opts.distinct_windows);
  heads.reserve(opts.distinct_windows);
  for (int k = 0; k < opts.distinct_windows; ++k) {
    bodies.push_back(RenderPredictBody(shape, k));
    heads.push_back(RenderPredictHead(opts.host, bodies.back().size()));
  }

  std::atomic<uint64_t> total_requests{0};
  std::atomic<uint64_t> total_errors{0};
  std::atomic<uint64_t> trace_mismatches{0};
  std::atomic<uint64_t> cache_hits{0};
  std::vector<std::vector<double>> per_thread_latencies(opts.connections);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opts.seconds);
  const auto bench_start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  for (int w = 0; w < opts.connections; ++w) {
    workers.emplace_back([&, w] {
      Connection conn;
      if (!conn.Open(opts.host, opts.port)) {
        total_errors.fetch_add(1);
        return;
      }
      std::vector<double>& latencies = per_thread_latencies[w];
      TraceIdSource ids{0x5354u + static_cast<uint64_t>(w) * 0x100000001b3ULL};
      // Offset each worker's cycle so they don't all hammer window 0 at once.
      size_t next = static_cast<size_t>(w) % bodies.size();
      while (std::chrono::steady_clock::now() < deadline) {
        const std::string trace_id = ids.HexId(32);
        const std::string header_block = heads[next] + "traceparent: 00-" +
                                         trace_id + "-" + ids.HexId(16) +
                                         "-01\r\n\r\n";
        const auto start = std::chrono::steady_clock::now();
        int status = 0;
        std::string body;
        std::string response_head;
        if (!conn.SendAll(header_block) || !conn.SendAll(bodies[next]) ||
            !conn.ReadResponse(&status, &body, &response_head) ||
            status != 200) {
          total_errors.fetch_add(1);
          if (!conn.connected() || !conn.Open(opts.host, opts.port)) return;
          continue;
        }
        const auto end = std::chrono::steady_clock::now();
        // The server must echo our trace id (with its own span id); a
        // mismatch means request-scoped tracing is broken and the run fails.
        const std::string echoed = HeaderValue(response_head, "traceparent");
        if (echoed.size() != 55 || echoed.substr(3, 32) != trace_id) {
          trace_mismatches.fetch_add(1);
        }
        latencies.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
        total_requests.fetch_add(1);
        sthsl::json::JsonValue reply;
        if (sthsl::json::JsonParser(body).Parse(&reply, nullptr)) {
          const sthsl::json::JsonValue* hit = reply.FindOfKind(
              "cache_hit", sthsl::json::JsonValue::Kind::kBool);
          if (hit != nullptr && hit->boolean) cache_hits.fetch_add(1);
        }
        next = (next + 1) % bodies.size();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  std::vector<double> latencies;
  for (const auto& chunk : per_thread_latencies) {
    latencies.insert(latencies.end(), chunk.begin(), chunk.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const uint64_t ok = total_requests.load();
  const uint64_t errors = total_errors.load();
  const double qps = elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0;
  const double p50 = Percentile(latencies, 50.0);
  const double p95 = Percentile(latencies, 95.0);
  const double p99 = Percentile(latencies, 99.0);
  const double mean =
      latencies.empty()
          ? 0.0
          : std::accumulate(latencies.begin(), latencies.end(), 0.0) /
                static_cast<double>(latencies.size());

  const uint64_t mismatches = trace_mismatches.load();
  std::printf(
      "sthsl_loadgen: %llu ok, %llu errors, %llu trace mismatches in %.2fs "
      "over %d connections\n"
      "  qps %.1f | client latency µs mean %.0f p50 %.0f p95 %.0f p99 %.0f | "
      "cache hits %llu\n",
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(mismatches), elapsed, opts.connections,
      qps, mean, p50, p95, p99,
      static_cast<unsigned long long>(cache_hits.load()));

  // Scrape the server's own view: GET /metrics (JSON) and pull out the
  // serve/latency_us and serve/stage/* histograms. The gap between the
  // client round-trip and the server total is network + HTTP overhead;
  // the stage rows split the server total further.
  std::vector<std::pair<std::string, sthsl::json::JsonValue>> server_stats;
  {
    Connection scrape;
    int status = 0;
    std::string metrics_body;
    if (scrape.Open(opts.host, opts.port) &&
        scrape.RoundTrip(RenderRequest(opts.host, "/metrics", ""), &status,
                         &metrics_body) &&
        status == 200) {
      sthsl::json::JsonValue metrics;
      std::string error;
      sthsl::json::JsonParser parser(metrics_body);
      if (parser.Parse(&metrics, &error)) {
        const sthsl::json::JsonValue* histograms = metrics.FindOfKind(
            "histograms", sthsl::json::JsonValue::Kind::kObject);
        if (histograms != nullptr) {
          for (const auto& [name, snapshot] : histograms->members) {
            if (name == "serve/latency_us" ||
                name.rfind("serve/stage/", 0) == 0) {
              server_stats.emplace_back(name, snapshot);
            }
          }
        }
      } else {
        std::fprintf(stderr, "warning: /metrics JSON did not parse: %s\n",
                     error.c_str());
      }
    } else {
      std::fprintf(stderr, "warning: could not scrape /metrics after run\n");
    }
  }
  if (!server_stats.empty()) {
    std::printf("  server-reported latency (µs, from /metrics):\n");
    std::printf("    %-28s %8s %8s %8s %8s %8s\n", "histogram", "count",
                "mean", "p50", "p95", "p99");
    std::printf("    %-28s %8llu %8.0f %8.0f %8.0f %8.0f  (client-measured)\n",
                "round_trip", static_cast<unsigned long long>(ok), mean, p50,
                p95, p99);
    for (const auto& [name, snapshot] : server_stats) {
      const auto field = [&snapshot](const char* key) {
        const sthsl::json::JsonValue* value = snapshot.Find(key);
        return value != nullptr ? value->number : 0.0;
      };
      std::printf("    %-28s %8.0f %8.0f %8.0f %8.0f %8.0f\n", name.c_str(),
                  field("count"), field("mean"), field("p50"), field("p95"),
                  field("p99"));
    }
  }

  sthsl::json::JsonWriter json;
  json.BeginObject().Key("benchmark").String("sthsl_serve");
  json.Key("connections").Int(opts.connections).Key("seconds").Number(elapsed);
  json.Key("requests").Int(ok).Key("errors").Int(errors);
  json.Key("trace_mismatches").Int(mismatches);
  json.Key("cache_hits").Int(cache_hits.load()).Key("qps").Number(qps);
  json.Key("latency_us").BeginObject().Key("mean").Number(mean);
  json.Key("p50").Number(p50).Key("p95").Number(p95).Key("p99").Number(p99);
  json.EndObject().Key("server").BeginObject();
  for (const auto& [name, snapshot] : server_stats) {
    json.Key(name).BeginObject();
    for (const char* field : {"count", "mean", "p50", "p95", "p99"}) {
      const sthsl::json::JsonValue* value = snapshot.Find(field);
      json.Key(field).Number(value != nullptr ? value->number : 0.0);
    }
    json.EndObject();
  }
  json.EndObject().EndObject();
  std::ofstream out(opts.out);
  out << json.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
    return 1;
  }

  if (errors > 0) {
    std::fprintf(stderr, "FAIL: %llu request error(s)\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %llu traceparent echo mismatch(es)\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  if (opts.min_qps > 0 && qps < opts.min_qps) {
    std::fprintf(stderr, "FAIL: qps %.1f below gate %.1f\n", qps, opts.min_qps);
    return 1;
  }
  return 0;
}

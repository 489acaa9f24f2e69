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
// which is what the CI smoke job gates on. Requests go through
// serve::HttpClient; client latencies land in one obs::Histogram, so the
// percentiles carry its bounded (~3.1%) relative error and the mean is exact.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/bundle.h"
#include "serve/http.h"
#include "util/flags.h"
#include "util/json_mini.h"
#include "util/obs/metrics.h"

namespace {

struct Options {
  std::string bundle_dir;
  std::string host = "127.0.0.1";
  int64_t port = 8080;
  int64_t connections = 4;
  double seconds = 5.0;
  int64_t distinct_windows = 16;
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

// Stores a parsed flag value into `*out`; false, with the reason on stderr,
// when ParseIntFlag or ParseDoubleFlag refused it.
template <typename T>
bool Store(const sthsl::Result<T>& parsed, T* out) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return false;
  }
  *out = parsed.value();
  return true;
}

// Deterministic non-negative "crime counts" so re-runs hit the same cache
// keys; index k yields a window distinct from every other k.
std::string RenderPredictBody(const std::vector<int64_t>& shape, int64_t k) {
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

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    using sthsl::ParseDoubleFlag;
    using sthsl::ParseIntFlag;
    bool ok = true;
    if (arg == "--bundle") opts.bundle_dir = value;
    else if (arg == "--host") opts.host = value;
    else if (arg == "--port")
      ok = Store(ParseIntFlag(arg, value, 1, 65535), &opts.port);
    else if (arg == "--connections")
      ok = Store(ParseIntFlag(arg, value, 1, 1024), &opts.connections);
    else if (arg == "--seconds")
      ok = Store(ParseDoubleFlag(arg, value, 0.0, 1e6), &opts.seconds);
    else if (arg == "--distinct-windows")
      ok = Store(ParseIntFlag(arg, value, 1, 1 << 20), &opts.distinct_windows);
    else if (arg == "--min-qps")
      ok = Store(ParseDoubleFlag(arg, value, 0.0, 1e9), &opts.min_qps);
    else if (arg == "--out") opts.out = value;
    else return Usage();
    if (!ok) return 2;
  }
  if (opts.bundle_dir.empty() || opts.seconds <= 0 || argc % 2 == 0) {
    return Usage();
  }
  const int port = static_cast<int>(opts.port);

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
    sthsl::serve::HttpClient probe(opts.host, port);
    for (int attempt = 0; attempt < 100 && !healthy; ++attempt) {
      const auto reply = probe.Request("GET", "/healthz");
      healthy = reply.ok() && reply.value().status == 200;
      if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!healthy) {
      std::fprintf(stderr, "server %s:%d did not become healthy within 10s\n",
                   opts.host.c_str(), port);
      return 1;
    }
  }

  // Pre-render one body per distinct window; workers cycle through them.
  std::vector<std::string> bodies;
  for (int64_t k = 0; k < opts.distinct_windows; ++k) {
    bodies.push_back(RenderPredictBody(shape, k));
  }

  std::atomic<uint64_t> total_errors{0};
  std::atomic<uint64_t> trace_mismatches{0};
  std::atomic<uint64_t> cache_hits{0};
  sthsl::obs::Histogram latency_us;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opts.seconds);
  const auto bench_start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  for (int64_t w = 0; w < opts.connections; ++w) {
    workers.emplace_back([&, w] {
      sthsl::serve::HttpClient client(opts.host, port);
      if (!client.Connect().ok()) {
        total_errors.fetch_add(1);
        return;
      }
      // Offset each worker's cycle so they don't all hammer window 0 at once.
      size_t next = static_cast<size_t>(w) % bodies.size();
      while (std::chrono::steady_clock::now() < deadline) {
        const auto start = std::chrono::steady_clock::now();
        const auto reply = client.Request("POST", "/v1/predict", bodies[next]);
        if (!reply.ok() || reply.value().status != 200) {
          total_errors.fetch_add(1);
          if (!client.Connect().ok()) return;
          continue;
        }
        latency_us.Record(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count());
        // The server must echo our trace id (with its own span id); a
        // mismatch means request-scoped tracing is broken and the run fails.
        if (!reply.value().trace_echoed) trace_mismatches.fetch_add(1);
        sthsl::json::JsonValue body;
        if (sthsl::json::JsonParser(reply.value().body).Parse(&body, nullptr)) {
          const sthsl::json::JsonValue* hit = body.FindOfKind(
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

  const sthsl::obs::Histogram::Snapshot latency = latency_us.GetSnapshot();
  const uint64_t ok = static_cast<uint64_t>(latency.count);
  const uint64_t errors = total_errors.load();
  const double qps = elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0;
  const uint64_t mismatches = trace_mismatches.load();
  std::printf(
      "sthsl_loadgen: %llu ok, %llu errors, %llu trace mismatches in %.2fs "
      "over %d connections\n"
      "  qps %.1f | client latency µs mean %.0f p50 %.0f p95 %.0f p99 %.0f | "
      "cache hits %llu\n",
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(mismatches), elapsed,
      static_cast<int>(opts.connections), qps, latency.mean, latency.p50,
      latency.p95, latency.p99,
      static_cast<unsigned long long>(cache_hits.load()));

  // Scrape the server's own view: GET /metrics (JSON) and pull out the
  // serve/latency_us and serve/stage/* histograms. The gap between the
  // client round-trip and the server total is network + HTTP overhead;
  // the stage rows split the server total further.
  std::vector<std::pair<std::string, sthsl::json::JsonValue>> server_stats;
  {
    const auto scrape =
        sthsl::serve::HttpClient(opts.host, port).Request("GET", "/metrics");
    if (scrape.ok() && scrape.value().status == 200) {
      sthsl::json::JsonValue metrics;
      std::string error;
      sthsl::json::JsonParser parser(scrape.value().body);
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
                "round_trip", static_cast<unsigned long long>(ok),
                latency.mean, latency.p50, latency.p95, latency.p99);
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
  json.Key("latency_us").BeginObject().Key("mean").Number(latency.mean);
  json.Key("p50").Number(latency.p50).Key("p95").Number(latency.p95);
  json.Key("p99").Number(latency.p99);
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

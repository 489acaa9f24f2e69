// Tests for the sthsl::serve subsystem: micro-batcher flush rules, LRU
// prediction-cache accounting, HTTP request parsing limits, bundle
// round-trip, and an end-to-end loopback check that served predictions are
// bitwise identical to a direct Forecaster call (cold and cached).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "serve/access_log.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/http.h"
#include "serve/service.h"
#include "serve/trace.h"
#include "util/json_mini.h"
#include "util/obs/metrics.h"

namespace sthsl::serve {
namespace {

Tensor MakeWindow(float fill) { return Tensor::Full({2, 3, 4}, fill); }

MicroBatcher::BatchFn EchoBatch() {
  return [](const std::vector<Tensor>& windows) { return windows; };
}

TEST(MicroBatcherTest, SizeBoundFlushesFullBatch) {
  MicroBatcher::Config config;
  config.max_batch_size = 4;
  config.max_wait_us = 10'000'000;  // effectively never; size must trigger
  config.worker_threads = 1;
  MicroBatcher batcher(config, EchoBatch());

  std::vector<std::future<MicroBatcher::Ticket>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(batcher.Submit(MakeWindow(static_cast<float>(i))));
  }
  for (int i = 0; i < 4; ++i) {
    const MicroBatcher::Ticket ticket = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(ticket.value.Defined());
    EXPECT_EQ(ticket.value.Data()[0], static_cast<float>(i));  // order kept
    EXPECT_EQ(ticket.batch_size, 4);  // all four rode in one batch
    EXPECT_GE(ticket.queue_wait_us, 0.0);
    EXPECT_GE(ticket.inference_us, 0.0);
  }
  const MicroBatcher::Stats stats = batcher.GetStats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.size_flushes, 1);
  EXPECT_EQ(stats.timeout_flushes, 0);
}

TEST(MicroBatcherTest, WaitBoundFlushesLoneRequest) {
  MicroBatcher::Config config;
  config.max_batch_size = 64;  // never reached
  config.max_wait_us = 5000;
  config.worker_threads = 1;
  MicroBatcher batcher(config, EchoBatch());

  const MicroBatcher::Ticket ticket = batcher.Submit(MakeWindow(7.0f)).get();
  ASSERT_TRUE(ticket.value.Defined());
  EXPECT_EQ(ticket.value.Data()[0], 7.0f);
  EXPECT_EQ(ticket.batch_size, 1);
  // The lone request waited out (most of) the flush deadline.
  EXPECT_GT(ticket.queue_wait_us, 0.0);
  const MicroBatcher::Stats stats = batcher.GetStats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.timeout_flushes, 1);
  EXPECT_EQ(stats.size_flushes, 0);
}

TEST(MicroBatcherTest, ShutdownDrainsQueueAndRejectsLateSubmits) {
  MicroBatcher::Config config;
  config.max_batch_size = 64;
  config.max_wait_us = 10'000'000;  // queued work only leaves via the drain
  config.worker_threads = 2;
  MicroBatcher batcher(config, EchoBatch());

  std::vector<std::future<MicroBatcher::Ticket>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(batcher.Submit(MakeWindow(static_cast<float>(i))));
  }
  batcher.Shutdown();
  for (int i = 0; i < 3; ++i) {
    const MicroBatcher::Ticket ticket = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(ticket.value.Defined());  // drained, not dropped
    EXPECT_EQ(ticket.value.Data()[0], static_cast<float>(i));
  }
  const MicroBatcher::Stats stats = batcher.GetStats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_GE(stats.drain_flushes, 1);

  // Submitting after shutdown resolves immediately with an undefined Tensor.
  const MicroBatcher::Ticket late = batcher.Submit(MakeWindow(9.0f)).get();
  EXPECT_FALSE(late.value.Defined());
  EXPECT_EQ(late.batch_size, 0);
  batcher.Shutdown();  // idempotent
}

TEST(PredictionCacheTest, LruEvictionAndHitAccounting) {
  PredictionCache cache(/*capacity=*/2, /*num_shards=*/1);
  const Tensor a = MakeWindow(1.0f);
  const Tensor b = MakeWindow(2.0f);
  const Tensor c = MakeWindow(3.0f);

  Tensor out;
  EXPECT_FALSE(cache.Lookup(a, &out));  // miss
  cache.Insert(a, Tensor::Full({2, 4}, 10.0f));
  cache.Insert(b, Tensor::Full({2, 4}, 20.0f));
  EXPECT_TRUE(cache.Lookup(a, &out));  // hit; also refreshes a to MRU
  EXPECT_EQ(out.Data()[0], 10.0f);

  cache.Insert(c, Tensor::Full({2, 4}, 30.0f));  // evicts b (LRU), not a
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_FALSE(cache.Lookup(b, &out));
  EXPECT_TRUE(cache.Lookup(c, &out));
  EXPECT_EQ(out.Data()[0], 30.0f);

  const PredictionCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
}

TEST(PredictionCacheTest, KeyIsExactBytesNotHash) {
  // Same shape, different payload → different keys; same payload in a
  // different shape → different keys too.
  const Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  const Tensor b = Tensor::FromVector({2, 2}, {1, 2, 3, 5});
  const Tensor c = Tensor::FromVector({4, 1}, {1, 2, 3, 4});
  EXPECT_NE(PredictionCache::KeyOf(a), PredictionCache::KeyOf(b));
  EXPECT_NE(PredictionCache::KeyOf(a), PredictionCache::KeyOf(c));
  EXPECT_EQ(PredictionCache::KeyOf(a), PredictionCache::KeyOf(a));
}

TEST(PredictionCacheTest, ZeroCapacityDisablesWithoutAccounting) {
  PredictionCache cache(0);
  EXPECT_FALSE(cache.enabled());
  Tensor out;
  cache.Insert(MakeWindow(1.0f), Tensor::Full({2, 4}, 1.0f));
  EXPECT_FALSE(cache.Lookup(MakeWindow(1.0f), &out));
  const PredictionCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses + stats.entries, 0);
}

TEST(HttpParseTest, ParsesCompleteRequestAndReportsConsumed) {
  const std::string raw =
      "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n"
      "abcdEXTRA";
  HttpRequest request;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpRequest(raw, 1 << 20, &request, &consumed),
            HttpParse::kOk);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/predict");
  EXPECT_EQ(request.body, "abcd");
  EXPECT_EQ(request.headers.at("host"), "x");  // names lower-cased
  EXPECT_EQ(consumed, raw.size() - 5);         // "EXTRA" stays buffered
}

TEST(HttpParseTest, IncompleteRequestNeedsMore) {
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(ParseHttpRequest("POST /x HTTP/1.1\r\nContent-Le", 1 << 20,
                             &request, &consumed),
            HttpParse::kNeedMore);
  EXPECT_EQ(ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1 << 20,
                &request, &consumed),
            HttpParse::kNeedMore);  // body not fully arrived
}

TEST(HttpParseTest, MalformedRequestsRejected) {
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(ParseHttpRequest("garbage\r\n\r\n", 1 << 20, &request, &consumed),
            HttpParse::kBadRequest);
  EXPECT_EQ(ParseHttpRequest("GET /x SPDY/9\r\n\r\n", 1 << 20, &request,
                             &consumed),
            HttpParse::kBadRequest);
  EXPECT_EQ(ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 1 << 20,
                &request, &consumed),
            HttpParse::kBadRequest);  // digits only — no strtoull wrap
  EXPECT_EQ(ParseHttpRequest(
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                1 << 20, &request, &consumed),
            HttpParse::kBadRequest);  // chunked unsupported
}

TEST(HttpParseTest, OversizedBodyIsPayloadTooLarge) {
  HttpRequest request;
  size_t consumed = 0;
  // The declared length alone must trigger 413 — before any body bytes
  // arrive, so a hostile client cannot make the server buffer them.
  EXPECT_EQ(ParseHttpRequest("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
                             /*max_body_bytes=*/99, &request, &consumed),
            HttpParse::kPayloadTooLarge);
}

TEST(TraceparentTest, ParsesWellFormedHeader) {
  std::string trace_id;
  std::string parent;
  ASSERT_TRUE(ParseTraceparent(
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", &trace_id,
      &parent));
  EXPECT_EQ(trace_id, "0af7651916cd43dd8448eb211c80319c");
  EXPECT_EQ(parent, "b7ad6b7169203331");
}

TEST(TraceparentTest, RejectsMalformedHeaders) {
  std::string trace_id;
  std::string parent;
  const char* bad[] = {
      "",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",       // short
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x",  // long
      "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01",    // non-hex
      "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",    // upper
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",    // zero
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",    // zero
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",    // ver ff
      "00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",    // sep
  };
  for (const char* header : bad) {
    EXPECT_FALSE(ParseTraceparent(header, &trace_id, &parent)) << header;
  }
}

TEST(TraceparentTest, ContextAdoptsValidHeaderAndReplacesInvalid) {
  const std::string valid =
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  RequestContext adopted = MakeRequestContext(valid);
  EXPECT_TRUE(adopted.propagated);
  EXPECT_EQ(adopted.trace_id, "0af7651916cd43dd8448eb211c80319c");
  // Fresh span id for this hop, not the parent's.
  EXPECT_EQ(adopted.span_id.size(), 16u);
  EXPECT_NE(adopted.span_id, "b7ad6b7169203331");
  EXPECT_EQ(adopted.TraceparentHeader(),
            "00-0af7651916cd43dd8448eb211c80319c-" + adopted.span_id + "-01");

  RequestContext generated = MakeRequestContext("garbage header");
  EXPECT_FALSE(generated.propagated);
  EXPECT_EQ(generated.trace_id.size(), 32u);
  EXPECT_NE(generated.trace_id, std::string(32, '0'));
}

TEST(TraceparentTest, SeededGenerationIsDeterministic) {
  SeedTraceIds(12345);
  const RequestContext first = MakeRequestContext("");
  const RequestContext second = MakeRequestContext("");
  SeedTraceIds(12345);
  const RequestContext replay_first = MakeRequestContext("");
  const RequestContext replay_second = MakeRequestContext("");
  EXPECT_EQ(first.trace_id, replay_first.trace_id);
  EXPECT_EQ(first.span_id, replay_first.span_id);
  EXPECT_EQ(second.trace_id, replay_second.trace_id);
  EXPECT_NE(first.trace_id, second.trace_id);
}

// ---------------------------------------------------------------------------
// Access log.

RequestContext TestContext() {
  RequestContext context;
  context.trace_id = "0af7651916cd43dd8448eb211c80319c";
  context.span_id = "b7ad6b7169203331";
  for (int i = 0; i < kNumStages; ++i) {
    context.stage_us[static_cast<size_t>(i)] = 1.0;
  }
  return context;
}

AccessLog::Record TestRecord(const RequestContext& context, double total_us) {
  AccessLog::Record record;
  record.context = &context;
  record.method = "POST";
  record.path = "/v1/predict";
  record.status = 200;
  record.bytes = 42;
  record.total_us = total_us;
  record.cache_hit = false;
  record.batch_size = 1;
  return record;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(AccessLogTest, WritesOneJsonObjectPerRecord) {
  const std::string path = "/tmp/sthsl_access_log_test.jsonl";
  std::remove(path.c_str());
  AccessLog& log = AccessLog::Global();
  log.Configure(path, /*max_bytes=*/1 << 20, /*slow_threshold_us=*/0);
  ASSERT_TRUE(log.enabled());

  const RequestContext context = TestContext();
  log.Write(TestRecord(context, 50.0));
  log.Write(TestRecord(context, 60.0));
  log.Flush();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  sthsl::json::JsonValue root;
  std::string error;
  ASSERT_TRUE(sthsl::json::JsonParser(lines[0]).Parse(&root, &error)) << error;
  EXPECT_EQ(root.FindOfKind("trace_id", sthsl::json::JsonValue::Kind::kString)
                ->text,
            context.trace_id);
  EXPECT_EQ(
      root.FindOfKind("status", sthsl::json::JsonValue::Kind::kNumber)->number,
      200.0);
  const sthsl::json::JsonValue* stages =
      root.FindOfKind("stages", sthsl::json::JsonValue::Kind::kObject);
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->members.size(), static_cast<size_t>(kNumStages));
  EXPECT_EQ(lines[0].find("\"slow\""), std::string::npos);

  log.Configure("", 0, 0);  // disable for other tests
  std::remove(path.c_str());
}

TEST(AccessLogTest, RotatesWhenSizeCapIsExceeded) {
  const std::string path = "/tmp/sthsl_access_log_rotate.jsonl";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  AccessLog& log = AccessLog::Global();
  // Cap far below one record's size: every write after the first rotates.
  log.Configure(path, /*max_bytes=*/512, /*slow_threshold_us=*/0);

  const RequestContext context = TestContext();
  for (int i = 0; i < 6; ++i) log.Write(TestRecord(context, 50.0));
  log.Flush();

  // Both generations exist, each non-empty, each holding whole lines.
  EXPECT_FALSE(ReadLines(path).empty());
  const std::vector<std::string> old_lines = ReadLines(rotated);
  ASSERT_FALSE(old_lines.empty());
  EXPECT_EQ(old_lines.back().back(), '}');  // no torn record at the cut

  log.Configure("", 0, 0);
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST(AccessLogTest, SlowRequestsAreMarked) {
  const std::string path = "/tmp/sthsl_access_log_slow.jsonl";
  std::remove(path.c_str());
  AccessLog& log = AccessLog::Global();
  log.Configure(path, 1 << 20, /*slow_threshold_us=*/100.0);

  const RequestContext context = TestContext();
  log.Write(TestRecord(context, 50.0));    // under threshold
  log.Write(TestRecord(context, 5000.0));  // over: marked slow
  log.Flush();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("\"slow\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"slow\":true"), std::string::npos) << lines[1];

  log.Configure("", 0, 0);
  std::remove(path.c_str());
}

TEST(JsonQuoteTest, ControlCharactersEscaped) {
  EXPECT_EQ(sthsl::json::JsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(sthsl::json::JsonQuote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(sthsl::json::JsonQuote(std::string("nul\x01") + "\x1f"),
            "\"nul\\u0001\\u001f\"");
  EXPECT_EQ(sthsl::json::JsonQuote("x\ny"), "\"x\\ny\"");
}

// ---------------------------------------------------------------------------
// Bundle + end-to-end loopback.

struct TempDir {
  TempDir() : path("/tmp/sthsl_serve_test_bundle") {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// Tiny trained model: 4x4 grid, 24 days, one abbreviated epoch.
LoadedBundle TrainAndRoundTripBundle(const std::string& dir) {
  CrimeGenConfig gen = NycSmallPreset();
  const double day_scale = 24.0 / static_cast<double>(gen.days);
  gen.rows = 4;
  gen.cols = 4;
  gen.days = 24;
  gen.seed = 11;
  for (auto& total : gen.category_totals) total *= day_scale;
  const CrimeDataset data = GenerateCrimeData(gen);

  SthslConfig config;
  config.dim = 4;
  config.num_hyperedges = 8;
  config.train.window = 7;
  config.train.epochs = 1;
  config.train.max_steps_per_epoch = 2;
  config.train.validation_days = 0;
  SthslForecaster model(config);
  model.Fit(data, data.num_days());

  BundleManifest provenance;
  provenance.city = data.city_name();
  provenance.category_names = data.category_names();
  provenance.generator_seed = static_cast<int64_t>(gen.seed);
  provenance.git_hash = "deadbeef";
  provenance.tool = "serve_test";
  EXPECT_TRUE(WriteBundle(model, dir, provenance).ok());

  auto loaded = LoadBundle(dir);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

TEST(BundleTest, ManifestRoundTripPreservesIdentity) {
  TempDir dir;
  LoadedBundle bundle = TrainAndRoundTripBundle(dir.path);
  const BundleManifest& m = bundle.manifest;
  EXPECT_EQ(m.model, "ST-HSL");
  EXPECT_EQ(m.rows, 4);
  EXPECT_EQ(m.cols, 4);
  EXPECT_EQ(m.categories, 4);
  EXPECT_EQ(m.config.train.window, 7);
  EXPECT_EQ(m.generator_seed, 11);
  EXPECT_EQ(m.git_hash, "deadbeef");
  EXPECT_GT(m.stddev, 0.0f);
  EXPECT_EQ(m.WindowShape(), (std::vector<int64_t>{16, 7, 4}));
  ASSERT_EQ(m.category_names.size(), 4u);
}

TEST(BundleTest, MissingAndCorruptBundlesAreRejected) {
  EXPECT_FALSE(ReadManifest("/tmp/sthsl_no_such_bundle").ok());
  TempDir dir;
  std::filesystem::create_directories(dir.path);
  std::ofstream(dir.path + "/manifest.json") << "{\"bundle\": \"sthsl\"}";
  auto result = ReadManifest(dir.path);
  ASSERT_FALSE(result.ok());
  // The error names the first missing field instead of a generic failure.
  EXPECT_NE(result.status().message().find("schema"), std::string::npos)
      << result.status().message();
}

// Minimal blocking HTTP client for the loopback test.
std::string HttpRoundTrip(int port, const std::string& request_text,
                          int* status) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n =
        ::send(fd, request_text.data() + sent, request_text.size() - sent, 0);
    if (n <= 0) {
      ADD_FAILURE() << "send failed";
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[16384];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
    const size_t header_end = response.find("\r\n\r\n");
    if (header_end == std::string::npos) continue;
    const size_t cl = response.find("Content-Length: ");
    if (cl == std::string::npos) continue;
    const size_t body_len = std::strtoul(response.c_str() + cl + 16, nullptr, 10);
    if (response.size() >= header_end + 4 + body_len) break;
  }
  ::close(fd);
  *status = 0;
  std::sscanf(response.c_str(), "HTTP/1.1 %d", status);
  const size_t header_end = response.find("\r\n\r\n");
  return header_end == std::string::npos ? ""
                                         : response.substr(header_end + 4);
}

std::string RenderPost(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
}

// Like HttpRoundTrip but returns the raw response (status line + headers +
// body) so tests can inspect response headers such as `traceparent`.
std::string HttpRoundTripRaw(int port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n =
        ::send(fd, request_text.data() + sent, request_text.size() - sent, 0);
    if (n <= 0) {
      ADD_FAILURE() << "send failed";
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[16384];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// The value of `header` ("name: value\r\n") in a raw response, or "".
std::string ResponseHeader(const std::string& raw, const std::string& name) {
  const size_t head_end = raw.find("\r\n\r\n");
  const std::string head =
      head_end == std::string::npos ? raw : raw.substr(0, head_end);
  const size_t at = head.find("\r\n" + name + ": ");
  if (at == std::string::npos) return "";
  const size_t begin = at + 2 + name.size() + 2;
  const size_t end = head.find("\r\n", begin);
  return head.substr(begin, end - begin);
}

// Parses a response body; a body that is not JSON fails the test.
json::JsonValue ParseBody(const std::string& body) {
  json::JsonValue root;
  std::string error;
  EXPECT_TRUE(json::JsonParser(body).Parse(&root, &error)) << error << body;
  return root;
}

// The body after a raw response's header block.
std::string RawBody(const std::string& raw) {
  const size_t head_end = raw.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : raw.substr(head_end + 4);
}

// The "prediction" array as float32 bit patterns. The server renders floats
// as %.9g would, which round-trips float32, so equal bits here prove the
// served prediction bitwise identical to the direct one.
std::vector<uint32_t> PredictionBits(const json::JsonValue& body) {
  std::vector<uint32_t> bits;
  const json::JsonValue* prediction =
      body.FindOfKind("prediction", json::JsonValue::Kind::kArray);
  EXPECT_NE(prediction, nullptr);
  if (prediction == nullptr) return bits;
  for (const json::JsonValue& item : prediction->items) {
    bits.push_back(std::bit_cast<uint32_t>(static_cast<float>(item.number)));
  }
  return bits;
}

bool CacheHit(const json::JsonValue& body) {
  const json::JsonValue* hit =
      body.FindOfKind("cache_hit", json::JsonValue::Kind::kBool);
  EXPECT_NE(hit, nullptr);
  return hit != nullptr && hit->boolean;
}

TEST(ServeLoopbackTest, EndToEndMatchesDirectPredictBitwise) {
  TempDir dir;
  LoadedBundle serving = TrainAndRoundTripBundle(dir.path);
  LoadedBundle direct = LoadBundle(dir.path).value();  // independent instance

  EngineConfig config;
  config.batcher.worker_threads = 2;
  config.batcher.max_wait_us = 500;
  InferenceEngine engine(std::move(serving), config);
  PredictService service(&engine);
  HttpServer server;
  service.Register(&server);
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  ASSERT_GT(server.port(), 0);

  // Build a deterministic window and the direct (ground-truth) prediction.
  const std::vector<int64_t> shape = engine.manifest().WindowShape();
  int64_t numel = 1;
  for (int64_t extent : shape) numel *= extent;
  std::vector<float> window(static_cast<size_t>(numel));
  for (size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<float>(i % 5);
  }
  const Tensor direct_out =
      direct.model->PredictWindows({Tensor::FromVector(shape, window)})
          .front();
  std::vector<uint32_t> expected;
  for (float value : direct_out.Data()) {
    expected.push_back(std::bit_cast<uint32_t>(value));
  }

  std::string body = "{\"window\": [";
  for (size_t i = 0; i < window.size(); ++i) {
    body += (i == 0 ? "" : ",") + std::to_string(static_cast<int>(window[i]));
  }
  body += "]}";

  // Cold request: batched forward path, cache miss.
  int status = 0;
  std::string cold =
      HttpRoundTrip(server.port(), RenderPost("/v1/predict", body), &status);
  ASSERT_EQ(status, 200) << cold;
  EXPECT_FALSE(CacheHit(ParseBody(cold))) << cold;
  EXPECT_EQ(PredictionBits(ParseBody(cold)), expected);

  // Warm request: identical window must be a cache hit, same exact bytes.
  std::string warm =
      HttpRoundTrip(server.port(), RenderPost("/v1/predict", body), &status);
  ASSERT_EQ(status, 200) << warm;
  EXPECT_TRUE(CacheHit(ParseBody(warm))) << warm;
  EXPECT_EQ(PredictionBits(ParseBody(warm)), expected);

  // Bad inputs come back as client errors, never aborts.
  std::string bad = HttpRoundTrip(
      server.port(), RenderPost("/v1/predict", "{\"window\": [1,2]}"),
      &status);
  EXPECT_EQ(status, 400) << bad;
  bad = HttpRoundTrip(server.port(), RenderPost("/v1/predict", "not json"),
                      &status);
  EXPECT_EQ(status, 400) << bad;
  bad = HttpRoundTrip(
      server.port(),
      RenderPost("/v1/predict",
                 "{\"window\": [1], \"shape\": [-3, 9999999999999]}"),
      &status);
  EXPECT_EQ(status, 400) << bad;

  // Routing: wrong path → 404, wrong method on a known path → 405.
  HttpRoundTrip(server.port(), RenderPost("/nope", "{}"), &status);
  EXPECT_EQ(status, 404);
  HttpRoundTrip(server.port(),
                "GET /v1/predict HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n\r\n",
                &status);
  EXPECT_EQ(status, 405);

  // Health and metrics endpoints respond with the bundle identity and the
  // cache/batcher counters this test just exercised.
  std::string health = HttpRoundTrip(server.port(),
                                     "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                                     "Connection: close\r\n\r\n",
                                     &status);
  EXPECT_EQ(status, 200);
  const json::JsonValue health_json = ParseBody(health);
  const json::JsonValue* model = health_json.Find("model");
  ASSERT_NE(model, nullptr) << health;
  EXPECT_EQ(model->text, "ST-HSL");
  // Non-finite registry values must still yield valid JSON: null.
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("test/nan_gauge").Set(std::nan(""));
  registry.GetHistogram("test/inf_histogram")
      .Record(std::numeric_limits<double>::infinity());
  std::string metrics = HttpRoundTrip(server.port(),
                                      "GET /metrics HTTP/1.1\r\nHost: t\r\n"
                                      "Connection: close\r\n\r\n",
                                      &status);
  EXPECT_EQ(status, 200);
  const json::JsonValue metrics_json = ParseBody(metrics);
  EXPECT_NE(metrics_json.Find("cache"), nullptr);
  EXPECT_NE(metrics_json.Find("batcher"), nullptr);
  // Scrapes refresh and embed the execution-pool telemetry.
  EXPECT_NE(metrics_json.Find("exec"), nullptr);
  const json::JsonValue* gauges = metrics_json.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->Find("exec/threads"), nullptr);
  const json::JsonValue* nan_gauge = gauges->Find("test/nan_gauge");
  ASSERT_NE(nan_gauge, nullptr);
  EXPECT_TRUE(nan_gauge->Is(json::JsonValue::Kind::kNull));
  const json::JsonValue* inf_histogram =
      metrics_json.Find("histograms")->Find("test/inf_histogram");
  ASSERT_NE(inf_histogram, nullptr);
  EXPECT_TRUE(inf_histogram->Find("p99")->Is(json::JsonValue::Kind::kNull));
  std::string statusz = HttpRoundTrip(server.port(),
                                      "GET /statusz HTTP/1.1\r\nHost: t\r\n"
                                      "Connection: close\r\n\r\n",
                                      &status);
  EXPECT_EQ(status, 200);
  const json::JsonValue statusz_json = ParseBody(statusz);
  const json::JsonValue* exec = statusz_json.Find("exec");
  ASSERT_NE(exec, nullptr);
  EXPECT_NE(exec->Find("chunks_executed"), nullptr);
  // The selected SIMD microkernel set and detected CPU features are part of
  // the serving provenance surface.
  const json::JsonValue* simd = statusz_json.Find("simd");
  ASSERT_NE(simd, nullptr);
  EXPECT_NE(simd->Find("kernels"), nullptr);
  EXPECT_NE(simd->Find("cpu_features"), nullptr);

  server.Drain();
  engine.Shutdown();
}

TEST(ServeLoopbackTest, TraceparentRoundTripAndAccessLogExactlyOnce) {
  const std::string log_path = "/tmp/sthsl_serve_access_e2e.jsonl";
  std::remove(log_path.c_str());
  AccessLog::Global().Configure(log_path, 1 << 20, 0);

  TempDir dir;
  LoadedBundle bundle = TrainAndRoundTripBundle(dir.path);
  EngineConfig config;
  config.batcher.worker_threads = 1;
  config.batcher.max_wait_us = 500;
  InferenceEngine engine(std::move(bundle), config);
  PredictService service(&engine);
  HttpServer server;
  service.Register(&server);
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  const std::vector<int64_t> shape = engine.manifest().WindowShape();
  int64_t numel = 1;
  for (int64_t extent : shape) numel *= extent;
  std::string body = "{\"window\": [";
  for (int64_t i = 0; i < numel; ++i) {
    body += (i == 0 ? "" : ",") + std::to_string(i % 3);
  }
  body += "]}";

  // 1. Client-sent traceparent comes back with the same trace id (and the
  //    trace id appears in the JSON body).
  const std::string client_trace = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string sent = "00-" + client_trace + "-00f067aa0ba902b7-01";
  std::string raw = HttpRoundTripRaw(
      server.port(),
      "POST /v1/predict HTTP/1.1\r\nHost: t\r\ntraceparent: " + sent +
          "\r\nContent-Length: " + std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n" + body);
  EXPECT_NE(raw.find("HTTP/1.1 200"), std::string::npos) << raw;
  std::string echoed = ResponseHeader(raw, "traceparent");
  ASSERT_EQ(echoed.size(), 55u) << raw;
  EXPECT_EQ(echoed.substr(3, 32), client_trace);
  EXPECT_NE(echoed.substr(36, 16), "00f067aa0ba902b7");  // fresh span id
  const json::JsonValue reply = ParseBody(RawBody(raw));
  const json::JsonValue* trace_id = reply.Find("trace_id");
  ASSERT_NE(trace_id, nullptr) << raw;
  EXPECT_EQ(trace_id->text, client_trace);

  // 2. A malformed traceparent is rejected: the response carries a freshly
  //    generated trace id instead of echoing the bad one.
  raw = HttpRoundTripRaw(
      server.port(),
      "POST /v1/predict HTTP/1.1\r\nHost: t\r\ntraceparent: bogus\r\n"
      "Content-Length: " +
          std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
          body);
  EXPECT_NE(raw.find("HTTP/1.1 200"), std::string::npos) << raw;
  echoed = ResponseHeader(raw, "traceparent");
  ASSERT_EQ(echoed.size(), 55u);
  EXPECT_NE(echoed.substr(3, 32), client_trace);
  EXPECT_NE(echoed.substr(3, 32), std::string(32, '0'));

  // 3. Non-predict and error responses also echo a traceparent.
  raw = HttpRoundTripRaw(server.port(),
                         "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                         "Connection: close\r\n\r\n");
  EXPECT_EQ(ResponseHeader(raw, "traceparent").size(), 55u);
  raw = HttpRoundTripRaw(server.port(),
                         "GET /nope HTTP/1.1\r\nHost: t\r\n"
                         "Connection: close\r\n\r\n");
  EXPECT_NE(raw.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(ResponseHeader(raw, "traceparent").size(), 55u);

  server.Drain();
  engine.Shutdown();
  AccessLog::Global().Flush();

  // Exactly one record per request, in order; predict records carry the
  // stage map, cache/batch detail, and stage sums bounded by total_us.
  const std::vector<std::string> lines = ReadLines(log_path);
  ASSERT_EQ(lines.size(), 4u);
  sthsl::json::JsonValue record;
  std::string error;
  ASSERT_TRUE(sthsl::json::JsonParser(lines[0]).Parse(&record, &error))
      << error;
  EXPECT_EQ(
      record.FindOfKind("trace_id", sthsl::json::JsonValue::Kind::kString)
          ->text,
      client_trace);
  EXPECT_EQ(record.FindOfKind("path", sthsl::json::JsonValue::Kind::kString)
                ->text,
            "/v1/predict");
  const sthsl::json::JsonValue* stages =
      record.FindOfKind("stages", sthsl::json::JsonValue::Kind::kObject);
  ASSERT_NE(stages, nullptr);
  double stage_sum = 0.0;
  for (const auto& [stage_name, value] : stages->members) {
    ASSERT_TRUE(value.Is(sthsl::json::JsonValue::Kind::kNumber)) << stage_name;
    EXPECT_GE(value.number, 0.0) << stage_name;
    stage_sum += value.number;
  }
  const double total_us =
      record.FindOfKind("total_us", sthsl::json::JsonValue::Kind::kNumber)
          ->number;
  EXPECT_LE(stage_sum, total_us);
  ASSERT_NE(record.Find("batch_size"), nullptr);
  ASSERT_NE(record.Find("cache_hit"), nullptr);
  // The 404 record has no predict detail but all required fields.
  sthsl::json::JsonValue not_found;
  ASSERT_TRUE(sthsl::json::JsonParser(lines[3]).Parse(&not_found, &error));
  EXPECT_EQ(not_found.FindOfKind("status",
                                 sthsl::json::JsonValue::Kind::kNumber)
                ->number,
            404.0);
  EXPECT_EQ(not_found.Find("batch_size"), nullptr);

  AccessLog::Global().Configure("", 0, 0);
  std::remove(log_path.c_str());
}

TEST(ServeLoopbackTest, ConcurrentRequestsAllAnswered) {
  TempDir dir;
  LoadedBundle bundle = TrainAndRoundTripBundle(dir.path);
  EngineConfig config;
  config.batcher.max_batch_size = 4;
  config.batcher.max_wait_us = 1000;
  config.batcher.worker_threads = 2;
  config.cache_entries = 0;  // force every request through the batcher
  InferenceEngine engine(std::move(bundle), config);

  const std::vector<int64_t> shape = engine.manifest().WindowShape();
  int64_t numel = 1;
  for (int64_t extent : shape) numel *= extent;

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      std::vector<float> window(static_cast<size_t>(numel),
                                static_cast<float>(t % 3));
      for (int i = 0; i < 4; ++i) {
        auto result = engine.Predict(Tensor::FromVector(shape, window));
        if (!result.ok() || !result.value().values.Defined()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  const MicroBatcher::Stats stats = engine.batcher_stats();
  EXPECT_EQ(stats.requests, 32);
  EXPECT_GT(stats.batches, 0);
  engine.Shutdown();
}

}  // namespace
}  // namespace sthsl::serve

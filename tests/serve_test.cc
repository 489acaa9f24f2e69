// Tests for the sthsl::serve subsystem: micro-batcher dispatch and queue
// cap, LRU prediction-cache accounting, HTTP request and response parsing,
// the HTTP client, bundle round-trip, and an end-to-end loopback check that
// served predictions are bitwise identical to a direct Forecaster call (cold
// and cached).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sthsl_model.h"
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

// A latch in front of batch execution: every batch blocks on entry until
// Open(), so a test can hold the workers busy and pile windows up behind
// them. Records each batch's size in the order batches entered.
class BatchLatch {
 public:
  // Blocks the calling worker until Open().
  void Enter(size_t batch_size) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_.push_back(batch_size);
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  // EchoBatch behind the latch.
  MicroBatcher::BatchFn Echo() {
    return [this](const std::vector<Tensor>& windows) {
      Enter(windows.size());
      return windows;
    };
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  // Waits until `count` batches have entered; false after 10 s.
  bool WaitForBatches(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return entered_.size() >= count; });
  }

  std::vector<size_t> entered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<size_t> entered_;
};

bool Ready(const std::future<MicroBatcher::Ticket>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

TEST(MicroBatcherTest, LoneRequestDispatchesWithoutWaiting) {
  MicroBatcher::Config config;
  config.max_batch_size = 64;        // never reached
  config.max_wait_us = 10'000'000;   // not read: an idle worker takes it now
  config.worker_threads = 1;
  MicroBatcher batcher(config, EchoBatch());

  std::future<MicroBatcher::Ticket> future = batcher.Submit(MakeWindow(7.0f));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(1)),
            std::future_status::ready)
      << "a lone request waited for a batch that never forms";
  const MicroBatcher::Ticket ticket = future.get();
  ASSERT_TRUE(ticket.value.Defined());
  EXPECT_EQ(ticket.value.Data()[0], 7.0f);
  EXPECT_EQ(ticket.batch_size, 1);
  EXPECT_GE(ticket.queue_wait_us, 0.0);
  EXPECT_GE(ticket.inference_us, 0.0);
  const MicroBatcher::Stats stats = batcher.GetStats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.timeout_flushes, 0);
  EXPECT_EQ(stats.size_flushes, 0);
}

TEST(MicroBatcherTest, BusyWorkerLeavesBacklogInBoundedBatchesInOrder) {
  MicroBatcher::Config config;
  config.max_batch_size = 4;
  config.worker_threads = 1;
  BatchLatch latch;
  MicroBatcher batcher(config, latch.Echo());

  // Window 0 occupies the only worker; windows 1-9 queue up behind it.
  std::vector<std::future<MicroBatcher::Ticket>> futures;
  futures.push_back(batcher.Submit(MakeWindow(0.0f)));
  ASSERT_TRUE(latch.WaitForBatches(1));
  for (int i = 1; i < 10; ++i) {
    futures.push_back(batcher.Submit(MakeWindow(static_cast<float>(i))));
  }
  for (const auto& future : futures) EXPECT_FALSE(Ready(future));
  latch.Open();

  const std::vector<int64_t> expected_batch = {1, 4, 4, 4, 4, 4, 4, 4, 4, 1};
  for (int i = 0; i < 10; ++i) {
    const MicroBatcher::Ticket ticket = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(ticket.value.Defined());
    EXPECT_EQ(ticket.value.Data()[0], static_cast<float>(i));  // order kept
    EXPECT_EQ(ticket.batch_size, expected_batch[static_cast<size_t>(i)]) << i;
    EXPECT_GE(ticket.queue_wait_us, 0.0);
    EXPECT_GE(ticket.inference_us, 0.0);
  }
  EXPECT_EQ(latch.entered(), (std::vector<size_t>{1, 4, 4, 1}));
  const MicroBatcher::Stats stats = batcher.GetStats();
  EXPECT_EQ(stats.requests, 10);
  EXPECT_EQ(stats.batches, 4);
  EXPECT_EQ(stats.size_flushes, 2);
  EXPECT_EQ(stats.timeout_flushes, 0);
}

TEST(MicroBatcherTest, FullQueueRejectsAtOnceAndKeepsAcceptedWork) {
  MicroBatcher::Config config;
  config.max_batch_size = 8;
  config.worker_threads = 1;
  BatchLatch latch;
  MicroBatcher batcher(config, latch.Echo());

  std::vector<std::future<MicroBatcher::Ticket>> accepted;
  accepted.push_back(batcher.Submit(MakeWindow(0.0f)));
  ASSERT_TRUE(latch.WaitForBatches(1));  // the worker holds window 0
  for (size_t i = 1; i <= MicroBatcher::kMaxQueuedWindows; ++i) {
    accepted.push_back(batcher.Submit(MakeWindow(static_cast<float>(i))));
  }
  std::future<MicroBatcher::Ticket> excess = batcher.Submit(MakeWindow(-1.0f));
  ASSERT_TRUE(Ready(excess)) << "a submit to a full queue must not block";
  const MicroBatcher::Ticket rejected = excess.get();
  EXPECT_FALSE(rejected.value.Defined());
  EXPECT_TRUE(rejected.queue_full);
  EXPECT_EQ(rejected.batch_size, 0);

  latch.Open();
  for (size_t i = 0; i < accepted.size(); ++i) {
    const MicroBatcher::Ticket ticket = accepted[i].get();
    ASSERT_TRUE(ticket.value.Defined()) << i;
    EXPECT_EQ(ticket.value.Data()[0], static_cast<float>(i));
  }
  const MicroBatcher::Stats stats = batcher.GetStats();
  EXPECT_EQ(stats.requests,
            static_cast<int64_t>(MicroBatcher::kMaxQueuedWindows) + 1);
  EXPECT_EQ(stats.queue_full_rejects, 1);
}

TEST(MicroBatcherTest, ShutdownDrainsQueueAndRejectsLateSubmits) {
  MicroBatcher::Config config;
  config.max_batch_size = 128;  // above the queue cap: the drain is one batch
  config.worker_threads = 1;
  BatchLatch latch;
  MicroBatcher batcher(config, latch.Echo());

  // Window 0 blocks the worker, so windows 1-3 are still queued when the
  // drain starts.
  std::vector<std::pair<float, std::future<MicroBatcher::Ticket>>> queued;
  queued.emplace_back(0.0f, batcher.Submit(MakeWindow(0.0f)));
  ASSERT_TRUE(latch.WaitForBatches(1));
  for (int i = 1; i < 4; ++i) {
    const float fill = static_cast<float>(i);
    queued.emplace_back(fill, batcher.Submit(MakeWindow(fill)));
  }
  std::future<void> shutdown =
      std::async(std::launch::async, [&batcher] { batcher.Shutdown(); });

  // Once the drain has begun, a submit resolves at once with an undefined
  // Tensor even though the worker is still blocked. Submits that raced
  // ahead of it were queued and are drained like the rest.
  MicroBatcher::Ticket late;
  while (true) {
    std::future<MicroBatcher::Ticket> future = batcher.Submit(MakeWindow(9.0f));
    if (!Ready(future)) {
      queued.emplace_back(9.0f, std::move(future));
      continue;
    }
    late = future.get();
    if (!late.queue_full) break;
    std::this_thread::yield();
  }
  EXPECT_FALSE(late.value.Defined());
  EXPECT_EQ(late.batch_size, 0);

  latch.Open();
  shutdown.get();
  for (auto& [fill, future] : queued) {
    const MicroBatcher::Ticket ticket = future.get();
    ASSERT_TRUE(ticket.value.Defined());  // drained, not dropped
    EXPECT_EQ(ticket.value.Data()[0], fill);
  }
  const MicroBatcher::Stats stats = batcher.GetStats();
  EXPECT_EQ(stats.requests, static_cast<int64_t>(queued.size()));
  EXPECT_EQ(stats.drain_flushes, 1);

  EXPECT_FALSE(batcher.Submit(MakeWindow(9.0f)).get().value.Defined());
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
  EXPECT_EQ(ParseHttpRequest("POST /x HTTP/1.1\r\nContent-Length: 5\r\n"
                             "Content-Length: 100\r\n\r\nabcde",
                             1 << 20, &request, &consumed),
            HttpParse::kBadRequest);  // repeated Content-Length
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

constexpr char kOkResponse[] =
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    "Content-Length: 2\r\n"
    "traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\r\n"
    "\r\n{}";

TEST(HttpResponseParseTest, ByteAtATimeParsesLikeWhole) {
  const std::string whole = kOkResponse;
  HttpReply expected;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpResponse(whole, &expected, &consumed), HttpParse::kOk);
  EXPECT_EQ(consumed, whole.size());
  EXPECT_EQ(expected.status, 200);
  EXPECT_EQ(expected.body, "{}");
  EXPECT_EQ(expected.Header("traceparent").size(), 55u);

  std::string fed;
  for (size_t i = 0; i + 1 < whole.size(); ++i) {
    fed += whole[i];
    HttpReply partial;
    ASSERT_EQ(ParseHttpResponse(fed, &partial, &consumed),
              HttpParse::kNeedMore)
        << "after " << fed.size() << " bytes";
  }
  fed += whole.back();
  HttpReply reply;
  ASSERT_EQ(ParseHttpResponse(fed, &reply, &consumed), HttpParse::kOk);
  EXPECT_EQ(consumed, whole.size());
  EXPECT_EQ(reply.status, expected.status);
  EXPECT_EQ(reply.headers, expected.headers);
  EXPECT_EQ(reply.body, expected.body);
}

TEST(HttpResponseParseTest, PipelinedResponsesComeApart) {
  std::string buffer = std::string(kOkResponse) +
                       "HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n"
                       "Connection: close\r\n\r\nnope!";
  HttpReply first;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpResponse(buffer, &first, &consumed), HttpParse::kOk);
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, "{}");
  buffer.erase(0, consumed);
  HttpReply second;
  ASSERT_EQ(ParseHttpResponse(buffer, &second, &consumed), HttpParse::kOk);
  EXPECT_EQ(second.status, 404);
  EXPECT_EQ(second.body, "nope!");
  EXPECT_EQ(second.Header("connection"), "close");
  EXPECT_EQ(consumed, buffer.size());
}

TEST(HttpResponseParseTest, ContentLengthNameIsCaseInsensitive) {
  // A header value that mentions content-length does not frame the body.
  const std::string raw =
      "HTTP/1.1 200 OK\r\nX-Note: content-length: 99\r\n"
      "CoNtEnT-lEnGtH: 3\r\n\r\nabcEXTRA";
  HttpReply reply;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpResponse(raw, &reply, &consumed), HttpParse::kOk);
  EXPECT_EQ(reply.body, "abc");
  EXPECT_EQ(reply.Header("content-length"), "3");
  EXPECT_EQ(reply.Header("x-note"), "content-length: 99");
  EXPECT_EQ(consumed, raw.size() - 5);  // "EXTRA" stays buffered
}

TEST(HttpResponseParseTest, BadFramingRejected) {
  for (const char* raw : {
           "HTTP/1.1 200 OK\r\n\r\n{}",  // no Content-Length
           "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
           "Content-Length: 2\r\n\r\n{}",  // repeated
           "HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\n{}",
           "HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}",
           "HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\n{}",
           "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n",
           "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
           "Content-Length: 2\r\n\r\n{}",
           "HTTP/2 200 OK\r\nContent-Length: 2\r\n\r\n{}",
           "HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
           "HTTP/1.1 200OK\r\nContent-Length: 2\r\n\r\n{}",
       }) {
    HttpReply reply;
    size_t consumed = 0;
    EXPECT_EQ(ParseHttpResponse(raw, &reply, &consumed),
              HttpParse::kBadRequest)
        << raw;
  }
}

TEST(HttpClientTest, ConnectWithoutListenerFailsWithinTimeout) {
  int port = 0;
  {
    HttpServer server;
    ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
    port = server.port();
    server.Drain();  // the port has no listener from here on
  }
  HttpClient client("127.0.0.1", port);
  const auto start = std::chrono::steady_clock::now();
  const Status connected = client.Connect();
  const Result<HttpReply> reply = client.Request("GET", "/healthz");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(connected.ok());
  EXPECT_EQ(connected.code(), Status::Code::kIoError) << connected.ToString();
  EXPECT_FALSE(reply.ok());
  EXPECT_LT(elapsed, std::chrono::milliseconds(HttpClient::kTimeoutMs));
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

// Replaces the value of the first `"key":` in compact manifest JSON.
std::string WithField(std::string text, const std::string& key,
                      const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const size_t at = text.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return text;
  const size_t begin = at + tag.size();
  const size_t end = text.find_first_of(",}", begin);
  return text.replace(begin, end - begin, value);
}

TEST(BundleTest, UnrunnableArchitecturesAreRejected) {
  TempDir dir;
  TrainAndRoundTripBundle(dir.path);
  const std::string manifest_path = dir.path + "/manifest.json";
  std::stringstream original;
  original << std::ifstream(manifest_path).rdbuf();
  ASSERT_TRUE(ReadManifest(dir.path).ok());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"dim", "0"},
      {"num_hyperedges", "0"},
      {"kernel_size", "4"},
      {"kernel_size", "-1"},
      {"global_temporal_layers", "-1"},
      {"dropout", "1"},
      {"dropout", "-0.5"},
      {"temperature", "0"},
      {"leaky_slope", "-0.5"},
      {"window", "0"},
  };
  for (const auto& [key, value] : cases) {
    std::ofstream(manifest_path, std::ios::trunc)
        << WithField(original.str(), key, value);
    auto result = ReadManifest(dir.path);
    ASSERT_FALSE(result.ok()) << key << "=" << value;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(result.status().message().find(key), std::string::npos)
        << result.status().message();
  }
}

// One exchange over `client`; a transport error fails the test and yields
// a reply with status 0.
HttpReply Exchange(
    HttpClient& client, const std::string& method, const std::string& target,
    const std::string& body = "",
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  Result<HttpReply> reply = client.Request(method, target, body, headers);
  EXPECT_TRUE(reply.ok()) << method << " " << target << ": "
                          << reply.status().ToString();
  return reply.ok() ? std::move(reply).value() : HttpReply{};
}

// Parses a response body; a body that is not JSON fails the test.
json::JsonValue ParseBody(const std::string& body) {
  json::JsonValue root;
  std::string error;
  EXPECT_TRUE(json::JsonParser(body).Parse(&root, &error)) << error << body;
  return root;
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

  // Requests below share one keep-alive connection (reopened once, after
  // the `Connection: close` request).
  HttpClient client("127.0.0.1", server.port());

  // Cold request: batched forward path, cache miss.
  const HttpReply cold = Exchange(client, "POST", "/v1/predict", body);
  ASSERT_EQ(cold.status, 200) << cold.body;
  EXPECT_FALSE(CacheHit(ParseBody(cold.body))) << cold.body;
  EXPECT_EQ(PredictionBits(ParseBody(cold.body)), expected);

  // Warm request: identical window must be a cache hit, same exact bytes.
  const HttpReply warm = Exchange(client, "POST", "/v1/predict", body);
  ASSERT_EQ(warm.status, 200) << warm.body;
  EXPECT_TRUE(CacheHit(ParseBody(warm.body))) << warm.body;
  EXPECT_EQ(PredictionBits(ParseBody(warm.body)), expected);

  // Bad inputs come back as client errors, never aborts.
  for (const char* bad_body :
       {"{\"window\": [1,2]}", "not json",
        "{\"window\": [1], \"shape\": [-3, 9999999999999]}"}) {
    const HttpReply bad = Exchange(client, "POST", "/v1/predict", bad_body);
    EXPECT_EQ(bad.status, 400) << bad_body << " -> " << bad.body;
  }

  // Routing: wrong path → 404, wrong method on a known path → 405. The
  // server closes after `Connection: close`; the client reconnects.
  EXPECT_EQ(Exchange(client, "POST", "/nope", "{}").status, 404);
  EXPECT_EQ(Exchange(client, "GET", "/v1/predict", "",
                     {{"Connection", "close"}})
                .status,
            405);

  // Health and metrics endpoints respond with the bundle identity and the
  // cache/batcher counters this test just exercised.
  const HttpReply health = Exchange(client, "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  const json::JsonValue health_json = ParseBody(health.body);
  const json::JsonValue* model = health_json.Find("model");
  ASSERT_NE(model, nullptr) << health.body;
  EXPECT_EQ(model->text, "ST-HSL");
  // Non-finite registry values must still yield valid JSON: null.
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("test/nan_gauge").Set(std::nan(""));
  registry.GetHistogram("test/inf_histogram")
      .Record(std::numeric_limits<double>::infinity());
  const HttpReply metrics = Exchange(client, "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  const json::JsonValue metrics_json = ParseBody(metrics.body);
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
  const HttpReply statusz = Exchange(client, "GET", "/statusz");
  EXPECT_EQ(statusz.status, 200);
  const json::JsonValue statusz_json = ParseBody(statusz.body);
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

  HttpClient client("127.0.0.1", server.port());

  // 1. Client-sent traceparent comes back with the same trace id (and the
  //    trace id appears in the JSON body).
  const std::string client_trace = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string sent = "00-" + client_trace + "-00f067aa0ba902b7-01";
  HttpReply reply =
      Exchange(client, "POST", "/v1/predict", body, {{"traceparent", sent}});
  EXPECT_EQ(reply.status, 200) << reply.body;
  EXPECT_TRUE(reply.trace_echoed);
  std::string echoed = reply.Header("traceparent");
  ASSERT_EQ(echoed.size(), 55u) << reply.body;
  EXPECT_EQ(echoed.substr(3, 32), client_trace);
  EXPECT_NE(echoed.substr(36, 16), "00f067aa0ba902b7");  // fresh span id
  const json::JsonValue reply_json = ParseBody(reply.body);
  const json::JsonValue* trace_id = reply_json.Find("trace_id");
  ASSERT_NE(trace_id, nullptr) << reply.body;
  EXPECT_EQ(trace_id->text, client_trace);

  // 2. A malformed traceparent is rejected: the response carries a freshly
  //    generated trace id instead of echoing the bad one.
  reply = Exchange(client, "POST", "/v1/predict", body,
                   {{"traceparent", "bogus"}});
  EXPECT_EQ(reply.status, 200) << reply.body;
  EXPECT_FALSE(reply.trace_echoed);
  echoed = reply.Header("traceparent");
  ASSERT_EQ(echoed.size(), 55u);
  EXPECT_NE(echoed.substr(3, 32), client_trace);
  EXPECT_NE(echoed.substr(3, 32), std::string(32, '0'));

  // 3. Non-predict and error responses also echo a traceparent.
  reply = Exchange(client, "GET", "/healthz");
  EXPECT_EQ(reply.Header("traceparent").size(), 55u);
  EXPECT_TRUE(reply.trace_echoed);
  reply = Exchange(client, "GET", "/nope");
  EXPECT_EQ(reply.status, 404);
  EXPECT_EQ(reply.Header("traceparent").size(), 55u);
  EXPECT_TRUE(reply.trace_echoed);

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

// A served model whose every batch waits on a BatchLatch before running
// the wrapped model.
class LatchedForecaster : public SthslForecaster {
 public:
  LatchedForecaster(std::unique_ptr<SthslForecaster> inner, BatchLatch* latch)
      : SthslForecaster(SthslConfig()),
        inner_(std::move(inner)),
        latch_(latch) {}

  std::vector<Tensor> PredictWindows(
      const std::vector<Tensor>& windows) override {
    latch_->Enter(windows.size());
    return inner_->PredictWindows(windows);
  }

 private:
  std::unique_ptr<SthslForecaster> inner_;
  BatchLatch* latch_;
};

TEST(ServeLoopbackTest, FullQueueAnswers503WithRetryAfter) {
  TempDir dir;
  LoadedBundle bundle = TrainAndRoundTripBundle(dir.path);
  BatchLatch latch;
  bundle.model =
      std::make_unique<LatchedForecaster>(std::move(bundle.model), &latch);
  EngineConfig config;
  config.batcher.max_batch_size = 1;
  config.batcher.worker_threads = 1;
  config.cache_entries = 0;  // every request reaches the batcher
  InferenceEngine engine(std::move(bundle), config);
  PredictService service(&engine);

  const std::vector<int64_t> shape = engine.manifest().WindowShape();
  int64_t numel = 1;
  for (int64_t extent : shape) numel *= extent;
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/predict";
  request.body = "{\"window\": [";
  for (int64_t i = 0; i < numel; ++i) request.body += i == 0 ? "1" : ",1";
  request.body += "]}";

  // One request holds the only worker; the next kMaxQueuedWindows fill the
  // queue behind it, and the kExcess after those find it full.
  constexpr size_t kExcess = 3;
  const size_t total = 1 + MicroBatcher::kMaxQueuedWindows + kExcess;
  std::vector<HttpResponse> responses(total);
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  clients.emplace_back([&] { responses[0] = service.HandlePredict(request); });
  ASSERT_TRUE(latch.WaitForBatches(1));
  for (size_t i = 1; i < total; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = service.HandlePredict(request);
      answered.fetch_add(1);
    });
  }
  // Only rejected requests can be answered while the latch is closed.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (answered.load() < kExcess &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(answered.load(), kExcess);
  latch.Open();
  for (std::thread& client : clients) client.join();

  size_t ok = 0;
  size_t unavailable = 0;
  for (const HttpResponse& response : responses) {
    if (response.status == 200) {
      ++ok;
      continue;
    }
    ASSERT_EQ(response.status, 503) << response.body;
    ++unavailable;
    const auto retry_after = std::find(
        response.headers.begin(), response.headers.end(),
        std::pair<std::string, std::string>("Retry-After", "1"));
    EXPECT_NE(retry_after, response.headers.end()) << response.body;
  }
  EXPECT_EQ(ok, 1 + MicroBatcher::kMaxQueuedWindows);
  EXPECT_EQ(unavailable, kExcess);
  EXPECT_EQ(engine.batcher_stats().queue_full_rejects,
            static_cast<int64_t>(kExcess));
  engine.Shutdown();
}

TEST(HttpServerTest, DrainClosesConnectionWithHalfReceivedRequest) {
  HttpServer server;
  server.Route("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  // One full keep-alive exchange first, so the server holds the connection
  // in a handler thread before the partial request arrives.
  HttpClient client("127.0.0.1", server.port());
  const HttpReply ping = Exchange(client, "GET", "/ping");
  ASSERT_EQ(ping.body, "{}");
  // 3 of the 10 declared body bytes, then silence.
  const std::string partial =
      "POST /v1/predict HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  ASSERT_TRUE(client.SendRaw(partial).ok());

  std::future<void> drained =
      std::async(std::launch::async, [&server] { server.Drain(); });
  EXPECT_EQ(drained.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "Drain still waits on a connection holding a partial request";
  // Closing the client end releases a server that did not give up by
  // itself, so a failing run ends instead of hanging.
  client.Close();
  drained.get();
}

// This process's virtual address space in KiB (VmSize in
// /proc/self/status), or -1 where that file is unreadable.
int64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

// Every closed connection's thread is joined before long: an exited but
// unjoined thread keeps its stack mapped, so 300 short connections would
// otherwise grow the address space by 300 stacks (8 MiB each by default).
// One connection is open at a time.
TEST(HttpServerTest, ClosedConnectionThreadsAreReaped) {
  HttpServer server;
  server.Route("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  HttpClient client("127.0.0.1", server.port());
  const std::vector<std::pair<std::string, std::string>> close = {
      {"Connection", "close"}};
  ASSERT_EQ(Exchange(client, "GET", "/ping", "", close).body, "{}");
  const int64_t before_kib = VmSizeKib();
  if (before_kib < 0) GTEST_SKIP() << "/proc/self/status is unreadable";
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(Exchange(client, "GET", "/ping", "", close).body, "{}")
        << "request " << i;
  }
  const int64_t grown_mib = (VmSizeKib() - before_kib) / 1024;
  EXPECT_LT(grown_mib, 64) << "VmSize grew by " << grown_mib
                           << " MiB over 300 closed connections";
  server.Drain();
}

}  // namespace
}  // namespace sthsl::serve

// Serving workloads: the sthsl_serve stack wired in-process (WriteBundle ->
// LoadBundle -> InferenceEngine with sthsl_serve's defaults -> PredictService
// -> HttpServer on an ephemeral loopback port), driven over real sockets by
// an open-loop generator in the same process. Arrivals follow a Poisson
// process conditioned on its count (sorted uniform send times), so every
// seed offers exactly the same load; each request is timed from its
// scheduled send time, so a stalled generator shows up as latency.

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
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/sthsl_model.h"
#include "data/generator.h"
#include "e2e.h"
#include "serve/bundle.h"
#include "serve/engine.h"
#include "serve/http.h"
#include "serve/service.h"
#include "util/json_mini.h"
#include "util/obs/obs.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sthsl::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using json::JsonValue;

struct ServeSpec {
  const char* name;
  double rate;       // offered requests per second
  double hot_frac;   // share of requests drawn from the hot set
  int hot_windows;   // primed during set-up, so later requests hit the cache
  int warm_windows;  // sent once during set-up to warm the stack, never again
  double tail_pct;
};

// serve-miss: every window is distinct, so every request runs JSON parse ->
// batcher -> eval forward and the cache only inserts and evicts; 50 req/s
// is about 58% of the stack's miss capacity (85-87 req/s when overloaded
// on 4 vCPUs).
// serve-mixed: 90% of requests hit a 64-window hot set, 10% are fresh;
// HTTP/JSON/cache costs set p50 and the slow misses set the tail, so a
// model speed-up should show on serve-miss and barely here.
constexpr ServeSpec kSpecs[] = {
    {"serve-miss", 50.0, 0.0, 0, 16, 99.0},
    {"serve-mixed", 400.0, 0.9, 64, 0, 99.0},
};

// sthsl_serve's defaults, pinned so a change of default shows as a change.
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kMaxWaitUs = 2000;
constexpr int64_t kCacheEntries = 1024;
constexpr int64_t kCacheShards = 8;
constexpr int64_t kWindow = 14;
constexpr int kReferenceStride = 50;  // fresh requests checked directly

enum Stream : uint64_t {
  kModel = 2,
  kSchedule = 4,
  kHot = 5,
  kTraceIds = 6,
  kFreshData = 100,
};

// -- Request windows ----------------------------------------------------------

/// Distinct real generator windows, in a seed-shuffled order, with their
/// request bodies rendered ahead of time (outside every timed region).
struct WindowPool {
  std::vector<Tensor> windows;
  std::vector<std::string> bodies;
  float mean = 0.0f;
  float stddev = 1.0f;
  CrimeDataset first;  // supplies the bundle's geometry and moments
};

std::string RenderBody(const Tensor& window) {
  std::string body = "{\"window\": [";
  char buf[32];
  bool first = true;
  for (float value : window.Data()) {
    std::snprintf(buf, sizeof buf, first ? "%.9g" : ",%.9g",
                  static_cast<double>(value));
    body += buf;
    first = false;
  }
  body += "]}";
  return body;
}

WindowPool MakeWindowPool(uint64_t seed, size_t needed) {
  WindowPool pool;
  std::unordered_set<uint64_t> seen;
  for (uint64_t dataset = 0; pool.windows.size() < needed; ++dataset) {
    CrimeGenConfig config = NycSmallPreset();
    config.seed = DeriveSeed(seed, kFreshData + dataset);
    CrimeDataset data = GenerateCrimeData(config);
    for (int64_t t = kWindow; t < data.num_days(); ++t) {
      Tensor window = data.WindowInput(t, kWindow);
      if (seen.insert(HashFloats(window.Data())).second) {
        pool.windows.push_back(std::move(window));
      }
    }
    if (dataset == 0) {
      const int64_t train_end = data.num_days() - data.num_days() / 8;
      data.SliceDays(0, train_end).ComputeMoments(&pool.mean, &pool.stddev);
      pool.first = std::move(data);
    }
  }
  Rng order(DeriveSeed(seed, kHot));
  order.Shuffle(pool.windows);
  pool.windows.resize(needed);
  for (const Tensor& window : pool.windows) {
    pool.bodies.push_back(RenderBody(window));
  }
  return pool;
}

// -- Schedule -----------------------------------------------------------------

struct Request {
  double due_s = 0.0;
  int32_t window = 0;
  /// Hot requests are checked against the hot set's reference inline;
  /// sampled fresh ones against a direct PredictWindows after the pass.
  bool hot = false;
  bool sampled = false;
};

/// Builds one pass: `rate * seconds` sends at sorted uniform times; fresh
/// requests take consecutive pool windows starting at `*next_fresh`.
std::vector<Request> MakeSchedule(const ServeSpec& spec, double seconds,
                                  Rng& rng, int32_t* next_fresh,
                                  int32_t* fresh_count) {
  const int64_t n = std::max<int64_t>(1, std::llround(spec.rate * seconds));
  std::vector<double> due(static_cast<size_t>(n));
  for (double& t : due) t = rng.Uniform(0.0, seconds);
  std::sort(due.begin(), due.end());
  std::vector<Request> schedule(static_cast<size_t>(n));
  for (size_t i = 0; i < schedule.size(); ++i) {
    Request& request = schedule[i];
    request.due_s = due[i];
    request.hot = spec.hot_windows > 0 && rng.Uniform() < spec.hot_frac;
    if (request.hot) {
      request.window = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(spec.hot_windows)));
    } else {
      request.window = (*next_fresh)++;
      request.sampled = (*fresh_count)++ % kReferenceStride == 0;
    }
  }
  return schedule;
}

// -- Client -------------------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string traceparent;
  std::string body;
};

/// One blocking keep-alive client connection to the in-process server.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  /// POST /v1/predict with `traceparent`; false on a transport error.
  bool Predict(const std::string& body, const std::string& traceparent,
               HttpReply* reply) {
    const std::string head =
        "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) +
        "\r\nConnection: keep-alive\r\ntraceparent: " + traceparent +
        "\r\n\r\n";
    return SendAll(head, MSG_MORE) && SendAll(body, 0) && Read(reply);
  }

 private:
  bool SendAll(const std::string& data, int flags) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               flags | MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  /// Value of header `name` (lower case) in a response head.
  static std::string Header(const std::string& head, const char* name) {
    std::string lower = head;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const std::string needle = std::string("\r\n") + name + ":";
    const size_t at = lower.find(needle);
    if (at == std::string::npos) return "";
    size_t begin = at + needle.size();
    while (begin < head.size() && head[begin] == ' ') ++begin;
    const size_t end = head.find("\r\n", begin);
    return head.substr(begin, end == std::string::npos ? std::string::npos
                                                       : end - begin);
  }

  bool Read(HttpReply* reply) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = buffer_.substr(0, header_end);
    if (std::sscanf(head.c_str(), "HTTP/1.1 %d", &reply->status) != 1) {
      return false;
    }
    const size_t length = std::strtoul(
        Header(head, "content-length").c_str(), nullptr, 10);
    reply->traceparent = Header(head, "traceparent");
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + length) {
      if (!Fill()) return false;
    }
    reply->body = buffer_.substr(body_start, length);
    buffer_.erase(0, body_start + length);
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// splitmix64 trace-id source; one per client thread.
class TraceIds {
 public:
  explicit TraceIds(uint64_t seed) : state_(seed) {}

  /// A fresh `00-<trace id>-<span id>-01` header; `*trace_id` gets the id
  /// the server must echo.
  std::string Traceparent(std::string* trace_id) {
    *trace_id = Hex(32);
    return "00-" + *trace_id + "-" + Hex(16) + "-01";
  }

 private:
  std::string Hex(int digits) {
    static const char* kDigits = "0123456789abcdef";
    std::string id(static_cast<size_t>(digits), '0');
    for (int filled = 0; filled < digits; filled += 16) {
      uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      if (z == 0) z = 1;  // an all-zero id is invalid
      for (int i = 0; i < 16 && filled + i < digits; ++i) {
        id[static_cast<size_t>(filled + i)] =
            kDigits[(z >> (60 - 4 * i)) & 0xF];
      }
    }
    return id;
  }

  uint64_t state_;
};

/// A validated predict response.
struct Answer {
  std::vector<float> prediction;
  bool cache_hit = false;
  double server_us = 0.0;
};

/// Checks one response: 200, echoed trace id, and an (R, C) payload of
/// finite non-negative counts. Returns the failure reason, or "".
std::string CheckReply(const HttpReply& reply, const std::string& trace_id,
                       int64_t rows, int64_t cols, Answer* answer) {
  if (reply.status != 200) {
    return "HTTP status " + std::to_string(reply.status);
  }
  if (reply.traceparent.size() != 55 ||
      reply.traceparent.compare(3, 32, trace_id) != 0) {
    return "traceparent not echoed: '" + reply.traceparent + "'";
  }
  JsonValue root;
  std::string error;
  if (!json::JsonParser(reply.body).Parse(&root, &error)) {
    return "response is not JSON: " + error;
  }
  const JsonValue* shape = root.FindOfKind("shape", JsonValue::Kind::kArray);
  const JsonValue* values =
      root.FindOfKind("prediction", JsonValue::Kind::kArray);
  const JsonValue* hit = root.FindOfKind("cache_hit", JsonValue::Kind::kBool);
  const JsonValue* latency =
      root.FindOfKind("latency_us", JsonValue::Kind::kNumber);
  if (shape == nullptr || values == nullptr || hit == nullptr ||
      latency == nullptr) {
    return "response lacks shape/prediction/cache_hit/latency_us";
  }
  if (shape->items.size() != 2 ||
      shape->items[0].number != static_cast<double>(rows) ||
      shape->items[1].number != static_cast<double>(cols) ||
      static_cast<int64_t>(values->items.size()) != rows * cols) {
    return "prediction is not (R, C)";
  }
  answer->prediction.clear();
  for (const JsonValue& item : values->items) {
    const float value = static_cast<float>(item.number);
    if (!item.Is(JsonValue::Kind::kNumber) || !std::isfinite(value) ||
        value < 0.0f) {
      return "prediction holds a negative or non-finite count";
    }
    answer->prediction.push_back(value);
  }
  answer->cache_hit = hit->boolean;
  answer->server_us = latency->number;
  return "";
}

bool SameBits(const std::vector<float>& a, const Tensor& b) {
  return a.size() == b.Data().size() &&
         std::memcmp(a.data(), b.Data().data(), a.size() * sizeof(float)) ==
             0;
}

// -- The served stack ---------------------------------------------------------

/// Engine, service and server of one set-up. Members are destroyed in
/// reverse order, which drains as sthsl_serve does: HTTP first, then the
/// micro-batcher.
class ServeStack {
 public:
  explicit ServeStack(serve::LoadedBundle bundle) {
    serve::EngineConfig config;
    config.batcher.max_batch_size = kMaxBatch;
    config.batcher.max_wait_us = kMaxWaitUs;
    config.batcher.worker_threads = kServeBatcherWorkers;
    config.cache_entries = kCacheEntries;
    config.cache_shards = kCacheShards;
    engine_ =
        std::make_unique<serve::InferenceEngine>(std::move(bundle), config);
    service_ = std::make_unique<serve::PredictService>(engine_.get());
    service_->Register(&server_);
  }

  Status Start() { return server_.Start("127.0.0.1", 0); }
  int port() const { return server_.port(); }
  const serve::InferenceEngine& engine() const { return *engine_; }

 private:
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::unique_ptr<serve::PredictService> service_;
  serve::HttpServer server_;
};

struct SetUpTimes {
  double setup_s = 0.0;
  double bundle_load_ms = 0.0;
};

/// One full set-up: model -> bundle on disk -> load -> serving stack ->
/// priming requests (hot set and warm-up windows). Priming replies are
/// kept for the reference check.
std::unique_ptr<ServeStack> SetUp(const ServeSpec& spec, uint64_t seed,
                                  const WindowPool& pool,
                                  const std::string& bundle_dir,
                                  SetUpTimes* times,
                                  std::vector<Answer>* primed,
                                  RunResult* result) {
  Timer timer;
  SthslConfig config;
  config.dim = 16;
  config.num_hyperedges = 32;
  config.train.window = kWindow;
  config.train.seed = DeriveSeed(seed, kModel);
  SthslForecaster model(config);
  const CrimeDataset& data = pool.first;
  model.MaterializeForInference(data.rows(), data.cols(),
                                data.num_categories(), pool.mean,
                                pool.stddev);
  serve::BundleManifest provenance;
  provenance.city = data.city_name();
  provenance.category_names = data.category_names();
  provenance.generator_seed = data.generator_seed();
  provenance.tool = "bench_e2e";
  const Status written = serve::WriteBundle(model, bundle_dir, provenance);
  if (!written.ok()) {
    result->Fail("WriteBundle: " + written.ToString());
    return nullptr;
  }
  Timer load_timer;
  Result<serve::LoadedBundle> loaded = serve::LoadBundle(bundle_dir);
  times->bundle_load_ms = load_timer.ElapsedMillis();
  if (!loaded.ok()) {
    result->Fail("LoadBundle: " + loaded.status().ToString());
    return nullptr;
  }
  auto stack = std::make_unique<ServeStack>(std::move(loaded).value());
  const Status started = stack->Start();
  if (!started.ok()) {
    result->Fail("HttpServer::Start: " + started.ToString());
    return nullptr;
  }
  Connection conn;
  if (!conn.Open(stack->port())) {
    result->Fail("cannot connect to the server");
    return nullptr;
  }
  TraceIds ids(DeriveSeed(seed, kTraceIds));
  primed->assign(static_cast<size_t>(spec.hot_windows + spec.warm_windows),
                 Answer());
  for (size_t w = 0; w < primed->size(); ++w) {
    std::string trace_id;
    const std::string traceparent = ids.Traceparent(&trace_id);
    HttpReply reply;
    std::string why = "transport error";
    if (conn.Predict(pool.bodies[w], traceparent, &reply)) {
      why = CheckReply(reply, trace_id, data.num_regions(),
                       data.num_categories(), &(*primed)[w]);
    }
    if (!why.empty()) {
      result->Fail("priming request: " + why);
      return nullptr;
    }
  }
  times->setup_s = timer.ElapsedSeconds();
  return stack;
}

// -- One measured pass --------------------------------------------------------

template <typename T>
void Append(std::vector<T>* to, std::vector<T>&& from) {
  to->insert(to->end(), std::make_move_iterator(from.begin()),
             std::make_move_iterator(from.end()));
}

struct ClientLog {
  std::vector<double> latency_ms;  // scheduled send -> response read
  std::vector<double> lag_ms;      // scheduled send -> actual send
  std::vector<double> server_us;   // engine latency the server reports
  std::vector<double> outside_ms;  // client latency minus server latency
  std::vector<std::pair<int32_t, std::vector<float>>> samples;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t hits = 0;
  double last_done_s = 0.0;
  std::vector<std::string> errors;

  void Merge(ClientLog&& other) {
    Append(&latency_ms, std::move(other.latency_ms));
    Append(&lag_ms, std::move(other.lag_ms));
    Append(&server_us, std::move(other.server_us));
    Append(&outside_ms, std::move(other.outside_ms));
    Append(&samples, std::move(other.samples));
    Append(&errors, std::move(other.errors));
    completed += other.completed;
    failed += other.failed;
    hits += other.hits;
    last_done_s = std::max(last_done_s, other.last_done_s);
  }
};

struct PassContext {
  const std::vector<Request>* schedule;
  const WindowPool* pool;
  const std::vector<Tensor>* hot_reference;
  int port;
  int64_t rows;
  int64_t cols;
  Clock::time_point start;
};

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void ClientLoop(const PassContext& ctx, std::atomic<size_t>* next,
                uint64_t id_seed, ClientLog* log) {
  const auto fail = [log](const std::string& why) {
    ++log->failed;
    if (log->errors.size() < 5) log->errors.push_back(why);
  };
  TraceIds ids(id_seed);
  Connection conn;
  bool connected = conn.Open(ctx.port);
  for (size_t i = next->fetch_add(1); i < ctx.schedule->size();
       i = next->fetch_add(1)) {
    const Request& request = (*ctx.schedule)[i];
    const Clock::time_point due =
        ctx.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(request.due_s));
    std::this_thread::sleep_until(due);
    std::string trace_id;
    const std::string traceparent = ids.Traceparent(&trace_id);
    if (!connected) connected = conn.Open(ctx.port);
    const Clock::time_point sent = Clock::now();
    HttpReply reply;
    const bool transported =
        connected &&
        conn.Predict(ctx.pool->bodies[static_cast<size_t>(request.window)],
                     traceparent, &reply);
    const Clock::time_point done = Clock::now();
    if (!transported) {
      fail("transport error");
      conn.Close();
      connected = false;
      continue;
    }
    Answer answer;
    const std::string why =
        CheckReply(reply, trace_id, ctx.rows, ctx.cols, &answer);
    if (!why.empty()) {
      fail(why);
      continue;
    }
    if (request.hot &&
        !SameBits(answer.prediction,
                  (*ctx.hot_reference)[static_cast<size_t>(request.window)])) {
      fail("hot window prediction differs from PredictWindows");
      continue;
    }
    const double latency_ms = MsBetween(due, done);
    log->latency_ms.push_back(latency_ms);
    log->lag_ms.push_back(MsBetween(due, sent));
    log->server_us.push_back(answer.server_us);
    log->outside_ms.push_back(latency_ms - answer.server_us / 1000.0);
    log->hits += answer.cache_hit ? 1 : 0;
    ++log->completed;
    log->last_done_s = MsBetween(ctx.start, done) / 1000.0;
    if (request.sampled) {
      log->samples.emplace_back(request.window, std::move(answer.prediction));
    }
  }
}

struct PassResult {
  ClientLog log;
  serve::PredictionCache::Stats cache_before, cache_after;
  serve::MicroBatcher::Stats batcher_before, batcher_after;
};

PassResult RunPass(const ServeStack& stack, const PassContext& base,
                   const std::vector<Request>& schedule, uint64_t id_seed) {
  PassResult pass;
  pass.cache_before = stack.engine().cache_stats();
  pass.batcher_before = stack.engine().batcher_stats();
  PassContext ctx = base;
  ctx.schedule = &schedule;
  const int clients = LoadgenConnections();
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::atomic<size_t> next{0};
  ctx.start = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(ClientLoop, std::cref(ctx), &next,
                           DeriveSeed(id_seed, static_cast<uint64_t>(c)),
                           &logs[static_cast<size_t>(c)]);
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (ClientLog& log : logs) pass.log.Merge(std::move(log));
  pass.cache_after = stack.engine().cache_stats();
  pass.batcher_after = stack.engine().batcher_stats();
  return pass;
}

/// Request and cache gates shared by both passes.
void GatePass(const ServeSpec& spec, const PassResult& pass,
              int64_t attempted, RunResult* result) {
  result->attempted += attempted;
  result->failed += pass.log.failed;
  for (const std::string& error : pass.log.errors) result->Fail(error);
  if (pass.log.completed + pass.log.failed != attempted) {
    result->Fail("requests lost by the generator");
  }
  if (spec.hot_windows == 0 &&
      (pass.log.hits != 0 || pass.cache_after.hits != pass.cache_before.hits)) {
    result->Fail("distinct windows were answered from the cache");
  }
}

/// Per-layer metrics of the traced pass (the second one).
void AttributeServing(const std::vector<PassResult>& passes,
                      double bundle_load_ms, RunResult* result) {
  const std::vector<obs::TraceEvent> events = obs::TraceEvents();
  // Batcher stages are recorded as zero on cache hits; `skip_zero` keeps
  // the misses.
  const auto span_us = [&events](const char* name, bool skip_zero) {
    std::vector<double> us;
    for (const obs::TraceEvent& event : events) {
      if (std::strcmp(event.category, "serve") == 0 && event.name == name &&
          !(skip_zero && event.dur_us <= 0.0)) {
        us.push_back(event.dur_us);
      }
    }
    return us;
  };
  const struct {
    const char* metric;
    const char* span;
    bool skip_zero;
    double pct;
  } kStages[] = {
      {"serve.header_parse_us_p50", "serve/header_parse", false, 50.0},
      {"serve.body_parse_us_p50", "serve/body_parse", false, 50.0},
      {"serve.serialize_us_p50", "serve/serialize", false, 50.0},
      {"serve.cache_lookup_us_p50", "serve/cache_lookup", false, 50.0},
      {"serve.queue_wait_us_p99", "serve/queue_wait", true, 99.0},
      {"serve.inference_us_p50", "serve/inference", true, 50.0},
  };
  for (const auto& stage : kStages) {
    result->Set(stage.metric,
                Percentile(span_us(stage.span, stage.skip_zero), stage.pct));
  }

  const PassResult& traced = passes[1];
  const ClientLog& log = traced.log;
  result->Set("serve.bundle_load_ms", bundle_load_ms);
  result->Set("serve.outside_server_ms_p50", Percentile(log.outside_ms, 50.0));
  result->Set("serve.server_us_p50", Percentile(log.server_us, 50.0));
  result->Set("serve.server_us_p99", Percentile(log.server_us, 99.0));
  const auto& cache0 = traced.cache_before;
  const auto& cache1 = traced.cache_after;
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double lookups = hits + static_cast<double>(cache1.misses -
                                                    cache0.misses);
  result->Set("serve.cache_hit_frac", lookups > 0.0 ? hits / lookups : 0.0);
  result->Set("serve.cache_evictions",
              static_cast<double>(cache1.evictions - cache0.evictions));
  const auto& batcher0 = traced.batcher_before;
  const auto& batcher1 = traced.batcher_after;
  const double batches =
      static_cast<double>(batcher1.batches - batcher0.batches);
  if (batches > 0.0) {
    result->Set(
        "serve.batch_size_mean",
        static_cast<double>(batcher1.requests - batcher0.requests) / batches);
    result->Set("serve.timeout_flush_frac",
                static_cast<double>(batcher1.timeout_flushes -
                                    batcher0.timeout_flushes) /
                    batches);
  }
  result->Set("loadgen.lag_ms_p99", Percentile(log.lag_ms, 99.0));
  const double untraced_p50 = Percentile(passes[0].log.latency_ms, 50.0);
  result->Set("obs.trace_overhead_pct",
              100.0 * (Percentile(log.latency_ms, 50.0) - untraced_p50) /
                  untraced_p50);
  result->notes.push_back("traced_requests " +
                          std::to_string(log.latency_ms.size()) + " count");
}

/// Scratch space for bundles, next to the binary (inside the build tree).
std::filesystem::path ScratchDir() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  const std::filesystem::path base =
      ec ? std::filesystem::current_path() : exe.parent_path();
  return base / ("e2e-scratch-" + std::to_string(::getpid()));
}

}  // namespace

RunResult RunServe(const Options& options) {
  const ServeSpec* spec = nullptr;
  for (const ServeSpec& candidate : kSpecs) {
    if (options.workload == candidate.name) spec = &candidate;
  }
  RunResult result(options.trace);
  if (spec == nullptr) {
    result.Fail("unknown serving workload " + options.workload);
    return result;
  }
  exec::SetThreadCount(ServeExecThreads());

  // Passes: the whole measured period, or an untraced and a traced half.
  const size_t passes = options.trace ? 2 : 1;
  Rng schedule_rng(DeriveSeed(options.seed, kSchedule));
  int32_t next_fresh = spec->hot_windows + spec->warm_windows;
  int32_t fresh_count = 0;
  std::vector<std::vector<Request>> schedules;
  for (size_t p = 0; p < passes; ++p) {
    schedules.push_back(MakeSchedule(*spec, options.seconds / passes,
                                     schedule_rng, &next_fresh,
                                     &fresh_count));
  }
  const WindowPool pool =
      MakeWindowPool(options.seed, static_cast<size_t>(next_fresh));
  const int64_t rows = pool.first.num_regions();
  const int64_t cols = pool.first.num_categories();

  const std::filesystem::path scratch = ScratchDir();
  const auto bundle_dir = [&scratch](int i) {
    return (scratch / ("bundle" + std::to_string(i))).string();
  };
  std::unique_ptr<ServeStack> stack;
  std::vector<Answer> primed;
  std::vector<double> setup_s;
  SetUpTimes times;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    stack.reset();
    stack = SetUp(*spec, options.seed, pool, bundle_dir(i), &times, &primed,
                  &result);
    if (stack == nullptr) break;
    setup_s.push_back(times.setup_s);
  }

  // Reference model: the same bundle loaded again, called directly.
  std::unique_ptr<SthslForecaster> reference;
  if (stack != nullptr) {
    Result<serve::LoadedBundle> loaded = serve::LoadBundle(bundle_dir(0));
    if (loaded.ok()) {
      reference = std::move(loaded.value().model);
    } else {
      result.Fail("reference LoadBundle: " + loaded.status().ToString());
    }
  }
  std::vector<PassResult> results;
  if (reference != nullptr) {
    const std::vector<Tensor> expected = reference->PredictWindows(
        std::vector<Tensor>(pool.windows.begin(),
                            pool.windows.begin() + primed.size()));
    const auto check_primed = [&] {
      for (size_t w = 0; w < primed.size(); ++w) {
        ++result.attempted;
        if (!SameBits(primed[w].prediction, expected[w])) {
          ++result.failed;
          result.Fail("priming prediction differs from PredictWindows");
        }
      }
    };
    check_primed();
    const std::vector<Tensor> hot_reference(
        expected.begin(), expected.begin() + spec->hot_windows);

    PassContext ctx{nullptr, &pool, &hot_reference, 0, rows, cols, {}};
    for (size_t p = 0; p < passes; ++p) {
      const bool traced = p == 1;
      PoolSnapshot pool_before;
      if (traced) {
        // The trace switch is a plain flag: flip it only while no serving
        // thread runs, then serve the traced pass from a fresh stack.
        stack.reset();
        obs::SetTraceEnabled(true);
        SetUpTimes traced_times;
        stack = SetUp(*spec, options.seed, pool, bundle_dir(1), &traced_times,
                      &primed, &result);
        if (stack == nullptr) {
          obs::SetTraceEnabled(false);
          break;
        }
        check_primed();
        obs::ResetProfiler();
        pool_before = TakePoolSnapshot();
      }
      ctx.port = stack->port();
      results.push_back(RunPass(*stack, ctx, schedules[p],
                                DeriveSeed(options.seed, kTraceIds + 1 + p)));
      if (traced) {
        AttributeModelLayers(pool_before, /*backward_us=*/0.0, &result);
        AttributeServing(results, times.bundle_load_ms, &result);
        stack.reset();
        obs::SetTraceEnabled(false);
      }
      GatePass(*spec, results.back(),
               static_cast<int64_t>(schedules[p].size()), &result);
    }

    // Every 50th fresh request against a direct PredictWindows.
    std::vector<Tensor> windows;
    std::vector<const std::vector<float>*> answers;
    for (const PassResult& pass : results) {
      for (const auto& [window, values] : pass.log.samples) {
        windows.push_back(pool.windows[static_cast<size_t>(window)]);
        answers.push_back(&values);
      }
    }
    const std::vector<Tensor> sampled = reference->PredictWindows(windows);
    for (size_t k = 0; k < sampled.size(); ++k) {
      if (!SameBits(*answers[k], sampled[k])) {
        ++result.failed;
        result.Fail("fresh prediction differs from PredictWindows");
      }
    }
  }
  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  if (results.size() != passes || options.trace) return result;

  const ClientLog& log = results[0].log;
  result.Set("setup_s", Median(setup_s));
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("throughput_per_s",
             log.last_done_s > 0.0
                 ? static_cast<double>(log.completed) / log.last_done_s
                 : 0.0);
  result.Set("latency_ms_p50", Percentile(log.latency_ms, 50.0));
  result.Set("latency_ms_tail", Percentile(log.latency_ms, spec->tail_pct));
  result.notes.push_back("requests " + std::to_string(log.latency_ms.size()) +
                         " count");
  result.notes.push_back("latency_ms_tail.percentile " +
                         Num(spec->tail_pct) + " %");
  return result;
}

}  // namespace sthsl::e2e

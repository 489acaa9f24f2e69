#include "serve/service.h"

#include <cctype>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/exec.h"
#include "serve/access_log.h"
#include "simd/simd.h"
#include "serve/trace.h"
#include "util/json_mini.h"
#include "util/obs/export.h"
#include "util/obs/metrics.h"
#include "util/obs/obs.h"

namespace sthsl::serve {
namespace {

using sthsl::json::JsonValue;
using sthsl::json::JsonWriter;

HttpResponse ErrorResponse(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = ErrorBody(message);
  return response;
}

int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case Status::Code::kInvalidArgument: return 400;
    case Status::Code::kResourceExhausted: return 503;  // queue full
    case Status::Code::kInternal: return 503;  // engine draining
    default: return 500;
  }
}

const std::string& HeaderOrEmpty(const HttpRequest& request,
                                 const std::string& name) {
  static const std::string kEmpty;
  const auto it = request.headers.find(name);
  return it != request.headers.end() ? it->second : kEmpty;
}

/// Attaches the context to the response and echoes the traceparent header
/// (the HTTP layer would synthesize a fresh context otherwise, losing the
/// stage timings accumulated here).
void AttachTrace(RequestContext context, HttpResponse* response) {
  response->headers.emplace_back("traceparent", context.TraceparentHeader());
  response->trace = std::move(context);
}

/// Publishes the full per-request stage breakdown: one histogram per
/// stage (always on, fixed memory) and, when tracing is enabled, one
/// "serve"-category chrome-trace span per stage laid out sequentially from
/// `t0_us`. The sequential layout is an approximation — the stages are
/// measured as durations, and the predict pipeline runs them in this order.
void PublishStages(const RequestContext& context, double t0_us) {
  auto& registry = obs::MetricsRegistry::Global();
  static const char* kStageMetric[kNumStages] = {
      "serve/stage/header_parse_us", "serve/stage/body_parse_us",
      "serve/stage/cache_lookup_us", "serve/stage/queue_wait_us",
      "serve/stage/batch_assembly_us", "serve/stage/inference_us",
      "serve/stage/serialize_us",
  };
  static const char* kStageSpan[kNumStages] = {
      "serve/header_parse",   "serve/body_parse", "serve/cache_lookup",
      "serve/queue_wait",     "serve/batch_assembly", "serve/inference",
      "serve/serialize",
  };
  const bool tracing = obs::TraceEnabled();
  double cursor_us = t0_us;
  for (int i = 0; i < kNumStages; ++i) {
    const double dur = context.stage_us[static_cast<size_t>(i)];
    registry.GetHistogram(kStageMetric[i]).Record(dur);
    // The header_parse span is emitted by the HTTP layer with its true
    // start time; re-emitting it here would double it.
    if (tracing && static_cast<Stage>(i) != Stage::kHeaderParse) {
      obs::RecordServeSpan(kStageSpan[i], cursor_us, dur);
    }
    cursor_us += dur;
  }
}

/// Prometheus metric name: `sthsl_` prefix, every character outside
/// [a-zA-Z0-9_] mapped to '_' (so "serve/stage/inference_us" becomes
/// "sthsl_serve_stage_inference_us").
std::string PrometheusName(const std::string& name) {
  std::string out = "sthsl_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

template <typename T>
void PrometheusScalar(std::ostringstream& body, const std::string& name,
                      const char* type, T value) {
  body << "# TYPE " << name << ' ' << type << '\n'
       << name << ' ' << value << '\n';
}

/// The "cache", "batcher" and "exec" members that both /metrics and
/// /statusz carry. Worker utilization is busy-time over uptime across
/// started workers (callers excluded — their "idle" time is the rest of the
/// request, not pool overhead).
void WriteServingStats(const InferenceEngine& engine, JsonWriter& json) {
  const PredictionCache::Stats cache = engine.cache_stats();
  json.Key("cache").BeginObject().Key("hits").Int(cache.hits);
  json.Key("misses").Int(cache.misses).Key("evictions").Int(cache.evictions);
  json.Key("entries").Int(cache.entries).EndObject();
  const MicroBatcher::Stats batcher = engine.batcher_stats();
  json.Key("batcher").BeginObject().Key("batches").Int(batcher.batches);
  json.Key("requests").Int(batcher.requests);
  json.Key("size_flushes").Int(batcher.size_flushes);
  json.Key("drain_flushes").Int(batcher.drain_flushes);
  json.Key("queue_full_rejects").Int(batcher.queue_full_rejects).EndObject();

  const exec::PoolStats stats = exec::GetPoolStats();
  double worker_busy_us = 0.0;
  double worker_uptime_us = 0.0;
  for (size_t i = 0; i < stats.worker_busy_us.size(); ++i) {
    worker_busy_us += stats.worker_busy_us[i];
    worker_uptime_us += stats.worker_busy_us[i] + stats.worker_idle_us[i];
  }
  const double utilization =
      worker_uptime_us > 0.0 ? worker_busy_us / worker_uptime_us : 0.0;
  json.Key("exec").BeginObject().Key("threads").Int(stats.thread_count);
  json.Key("workers_started").Int(stats.workers_started);
  json.Key("regions_launched").Int(stats.regions_launched);
  json.Key("chunks_executed").Int(stats.chunks_executed);
  json.Key("queue_depth").Int(stats.queue_depth);
  json.Key("max_queue_depth").Int(stats.max_queue_depth);
  json.Key("busy_us").Number(stats.total_busy_us());
  json.Key("worker_utilization").Number(utilization).EndObject();
}

}  // namespace

PredictService::PredictService(InferenceEngine* engine) : engine_(engine) {}

void PredictService::Register(HttpServer* server) {
  server->Route("POST", "/v1/predict",
                [this](const HttpRequest& r) { return HandlePredict(r); });
  server->Route("GET", "/healthz",
                [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Route("GET", "/metrics",
                [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Route("GET", "/statusz",
                [this](const HttpRequest& r) { return HandleStatusz(r); });
}

HttpResponse PredictService::HandlePredict(const HttpRequest& request) {
  const double t0_us = obs::TraceNowMicros();
  RequestContext context =
      MakeRequestContext(HeaderOrEmpty(request, "traceparent"));
  context.AddStage(Stage::kHeaderParse, request.header_parse_us);

  // On every early exit the context still rides along, so error responses
  // echo the client's trace id and land in the access log with whatever
  // stages completed.
  Timer body_timer;
  auto fail = [&](HttpResponse response) {
    context.AddStage(Stage::kBodyParse, body_timer.ElapsedMicros());
    PublishStages(context, t0_us);
    AttachTrace(std::move(context), &response);
    return response;
  };

  JsonValue root;
  std::string error;
  if (!sthsl::json::JsonParser(request.body).Parse(&root, &error) ||
      !root.Is(JsonValue::Kind::kObject)) {
    return fail(
        ErrorResponse(400, "request body is not a JSON object: " + error));
  }
  const JsonValue* window_json =
      root.FindOfKind("window", JsonValue::Kind::kArray);
  if (window_json == nullptr) {
    return fail(
        ErrorResponse(400, "missing 'window': flat array of R*W*C counts"));
  }

  const BundleManifest& manifest = engine_->manifest();
  std::vector<int64_t> shape = manifest.WindowShape();
  if (const JsonValue* shape_json =
          root.FindOfKind("shape", JsonValue::Kind::kArray)) {
    shape.clear();
    for (const JsonValue& extent : shape_json->items) {
      // Bound-check before Tensor::FromVector: a hostile extent must come
      // back as a 400, not abort the process inside the tensor library.
      if (!extent.Is(JsonValue::Kind::kNumber) || extent.number < 1 ||
          extent.number > 1e9) {
        return fail(ErrorResponse(
            400, "'shape' must be an array of positive integers"));
      }
      shape.push_back(static_cast<int64_t>(extent.number));
    }
  }
  int64_t numel = 1;
  for (int64_t extent : shape) numel *= extent;
  if (static_cast<int64_t>(window_json->items.size()) != numel ||
      numel <= 0) {
    return fail(ErrorResponse(
        400, "'window' holds " + std::to_string(window_json->items.size()) +
                 " values but the shape needs " + std::to_string(numel)));
  }
  std::vector<float> values;
  values.reserve(window_json->items.size());
  for (const JsonValue& item : window_json->items) {
    if (!item.Is(JsonValue::Kind::kNumber)) {
      return fail(ErrorResponse(400, "'window' must contain only numbers"));
    }
    values.push_back(static_cast<float>(item.number));
  }
  Tensor window = Tensor::FromVector(std::move(shape), std::move(values));
  context.AddStage(Stage::kBodyParse, body_timer.ElapsedMicros());

  Result<InferenceEngine::Prediction> prediction =
      engine_->Predict(std::move(window));
  if (!prediction.ok()) {
    HttpResponse response = ErrorResponse(StatusToHttp(prediction.status()),
                                          prediction.status().message());
    // A full queue clears within milliseconds; tell the client to come back.
    if (prediction.status().code() == Status::Code::kResourceExhausted) {
      response.headers.emplace_back("Retry-After", "1");
    }
    PublishStages(context, t0_us);
    AttachTrace(std::move(context), &response);
    return response;
  }

  const InferenceEngine::Prediction& p = prediction.value();
  context.AddStage(Stage::kCacheLookup, p.cache_lookup_us);
  context.AddStage(Stage::kQueueWait, p.queue_wait_us);
  context.AddStage(Stage::kBatchAssembly, p.batch_assembly_us);
  context.AddStage(Stage::kInference, p.inference_us);

  Timer serialize_timer;
  JsonWriter json;
  json.BeginObject().Key("model").String(manifest.model);
  json.Key("shape").BeginArray().Int(p.values.Size(0)).Int(p.values.Size(1));
  json.EndArray().Key("prediction").BeginArray();
  for (float value : p.values.Data()) json.Number(value);
  json.EndArray().Key("cache_hit").Bool(p.cache_hit);
  json.Key("latency_us").Number(p.latency_us);
  json.Key("trace_id").String(context.trace_id).EndObject();
  std::string body = std::move(json).str();
  context.AddStage(Stage::kSerialize, serialize_timer.ElapsedMicros());
  PublishStages(context, t0_us);

  HttpResponse response;
  response.body = std::move(body);
  response.cache_hit = p.cache_hit;
  response.batch_size = p.batch_size;
  AttachTrace(std::move(context), &response);
  return response;
}

HttpResponse PredictService::HandleHealth(const HttpRequest& request) {
  const BundleManifest& m = engine_->manifest();
  HttpResponse response;
  JsonWriter json;
  json.BeginObject().Key("status").String("ok").Key("model").String(m.model);
  json.Key("city").String(m.city).Key("rows").Int(m.rows);
  json.Key("cols").Int(m.cols).Key("categories").Int(m.categories);
  json.Key("window").Int(m.config.train.window);
  json.Key("git_hash").String(m.git_hash).EndObject();
  response.body = std::move(json).str();
  return response;
}

HttpResponse PredictService::HandleMetrics(const HttpRequest& request) {
  // Refresh the exec/* gauges from the pool's live counters so every scrape
  // sees current thread-pool telemetry in both exposition formats.
  exec::PublishPoolStats();

  // Content negotiation: Prometheus text exposition when the client asks
  // for text/plain or OpenMetrics; the JSON document stays the default so
  // existing scrapers (loadgen, sthsl_report check) keep working unchanged.
  const std::string& accept = HeaderOrEmpty(request, "accept");
  const bool prometheus =
      accept.find("text/plain") != std::string::npos ||
      accept.find("openmetrics") != std::string::npos;
  if (prometheus) {
    auto& registry = obs::MetricsRegistry::Global();
    const PredictionCache::Stats cache = engine_->cache_stats();
    const MicroBatcher::Stats batcher = engine_->batcher_stats();
    std::ostringstream body;
    body.precision(17);
    for (const auto& [name, value] : registry.Counters()) {
      PrometheusScalar(body, PrometheusName(name), "counter", value);
    }
    for (const auto& [name, value] : registry.Gauges()) {
      PrometheusScalar(body, PrometheusName(name), "gauge", value);
    }
    for (const auto& [name, s] : registry.Histograms()) {
      const std::string metric = PrometheusName(name);
      body << "# TYPE " << metric << " summary\n"
           << metric << "{quantile=\"0.5\"} " << s.p50 << '\n'
           << metric << "{quantile=\"0.95\"} " << s.p95 << '\n'
           << metric << "{quantile=\"0.99\"} " << s.p99 << '\n'
           << metric << "_sum " << s.mean * static_cast<double>(s.count)
           << '\n'
           << metric << "_count " << s.count << '\n';
    }
    PrometheusScalar(body, "sthsl_serve_cache_entries", "gauge", cache.entries);
    PrometheusScalar(body, "sthsl_serve_cache_evictions", "counter",
                     cache.evictions);
    PrometheusScalar(body, "sthsl_serve_batcher_batches", "counter",
                     batcher.batches);
    PrometheusScalar(body, "sthsl_serve_batcher_requests", "counter",
                     batcher.requests);
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4";
    response.body = body.str();
    return response;
  }

  JsonWriter json;
  json.BeginObject();
  obs::WriteRegistryJson(json);
  WriteServingStats(*engine_, json);
  json.EndObject();
  HttpResponse response;
  response.body = std::move(json).str();
  return response;
}

HttpResponse PredictService::HandleStatusz(const HttpRequest& request) {
  const BundleManifest& m = engine_->manifest();
  JsonWriter json;
  json.BeginObject().Key("uptime_s").Number(uptime_.ElapsedMicros() / 1e6);
  json.Key("bundle").BeginObject().Key("model").String(m.model);
  json.Key("city").String(m.city).Key("git_hash").String(m.git_hash);
  json.Key("created_utc").String(m.created_utc);
  json.Key("tool").String(m.tool).EndObject();
  json.Key("exec_threads").Int(exec::ThreadCount());
  json.Key("simd").BeginObject().Key("kernels").String(simd::Kernels().name);
  json.Key("cpu_features").String(simd::CpuFeatureString()).EndObject();
  json.Key("trace_enabled").Bool(obs::TraceEnabled());
  json.Key("access_log_enabled").Bool(AccessLog::Global().enabled());
  WriteServingStats(*engine_, json);
  json.EndObject();
  HttpResponse response;
  response.body = std::move(json).str();
  return response;
}

}  // namespace sthsl::serve

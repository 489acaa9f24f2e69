#ifndef STHSL_SERVE_SERVICE_H_
#define STHSL_SERVE_SERVICE_H_

#include "serve/engine.h"
#include "serve/http.h"
#include "util/timer.h"

namespace sthsl::serve {

/// Binds the HTTP endpoint contract to an InferenceEngine:
///
///   POST /v1/predict  {"window": [R*W*C floats], "shape": [R, W, C]}
///                     → {"model", "shape": [R, C], "prediction": [...],
///                        "cache_hit", "latency_us", "trace_id"}
///   GET  /healthz     → {"status": "ok", "model", "city", ...}
///   GET  /metrics     → obs registry counters/gauges/histograms
///                       (JSON by default; Prometheus text exposition when
///                       the Accept header asks for text/plain or
///                       openmetrics)
///   GET  /statusz     → uptime, bundle provenance, exec thread count,
///                       live batcher/cache stats
///
/// Every request is traced: an incoming W3C `traceparent` header is
/// adopted (malformed ones are replaced), the trace id is echoed in the
/// response `traceparent` header, and the predict path records per-stage
/// timings into serve/stage/* histograms, the chrome trace ("serve"
/// category) and the access log. See docs/observability.md.
///
/// Floats are rendered as %.9g would, which round-trips float32 exactly — a
/// client parsing the JSON recovers bit-identical predictions. The handlers
/// are plain functions of HttpRequest so tests can drive them without
/// sockets. See docs/serving.md for the full contract.
class PredictService {
 public:
  explicit PredictService(InferenceEngine* engine);

  /// Registers every route on `server`.
  void Register(HttpServer* server);

  HttpResponse HandlePredict(const HttpRequest& request);
  HttpResponse HandleHealth(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleStatusz(const HttpRequest& request);

 private:
  InferenceEngine* engine_;  // not owned
  Timer uptime_;             // started at construction
};

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_SERVICE_H_

#include "serve/engine.h"

#include <cmath>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/obs/metrics.h"
#include "util/timer.h"

namespace sthsl::serve {

InferenceEngine::InferenceEngine(LoadedBundle bundle, EngineConfig config)
    : bundle_(std::move(bundle)),
      cache_(config.cache_entries, config.cache_shards) {
  STHSL_CHECK(bundle_.model != nullptr) << "engine needs a loaded bundle";
  STHSL_CHECK(bundle_.model->SupportsWindowPredict())
      << bundle_.manifest.model << " cannot serve raw windows";
  Forecaster* model = bundle_.model.get();
  batcher_ = std::make_unique<MicroBatcher>(
      config.batcher, [model](const std::vector<Tensor>& windows) {
        auto& registry = obs::MetricsRegistry::Global();
        registry.GetCounter("serve/batches").Add(1);
        registry.GetHistogram("serve/batch_size")
            .Record(static_cast<double>(windows.size()));
        return model->PredictWindows(windows);
      });
}

InferenceEngine::~InferenceEngine() { Shutdown(); }

void InferenceEngine::Shutdown() { batcher_->Shutdown(); }

Result<InferenceEngine::Prediction> InferenceEngine::Predict(
    const Tensor& window) {
  Timer timer;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("serve/requests").Add(1);

  const std::vector<int64_t> expected = bundle_.manifest.WindowShape();
  if (!window.Defined() || window.Shape() != expected) {
    registry.GetCounter("serve/errors").Add(1);
    std::string got = "none";
    if (window.Defined()) {
      got = "[";
      for (size_t i = 0; i < window.Shape().size(); ++i) {
        got += (i == 0 ? "" : ", ") + std::to_string(window.Shape()[i]);
      }
      got += "]";
    }
    return Status::InvalidArgument(
        "window shape " + got + " does not match the bundle's (R, W, C) = [" +
        std::to_string(expected[0]) + ", " + std::to_string(expected[1]) +
        ", " + std::to_string(expected[2]) + "]");
  }
  for (float value : window.Data()) {
    if (!std::isfinite(value)) {
      registry.GetCounter("serve/errors").Add(1);
      return Status::InvalidArgument("window contains non-finite values");
    }
  }

  Prediction result;
  Timer cache_timer;
  const bool cache_hit = cache_.Lookup(window, &result.values);
  result.cache_lookup_us = cache_timer.ElapsedMicros();
  if (cache_hit) {
    result.cache_hit = true;
    registry.GetCounter("serve/cache_hits").Add(1);
  } else {
    registry.GetCounter("serve/cache_misses").Add(1);
    MicroBatcher::Ticket ticket = batcher_->Submit(window).get();
    if (!ticket.value.Defined()) {
      registry.GetCounter("serve/errors").Add(1);
      if (ticket.queue_full) {
        return Status::ResourceExhausted("prediction queue is full");
      }
      return Status::Internal("engine is shutting down");
    }
    cache_.Insert(window, ticket.value);
    result.values = std::move(ticket.value);
    result.queue_wait_us = ticket.queue_wait_us;
    result.batch_assembly_us = ticket.batch_assembly_us;
    result.inference_us = ticket.inference_us;
    result.batch_size = ticket.batch_size;
  }
  result.latency_us = timer.ElapsedMicros();
  registry.GetHistogram("serve/latency_us").Record(result.latency_us);
  return result;
}

}  // namespace sthsl::serve

#ifndef STHSL_SERVE_ENGINE_H_
#define STHSL_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>

#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/cache.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace sthsl::serve {

struct EngineConfig {
  MicroBatcher::Config batcher;
  /// Total prediction-cache entries (0 disables the cache).
  int64_t cache_entries = 1024;
  int64_t cache_shards = 8;
};

/// The inference engine behind every endpoint: validates request windows
/// against the bundle geometry, answers repeats from the sharded LRU cache,
/// and funnels misses through the dispatch-on-idle micro-batcher into
/// Forecaster::PredictWindows calls. Publishes serve/* metrics into the
/// process obs registry (see docs/serving.md).
class InferenceEngine {
 public:
  struct Prediction {
    Tensor values;  // (R, C) non-negative counts
    bool cache_hit = false;
    double latency_us = 0.0;
    /// Stage breakdown (microseconds) for request tracing. The batcher
    /// stages are zero — and batch_size is 0 — on cache hits.
    double cache_lookup_us = 0.0;
    double queue_wait_us = 0.0;
    double batch_assembly_us = 0.0;
    double inference_us = 0.0;
    int64_t batch_size = 0;
  };

  InferenceEngine(LoadedBundle bundle, EngineConfig config);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Blocking predict for one (R, W, C) window. InvalidArgument on a window
  /// whose shape does not match the bundle or that contains non-finite
  /// values; ResourceExhausted when the micro-batcher queue is full;
  /// Internal when the engine is shutting down.
  Result<Prediction> Predict(const Tensor& window);

  const BundleManifest& manifest() const { return bundle_.manifest; }

  PredictionCache::Stats cache_stats() const { return cache_.GetStats(); }
  MicroBatcher::Stats batcher_stats() const { return batcher_->GetStats(); }

  /// Graceful drain: in-flight predictions finish, new ones fail fast.
  void Shutdown();

 private:
  LoadedBundle bundle_;
  PredictionCache cache_;
  std::unique_ptr<MicroBatcher> batcher_;
};

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_ENGINE_H_

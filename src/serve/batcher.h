#ifndef STHSL_SERVE_BATCHER_H_
#define STHSL_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "tensor/tensor.h"

namespace sthsl::serve {

/// Dispatch-on-idle micro-batcher: concurrent callers submit single input
/// windows, a fixed pool of worker threads drains them. A free worker takes
/// whatever is queued at once, up to `max_batch_size` windows, so a request
/// waits only while every worker is busy; batches form only from the
/// backlog that builds up meanwhile. The queue holds at most
/// kMaxQueuedWindows windows; a submit beyond that is rejected at once.
class MicroBatcher {
 public:
  /// Windows waiting for a worker, at most. Serving holds one connection
  /// thread per queued window, so the cap bounds both memory and the wait
  /// an accepted request can see.
  static constexpr size_t kMaxQueuedWindows = 64;

  struct Config {
    /// Requests per batch (upper bound).
    int64_t max_batch_size = 8;
    /// Never read: dispatch on idle has no wait bound. Kept only because
    /// bench/e2e still sets it; delete it with the bench change of ROADMAP
    /// item 8.
    int64_t max_wait_us = 2000;
    /// Worker threads executing batches (each runs the batch function
    /// independently, so batches overlap).
    int64_t worker_threads = 2;
  };

  /// Batch accounting, exposed for tests and the /metrics endpoint.
  struct Stats {
    int64_t batches = 0;
    int64_t requests = 0;
    int64_t size_flushes = 0;     // batch reached max_batch_size
    int64_t timeout_flushes = 0;  // always 0; kept for bench/e2e, see above
    int64_t drain_flushes = 0;    // dispatched during Shutdown drain
    int64_t queue_full_rejects = 0;  // submits refused at kMaxQueuedWindows
  };

  /// Executes one batch: receives the stacked input windows, returns one
  /// prediction per input, in order. Must be callable from multiple worker
  /// threads concurrently and must not fail (callers validate inputs before
  /// Submit).
  using BatchFn =
      std::function<std::vector<Tensor>(const std::vector<Tensor>&)>;

  /// What a Submit future resolves with: the prediction plus this request's
  /// share of the batch timeline, for per-stage tracing.
  struct Ticket {
    /// Undefined when the submit was rejected: the batcher was draining, or
    /// (`queue_full`) the queue already held kMaxQueuedWindows windows.
    Tensor value;
    bool queue_full = false;
    /// Submit enqueue → a worker dequeued this request.
    double queue_wait_us = 0.0;
    /// Dequeue → the batch function was entered (moving inputs/promises and
    /// batch accounting); shared by every request in the batch.
    double batch_assembly_us = 0.0;
    /// Wall time of the batch function (stacking + forward); shared by
    /// every request in the batch.
    double inference_us = 0.0;
    /// Requests in the batch this one rode in (0 when rejected).
    int64_t batch_size = 0;
  };

  MicroBatcher(Config config, BatchFn fn);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one window. The future resolves with the prediction once the
  /// window's batch has run. After Shutdown, or while the queue is full, the
  /// returned future resolves immediately with a Ticket holding an
  /// undefined Tensor (callers translate that into an unavailable error).
  std::future<Ticket> Submit(Tensor window);

  /// Graceful drain: rejects new submissions, runs everything already
  /// queued, then joins the workers. Idempotent.
  void Shutdown();

  Stats GetStats() const;

 private:
  struct Pending {
    Tensor input;
    std::promise<Ticket> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  const Config config_;
  const BatchFn fn_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_BATCHER_H_

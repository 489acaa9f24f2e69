#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace sthsl::serve {

MicroBatcher::MicroBatcher(Config config, BatchFn fn)
    : config_(config), fn_(std::move(fn)) {
  STHSL_CHECK(config_.max_batch_size >= 1)
      << "max_batch_size must be >= 1, got " << config_.max_batch_size;
  STHSL_CHECK(config_.worker_threads >= 1)
      << "worker_threads must be >= 1, got " << config_.worker_threads;
  STHSL_CHECK(fn_ != nullptr) << "MicroBatcher needs a batch function";
  workers_.reserve(static_cast<size_t>(config_.worker_threads));
  for (int64_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

std::future<MicroBatcher::Ticket> MicroBatcher::Submit(Tensor window) {
  Pending pending;
  pending.input = std::move(window);
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<Ticket> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= kMaxQueuedWindows) {
      // Draining or full: resolve immediately with an undefined tensor
      // instead of blocking the caller or aborting mid-drain.
      Ticket rejected;
      rejected.queue_full = !stopping_;
      stats_.queue_full_rejects += rejected.queue_full ? 1 : 0;
      pending.promise.set_value(std::move(rejected));
      return future;
    }
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

void MicroBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

MicroBatcher::Stats MicroBatcher::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MicroBatcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the queue is drained

    // Dispatch on idle: this worker is free, so it takes what is queued now
    // rather than waiting for company.
    const size_t take = std::min<size_t>(
        queue_.size(), static_cast<size_t>(config_.max_batch_size));
    const auto dequeue_start = std::chrono::steady_clock::now();
    std::vector<Tensor> inputs;
    std::vector<std::promise<Ticket>> promises;
    std::vector<double> queue_waits_us;
    inputs.reserve(take);
    promises.reserve(take);
    queue_waits_us.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      queue_waits_us.push_back(
          std::chrono::duration<double, std::micro>(
              dequeue_start - queue_.front().enqueued)
              .count());
      inputs.push_back(std::move(queue_.front().input));
      promises.push_back(std::move(queue_.front().promise));
      queue_.pop_front();
    }
    stats_.batches += 1;
    stats_.requests += static_cast<int64_t>(take);
    if (take == static_cast<size_t>(config_.max_batch_size)) {
      stats_.size_flushes += 1;
    } else if (stopping_) {
      stats_.drain_flushes += 1;
    }

    lock.unlock();
    const auto infer_start = std::chrono::steady_clock::now();
    std::vector<Tensor> outputs = fn_(inputs);
    const auto infer_end = std::chrono::steady_clock::now();
    STHSL_CHECK(outputs.size() == inputs.size())
        << "batch function returned " << outputs.size() << " results for "
        << inputs.size() << " inputs";
    const double assembly_us =
        std::chrono::duration<double, std::micro>(infer_start - dequeue_start)
            .count();
    const double inference_us =
        std::chrono::duration<double, std::micro>(infer_end - infer_start)
            .count();
    for (size_t i = 0; i < take; ++i) {
      Ticket ticket;
      ticket.value = std::move(outputs[i]);
      ticket.queue_wait_us = queue_waits_us[i];
      ticket.batch_assembly_us = assembly_us;
      ticket.inference_us = inference_us;
      ticket.batch_size = static_cast<int64_t>(take);
      promises[i].set_value(std::move(ticket));
    }
    lock.lock();
  }
}

}  // namespace sthsl::serve

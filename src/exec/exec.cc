#include "exec/exec.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "util/flags.h"
#include "util/obs/metrics.h"
#include "util/obs/obs.h"

namespace sthsl::exec {
namespace {

constexpr int kMaxThreads = 512;

// Pool utilization telemetry (PoolStats / PublishPoolStats). Busy time is
// attributed per worker slot — fixed when the worker thread starts — with
// launching callers aggregated into one cell, since callers participate in
// their own regions. Always on: per chunk this costs two monotonic clock
// reads and a few relaxed atomic adds, negligible against grain-sized work.
struct Telemetry {
  Telemetry() {
    for (auto& cell : worker_busy_ns) cell.store(0, std::memory_order_relaxed);
    for (auto& cell : worker_start_us) {
      cell.store(0, std::memory_order_relaxed);
    }
  }

  std::atomic<int64_t> regions_launched{0};
  std::atomic<int64_t> chunks_executed{0};
  std::atomic<int64_t> caller_busy_ns{0};
  std::atomic<int64_t> max_queue_depth{0};
  // High-water worker-slot count (slots restart at 0 after ShutdownPool and
  // keep their cumulative busy time).
  std::atomic<int> workers_started{0};
  std::atomic<int64_t> worker_busy_ns[kMaxThreads];
  // TraceNowMicros() reading when the slot's current thread started, for the
  // idle = uptime - busy estimate.
  std::atomic<int64_t> worker_start_us[kMaxThreads];
};

Telemetry& T() {
  static Telemetry* telemetry = new Telemetry();
  return *telemetry;
}

// Worker slot of the calling thread; -1 for non-pool threads (callers).
thread_local int t_worker_slot = -1;

// Thread count: 0 means "not resolved yet"; resolved lazily from
// STHSL_THREADS (then hardware concurrency) on first read so tests and
// tools can SetThreadCount before any kernel runs.
std::atomic<int> g_thread_count{0};

// Accepts the same range as the tools' --threads flags; the pool clamps it.
int ResolveThreadCountFromEnv() {
  const int64_t count =
      EnvIntOr("STHSL_THREADS", HardwareThreadCount(), 1, 1024);
  return static_cast<int>(std::min<int64_t>(count, kMaxThreads));
}

// True while this thread executes a chunk of a parallel region; nested
// ParallelFor calls see it and run serially inline.
thread_local bool t_in_parallel_region = false;

class RegionGuard {
 public:
  RegionGuard() { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = false; }

  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
};

// One parallel launch: a fixed chunk grid plus claim/completion state.
// Chunks are claimed under the pool mutex (they are coarse by
// construction), executed without it, and completion is signalled through
// `remaining` + the owning launch's condition variable.
struct Region {
  exec_internal::ChunkFn fn = nullptr;
  const void* ctx = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk_size = 1;
  int64_t num_chunks = 0;
  int64_t next_chunk = 0;  // guarded by the pool mutex
  std::atomic<int64_t> remaining{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  std::mutex done_mu;
  std::condition_variable done_cv;
  obs::ParallelRegionToken token;
  // Summed chunk-execution time across every thread that ran a chunk of
  // this region; feeds the per-tag parallel-efficiency columns.
  std::atomic<int64_t> busy_ns{0};
};

struct Pool {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread> workers;
  std::deque<std::shared_ptr<Region>> active;
  bool stopping = false;
};

// Leaked on purpose (like the obs state): workers may still be parked when
// ordinary static destructors run; the atexit hook joins them first.
Pool& P() {
  static Pool* pool = new Pool();
  return *pool;
}

void ExecuteChunk(Region& region, int64_t chunk) {
  const int64_t b = region.begin + chunk * region.chunk_size;
  int64_t e = b + region.chunk_size;
  if (e > region.end) e = region.end;
  if (!region.failed.load(std::memory_order_relaxed)) {
    const double slice_start = obs::TraceNowMicros();
    {
      RegionGuard in_region;
      try {
        region.fn(region.ctx, chunk, b, e);
      } catch (...) {
        region.failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(region.error_mu);
        if (!region.error) region.error = std::current_exception();
      }
    }
    const double slice_us = obs::TraceNowMicros() - slice_start;
    if (region.token.active) {
      obs::RecordParallelSlice(region.token, slice_start, slice_us);
    }
    const int64_t slice_ns = static_cast<int64_t>(slice_us * 1e3);
    region.busy_ns.fetch_add(slice_ns, std::memory_order_relaxed);
    Telemetry& telemetry = T();
    telemetry.chunks_executed.fetch_add(1, std::memory_order_relaxed);
    if (t_worker_slot >= 0) {
      telemetry.worker_busy_ns[t_worker_slot].fetch_add(
          slice_ns, std::memory_order_relaxed);
    } else {
      telemetry.caller_busy_ns.fetch_add(slice_ns, std::memory_order_relaxed);
    }
  }
  if (region.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(region.done_mu);
    region.done_cv.notify_all();
  }
}

void WorkerLoop(int slot) {
  t_worker_slot = slot;
  {
    Telemetry& telemetry = T();
    telemetry.worker_start_us[slot].store(
        static_cast<int64_t>(obs::TraceNowMicros()),
        std::memory_order_relaxed);
    int started = telemetry.workers_started.load(std::memory_order_relaxed);
    while (slot + 1 > started &&
           !telemetry.workers_started.compare_exchange_weak(
               started, slot + 1, std::memory_order_relaxed)) {
    }
  }
  Pool& pool = P();
  for (;;) {
    std::shared_ptr<Region> region;
    int64_t chunk = -1;
    {
      std::unique_lock<std::mutex> lock(pool.mu);
      pool.cv.wait(lock,
                   [&pool] { return pool.stopping || !pool.active.empty(); });
      if (pool.active.empty()) {
        if (pool.stopping) return;
        continue;
      }
      region = pool.active.front();
      if (region->next_chunk >= region->num_chunks) {
        pool.active.pop_front();
        continue;
      }
      chunk = region->next_chunk++;
    }
    ExecuteChunk(*region, chunk);
  }
}

void EnsureWorkersLocked(Pool& pool, int wanted) {
  static bool atexit_registered = [] {
    std::atexit([] { ShutdownPool(); });
    return true;
  }();
  (void)atexit_registered;
  while (static_cast<int>(pool.workers.size()) < wanted) {
    const int slot = static_cast<int>(pool.workers.size());
    pool.workers.emplace_back(WorkerLoop, slot);
  }
}

}  // namespace

int HardwareThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int ThreadCount() {
  int count = g_thread_count.load(std::memory_order_relaxed);
  if (count > 0) return count;
  const int resolved = ResolveThreadCountFromEnv();
  int expected = 0;
  if (g_thread_count.compare_exchange_strong(expected, resolved,
                                             std::memory_order_relaxed)) {
    return resolved;
  }
  return expected;
}

void SetThreadCount(int count) {
  if (count < 1) count = 1;
  if (count > kMaxThreads) count = kMaxThreads;
  g_thread_count.store(count, std::memory_order_relaxed);
}

bool InParallelRegion() { return t_in_parallel_region; }

void ShutdownPool() {
  Pool& pool = P();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.stopping = true;
    workers.swap(pool.workers);
  }
  pool.cv.notify_all();
  for (std::thread& worker : workers) worker.join();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.stopping = false;
  }
}

int64_t FixedChunkCount(int64_t range, int64_t grain) {
  if (range <= 0) return 0;
  if (grain < 1) grain = 1;
  return (range + grain - 1) / grain;
}

PoolStats GetPoolStats() {
  PoolStats stats;
  stats.thread_count = ThreadCount();
  Pool& pool = P();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    stats.queue_depth = static_cast<int>(pool.active.size());
  }
  Telemetry& telemetry = T();
  stats.workers_started =
      telemetry.workers_started.load(std::memory_order_relaxed);
  stats.regions_launched =
      telemetry.regions_launched.load(std::memory_order_relaxed);
  stats.chunks_executed =
      telemetry.chunks_executed.load(std::memory_order_relaxed);
  stats.max_queue_depth = static_cast<int>(
      telemetry.max_queue_depth.load(std::memory_order_relaxed));
  stats.caller_busy_us =
      static_cast<double>(
          telemetry.caller_busy_ns.load(std::memory_order_relaxed)) /
      1e3;
  const double now_us = obs::TraceNowMicros();
  stats.worker_busy_us.reserve(static_cast<size_t>(stats.workers_started));
  stats.worker_idle_us.reserve(static_cast<size_t>(stats.workers_started));
  for (int slot = 0; slot < stats.workers_started; ++slot) {
    const double busy =
        static_cast<double>(
            telemetry.worker_busy_ns[slot].load(std::memory_order_relaxed)) /
        1e3;
    const double start = static_cast<double>(
        telemetry.worker_start_us[slot].load(std::memory_order_relaxed));
    double idle = now_us - start - busy;
    if (idle < 0.0) idle = 0.0;
    stats.worker_busy_us.push_back(busy);
    stats.worker_idle_us.push_back(idle);
  }
  return stats;
}

void PublishPoolStats() {
  const PoolStats stats = GetPoolStats();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("exec/threads").Set(stats.thread_count);
  registry.GetGauge("exec/workers_started").Set(stats.workers_started);
  registry.GetGauge("exec/regions_launched")
      .Set(static_cast<double>(stats.regions_launched));
  registry.GetGauge("exec/chunks_executed")
      .Set(static_cast<double>(stats.chunks_executed));
  registry.GetGauge("exec/queue_depth").Set(stats.queue_depth);
  registry.GetGauge("exec/max_queue_depth").Set(stats.max_queue_depth);
  registry.GetGauge("exec/busy_us").Set(stats.total_busy_us());
  // Worker utilization: busy over uptime, averaged across started workers.
  // Callers are excluded — their idle time is application time, not pool
  // time.
  double busy = 0.0;
  double uptime = 0.0;
  for (size_t i = 0; i < stats.worker_busy_us.size(); ++i) {
    busy += stats.worker_busy_us[i];
    uptime += stats.worker_busy_us[i] + stats.worker_idle_us[i];
  }
  registry.GetGauge("exec/worker_utilization")
      .Set(uptime > 0.0 ? busy / uptime : 0.0);
}

namespace exec_internal {

int64_t ThreadChunkSize(int64_t range, int64_t grain) {
  if (grain < 1) grain = 1;
  int64_t chunks = (range + grain - 1) / grain;
  const int64_t threads = ThreadCount();
  if (chunks > threads) chunks = threads;
  if (chunks < 1) chunks = 1;
  return (range + chunks - 1) / chunks;
}

void Launch(int64_t begin, int64_t end, int64_t chunk_size,
            int64_t num_chunks, ChunkFn fn, const void* ctx,
            const char* tag) {
  auto region = std::make_shared<Region>();
  region->fn = fn;
  region->ctx = ctx;
  region->begin = begin;
  region->end = end;
  region->chunk_size = chunk_size;
  region->num_chunks = num_chunks;
  region->remaining.store(num_chunks, std::memory_order_relaxed);
  region->token = obs::BeginParallelRegion(tag);

  Pool& pool = P();
  Telemetry& telemetry = T();
  telemetry.regions_launched.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    EnsureWorkersLocked(pool, ThreadCount() - 1);
    pool.active.push_back(region);
    const auto depth = static_cast<int64_t>(pool.active.size());
    int64_t max_depth =
        telemetry.max_queue_depth.load(std::memory_order_relaxed);
    while (depth > max_depth &&
           !telemetry.max_queue_depth.compare_exchange_weak(
               max_depth, depth, std::memory_order_relaxed)) {
    }
  }
  pool.cv.notify_all();

  // The launching thread participates until every chunk is claimed …
  for (;;) {
    int64_t chunk = -1;
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      if (region->next_chunk < region->num_chunks) {
        chunk = region->next_chunk++;
      } else {
        // All chunks claimed: retire the region so it cannot linger in the
        // queue when every chunk was executed by the caller.
        for (auto it = pool.active.begin(); it != pool.active.end(); ++it) {
          if (it->get() == region.get()) {
            pool.active.erase(it);
            break;
          }
        }
      }
    }
    if (chunk < 0) break;
    ExecuteChunk(*region, chunk);
  }
  // … then blocks until the last in-flight chunk finishes.
  {
    std::unique_lock<std::mutex> lock(region->done_mu);
    region->done_cv.wait(lock, [&region] {
      return region->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  obs::EndParallelRegion(
      region->token,
      static_cast<double>(region->busy_ns.load(std::memory_order_relaxed)) /
          1e3,
      num_chunks);
  if (region->failed.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(region->error_mu);
    if (region->error) std::rethrow_exception(region->error);
  }
}

}  // namespace exec_internal

namespace {

// Per-thread scratch arena: a small free list of float buffers reused
// across ScratchLease lifetimes on the same thread. Capacity is retained so
// steady-state kernel calls (e.g. conv backward every training step)
// allocate nothing.
constexpr size_t kMaxPooledBuffers = 8;
thread_local std::vector<std::vector<float>*> t_scratch_pool;

struct ScratchPoolCleanup {
  ~ScratchPoolCleanup() {
    for (std::vector<float>* buffer : t_scratch_pool) delete buffer;
    t_scratch_pool.clear();
  }
};
thread_local ScratchPoolCleanup t_scratch_cleanup;

}  // namespace

ScratchLease::ScratchLease(size_t size) : size_(size) {
  (void)t_scratch_cleanup;
  if (!t_scratch_pool.empty()) {
    buffer_ = t_scratch_pool.back();
    t_scratch_pool.pop_back();
  } else {
    buffer_ = new std::vector<float>();
  }
  if (buffer_->size() < size) buffer_->resize(size);
}

ScratchLease::~ScratchLease() {
  if (t_scratch_pool.size() < kMaxPooledBuffers) {
    t_scratch_pool.push_back(buffer_);
  } else {
    delete buffer_;
  }
}

}  // namespace sthsl::exec

// Tests for the deterministic parallel execution layer (src/exec): pool
// startup/shutdown, chunk coverage, nested-region fallback, exception
// propagation, grain edge cases, fixed-chunk invariance, scratch leasing,
// obs attribution — and the end-to-end determinism contract: forward
// losses, gradients, Adam updates and checkpoint bytes are bitwise
// identical at 1 and 4 threads.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sthsl_model.h"
#include "exec/exec.h"
#include "nn/serialization.h"
#include "simd/simd.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "util/obs/metrics.h"
#include "util/obs/obs.h"
#include "util/rng.h"

namespace sthsl {
namespace {

// Restores the configured thread count on scope exit so tests stay
// order-independent.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : previous_(exec::ThreadCount()) {}
  ~ThreadCountGuard() { exec::SetThreadCount(previous_); }

  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int previous_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(ExecConfig, ThreadCountClampsAndOverrides) {
  ThreadCountGuard guard;
  EXPECT_GE(exec::HardwareThreadCount(), 1);
  exec::SetThreadCount(3);
  EXPECT_EQ(exec::ThreadCount(), 3);
  exec::SetThreadCount(0);
  EXPECT_EQ(exec::ThreadCount(), 1);
  exec::SetThreadCount(-7);
  EXPECT_EQ(exec::ThreadCount(), 1);
}

TEST(ExecParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  constexpr int64_t kN = 100000;
  // Chunks own disjoint index ranges, so plain (non-atomic) counters are
  // race-free by the layer's own contract.
  std::vector<int> hits(static_cast<size_t>(kN), 0);
  exec::ParallelFor(0, kN, 8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)], 1) << "index " << i;
  }
}

TEST(ExecParallelFor, SmallRangeRunsInlineAsOneChunk) {
  ThreadCountGuard guard;
  exec::SetThreadCount(8);
  int calls = 0;
  int64_t begin = -1;
  int64_t end = -1;
  exec::ParallelFor(3, 10, 16, [&](int64_t b, int64_t e) {
    ++calls;
    begin = b;
    end = e;
    EXPECT_FALSE(exec::InParallelRegion());
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 3);
  EXPECT_EQ(end, 10);
}

TEST(ExecParallelFor, GrainEdgeCases) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  int calls = 0;
  exec::ParallelFor(0, 0, 1, [&](int64_t, int64_t) { ++calls; });
  exec::ParallelFor(5, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);  // empty and inverted ranges never invoke the body

  // Zero / negative grain behaves as grain 1.
  std::vector<int> hits(64, 0);
  exec::ParallelFor(0, 64, 0, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ExecParallelFor, NestedRegionsFallBackToSerialInline) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  constexpr int64_t kN = 4096;
  std::vector<int> hits(static_cast<size_t>(kN), 0);
  std::atomic<int> outer_chunks{0};
  std::atomic<int> nested_calls{0};
  exec::ParallelFor(0, kN, 1, [&](int64_t b, int64_t e) {
    outer_chunks.fetch_add(1);
    EXPECT_TRUE(exec::InParallelRegion());
    exec::ParallelFor(b, e, 1, [&](int64_t ib, int64_t ie) {
      nested_calls.fetch_add(1);
      for (int64_t i = ib; i < ie; ++i) ++hits[static_cast<size_t>(i)];
    });
  });
  // Each nested launch collapsed to exactly one inline call per outer chunk.
  EXPECT_EQ(nested_calls.load(), outer_chunks.load());
  EXPECT_EQ(outer_chunks.load(), 4);  // min(threads, range) chunks
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)], 1);
  }
  EXPECT_FALSE(exec::InParallelRegion());
}

TEST(ExecParallelFor, PropagatesChunkExceptionAndPoolSurvives) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  EXPECT_THROW(
      exec::ParallelFor(0, int64_t{1} << 16, 1,
                        [](int64_t b, int64_t) {
                          if (b == 0) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);

  // The pool must stay usable after a failed region.
  constexpr int64_t kN = 4096;
  std::vector<int> hits(static_cast<size_t>(kN), 0);
  exec::ParallelFor(0, kN, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)], 1);
  }
}

TEST(ExecPool, ShutdownRestartsLazily) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  std::vector<int> hits(1024, 0);
  auto run = [&hits] {
    std::fill(hits.begin(), hits.end(), 0);
    exec::ParallelFor(0, 1024, 1, [&hits](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (int h : hits) ASSERT_EQ(h, 1);
  };
  run();
  exec::ShutdownPool();
  run();  // pool restarts lazily on the next launch
  exec::ShutdownPool();
}

TEST(ExecFixedChunks, BoundariesIndependentOfThreadCount) {
  ThreadCountGuard guard;
  constexpr int64_t kRange = 1000;
  constexpr int64_t kGrain = 64;
  const int64_t chunks = exec::FixedChunkCount(kRange, kGrain);
  EXPECT_EQ(chunks, (kRange + kGrain - 1) / kGrain);

  auto boundaries = [&](int threads) {
    exec::SetThreadCount(threads);
    std::vector<std::pair<int64_t, int64_t>> out(
        static_cast<size_t>(chunks), {-1, -1});
    exec::ParallelForFixedChunks(0, kRange, kGrain,
                                 [&](int64_t c, int64_t b, int64_t e) {
                                   out[static_cast<size_t>(c)] = {b, e};
                                 });
    return out;
  };
  const auto serial = boundaries(1);
  EXPECT_EQ(serial, boundaries(2));
  EXPECT_EQ(serial, boundaries(4));
  EXPECT_EQ(serial, boundaries(8));
  // Chunks tile [0, range) in order.
  int64_t cursor = 0;
  for (const auto& [b, e] : serial) {
    EXPECT_EQ(b, cursor);
    EXPECT_GT(e, b);
    cursor = e;
  }
  EXPECT_EQ(cursor, kRange);
}

TEST(ExecReduce, BitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(11);
  Tensor t = Tensor::Randn({100000}, rng);
  const float* data = t.Data().data();
  const auto sum = [&](int threads) {
    exec::SetThreadCount(threads);
    return exec::ParallelReduceDouble(0, t.Numel(), 1024,
                                      [data](int64_t b, int64_t e) {
                                        double part = 0.0;
                                        for (int64_t i = b; i < e; ++i) {
                                          part += data[i];
                                        }
                                        return part;
                                      });
  };
  const double serial = sum(1);
  EXPECT_EQ(serial, sum(2));
  EXPECT_EQ(serial, sum(4));
  EXPECT_EQ(serial, sum(8));
}

TEST(ExecScratch, LeaseReusesThreadLocalBuffers) {
  float* first = nullptr;
  {
    exec::ScratchLease lease(1024);
    ASSERT_NE(lease.data(), nullptr);
    EXPECT_EQ(lease.size(), 1024u);
    lease.data()[0] = 1.0f;
    lease.data()[1023] = 2.0f;
    first = lease.data();
  }
  {
    // A smaller follow-up lease reuses the retained buffer, no reallocation.
    exec::ScratchLease lease(512);
    EXPECT_EQ(lease.data(), first);
  }
  {
    // Concurrent leases on one thread get distinct buffers.
    exec::ScratchLease a(64);
    exec::ScratchLease b(64);
    EXPECT_NE(a.data(), b.data());
  }
}

TEST(ExecObs, ParallelRegionsAttributeUnderTheirTag) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  const bool previous = obs::SetTraceEnabled(true);
  obs::ResetProfiler();
  std::vector<int> hits(int64_t{1} << 16, 0);
  exec::ParallelFor(
      0, int64_t{1} << 16, 1,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
      },
      "exec/test_region");

  bool scope_found = false;
  for (const auto& scope : obs::ScopeProfiles()) {
    if (scope.name == "exec/test_region") {
      scope_found = true;
      EXPECT_EQ(scope.calls, 1);
      EXPECT_GE(scope.total_us, 0.0);
    }
  }
  EXPECT_TRUE(scope_found);

  int exec_slices = 0;
  for (const auto& event : obs::TraceEvents()) {
    if (std::string(event.category) == "exec" &&
        event.name == "exec/test_region") {
      ++exec_slices;
    }
  }
  EXPECT_EQ(exec_slices, 4);  // one slice per chunk, none orphaned

  obs::ResetProfiler();
  obs::SetTraceEnabled(previous);
}

TEST(ExecObs, ScopeProfileAccumulatesBusyTimeAndSlices) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  const bool previous = obs::SetTraceEnabled(true);
  obs::ResetProfiler();
  exec::ParallelFor(
      0, int64_t{1} << 16, 1,
      [](int64_t b, int64_t e) {
        volatile int64_t sink = 0;  // per chunk: workers share no writes
        for (int64_t i = b; i < e; ++i) sink = sink + i;
      },
      "exec/busy_region");

  bool found = false;
  for (const auto& scope : obs::ScopeProfiles()) {
    if (scope.name != "exec/busy_region") continue;
    found = true;
    EXPECT_EQ(scope.slices, 4);  // one timed slice per chunk
    EXPECT_GT(scope.busy_us, 0.0);
    // Busy time is summed across participants, so with 4 threads it can
    // exceed the wall time but never 4x it (plus timer slack).
    EXPECT_LE(scope.busy_us, scope.total_us * 4.0 + 1000.0);
  }
  EXPECT_TRUE(found);
  obs::ResetProfiler();
  obs::SetTraceEnabled(previous);
}

TEST(ExecPoolStats, CountsRegionsChunksAndBusyTime) {
  ThreadCountGuard guard;
  exec::SetThreadCount(4);
  const exec::PoolStats before = exec::GetPoolStats();
  std::vector<int> hits(int64_t{1} << 16, 0);
  exec::ParallelFor(0, int64_t{1} << 16, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  const exec::PoolStats after = exec::GetPoolStats();
  EXPECT_EQ(after.thread_count, 4);
  EXPECT_EQ(after.regions_launched, before.regions_launched + 1);
  EXPECT_EQ(after.chunks_executed, before.chunks_executed + 4);
  EXPECT_GT(after.total_busy_us(), before.total_busy_us());
  EXPECT_GE(after.workers_started, 3);  // caller takes one of the 4 lanes
  EXPECT_GE(after.max_queue_depth, 1);
  EXPECT_EQ(after.worker_busy_us.size(), after.worker_idle_us.size());
  EXPECT_EQ(static_cast<int>(after.worker_busy_us.size()),
            after.workers_started);
  for (double idle : after.worker_idle_us) EXPECT_GE(idle, 0.0);
}

TEST(ExecPoolStats, PublishFeedsMetricsGauges) {
  ThreadCountGuard guard;
  exec::SetThreadCount(2);
  exec::ParallelFor(0, int64_t{1} << 15, 1, [](int64_t, int64_t) {});
  exec::PublishPoolStats();
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("exec/threads").Value(), 2.0);
  EXPECT_GE(registry.GetGauge("exec/regions_launched").Value(), 1.0);
  EXPECT_GE(registry.GetGauge("exec/chunks_executed").Value(), 2.0);
  EXPECT_GT(registry.GetGauge("exec/busy_us").Value(), 0.0);
  const double util = registry.GetGauge("exec/worker_utilization").Value();
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0);
}

// -- Bitwise determinism across thread counts ---------------------------------

std::vector<float> MatMulForwardAndGrads(int threads) {
  ThreadCountGuard guard;
  exec::SetThreadCount(threads);
  Rng rng(21);
  Tensor a = Tensor::Randn({48, 96}, rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({96, 64}, rng, 1.0f, /*requires_grad=*/true);
  Tensor loss = Sum(Square(MatMul(a, b)));
  loss.Backward();
  std::vector<float> result = {loss.Item()};
  result.insert(result.end(), a.Grad().begin(), a.Grad().end());
  result.insert(result.end(), b.Grad().begin(), b.Grad().end());
  return result;
}

std::vector<float> ConvForwardAndGrads(int threads) {
  ThreadCountGuard guard;
  exec::SetThreadCount(threads);
  Rng rng(22);
  Tensor input =
      Tensor::Randn({16, 3, 12, 12}, rng, 1.0f, /*requires_grad=*/true);
  Tensor weight =
      Tensor::Randn({5, 3, 3, 3}, rng, 1.0f, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({5}, rng, 1.0f, /*requires_grad=*/true);
  Tensor loss = Sum(Square(Conv2d(input, weight, bias, 1, 1)));
  loss.Backward();
  std::vector<float> result = {loss.Item()};
  result.insert(result.end(), input.Grad().begin(), input.Grad().end());
  result.insert(result.end(), weight.Grad().begin(), weight.Grad().end());
  result.insert(result.end(), bias.Grad().begin(), bias.Grad().end());
  return result;
}

TEST(ExecDeterminism, MatMulBitwiseIdenticalAtAnyThreadCount) {
  const auto serial = MatMulForwardAndGrads(1);
  EXPECT_EQ(serial, MatMulForwardAndGrads(4));
  EXPECT_EQ(serial, MatMulForwardAndGrads(8));
}

TEST(ExecDeterminism, ConvBitwiseIdenticalAtAnyThreadCount) {
  const auto serial = ConvForwardAndGrads(1);
  EXPECT_EQ(serial, ConvForwardAndGrads(4));
  EXPECT_EQ(serial, ConvForwardAndGrads(8));
}

struct TrainRun {
  std::vector<float> losses;
  std::vector<float> params;
};

// A short ST-HSL training loop (forward, SSL losses, backward, Adam) whose
// entire numeric trajectory must not depend on the kernel thread count.
TrainRun TrainSmallNet(int threads, const std::string& ckpt_path) {
  ThreadCountGuard guard;
  exec::SetThreadCount(threads);
  Rng rng(33);
  SthslConfig config;
  config.dim = 8;
  config.num_hyperedges = 8;
  SthslNet net(config, 4, 4, 4, 0.2f, 0.8f, rng);
  Adam optimizer(net.Parameters(), 0.005f);
  Rng data_rng(34);
  Tensor window = Tensor::Rand({16, 14, 4}, data_rng, 0.0f, 3.0f);
  Tensor target = Tensor::Rand({16, 4}, data_rng, 0.0f, 3.0f);

  TrainRun run;
  for (int step = 0; step < 6; ++step) {
    SthslNet::Output out = net.Forward(window, /*training=*/true);
    Tensor loss = MseLoss(out.prediction, target);
    loss = Add(loss, MulScalar(out.infomax_loss, 0.2f));
    loss = Add(loss, MulScalar(out.contrastive_loss, 0.1f));
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    run.losses.push_back(loss.Item());
  }
  for (const auto& p : net.Parameters()) {
    run.params.insert(run.params.end(), p.Data().begin(), p.Data().end());
  }
  const Status status = SaveCheckpoint(net, ckpt_path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return run;
}

TEST(ExecDeterminism, TrainingTrajectoryAndCheckpointBitwiseIdentical) {
  const std::string ckpt1 = ::testing::TempDir() + "/exec_det_t1.bin";
  const std::string ckpt4 = ::testing::TempDir() + "/exec_det_t4.bin";
  const TrainRun serial = TrainSmallNet(1, ckpt1);
  const TrainRun parallel = TrainSmallNet(4, ckpt4);

  ASSERT_EQ(serial.losses.size(), parallel.losses.size());
  for (size_t i = 0; i < serial.losses.size(); ++i) {
    EXPECT_EQ(serial.losses[i], parallel.losses[i]) << "step " << i;
  }
  ASSERT_EQ(serial.params.size(), parallel.params.size());
  EXPECT_EQ(serial.params, parallel.params);

  const std::string bytes1 = ReadFileBytes(ckpt1);
  const std::string bytes4 = ReadFileBytes(ckpt4);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, bytes4);
  std::remove(ckpt1.c_str());
  std::remove(ckpt4.c_str());
}

// The SIMD dispatch extends the contract: the training trajectory and
// checkpoint bytes must also be invariant to WHICH kernel variant runs
// (dispatched best vs portable reference), at any thread count.
TEST(ExecDeterminism, CheckpointBitwiseAcrossKernelSetAndThreads) {
  struct Config {
    const char* tag;
    const simd::MicrokernelSet* kernels;  // nullptr = dispatched default
    int threads;
  };
  const std::vector<Config> configs = {
      {"dispatched/t1", nullptr, 1},
      {"dispatched/t8", nullptr, 8},
      {"portable/t1", &simd::PortableKernels(), 1},
      {"portable/t8", &simd::PortableKernels(), 8},
  };

  std::vector<float> baseline_losses;
  std::vector<float> baseline_params;
  std::string baseline_bytes;
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    simd::SetKernelsForTesting(config.kernels);
    const std::string ckpt =
        ::testing::TempDir() + "/exec_det_matrix_" + std::to_string(i) +
        ".bin";
    const TrainRun run = TrainSmallNet(config.threads, ckpt);
    const std::string bytes = ReadFileBytes(ckpt);
    std::remove(ckpt.c_str());
    simd::SetKernelsForTesting(nullptr);

    ASSERT_FALSE(bytes.empty()) << config.tag;
    if (i == 0) {
      baseline_losses = run.losses;
      baseline_params = run.params;
      baseline_bytes = bytes;
      continue;
    }
    EXPECT_EQ(run.losses, baseline_losses) << config.tag;
    EXPECT_EQ(run.params, baseline_params) << config.tag;
    EXPECT_EQ(bytes, baseline_bytes) << config.tag;
  }
}

}  // namespace
}  // namespace sthsl

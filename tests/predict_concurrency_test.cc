// Concurrent PredictWindows on one shared model, as the serving batcher's
// workers call it: every call must return the serial call's bits, and
// (under ThreadSanitizer) no call may write model state another reads.

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sthsl_model.h"
#include "data/generator.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

constexpr int64_t kRows = 4;
constexpr int64_t kCols = 4;
constexpr int64_t kCategories = 4;
constexpr int64_t kWindow = 7;

SthslConfig SmallConfig() {
  SthslConfig config;
  config.dim = 4;
  config.num_hyperedges = 8;
  config.train.window = kWindow;
  config.train.epochs = 1;
  config.train.max_steps_per_epoch = 2;
  config.train.validation_days = 0;
  return config;
}

std::vector<Tensor> Windows(int count) {
  Rng rng(29);
  std::vector<Tensor> windows;
  for (int i = 0; i < count; ++i) {
    windows.push_back(Tensor::Rand({kRows * kCols, kWindow, kCategories}, rng,
                                   0.0f, 3.0f));
  }
  return windows;
}

std::vector<std::vector<float>> Values(const std::vector<Tensor>& tensors) {
  std::vector<std::vector<float>> out;
  for (const Tensor& t : tensors) out.push_back(t.Data());
  return out;
}

void ExpectBitwiseEq(const std::vector<std::vector<float>>& got,
                     const std::vector<std::vector<float>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size());
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          want[i].size() * sizeof(float)),
              0)
        << "window " << i;
  }
}

// Two threads call PredictWindows on `model` a few times each; every result
// must equal `serial` bitwise.
void ExpectConcurrentCallsMatch(SthslForecaster& model,
                                const std::vector<Tensor>& windows,
                                const std::vector<std::vector<float>>& serial) {
  constexpr int kThreads = 2;
  constexpr int kCalls = 3;
  std::vector<std::vector<std::vector<std::vector<float>>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int call = 0; call < kCalls; ++call) {
        results[static_cast<size_t>(t)].push_back(
            Values(model.PredictWindows(windows)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& per_thread : results) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kCalls));
    for (const auto& call : per_thread) ExpectBitwiseEq(call, serial);
  }
}

TEST(PredictConcurrency, MaterializedModelMatchesSerialBitwise) {
  SthslForecaster model(SmallConfig());
  model.MaterializeForInference(kRows, kCols, kCategories, 0.7f, 1.3f);
  const std::vector<Tensor> windows = Windows(5);
  const auto serial = Values(model.PredictWindows(windows));
  ExpectConcurrentCallsMatch(model, windows, serial);
}

TEST(PredictConcurrency, TrainedModelMatchesSerialBitwise) {
  CrimeGenConfig gen = NycSmallPreset();
  const double day_scale = 24.0 / static_cast<double>(gen.days);
  gen.rows = kRows;
  gen.cols = kCols;
  gen.days = 24;
  gen.seed = 11;
  for (auto& total : gen.category_totals) total *= day_scale;
  const CrimeDataset data = GenerateCrimeData(gen);
  const std::vector<Tensor> windows = Windows(4);

  // The serial reference comes from an identically trained twin, so the
  // shared model's first calls after Fit are themselves concurrent.
  SthslForecaster twin(SmallConfig());
  twin.Fit(data, data.num_days());
  const auto serial = Values(twin.PredictWindows(windows));

  SthslForecaster model(SmallConfig());
  model.Fit(data, data.num_days());
  ExpectConcurrentCallsMatch(model, windows, serial);
}

}  // namespace
}  // namespace sthsl

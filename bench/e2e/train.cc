// Training workloads: replays NeuralForecaster::Fit's optimizer step with the
// Eq. 10 objective, window by window, through public calls only:
// CrimeDataset::WindowInput/TargetDay -> SthslNet::Forward(training) ->
// MseLoss + lambda1 L_I + lambda2 L_C, scaled by 1/batch -> Tensor::Backward,
// then Adam::Step once per batch.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sthsl_model.h"
#include "data/generator.h"
#include "e2e.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "util/obs/obs.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sthsl::e2e {
namespace {

struct TrainSpec {
  const char* name;
  CrimeGenConfig (*preset)();
  int64_t hyperedges;
  /// Tail percentile, fixed per workload: at least ten windows lie beyond
  /// it in a 20 s run. train-small stops at p95; its p98 and p99 move with
  /// host noise.
  double tail_pct;
};

// train-small is the repo's bench/CI shape (R=64, H=32): tensors are tiny,
// so per-op dispatch, autograd glue and exec-region overhead are a large
// share of a window. train-full is the paper's NYC scale (R=256, H=128,
// Fig. 7 optimum, Table V): conv/GEMM FLOPs dominate.
constexpr TrainSpec kSpecs[] = {
    {"train-small", NycSmallPreset, 32, 95.0},
    {"train-full", NycPreset, 128, 90.0},
};

constexpr int64_t kWindow = 14;
constexpr int64_t kBatch = 4;
constexpr int64_t kWarmupSteps = 1;

enum Stream : uint64_t { kData = 1, kModel = 2, kOrder = 3 };

struct WindowSample {
  double data_ms = 0.0;
  double backward_ms = 0.0;
  double window_ms = 0.0;  // data + forward + loss + backward
  float loss = 0.0f;
};

struct Pass {
  std::vector<WindowSample> windows;
  std::vector<double> optimizer_ms;  // one per step
  double seconds = 0.0;
};

/// Dataset, network, optimizer and data order of one training run; building
/// one (plus its warm-up steps) is the workload's set-up.
class Trainer {
 public:
  Trainer(const TrainSpec& spec, uint64_t seed, CrimeDataset data)
      : data_(std::move(data)) {
    SthslConfig config;
    config.dim = 16;
    config.num_hyperedges = spec.hyperedges;
    config.train.window = kWindow;
    config.train.batch_size = kBatch;
    const int64_t train_end = data_.num_days() - data_.num_days() / 8;
    float mean = 0.0f;
    float stddev = 1.0f;
    data_.SliceDays(0, train_end).ComputeMoments(&mean, &stddev);
    Rng init(DeriveSeed(seed, kModel));
    net_ = std::make_unique<SthslNet>(config, data_.rows(), data_.cols(),
                                      data_.num_categories(), mean, stddev,
                                      init);
    net_->SetTraining(true);
    lambda1_ = config.lambda1;
    lambda2_ = config.lambda2;
    optimizer_ = std::make_unique<Adam>(net_->Parameters(), config.train.lr,
                                        0.9f, 0.999f, 1e-8f,
                                        config.train.weight_decay);
    for (int64_t t = kWindow; t < train_end; ++t) targets_.push_back(t);
    Rng order(DeriveSeed(seed, kOrder));
    order.Shuffle(targets_);
  }

  const CrimeDataset& data() const { return data_; }

  /// One optimizer step over kBatch windows (gradient accumulation, as in
  /// Fit); appends the per-window samples and returns the Adam::Step time.
  double Step(std::vector<WindowSample>* out) {
    optimizer_->ZeroGrad();
    for (int64_t b = 0; b < kBatch; ++b) {
      const int64_t t = targets_[cursor_++ % targets_.size()];
      WindowSample sample;
      Timer window_timer;
      Tensor input = data_.WindowInput(t, kWindow);
      Tensor target = data_.TargetDay(t);
      sample.data_ms = window_timer.ElapsedMillis();
      SthslNet::Output output = net_->Forward(input, /*training=*/true);
      Tensor loss = MseLoss(output.prediction, target);
      if (output.infomax_loss.Defined()) {
        loss = Add(loss, MulScalar(output.infomax_loss, lambda1_));
      }
      if (output.contrastive_loss.Defined()) {
        loss = Add(loss, MulScalar(output.contrastive_loss, lambda2_));
      }
      loss = MulScalar(loss, 1.0f / static_cast<float>(kBatch));
      Timer backward_timer;
      loss.Backward();
      sample.loss = loss.Item();
      sample.backward_ms = backward_timer.ElapsedMillis();
      sample.window_ms = window_timer.ElapsedMillis();
      out->push_back(sample);
    }
    Timer optimizer_timer;
    optimizer_->Step();
    return optimizer_timer.ElapsedMillis();
  }

  /// FNV-1a over every parameter's bytes, in registration order.
  uint64_t ParameterDigest() const {
    uint64_t hash = kFnvOffset;
    for (const Tensor& param : net_->Parameters()) {
      hash = HashFloats(param.Data(), hash);
    }
    return hash;
  }

 private:
  CrimeDataset data_;
  std::unique_ptr<SthslNet> net_;
  std::unique_ptr<Adam> optimizer_;
  std::vector<int64_t> targets_;
  size_t cursor_ = 0;
  float lambda1_ = 0.0f;
  float lambda2_ = 0.0f;
};

std::unique_ptr<Trainer> SetUp(const TrainSpec& spec, uint64_t seed,
                               const CrimeDataset* reuse_data) {
  CrimeDataset data;
  if (reuse_data != nullptr) {
    data = *reuse_data;
  } else {
    CrimeGenConfig config = spec.preset();
    config.seed = DeriveSeed(seed, kData);
    data = GenerateCrimeData(config);
  }
  auto trainer = std::make_unique<Trainer>(spec, seed, std::move(data));
  std::vector<WindowSample> ignored;
  for (int64_t i = 0; i < kWarmupSteps; ++i) trainer->Step(&ignored);
  return trainer;
}

/// Steps until `seconds` have elapsed, or exactly `steps` steps when >= 0.
Pass RunPass(Trainer& trainer, double seconds, int64_t steps) {
  Pass pass;
  Timer timer;
  const auto done = [&](int64_t step) {
    return steps >= 0 ? step >= steps
                      : step > 0 && timer.ElapsedSeconds() >= seconds;
  };
  for (int64_t step = 0; !done(step); ++step) {
    pass.optimizer_ms.push_back(trainer.Step(&pass.windows));
  }
  pass.seconds = timer.ElapsedSeconds();
  return pass;
}

std::vector<double> WindowMs(const Pass& pass) {
  std::vector<double> ms;
  for (const WindowSample& sample : pass.windows) {
    ms.push_back(sample.window_ms);
  }
  return ms;
}

/// Counts windows with a non-finite loss as failed operations.
void GateLosses(const Pass& pass, RunResult* result) {
  for (const WindowSample& sample : pass.windows) {
    ++result->attempted;
    if (!std::isfinite(sample.loss)) {
      ++result->failed;
      result->Fail("non-finite training loss");
    }
  }
}

}  // namespace

RunResult RunTrain(const Options& options) {
  const TrainSpec* spec = nullptr;
  for (const TrainSpec& candidate : kSpecs) {
    if (options.workload == candidate.name) spec = &candidate;
  }
  RunResult result(options.trace);
  if (spec == nullptr) {
    result.Fail("unknown training workload " + options.workload);
    return result;
  }
  exec::SetThreadCount(TrainExecThreads());

  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Trainer> trainer;
    for (int i = 0; i < kSetupRepeats; ++i) {
      trainer.reset();
      Timer timer;
      trainer = SetUp(*spec, options.seed, nullptr);
      setup_s.push_back(timer.ElapsedSeconds());
    }
    const Pass pass = RunPass(*trainer, options.seconds, -1);
    GateLosses(pass, &result);
    const std::vector<double> window_ms = WindowMs(pass);
    result.Set("setup_s", Median(setup_s));
    result.Set("peak_rss_mb", PeakRssMb());
    result.Set("throughput_per_s",
               static_cast<double>(pass.windows.size()) / pass.seconds);
    result.Set("latency_ms_p50", Percentile(window_ms, 50.0));
    result.Set("latency_ms_tail", Percentile(window_ms, spec->tail_pct));
    result.notes.push_back("windows " + std::to_string(window_ms.size()) +
                           " count");
    result.notes.push_back("latency_ms_tail.percentile " +
                           Num(spec->tail_pct) + " %");
    return result;
  }

  // Traced run: a traced pass for the per-layer numbers, then an untraced
  // replay of exactly the same steps from an identically built set-up.
  // Tracing must not change arithmetic, so both must agree bit for bit.
  std::unique_ptr<Trainer> traced_trainer = SetUp(*spec, options.seed, nullptr);
  obs::SetTraceEnabled(true);
  obs::ResetProfiler();
  const PoolSnapshot pool_before = TakePoolSnapshot();
  const Pass traced = RunPass(*traced_trainer, options.seconds / 2.0, -1);
  double data_ms = 0.0, backward_ms = 0.0, optimizer_ms = 0.0;
  for (const WindowSample& sample : traced.windows) {
    data_ms += sample.data_ms;
    backward_ms += sample.backward_ms;
  }
  for (double ms : traced.optimizer_ms) optimizer_ms += ms;
  AttributeModelLayers(pool_before, backward_ms * 1e3, &result);
  obs::SetTraceEnabled(false);
  const uint64_t traced_digest = traced_trainer->ParameterDigest();

  std::unique_ptr<Trainer> replay_trainer =
      SetUp(*spec, options.seed, &traced_trainer->data());
  const Pass replay = RunPass(
      *replay_trainer, 0.0, static_cast<int64_t>(traced.optimizer_ms.size()));
  GateLosses(traced, &result);
  GateLosses(replay, &result);
  for (size_t i = 0; i < traced.windows.size(); ++i) {
    if (std::memcmp(&traced.windows[i].loss, &replay.windows[i].loss,
                    sizeof(float)) != 0) {
      ++result.failed;
      result.Fail("window " + std::to_string(i) +
                  ": traced and untraced losses differ");
    }
  }
  if (traced_digest != replay_trainer->ParameterDigest()) {
    result.Fail("traced and untraced parameter digests differ");
  }

  const double windows = static_cast<double>(traced.windows.size());
  result.Set("data.window_ms", data_ms / windows);
  result.Set("tensor.backward_ms", backward_ms / windows);
  result.Set("tensor.optimizer_ms", optimizer_ms / windows);
  const double traced_p50 = Percentile(WindowMs(traced), 50.0);
  const double untraced_p50 = Percentile(WindowMs(replay), 50.0);
  result.Set("obs.trace_overhead_pct",
             100.0 * (traced_p50 - untraced_p50) / untraced_p50);
  result.notes.push_back(
      "traced_windows " + std::to_string(traced.windows.size()) + " count");
  return result;
}

}  // namespace sthsl::e2e

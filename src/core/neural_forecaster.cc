#include "core/neural_forecaster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "metrics/metrics.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/json_mini.h"
#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/obs/obs.h"
#include "util/obs/run_ledger.h"
#include "util/timer.h"

namespace sthsl {
namespace {

/// Renders the run-opening ledger record: model, dataset provenance, seeds
/// and the full TrainConfig (as JSON literals — the obs layer does not know
/// the core config type).
obs::RunLedgerHeader MakeLedgerHeader(const std::string& model,
                                      const CrimeDataset& data,
                                      int64_t train_end,
                                      const TrainConfig& config) {
  obs::RunLedgerHeader header;
  header.model = model;
  header.dataset_city = data.city_name();
  header.dataset_rows = data.rows();
  header.dataset_cols = data.cols();
  header.dataset_days = data.num_days();
  header.dataset_categories = data.num_categories();
  header.dataset_generator_seed = data.generator_seed();
  header.train_end = train_end;
  header.train_seed = config.seed;
  header.config = {
      {"window", std::to_string(config.window)},
      {"epochs", std::to_string(config.epochs)},
      {"max_steps_per_epoch", std::to_string(config.max_steps_per_epoch)},
      {"batch_size", std::to_string(config.batch_size)},
      {"lr", json::JsonWriter().Number(config.lr).str()},
      {"weight_decay", json::JsonWriter().Number(config.weight_decay).str()},
      {"validation_days", std::to_string(config.validation_days)},
      {"validation_every", std::to_string(config.validation_every)},
      {"validation_max_days", std::to_string(config.validation_max_days)},
      {"early_stop_patience", std::to_string(config.early_stop_patience)},
      {"ema_decay", json::JsonWriter().Number(config.ema_decay).str()},
      {"cosine_lr", config.cosine_lr ? "true" : "false"},
      {"lr_floor", json::JsonWriter().Number(config.lr_floor).str()},
  };
  return header;
}

}  // namespace

Tensor NeuralForecaster::Loss(const Tensor& pred, const Tensor& target) {
  return MseLoss(pred, target);
}

void NeuralForecaster::Fit(const CrimeDataset& data, int64_t train_end) {
  STHSL_TRACE_SCOPE("train/fit");
  const int64_t window = train_config_.window;
  STHSL_CHECK(train_end > window && train_end <= data.num_days())
      << "train_end " << train_end << " incompatible with window " << window;

  Prepare(data, train_end);
  Module* root = RootModule();
  STHSL_CHECK(root != nullptr);
  optimizer_ = std::make_unique<Adam>(root->Parameters(), train_config_.lr,
                                      0.9f, 0.999f, 1e-8f,
                                      train_config_.weight_decay);
  root->SetTraining(true);

  // Run ledger: the per-run path wins over the process default; when both
  // are empty the run is not ledgered and no statistics are collected.
  auto& ledger = obs::RunLedger::Global();
  const std::string ledger_path = !train_config_.run_log.empty()
                                      ? train_config_.run_log
                                      : ledger.DefaultPath();
  const bool ledger_on = !ledger_path.empty();
  std::vector<std::pair<std::string, Tensor>> named_params;
  if (ledger_on) {
    named_params = root->NamedParameters();
    ledger.BeginRun(MakeLedgerHeader(Name(), data, train_end, train_config_),
                    ledger_path);
  }

  // Validation split: the last `validation_days` of the training span
  // drive model selection (the paper's protocol).
  int64_t validation_days =
      std::min(train_config_.validation_days, train_end - window - 1);
  if (validation_days < 0) validation_days = 0;
  const int64_t fit_end = train_end - validation_days;

  // Validation days stay in the training pool (each is visited rarely under
  // stochastic subsampling); they additionally drive snapshot selection.
  std::vector<int64_t> targets;
  for (int64_t t = window; t < train_end; ++t) targets.push_back(t);
  STHSL_CHECK(!targets.empty())
      << "no training targets: train_end too small for the window";

  std::vector<int64_t> validation_targets;
  if (validation_days > 0) {
    const int64_t max_days = std::max<int64_t>(
        1, std::min(train_config_.validation_max_days, validation_days));
    const int64_t stride = std::max<int64_t>(1, validation_days / max_days);
    for (int64_t t = fit_end; t < train_end; t += stride) {
      validation_targets.push_back(t);
    }
  }

  // Best-on-validation snapshot of all parameter buffers.
  double best_validation = std::numeric_limits<double>::infinity();
  int64_t best_epoch = 0;
  int64_t checks_without_improvement = 0;
  std::vector<std::vector<float>> best_params;
  // Mutable handles: the EMA swap and best-snapshot restore below rewrite the
  // parameter buffers in place.
  auto params = root->MutableParameters();

  // Polyak (EMA) shadow of the parameters; validation and the final model
  // use the shadow, which is far less noisy than the last SGD iterate.
  const float ema_decay = train_config_.ema_decay;
  std::vector<std::vector<float>> ema;
  if (ema_decay > 0.0f) {
    for (const auto& p : params) ema.push_back(p.Data());
  }
  auto update_ema = [&]() {
    if (ema_decay <= 0.0f) return;
    for (size_t i = 0; i < params.size(); ++i) {
      const auto& current = params[i].Data();
      auto& shadow = ema[i];
      for (size_t j = 0; j < shadow.size(); ++j) {
        shadow[j] = ema_decay * shadow[j] + (1.0f - ema_decay) * current[j];
      }
    }
  };
  // Temporarily swaps the EMA shadow into the live parameters.
  auto swap_with_ema = [&]() {
    if (ema_decay <= 0.0f) return;
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].MutableData().swap(ema[i]);
    }
  };

  auto validate = [&]() {
    STHSL_TRACE_SCOPE("train/validate");
    NoGradGuard no_grad;
    root->SetTraining(false);
    CrimeMetrics metrics(data.num_regions(), data.num_categories());
    for (int64_t t : validation_targets) {
      current_target_day_ = t;
      Tensor pred = Forward(data.WindowInput(t, window), /*training=*/false);
      metrics.AddDay(ClampMin(pred, 0.0f), data.TargetDay(t));
    }
    root->SetTraining(true);
    const EvalResult overall = metrics.Overall();
    // Masked MAE matches the test metric; fall back to 0 when the span has
    // no positive entries (then any snapshot is as good as another).
    return overall.evaluated_entries > 0 ? overall.mae : 0.0;
  };

  epoch_seconds_.clear();
  for (int64_t epoch = 0; epoch < train_config_.epochs; ++epoch) {
    Timer timer;
    if (train_config_.cosine_lr && train_config_.epochs > 1) {
      const double progress = static_cast<double>(epoch) /
                              static_cast<double>(train_config_.epochs - 1);
      const double scale =
          train_config_.lr_floor +
          (1.0 - train_config_.lr_floor) * 0.5 * (1.0 + std::cos(M_PI * progress));
      optimizer_->SetLr(train_config_.lr * static_cast<float>(scale));
    }
    rng_.Shuffle(targets);
    const int64_t batch = std::max<int64_t>(1, train_config_.batch_size);
    const int64_t steps = std::min<int64_t>(
        train_config_.max_steps_per_epoch,
        (static_cast<int64_t>(targets.size()) + batch - 1) / batch);
    double epoch_loss = 0.0;
    int64_t cursor = 0;
    int64_t epoch_windows = 0;
    double epoch_grad_norm = 0.0;
    std::vector<obs::RunLedgerParamStats> epoch_param_stats;
    {
      STHSL_TRACE_SCOPE("train/epoch");
      for (int64_t step = 0; step < steps; ++step) {
        STHSL_TRACE_SCOPE("train/step");
        optimizer_->ZeroGrad();
        int64_t accumulated = 0;
        // Gradient accumulation over `batch` windows approximates mini-batch
        // training on a framework without a leading batch dimension.
        for (int64_t b = 0;
             b < batch && cursor < static_cast<int64_t>(targets.size());
             ++b, ++cursor) {
          const int64_t t = targets[static_cast<size_t>(cursor)];
          Tensor input = data.WindowInput(t, window);
          Tensor target = data.TargetDay(t);
          current_target_day_ = t;
          Tensor pred = Forward(input, /*training=*/true);
          Tensor loss = MulScalar(Loss(pred, target),
                                  1.0f / static_cast<float>(batch));
          loss.Backward();
          epoch_loss += loss.Item() * static_cast<double>(batch);
          ++accumulated;
        }
        if (accumulated > 0) {
          epoch_windows += accumulated;
          if (obs::TraceEnabled()) {
            // Global gradient norm over every parameter, pre-update; the
            // histogram's percentiles expose exploding/vanishing gradients.
            double sq = 0.0;
            for (const auto& p : params) {
              for (float g : p.Grad()) {
                sq += static_cast<double>(g) * static_cast<double>(g);
              }
            }
            obs::MetricsRegistry::Global()
                .GetHistogram("train/grad_norm")
                .Record(std::sqrt(sq));
          }
          // Gradient-flow sample for the run ledger, taken at the epoch's
          // last optimizer step: per-parameter norms and NaN/zero fractions
          // of the accumulated gradient, and the update-to-weight ratio
          // measured across the actual optimizer update.
          const bool sample_grads = ledger_on && step + 1 == steps;
          std::vector<std::vector<float>> pre_update;
          if (sample_grads) {
            epoch_param_stats.clear();
            epoch_param_stats.reserve(named_params.size());
            pre_update.reserve(named_params.size());
            double global_sq = 0.0;
            for (const auto& [pname, p] : named_params) {
              obs::RunLedgerParamStats stats;
              stats.name = pname;
              stats.numel = p.Numel();
              const auto& grad = p.Grad();
              double grad_sq = 0.0;
              double weight_sq = 0.0;
              int64_t non_finite = 0;
              int64_t zeros = 0;
              for (float g : grad) {
                if (!std::isfinite(g)) {
                  ++non_finite;
                  continue;
                }
                if (g == 0.0f) ++zeros;
                grad_sq += static_cast<double>(g) * static_cast<double>(g);
              }
              for (float w : p.Data()) {
                weight_sq += static_cast<double>(w) * static_cast<double>(w);
              }
              stats.grad_norm = std::sqrt(grad_sq);
              stats.weight_norm = std::sqrt(weight_sq);
              // An empty gradient buffer means backward never reached this
              // parameter; report it as all-zero (a dead layer).
              stats.nan_grad_frac =
                  grad.empty() ? 0.0
                               : static_cast<double>(non_finite) /
                                     static_cast<double>(grad.size());
              stats.zero_grad_frac =
                  grad.empty() ? 1.0
                               : static_cast<double>(zeros) /
                                     static_cast<double>(grad.size());
              global_sq += grad_sq;
              epoch_param_stats.push_back(std::move(stats));
              pre_update.push_back(p.Data());
            }
            epoch_grad_norm = std::sqrt(global_sq);
          }
          optimizer_->Step();
          if (sample_grads) {
            for (size_t i = 0; i < named_params.size(); ++i) {
              const auto& after = named_params[i].second.Data();
              const auto& before = pre_update[i];
              double delta_sq = 0.0;
              for (size_t j = 0; j < after.size(); ++j) {
                const double d =
                    static_cast<double>(after[j]) - static_cast<double>(before[j]);
                delta_sq += d * d;
              }
              epoch_param_stats[i].update_ratio =
                  std::sqrt(delta_sq) /
                  (epoch_param_stats[i].weight_norm + 1e-12);
            }
          }
          update_ema();
        }
      }
    }
    epoch_seconds_.push_back(timer.ElapsedSeconds());
    // Mean per-window loss: normalizing by windows (not steps) keeps the
    // logged value comparable across batch sizes and short final steps.
    const double mean_loss =
        epoch_loss / static_cast<double>(std::max<int64_t>(epoch_windows, 1));
    if (obs::TraceEnabled()) {
      auto& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("train/epochs").Add(1);
      registry.GetCounter("train/windows").Add(epoch_windows);
      registry.GetHistogram("train/epoch_loss").Record(mean_loss);
      const double secs = epoch_seconds_.back();
      if (secs > 0.0 && epoch_windows > 0) {
        registry.GetHistogram("train/samples_per_sec")
            .Record(static_cast<double>(epoch_windows) / secs);
      }
      registry.GetGauge("tensor/peak_bytes")
          .Set(static_cast<double>(obs::PeakTensorBytes()));
    }

    const bool last_epoch = epoch + 1 == train_config_.epochs;
    bool validated = false;
    bool improved = false;
    double val_score = 0.0;
    if (!validation_targets.empty() &&
        (last_epoch || (epoch + 1) % train_config_.validation_every == 0)) {
      swap_with_ema();  // validate the averaged parameters
      val_score = validate();
      validated = true;
      if (val_score < best_validation) {
        best_validation = val_score;
        best_epoch = epoch + 1;
        improved = true;
        best_params.clear();
        for (const auto& p : params) best_params.push_back(p.Data());
        checks_without_improvement = 0;
      } else {
        ++checks_without_improvement;
      }
      swap_with_ema();  // restore the raw iterate for further training
      if (train_config_.verbose) {
        STHSL_LOG(Info) << Name() << " epoch " << epoch + 1 << " loss "
                        << mean_loss << " val-mae " << val_score;
      }
    } else if (train_config_.verbose) {
      STHSL_LOG(Info) << Name() << " epoch " << epoch + 1 << "/"
                      << train_config_.epochs << " loss " << mean_loss << " ("
                      << epoch_seconds_.back() << "s)";
    }
    if (ledger_on) {
      obs::RunLedgerEpoch record;
      record.epoch = epoch + 1;
      record.loss = mean_loss;
      record.lr = optimizer_->lr();
      record.epoch_seconds = epoch_seconds_.back();
      record.windows = epoch_windows;
      record.grad_norm = epoch_grad_norm;
      record.peak_tensor_bytes = obs::PeakTensorBytes();
      record.has_validation = validated;
      record.validation_mae = val_score;
      record.best_snapshot = improved;
      record.params = std::move(epoch_param_stats);
      ledger.RecordEpoch(record);
    }
    if (train_config_.early_stop_patience > 0 &&
        checks_without_improvement >= train_config_.early_stop_patience) {
      if (ledger_on) {
        ledger.RecordEvent("early_stop", epoch + 1, best_validation);
      }
      break;  // converged: no validation improvement for `patience` checks
    }
  }

  if (!best_params.empty()) {
    // Final model: the best-on-validation (EMA) snapshot.
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].MutableData() = best_params[i];
    }
    if (ledger_on) {
      ledger.RecordEvent("restore_best", best_epoch, best_validation);
    }
  } else if (ema_decay > 0.0f) {
    swap_with_ema();  // no validation ran: keep the averaged parameters
    if (ledger_on) {
      ledger.RecordEvent("ema_final",
                         static_cast<int64_t>(epoch_seconds_.size()),
                         std::numeric_limits<double>::quiet_NaN());
    }
  }
  root->SetTraining(false);
  current_target_day_ = -1;  // leave the day-agnostic eval state
}

std::vector<Tensor> NeuralForecaster::PredictWindows(
    const std::vector<Tensor>& windows) {
  STHSL_TRACE_SCOPE("infer/predict_windows");
  Module* root = RootModule();
  STHSL_CHECK(root != nullptr)
      << Name() << ": network not materialized before PredictWindows";
  // Concurrent callers (the serving batcher's workers) share this model:
  // the mode flags and the day are written only when they change, so
  // steady-state calls only read them.
  root->SetTraining(false);
  NoGradGuard no_grad;
  // Raw windows carry no calendar position; calendar-aware models fall back
  // to their day-agnostic path.
  if (current_target_day_ != -1) current_target_day_ = -1;
  std::vector<Tensor> predictions;
  predictions.reserve(windows.size());
  for (const Tensor& window : windows) {
    Tensor prediction = ClampMin(Forward(window, /*training=*/false), 0.0f);
    // Evaluate a pending fused chain here, on the caller's clock, rather
    // than on whichever thread first reads the result.
    (void)prediction.Data();
    predictions.push_back(std::move(prediction));
  }
  return predictions;
}

Tensor NeuralForecaster::PredictDay(const CrimeDataset& data, int64_t t) {
  STHSL_TRACE_SCOPE("infer/predict_day");
  Module* root = RootModule();
  STHSL_CHECK(root != nullptr);
  root->SetTraining(false);
  NoGradGuard no_grad;
  current_target_day_ = t;
  Tensor input = data.WindowInput(t, train_config_.window);
  Tensor pred = Forward(input, /*training=*/false);
  // Crime counts are non-negative; clamp at zero for evaluation.
  return ClampMin(pred, 0.0f);
}

}  // namespace sthsl

#include "core/sthsl_model.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/obs/obs.h"

namespace sthsl {

Status ValidateSthslConfig(const SthslConfig& config) {
  auto invalid = [](const std::string& field, const std::string& rule,
                    const std::string& value) {
    return Status::InvalidArgument("invalid ST-HSL config: " + field +
                                   " must be " + rule + ", got " + value);
  };
  if (config.dim < 1) {
    return invalid("dim", ">= 1", std::to_string(config.dim));
  }
  if (config.num_hyperedges < 1) {
    return invalid("num_hyperedges", ">= 1",
                   std::to_string(config.num_hyperedges));
  }
  if (config.kernel_size < 1 || config.kernel_size % 2 == 0) {
    return invalid("kernel_size", "odd and >= 1",
                   std::to_string(config.kernel_size));
  }
  if (config.global_temporal_layers < 0) {
    return invalid("global_temporal_layers", ">= 0",
                   std::to_string(config.global_temporal_layers));
  }
  if (config.train.window < 1) {
    return invalid("window", ">= 1", std::to_string(config.train.window));
  }
  // Written as negated in-range tests so NaN is rejected too.
  if (!(config.dropout >= 0.0f && config.dropout < 1.0f)) {
    return invalid("dropout", "in [0, 1)", std::to_string(config.dropout));
  }
  if (!(config.temperature > 0.0f && std::isfinite(config.temperature))) {
    return invalid("temperature", "finite and > 0",
                   std::to_string(config.temperature));
  }
  if (!(config.leaky_slope >= 0.0f && std::isfinite(config.leaky_slope))) {
    return invalid("leaky_slope", "finite and >= 0",
                   std::to_string(config.leaky_slope));
  }
  return Status::Ok();
}

SthslNet::SthslNet(const SthslConfig& config, int64_t grid_rows,
                   int64_t grid_cols, int64_t num_categories, float mean,
                   float stddev, Rng& rng)
    : config_(config),
      grid_rows_(grid_rows),
      grid_cols_(grid_cols),
      num_regions_(grid_rows * grid_cols),
      num_categories_(num_categories),
      mean_(mean),
      stddev_(stddev),
      rng_(rng.Fork()) {
  STHSL_CHECK_GT(stddev_, 0.0f);
  const int64_t d = config_.dim;
  const int64_t k = config_.kernel_size;

  category_embedding_ = RegisterParameter(
      "category_embedding",
      Tensor::XavierUniform({num_categories_, d}, rng, num_categories_, d));

  conv_dropout_ = std::make_unique<DropoutLayer>(config_.dropout, rng);
  RegisterModule("conv_dropout", conv_dropout_.get());

  // Channel count of the local convolutions: cross-category mixing uses all
  // C channels; the "w/o C-Conv" ablation processes categories separately.
  const int64_t channels = config_.use_category_conv ? num_categories_ : 1;
  if (config_.use_local_encoder && config_.use_spatial_conv) {
    spatial_conv1_ =
        std::make_unique<Conv2dLayer>(channels, channels, k, k, rng);
    spatial_conv2_ =
        std::make_unique<Conv2dLayer>(channels, channels, k, k, rng);
    RegisterModule("spatial_conv1", spatial_conv1_.get());
    RegisterModule("spatial_conv2", spatial_conv2_.get());
  }
  if (config_.use_local_encoder && config_.use_temporal_conv) {
    temporal_conv1_ =
        std::make_unique<Conv1dLayer>(channels, channels, k, rng);
    temporal_conv2_ =
        std::make_unique<Conv1dLayer>(channels, channels, k, rng);
    RegisterModule("temporal_conv1", temporal_conv1_.get());
    RegisterModule("temporal_conv2", temporal_conv2_.get());
  }

  if (config_.use_hypergraph) {
    hypergraph_ = RegisterParameter(
        "hypergraph",
        Tensor::XavierUniform({config_.num_hyperedges,
                               num_regions_ * num_categories_},
                              rng, num_regions_ * num_categories_,
                              config_.num_hyperedges));
    if (config_.use_global_temporal) {
      for (int64_t i = 0; i < config_.global_temporal_layers; ++i) {
        global_temporal_convs_.push_back(
            std::make_unique<Conv1dLayer>(1, 1, k, rng));
        RegisterModule("global_temporal_conv" + std::to_string(i),
                       global_temporal_convs_.back().get());
      }
    }
    if (config_.use_infomax) {
      infomax_weight_ = RegisterParameter(
          "infomax_weight", Tensor::XavierUniform({d, d}, rng, d, d));
    }
  }

  const bool fusion =
      config_.prediction_source == PredictionSource::kFusion;
  pool_logits_ = RegisterParameter(
      "pool_logits", Tensor::Zeros({config_.train.window}, true));
  head_ = std::make_unique<Linear>(fusion ? 2 * d : d, 1, rng);
  RegisterModule("head", head_.get());
}

// Eq. 1: e_{r,t,c} = ZScore(X_{r,t,c}) * e_c.
Tensor SthslNet::EmbedWindow(const Tensor& window) const {
  STHSL_CHECK_EQ(window.Dim(), 3) << "window must be (R, W, C)";
  STHSL_CHECK_EQ(window.Size(0), num_regions_);
  STHSL_CHECK_EQ(window.Size(2), num_categories_);
  Tensor z = (window - mean_) * (1.0f / stddev_);
  return Mul(Unsqueeze(z, -1), category_embedding_);  // (R, W, C, d)
}

// Eq. 2-3: two spatial then two temporal convolution layers, each with
// dropout, residual connection and LeakyReLU.
Tensor SthslNet::LocalEncode(const Tensor& embeddings, bool training) {
  STHSL_TRACE_SCOPE("sthsl/local_encoder");
  const int64_t w = embeddings.Size(1);
  const int64_t d = config_.dim;
  const float slope = config_.leaky_slope;
  Tensor x = embeddings;  // (R, W, C, d)

  if (config_.use_spatial_conv) {
    // (R, W, C, d) -> (W, d, C, R) -> images (W*d, C, I, J).
    Tensor s = Reshape(Permute(x, {1, 3, 2, 0}),
                       {w * d, num_categories_, grid_rows_, grid_cols_});
    if (!config_.use_category_conv) {
      s = Reshape(s, {w * d * num_categories_, 1, grid_rows_, grid_cols_});
    }
    for (Conv2dLayer* conv : {spatial_conv1_.get(), spatial_conv2_.get()}) {
      s = conv->Block(s, *conv_dropout_, slope);
    }
    if (!config_.use_category_conv) {
      s = Reshape(s, {w * d, num_categories_, grid_rows_, grid_cols_});
    }
    x = Permute(Reshape(s, {w, d, num_categories_, num_regions_}),
                {3, 0, 2, 1});  // back to (R, W, C, d)
  }

  if (config_.use_temporal_conv) {
    // (R, W, C, d) -> (R, d, C, W) -> sequences (R*d, C, W).
    Tensor s = Reshape(Permute(x, {0, 3, 2, 1}),
                       {num_regions_ * d, num_categories_, w});
    if (!config_.use_category_conv) {
      s = Reshape(s, {num_regions_ * d * num_categories_, 1, w});
    }
    for (Conv1dLayer* conv : {temporal_conv1_.get(), temporal_conv2_.get()}) {
      s = conv->Block(s, *conv_dropout_, slope);
    }
    if (!config_.use_category_conv) {
      s = Reshape(s, {num_regions_ * d, num_categories_, w});
    }
    x = Permute(Reshape(s, {num_regions_, d, num_categories_, w}),
                {0, 3, 2, 1});
  }
  return x;
}

// Eq. 4: Gamma = sigma(H^T sigma(H E)), hyperedges as intermediate hubs.
Tensor SthslNet::HypergraphPropagate(const Tensor& embeddings) const {
  STHSL_TRACE_SCOPE("sthsl/hypergraph_prop");
  const int64_t w = embeddings.Size(1);
  const int64_t d = config_.dim;
  const float slope = config_.leaky_slope;
  // (R, W, C, d) -> (R, C, W, d) -> (R*C, W*d): every region-category pair
  // is one hypergraph node; time and latent dims ride along as features.
  Tensor e2 = Reshape(Permute(embeddings, {0, 2, 1, 3}),
                      {num_regions_ * num_categories_, w * d});
  Tensor to_edges = LeakyRelu(MatMul(hypergraph_, e2), slope);  // (H, W*d)
  Tensor back = LeakyRelu(MatMul(Transpose(hypergraph_, 0, 1), to_edges),
                          slope);  // (RC, W*d)
  // Residual connection, as in the paper's Eq. 2-3 convolutions: keeps each
  // node's own signal alongside the (low-rank) global hyperedge mixing.
  back = Add(back, e2);
  return Permute(
      Reshape(back, {num_regions_, num_categories_, w, d}), {0, 2, 1, 3});
}

// Eq. 5: stacked single-channel temporal convolutions on the global view.
Tensor SthslNet::GlobalTemporal(const Tensor& gamma, bool training) {
  STHSL_TRACE_SCOPE("sthsl/global_temporal");
  const int64_t w = gamma.Size(1);
  const int64_t d = config_.dim;
  const float slope = config_.leaky_slope;
  // (R, W, C, d) -> (R, C, d, W) -> (R*C*d, 1, W).
  Tensor s = Reshape(Permute(gamma, {0, 2, 3, 1}),
                     {num_regions_ * num_categories_ * d, 1, w});
  for (const auto& conv : global_temporal_convs_) {
    // Residual connection around each layer, as in Eq. 2-3: the deep
    // single-channel stack is otherwise lossy.
    s = conv->Block(s, *conv_dropout_, slope);
  }
  return Permute(
      Reshape(s, {num_regions_, num_categories_, d, w}), {0, 3, 1, 2});
}

// Eq. 6-7: readout + bilinear discrimination of original vs corrupt nodes.
Tensor SthslNet::InfomaxLoss(const Tensor& gamma,
                             const Tensor& corrupt_gamma) const {
  STHSL_TRACE_SCOPE("sthsl/infomax_loss");
  const int64_t w = gamma.Size(1);
  const int64_t d = config_.dim;
  Tensor psi = Mean(gamma, {0});  // (W, C, d) graph-level readout, Eq. 6

  auto score = [&](const Tensor& nodes) {
    Tensor wx = Reshape(
        MatMul(Reshape(nodes, {num_regions_ * w * num_categories_, d}),
               infomax_weight_),
        {num_regions_, w, num_categories_, d});
    return Sum(Mul(wx, Unsqueeze(psi, 0)), {-1});  // (R, W, C)
  };

  Tensor positive = score(gamma);
  Tensor negative = score(corrupt_gamma);
  Tensor loss_pos = Mean(Log(Sigmoid(positive)));
  Tensor loss_neg = Mean(Log(1.0f - Sigmoid(negative)));
  return Neg(Add(loss_pos, loss_neg));
}

// Eq. 8: InfoNCE between temporally pooled local and global embeddings;
// positives pair the two views of the same (region, category), negatives
// come from other regions of the same category.
Tensor SthslNet::ContrastiveLoss(const Tensor& local,
                                 const Tensor& global) const {
  STHSL_TRACE_SCOPE("sthsl/contrastive_loss");
  Tensor l = L2NormalizeRows(Mean(local, {1}));   // (R, C, d)
  Tensor g = L2NormalizeRows(Mean(global, {1}));  // (R, C, d)
  const float inv_tau = 1.0f / config_.temperature;

  // Identity mask to pull the diagonal out of the similarity matrix.
  std::vector<float> eye(
      static_cast<size_t>(num_regions_ * num_regions_), 0.0f);
  for (int64_t r = 0; r < num_regions_; ++r) {
    eye[static_cast<size_t>(r * num_regions_ + r)] = 1.0f;
  }
  Tensor identity =
      Tensor::FromVector({num_regions_, num_regions_}, std::move(eye));

  Tensor total = Tensor::Scalar(0.0f);
  for (int64_t c = 0; c < num_categories_; ++c) {
    Tensor lc = Squeeze(Narrow(l, 1, c, 1), 1);  // (R, d)
    Tensor gc = Squeeze(Narrow(g, 1, c, 1), 1);
    Tensor sim = MulScalar(MatMul(gc, Transpose(lc, 0, 1)), inv_tau);
    Tensor log_probs = Log(Softmax(sim, 1));
    Tensor diag_sum = Sum(Mul(log_probs, identity));
    total = Add(total, Neg(diag_sum));
  }
  return MulScalar(total,
                   1.0f / static_cast<float>(num_regions_ * num_categories_));
}

// Eq. 9: temporal mean pooling followed by a linear read-out, then
// de-normalization back to count space.
Tensor SthslNet::Predict(const Tensor& local, const Tensor& global) {
  STHSL_TRACE_SCOPE("sthsl/predict_head");
  PredictionSource source = config_.prediction_source;
  if (!config_.use_hypergraph) source = PredictionSource::kLocal;

  // Temporal pooling: softmax-weighted mean over the window. Zero logits
  // reproduce Eq. 9's uniform mean; training can shift mass to recent days.
  // Shorter-than-configured windows use the most recent logits.
  auto pool = [&](const Tensor& view) {
    const int64_t w = view.Size(1);
    STHSL_CHECK_LE(w, pool_logits_.Numel())
        << "window longer than the configured training window";
    Tensor logits = w == pool_logits_.Numel()
                        ? pool_logits_
                        : Narrow(pool_logits_, 0,
                                 pool_logits_.Numel() - w, w);
    Tensor weights = Reshape(Softmax(logits, 0), {1, w, 1, 1});
    return Sum(Mul(view, weights), {1});
  };
  Tensor pooled;
  switch (source) {
    case PredictionSource::kGlobal:
      pooled = pool(global);
      break;
    case PredictionSource::kLocal:
      pooled = pool(local);
      break;
    case PredictionSource::kFusion:
      pooled = Cat({pool(local), pool(global)}, -1);
      break;
  }
  Tensor out = head_->Forward(pooled);  // (R, C, 1)
  out = Reshape(out, {num_regions_, num_categories_});
  return AddScalar(MulScalar(out, stddev_), mean_);
}

SthslNet::Output SthslNet::Forward(const Tensor& window, bool training) {
  STHSL_TRACE_SCOPE("sthsl/forward");
  Output output;
  Tensor embeddings = EmbedWindow(window);
  Tensor local = config_.use_local_encoder
                     ? LocalEncode(embeddings, training)
                     : embeddings;

  Tensor global;
  if (config_.use_hypergraph) {
    Tensor gamma_r = HypergraphPropagate(embeddings);
    global = config_.use_global_temporal ? GlobalTemporal(gamma_r, training)
                                         : gamma_r;
    if (training && config_.use_infomax) {
      // Corruption: shuffle region identities, keep everything else.
      Tensor corrupt_embeddings =
          IndexSelect(embeddings, 0, [&] {
            auto perm = rng_.Permutation(static_cast<int>(num_regions_));
            return std::vector<int64_t>(perm.begin(), perm.end());
          }());
      Tensor corrupt_gamma = HypergraphPropagate(corrupt_embeddings);
      output.infomax_loss = InfomaxLoss(gamma_r, corrupt_gamma);
    }
    if (training && config_.use_contrastive) {
      output.contrastive_loss = ContrastiveLoss(local, global);
    }
  }
  output.prediction = Predict(local, global);
  return output;
}

// -- Forecaster wrapper -----------------------------------------------------------

SthslForecaster::SthslForecaster(SthslConfig config, std::string name)
    : NeuralForecaster(config.train),
      config_(std::move(config)),
      name_(std::move(name)) {}

void SthslForecaster::MaterializeForInference(int64_t rows, int64_t cols,
                                              int64_t num_categories,
                                              float mean, float stddev) {
  net_ = std::make_unique<SthslNet>(config_, rows, cols, num_categories, mean,
                                    stddev, rng_);
  net_->SetTraining(false);
}

void SthslForecaster::Prepare(const CrimeDataset& data, int64_t train_end) {
  float mean;
  float stddev;
  data.SliceDays(0, train_end).ComputeMoments(&mean, &stddev);
  net_ = std::make_unique<SthslNet>(config_, data.rows(), data.cols(),
                                    data.num_categories(), mean, stddev,
                                    rng_);
}

Tensor SthslForecaster::Forward(const Tensor& window, bool training) {
  STHSL_CHECK(net_ != nullptr) << "Fit must run before Forward";
  SthslNet::Output out = net_->Forward(window, training);
  // Eval forwards produce no auxiliary losses. Loss() consumes and clears
  // the training ones, so concurrent eval callers find nothing to clear and
  // write nothing here.
  if (training || last_infomax_loss_.Defined() ||
      last_contrastive_loss_.Defined()) {
    last_infomax_loss_ = out.infomax_loss;
    last_contrastive_loss_ = out.contrastive_loss;
  }
  return out.prediction;
}

// Eq. 10 joint objective (weight decay is handled by the optimizer). The
// squared-error term is averaged over entries rather than summed so that
// the lambda weights of the self-supervised terms are scale-free across
// city sizes (a normalization choice; the gradient direction is identical).
Tensor SthslForecaster::Loss(const Tensor& pred, const Tensor& target) {
  Tensor loss = MseLoss(pred, target);
  if (last_infomax_loss_.Defined()) {
    loss = Add(loss, MulScalar(last_infomax_loss_, config_.lambda1));
  }
  if (last_contrastive_loss_.Defined()) {
    loss = Add(loss, MulScalar(last_contrastive_loss_, config_.lambda2));
  }
  // The loss graph holds both terms now; dropping the members here also
  // keeps the last training graph from outliving Fit.
  last_infomax_loss_ = Tensor();
  last_contrastive_loss_ = Tensor();
  return loss;
}

}  // namespace sthsl

#ifndef STHSL_CORE_STHSL_MODEL_H_
#define STHSL_CORE_STHSL_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/neural_forecaster.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace sthsl {

/// Which embedding view feeds the prediction head (Eq. 9).
enum class PredictionSource {
  kGlobal,  // hypergraph view Gamma^(T) — the full model's default
  kLocal,   // multi-view convolution view H^(T) ("w/o Hyper", "w/o Global")
  kFusion,  // concatenation of both views ("Fusion w/o ConL")
};

/// Full configuration of ST-HSL: architecture hyperparameters (paper Sec.
/// IV-A4), the self-supervision weights of Eq. 10, and one switch per
/// ablation variant of Fig. 5 / Table IV.
struct SthslConfig {
  int64_t dim = 16;             // embedding dimensionality d (best in Fig. 7)
  int64_t num_hyperedges = 128; // H (best in Fig. 7)
  int64_t kernel_size = 3;      // spatial/temporal conv kernel (Fig. 7)
  int64_t global_temporal_layers = 4;  // stacked Eq. 5 convolutions
  float dropout = 0.2f;
  float leaky_slope = 0.1f;
  float lambda1 = 0.2f;       // weight of the infomax loss L^(I)
  float lambda2 = 0.1f;       // weight of the contrastive loss L^(C)
  float temperature = 0.5f;   // InfoNCE temperature tau

  // Multi-view local encoder ablations (Fig. 5).
  bool use_local_encoder = true;   // "w/o Local" when false
  bool use_spatial_conv = true;    // "w/o S-Conv" when false
  bool use_temporal_conv = true;   // "w/o T-Conv" when false
  bool use_category_conv = true;   // "w/o C-Conv": no cross-category mixing

  // Hypergraph / self-supervision ablations (Table IV).
  bool use_hypergraph = true;       // "w/o Hyper" when false
  bool use_global_temporal = true;  // "w/o GlobalTem" when false
  bool use_infomax = true;          // "w/o Infomax" when false
  bool use_contrastive = true;      // "w/o ConL" when false
  PredictionSource prediction_source = PredictionSource::kGlobal;

  TrainConfig train;
};

/// InvalidArgument, naming the field, when `config` describes a network
/// SthslNet cannot build or run: dim, num_hyperedges and train.window must
/// be >= 1; kernel_size odd and >= 1 (same padding); global_temporal_layers
/// >= 0; dropout in [0, 1); temperature > 0; leaky_slope >= 0 (the conv
/// blocks read the LeakyReLU derivative off their output). The one check
/// for every config from outside the process: CLI flags and bundle
/// manifests.
Status ValidateSthslConfig(const SthslConfig& config);

/// The ST-HSL network: crime embedding layer (Eq. 1), multi-view
/// spatial-temporal convolution encoder (Eq. 2-3), hypergraph global
/// dependency module (Eq. 4-5), hypergraph infomax network (Eq. 6-7),
/// local-global contrastive objective (Eq. 8) and prediction head (Eq. 9).
class SthslNet : public Module {
 public:
  SthslNet(const SthslConfig& config, int64_t grid_rows, int64_t grid_cols,
           int64_t num_categories, float mean, float stddev, Rng& rng);

  /// Output of one forward pass: the prediction plus the auxiliary
  /// self-supervised losses of the dual-stage paradigm.
  struct Output {
    Tensor prediction;        // (R, C) predicted counts
    Tensor infomax_loss;      // scalar, undefined if disabled
    Tensor contrastive_loss;  // scalar, undefined if disabled
  };

  /// `window`: raw counts (R, W, C). `training` enables dropout and the
  /// computation of the self-supervised losses.
  Output Forward(const Tensor& window, bool training);

  /// Learned hyperedge-region dependency matrix (H, R*C); used by the
  /// Fig. 8 case study. Undefined when the hypergraph is ablated.
  Tensor hyperedge_weights() const { return hypergraph_; }

  const SthslConfig& config() const { return config_; }

  /// Z-score normalization moments baked in at construction (Eq. 1).
  /// Recorded by the serving bundle so a reloaded network normalizes
  /// bit-identically to the trained one.
  float mean() const { return mean_; }
  float stddev() const { return stddev_; }
  int64_t grid_rows() const { return grid_rows_; }
  int64_t grid_cols() const { return grid_cols_; }
  int64_t num_categories() const { return num_categories_; }

 private:
  Tensor EmbedWindow(const Tensor& window) const;               // Eq. 1
  Tensor LocalEncode(const Tensor& embeddings, bool training);  // Eq. 2-3
  Tensor HypergraphPropagate(const Tensor& embeddings) const;   // Eq. 4
  Tensor GlobalTemporal(const Tensor& gamma, bool training);    // Eq. 5
  Tensor InfomaxLoss(const Tensor& gamma, const Tensor& corrupt_gamma) const;
  Tensor ContrastiveLoss(const Tensor& local, const Tensor& global) const;
  Tensor Predict(const Tensor& local, const Tensor& global);

  SthslConfig config_;
  int64_t grid_rows_;
  int64_t grid_cols_;
  int64_t num_regions_;
  int64_t num_categories_;
  float mean_;
  float stddev_;
  mutable Rng rng_;

  Tensor category_embedding_;  // (C, d) — Eq. 1's e_c
  std::unique_ptr<Conv2dLayer> spatial_conv1_;
  std::unique_ptr<Conv2dLayer> spatial_conv2_;
  std::unique_ptr<Conv1dLayer> temporal_conv1_;
  std::unique_ptr<Conv1dLayer> temporal_conv2_;
  Tensor hypergraph_;  // (H, R*C) — Eq. 4's learnable structure
  std::vector<std::unique_ptr<Conv1dLayer>> global_temporal_convs_;
  Tensor infomax_weight_;  // (d, d) — Eq. 7's bilinear W^(I)
  /// Learned temporal pooling logits over the window (softmax-normalized);
  /// initialized to zero, i.e. exactly Eq. 9's uniform mean pooling, but
  /// free to learn recency emphasis.
  Tensor pool_logits_;
  std::unique_ptr<Linear> head_;  // Eq. 9 prediction head
  std::unique_ptr<DropoutLayer> conv_dropout_;
};

/// Forecaster wrapper that trains SthslNet with the joint objective of
/// Eq. 10: squared error + lambda1 L^(I) + lambda2 L^(C) (+ weight decay
/// via the optimizer).
class SthslForecaster : public NeuralForecaster {
 public:
  explicit SthslForecaster(SthslConfig config, std::string name = "ST-HSL");

  std::string Name() const override { return name_; }

  /// The trained network (null before Fit). Exposed for the case study.
  const SthslNet* net() const { return net_.get(); }
  /// Mutable access for checkpoint/bundle loading into a materialized net.
  SthslNet* mutable_net() { return net_.get(); }

  /// Materializes the network for inference from explicit grid geometry and
  /// normalization moments, without a dataset or training step. Used by the
  /// serving layer's bundle loader (the moments come from the bundle
  /// manifest, so predictions match the exporting process bit-for-bit once
  /// the checkpoint is loaded).
  void MaterializeForInference(int64_t rows, int64_t cols,
                               int64_t num_categories, float mean,
                               float stddev);

 protected:
  void Prepare(const CrimeDataset& data, int64_t train_end) override;
  Tensor Forward(const Tensor& window, bool training) override;
  Tensor Loss(const Tensor& pred, const Tensor& target) override;
  Module* RootModule() override { return net_.get(); }

 private:
  SthslConfig config_;
  std::string name_;
  std::unique_ptr<SthslNet> net_;
  Tensor last_infomax_loss_;
  Tensor last_contrastive_loss_;
};

}  // namespace sthsl

#endif  // STHSL_CORE_STHSL_MODEL_H_

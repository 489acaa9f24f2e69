#include "nn/layers.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/check.h"

namespace sthsl {

// -- Linear ---------------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool with_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      "weight", Tensor::XavierUniform({in_features, out_features}, rng,
                                      in_features, out_features));
  if (with_bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}, true));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  STHSL_CHECK_GE(x.Dim(), 1);
  STHSL_CHECK_EQ(x.Size(-1), in_features_) << "Linear input feature mismatch";
  const auto in_shape = x.Shape();
  Tensor flat = x.Dim() == 2 ? x : Reshape(x, {-1, in_features_});
  Tensor out = MatMul(flat, weight_);
  if (bias_.Defined()) out = out + bias_;
  if (x.Dim() != 2) {
    std::vector<int64_t> out_shape(in_shape.begin(), in_shape.end() - 1);
    out_shape.push_back(out_features_);
    out = Reshape(out, std::move(out_shape));
  }
  return out;
}

// -- Conv layers ------------------------------------------------------------------

namespace {

int64_t SamePad(int64_t pad, int64_t kernel) {
  if (pad >= 0) return pad;
  STHSL_CHECK_EQ(kernel % 2, 1) << "same padding requires an odd kernel";
  return (kernel - 1) / 2;
}

}  // namespace

Conv2dLayer::Conv2dLayer(int64_t in_channels, int64_t out_channels,
                         int64_t kh, int64_t kw, Rng& rng, int64_t pad_h,
                         int64_t pad_w, bool with_bias)
    : pad_h_(SamePad(pad_h, kh)), pad_w_(SamePad(pad_w, kw)) {
  const int64_t fan_in = in_channels * kh * kw;
  const int64_t fan_out = out_channels * kh * kw;
  weight_ = RegisterParameter(
      "weight", Tensor::XavierUniform({out_channels, in_channels, kh, kw},
                                      rng, fan_in, fan_out));
  if (with_bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_channels}, true));
  }
}

Tensor Conv2dLayer::Forward(const Tensor& x) const {
  return Conv2d(x, weight_, bias_, pad_h_, pad_w_);
}

Tensor Conv2dLayer::Block(const Tensor& x, const DropoutLayer& dropout,
                          float slope) const {
  STHSL_CHECK(pad_h_ == (weight_.Size(2) - 1) / 2 &&
              pad_w_ == (weight_.Size(3) - 1) / 2)
      << "a conv block needs same padding";
  return ConvBlock(x, weight_, bias_, dropout.p(), dropout.rng(),
                   dropout.IsTraining(), slope);
}

Conv1dLayer::Conv1dLayer(int64_t in_channels, int64_t out_channels,
                         int64_t kernel, Rng& rng, int64_t pad,
                         bool with_bias)
    : pad_(SamePad(pad, kernel)) {
  const int64_t fan_in = in_channels * kernel;
  const int64_t fan_out = out_channels * kernel;
  weight_ = RegisterParameter(
      "weight", Tensor::XavierUniform({out_channels, in_channels, kernel},
                                      rng, fan_in, fan_out));
  if (with_bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_channels}, true));
  }
}

Tensor Conv1dLayer::Forward(const Tensor& x) const {
  return Conv1d(x, weight_, bias_, pad_);
}

Tensor Conv1dLayer::Block(const Tensor& x, const DropoutLayer& dropout,
                          float slope) const {
  STHSL_CHECK(pad_ == (weight_.Size(2) - 1) / 2)
      << "a conv block needs same padding";
  return ConvBlock(x, weight_, bias_, dropout.p(), dropout.rng(),
                   dropout.IsTraining(), slope);
}

// -- Dropout --------------------------------------------------------------------

Tensor DropoutLayer::Forward(const Tensor& x) const {
  return Dropout(x, p_, rng_, IsTraining());
}

// -- LayerNorm ------------------------------------------------------------------

LayerNorm::LayerNorm(int64_t features, float eps) : eps_(eps) {
  gain_ = RegisterParameter("gain", Tensor::Ones({features}, true));
  bias_ = RegisterParameter("bias", Tensor::Zeros({features}, true));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  Tensor mean = Mean(x, {-1}, /*keepdim=*/true);
  Tensor centered = x - mean;
  Tensor var = Mean(Square(centered), {-1}, /*keepdim=*/true);
  Tensor normed = centered / Sqrt(var + eps_);
  return normed * gain_ + bias_;
}

// -- GRU ------------------------------------------------------------------------

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      input_proj_(input_size, 3 * hidden_size, rng),
      hidden_proj_(hidden_size, 3 * hidden_size, rng, /*with_bias=*/false) {
  RegisterModule("input_proj", &input_proj_);
  RegisterModule("hidden_proj", &hidden_proj_);
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) const {
  Tensor xi = input_proj_.Forward(x);   // (B, 3H)
  Tensor hi = hidden_proj_.Forward(h);  // (B, 3H)
  const int64_t hsz = hidden_size_;
  Tensor reset = Sigmoid(Narrow(xi, 1, 0, hsz) + Narrow(hi, 1, 0, hsz));
  Tensor update = Sigmoid(Narrow(xi, 1, hsz, hsz) + Narrow(hi, 1, hsz, hsz));
  Tensor cand =
      Tanh(Narrow(xi, 1, 2 * hsz, hsz) + reset * Narrow(hi, 1, 2 * hsz, hsz));
  return update * h + (1.0f - update) * cand;
}

Gru::Gru(int64_t input_size, int64_t hidden_size, Rng& rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterModule("cell", &cell_);
}

Tensor Gru::Forward(const Tensor& x) const {
  STHSL_CHECK_EQ(x.Dim(), 3) << "Gru expects (B, T, input)";
  const int64_t batch = x.Size(0);
  const int64_t steps = x.Size(1);
  Tensor h = Tensor::Zeros({batch, cell_.hidden_size()});
  std::vector<Tensor> outputs;
  outputs.reserve(static_cast<size_t>(steps));
  for (int64_t t = 0; t < steps; ++t) {
    Tensor xt = Squeeze(Narrow(x, 1, t, 1), 1);  // (B, input)
    h = cell_.Forward(xt, h);
    outputs.push_back(h);
  }
  return Stack(outputs, 1);  // (B, T, hidden)
}

Tensor Gru::ForwardLast(const Tensor& x) const {
  STHSL_CHECK_EQ(x.Dim(), 3) << "Gru expects (B, T, input)";
  const int64_t batch = x.Size(0);
  const int64_t steps = x.Size(1);
  Tensor h = Tensor::Zeros({batch, cell_.hidden_size()});
  for (int64_t t = 0; t < steps; ++t) {
    Tensor xt = Squeeze(Narrow(x, 1, t, 1), 1);
    h = cell_.Forward(xt, h);
  }
  return h;
}

// -- Attention ------------------------------------------------------------------

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      query_proj_(dim, dim, rng),
      key_proj_(dim, dim, rng),
      value_proj_(dim, dim, rng),
      out_proj_(dim, dim, rng) {
  STHSL_CHECK_EQ(dim % num_heads, 0) << "dim must be divisible by num_heads";
  RegisterModule("query_proj", &query_proj_);
  RegisterModule("key_proj", &key_proj_);
  RegisterModule("value_proj", &value_proj_);
  RegisterModule("out_proj", &out_proj_);
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x) const {
  STHSL_CHECK_EQ(x.Dim(), 3) << "attention expects (B, T, dim)";
  const int64_t batch = x.Size(0);
  const int64_t steps = x.Size(1);
  const int64_t head_dim = dim_ / num_heads_;

  auto split_heads = [&](const Tensor& t) {
    // (B, T, dim) -> (B*heads, T, head_dim)
    Tensor r = Reshape(t, {batch, steps, num_heads_, head_dim});
    r = Permute(r, {0, 2, 1, 3});
    return Reshape(r, {batch * num_heads_, steps, head_dim});
  };

  Tensor q = split_heads(query_proj_.Forward(x));
  Tensor k = split_heads(key_proj_.Forward(x));
  Tensor v = split_heads(value_proj_.Forward(x));

  Tensor scores = MatMul(q, Permute(k, {0, 2, 1}));  // (B*h, T, T)
  scores = scores * (1.0f / std::sqrt(static_cast<float>(head_dim)));
  Tensor attn = Softmax(scores, 2);
  Tensor mixed = MatMul(attn, v);  // (B*h, T, head_dim)

  Tensor merged = Reshape(mixed, {batch, num_heads_, steps, head_dim});
  merged = Permute(merged, {0, 2, 1, 3});
  merged = Reshape(merged, {batch, steps, dim_});
  return out_proj_.Forward(merged);
}

}  // namespace sthsl

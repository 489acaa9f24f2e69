// Direct (stride-1) 1-D and 2-D convolution with autograd, and the fused
// conv block of ST-HSL's Eq. 2-3 and 5.
//
// Execution: forward and the input-gradient pass parallelize over the batch
// dimension (each sample's planes are owned by exactly one chunk, so any
// thread count reproduces the serial result bitwise). The weight- and
// bias-gradient passes reduce over the batch: they accumulate per-chunk
// partials — with chunk boundaries that depend only on the batch size, not
// the thread count — into a reusable scratch buffer leased from the exec
// layer, then combine the partials in ascending chunk order.
//
// Inner loops run on the simd microkernels: forward and the input gradient
// are the register-tiled `conv` kernel (the input gradient as the flipped
// convolution of the output gradient, so its taps still run in ascending
// (co, dy, dx) order), and `conv_weight_grad` forms the weight gradient as
// a canonical dot per output row slice (summed in ascending row order) and
// the bias gradient as a canonical reduce_sum — all bitwise-identical
// across ISA variants per the simd.h contract. A 1-D (N, C, L) convolution is the same kernel over
// the same buffer with H = 1.

#include <algorithm>
#include <cstring>
#include <memory>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "tensor/elementwise_ops.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/obs/obs.h"

namespace sthsl {
namespace {

// Target multiply-add count per parallel chunk (see docs/performance.md).
constexpr int64_t kConvGrainFlops = int64_t{1} << 17;

// One stride-1 convolution's extents; a 1-D conv has height = kh = 1.
struct ConvShape {
  int64_t batch, cin, height, width;
  int64_t cout, kh, kw, pad_h, pad_w;
  int64_t out_h, out_w;
  std::vector<int64_t> out_shape;  // rank of the input

  int64_t InSample() const { return cin * height * width; }
  int64_t OutSample() const { return cout * out_h * out_w; }
  int64_t BatchGrain() const {
    const int64_t flops = std::max<int64_t>(
        1, cout * cin * kh * kw * out_h * out_w * 2);
    return std::max<int64_t>(1, kConvGrainFlops / flops);
  }
};

// Checks an (N, Cin, L) / (Cout, Cin, K) or (N, Cin, H, W) /
// (Cout, Cin, KH, KW) operand pair and derives the output extents.
ConvShape MakeConvShape(const char* op, const Tensor& input,
                        const Tensor& weight, const Tensor& bias,
                        int64_t pad_h, int64_t pad_w) {
  if (DebugChecksEnabled()) {
    ValidateOpInput("conv2d", "input", input);
    ValidateOpInput("conv2d", "weight", weight);
    ValidateOpInput("conv2d", "bias", bias);
  }
  const int64_t rank = input.Dim();
  STHSL_CHECK(rank == 3 || rank == 4)
      << op << " input must be (N, Cin, L) or (N, Cin, H, W)";
  STHSL_CHECK_EQ(weight.Dim(), rank)
      << op << " weight must be (Cout, Cin, K) or (Cout, Cin, KH, KW)";
  ConvShape c;
  c.batch = input.Size(0);
  c.cin = input.Size(1);
  c.height = rank == 4 ? input.Size(2) : 1;
  c.width = input.Size(-1);
  c.cout = weight.Size(0);
  STHSL_CHECK_EQ(weight.Size(1), c.cin) << op << " channel mismatch";
  c.kh = rank == 4 ? weight.Size(2) : 1;
  c.kw = weight.Size(-1);
  STHSL_CHECK(pad_h >= 0 && pad_w >= 0) << op << " negative padding";
  c.pad_h = pad_h;
  c.pad_w = pad_w;
  c.out_h = c.height + 2 * pad_h - c.kh + 1;
  c.out_w = c.width + 2 * pad_w - c.kw + 1;
  STHSL_CHECK(c.out_h > 0 && c.out_w > 0)
      << op << " kernel larger than input";
  if (bias.Defined()) {
    STHSL_CHECK_EQ(bias.Numel(), c.cout) << op << " bias size mismatch";
  }
  c.out_shape = {c.batch, c.cout};
  if (rank == 4) c.out_shape.push_back(c.out_h);
  c.out_shape.push_back(c.out_w);
  return c;
}

// Forward conv of samples [s0, s1): taps (ci, dy, dx) ascending from the
// bias, reading the input at (oy - pad_h + dy, ox - pad_w + dx). The weight
// gradient reads the same geometry without its taps, bias and output.
simd::ConvGeometry ForwardGeometry(const ConvShape& c, const float* x,
                                   const float* w, const float* bias,
                                   float* out, int64_t s0, int64_t s1) {
  return {.src = x + s0 * c.InSample(),
          .src_h = c.height,
          .src_w = c.width,
          .src_sample = c.InSample(),
          .in_channels = c.cin,
          .taps = w,
          .tap_out = c.cin * c.kh * c.kw,
          .tap_in = c.kh * c.kw,
          .kh = c.kh,
          .kw = c.kw,
          .off_h = -c.pad_h,
          .off_w = -c.pad_w,
          .flip = false,
          .bias = bias,
          .out = out != nullptr ? out + s0 * c.OutSample() : nullptr,
          .out_channels = c.cout,
          .out_h = c.out_h,
          .out_w = c.out_w,
          .out_sample = c.OutSample(),
          .samples = s1 - s0};
}

// Input gradient of samples [s0, s1): taps (co, dy, dx) ascending from +0,
// reading the output gradient at (iy + pad_h - dy, ix + pad_w - dx).
simd::ConvGeometry InputGradGeometry(const ConvShape& c, const float* g,
                                     const float* w, float* dx, int64_t s0,
                                     int64_t s1) {
  return {.src = g + s0 * c.OutSample(),
          .src_h = c.out_h,
          .src_w = c.out_w,
          .src_sample = c.OutSample(),
          .in_channels = c.cout,
          .taps = w,
          .tap_out = c.kh * c.kw,
          .tap_in = c.cin * c.kh * c.kw,
          .kh = c.kh,
          .kw = c.kw,
          .off_h = c.pad_h,
          .off_w = c.pad_w,
          .flip = true,
          .bias = nullptr,
          .out = dx + s0 * c.InSample(),
          .out_channels = c.cin,
          .out_h = c.height,
          .out_w = c.width,
          .out_sample = c.InSample(),
          .samples = s1 - s0};
}

// Runs the forward conv over the batch, then epilogue(out, lo, hi) over the
// chunk's output elements [lo, hi) while they are still in cache.
template <typename Epilogue>
std::vector<float> ConvForward(const ConvShape& c, const float* x,
                               const float* w, const float* bias,
                               Epilogue epilogue) {
  std::vector<float> out(static_cast<size_t>(c.batch * c.OutSample()));
  float* out_data = out.data();
  exec::ParallelFor(
      0, c.batch, c.BatchGrain(),
      [&, out_data](int64_t s0, int64_t s1) {
        simd::Kernels().conv(
            ForwardGeometry(c, x, w, bias, out_data, s0, s1));
        epilogue(out_data, s0 * c.OutSample(), s1 * c.OutSample());
      },
      "exec/conv2d_fwd");
  return out;
}

// Gradient w.r.t. the conv input from the output gradient `g`, then
// epilogue(dx, lo, hi) over the chunk's input-gradient elements [lo, hi).
template <typename Epilogue>
std::vector<float> ConvInputGrad(const ConvShape& c, const float* g,
                                 const float* w, Epilogue epilogue) {
  std::vector<float> dx(static_cast<size_t>(c.batch * c.InSample()));
  float* dx_data = dx.data();
  exec::ParallelFor(
      0, c.batch, c.BatchGrain(),
      [&, dx_data](int64_t s0, int64_t s1) {
        simd::Kernels().conv(InputGradGeometry(c, g, w, dx_data, s0, s1));
        epilogue(dx_data, s0 * c.InSample(), s1 * c.InSample());
      },
      "exec/conv2d_bwd_x");
  return dx;
}

// Weight and bias gradients from the output gradient `g` and the input `x`.
// Leaves *gw / *gb undefined when not needed.
void ConvParamGrads(const ConvShape& c, const float* g, const float* x,
                    const Tensor& weight, const Tensor& bias, Tensor* gw,
                    Tensor* gb) {
  const bool need_w = NeedsGrad(weight);
  const bool need_b = bias.Defined() && NeedsGrad(bias);
  if (!need_w && !need_b) return;
  const int64_t dw_size = need_w ? weight.Numel() : 0;
  const int64_t db_size = need_b ? c.cout : 0;
  // Each chunk's slot: its dw and db partials, then the kernel's per-tap
  // accumulators.
  const int64_t stride = dw_size + db_size + c.cin * c.kh * c.kw;
  const int64_t grain = c.BatchGrain();
  const int64_t chunks = exec::FixedChunkCount(c.batch, grain);
  // Per-chunk partial gradients, leased from the exec layer's reusable
  // scratch arena instead of allocated per call.
  exec::ScratchLease scratch(static_cast<size_t>(chunks * stride));
  float* partials = scratch.data();
  exec::ParallelForFixedChunks(
      0, c.batch, grain,
      [&, partials](int64_t chunk, int64_t s0, int64_t s1) {
        float* dw_part = partials + chunk * stride;
        std::memset(dw_part, 0,
                    static_cast<size_t>(dw_size + db_size) * sizeof(float));
        simd::Kernels().conv_weight_grad(
            ForwardGeometry(c, x, nullptr, nullptr, nullptr, s0, s1),
            g + s0 * c.OutSample(), need_w ? dw_part : nullptr,
            need_b ? dw_part + dw_size : nullptr,
            dw_part + dw_size + db_size);
      },
      "exec/conv2d_bwd_w");
  // Combine partials in ascending chunk order: deterministic at any thread
  // count, and identical to the serial loop when the batch fits one chunk.
  auto combine = [&](int64_t offset, int64_t size, const Tensor& like) {
    std::vector<float> sum(static_cast<size_t>(size), 0.0f);
    for (int64_t ch = 0; ch < chunks; ++ch) {
      const float* part = partials + ch * stride + offset;
      for (int64_t t = 0; t < size; ++t) sum[t] += part[t];
    }
    return Tensor::FromVector(like.Shape(), std::move(sum));
  };
  if (need_w) *gw = combine(0, dw_size, weight);
  if (need_b) *gb = combine(dw_size, db_size, bias);
}

std::vector<Tensor> ConvInputs(const Tensor& input, const Tensor& weight,
                               const Tensor& bias) {
  std::vector<Tensor> inputs = {input, weight};
  if (bias.Defined()) inputs.push_back(bias);
  return inputs;
}

Tensor Conv(const char* op, const Tensor& input, const Tensor& weight,
            const Tensor& bias, int64_t pad_h, int64_t pad_w) {
  const ConvShape c = MakeConvShape(op, input, weight, bias, pad_h, pad_w);
  std::vector<float> out =
      ConvForward(c, input.Data().data(), weight.Data().data(),
                  bias.Defined() ? bias.Data().data() : nullptr,
                  [](float*, int64_t, int64_t) {});
  return MakeResult(
      c.out_shape, std::move(out), "conv2d", ConvInputs(input, weight, bias),
      [input, weight, bias, c](const Tensor& g) -> std::vector<Tensor> {
        const float* gv = g.Data().data();
        Tensor gi, gw, gb;
        if (NeedsGrad(input)) {
          gi = Tensor::FromVector(
              input.Shape(), ConvInputGrad(c, gv, weight.Data().data(),
                                           [](float*, int64_t, int64_t) {}));
        }
        ConvParamGrads(c, gv, input.Data().data(), weight, bias, &gw, &gb);
        std::vector<Tensor> grads = {gi, gw};
        if (bias.Defined()) grads.push_back(gb);
        return grads;
      });
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad_h, int64_t pad_w) {
  STHSL_CHECK_EQ(input.Dim(), 4) << "Conv2d input must be (N, Cin, H, W)";
  return Conv("Conv2d", input, weight, bias, pad_h, pad_w);
}

Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad) {
  STHSL_CHECK_EQ(input.Dim(), 3) << "Conv1d input must be (N, Cin, L)";
  return Conv("Conv1d", input, weight, bias, /*pad_h=*/0, pad);
}

Tensor ConvBlock(const Tensor& x, const Tensor& weight, const Tensor& bias,
                 float p, Rng& rng, bool training, float slope) {
  STHSL_CHECK(p >= 0.0f && p < 1.0f) << "invalid dropout probability " << p;
  // The backward reads the LeakyReLU derivative off the output: out > 0
  // exactly when the pre-activation is > 0, provided slope >= 0.
  STHSL_CHECK(!(slope < 0.0f)) << "ConvBlock needs a LeakyReLU slope >= 0";
  STHSL_CHECK(weight.Dim() == x.Dim() && weight.Size(0) == weight.Size(1))
      << "ConvBlock needs a cout == cin weight of the input's rank";
  const int64_t kh = x.Dim() == 4 ? weight.Size(2) : 1;
  const int64_t kw = weight.Size(-1);
  STHSL_CHECK(kh % 2 == 1 && kw % 2 == 1)
      << "ConvBlock's same padding needs odd kernels";
  const ConvShape c =
      MakeConvShape("ConvBlock", x, weight, bias, (kh - 1) / 2, (kw - 1) / 2);

  // Inverted dropout, drawn exactly as Dropout draws it. The draw is serial
  // RNG work, not conv work, so the profiler gets it as its own row.
  const int64_t n = x.Numel();
  Tensor mask;
  if (training && p != 0.0f) {
    std::vector<float> drawn(static_cast<size_t>(n));
    rng.DropoutMask(p, 1.0f / (1.0f - p), drawn.data(), n);
    mask = Tensor::FromVector(x.Shape(), std::move(drawn));
    if (obs::TraceEnabled() && !obs::InBackwardPass()) {
      obs::RecordForwardOp("dropout_mask", 4 * n);
    }
  }

  // One output pass: conv, then the Mul, Add and LeakyRelu rows of the
  // elementwise op table, per chunk while its outputs are in cache.
  const float* xv = x.Data().data();
  const float* mv = mask.Defined() ? mask.Data().data() : nullptr;
  std::vector<float> out = ConvForward(
      c, xv, weight.Data().data(),
      bias.Defined() ? bias.Data().data() : nullptr,
      [xv, mv, slope](float* buf, int64_t lo, int64_t hi) {
        const auto& ks = simd::Kernels();
        float* o = buf + lo;
        const int64_t len = hi - lo;
        if (mv != nullptr) ks.mul(len, o, mv + lo, o);
        ks.add(len, o, xv + lo, o);
        ks.leaky_relu(len, o, slope, o);
      });

  // The backward reads the output through a weak reference: a strong one
  // from the node's own closure would keep the result alive forever.
  auto self = std::make_shared<std::weak_ptr<TensorImpl>>();
  Tensor result = MakeResult(
      c.out_shape, std::move(out), "conv2d", ConvInputs(x, weight, bias),
      [x, weight, bias, c, mask, slope, self](
          const Tensor& g) -> std::vector<Tensor> {
        const std::shared_ptr<TensorImpl> out_impl = self->lock();
        STHSL_CHECK(out_impl != nullptr) << "ConvBlock output released";
        const float* gv = g.Data().data();
        const float* ov = out_impl->data.data();
        const float* mv = mask.Defined() ? mask.Data().data() : nullptr;
        const int64_t n = g.Numel();
        // The unfused graph's gradients: ga at the residual sum (the
        // LeakyRelu row's d0) and gy at the conv output (the Mul row's d0
        // is the mask). The engine would also add each to +0 first; that
        // only turns -0 into +0, and a zero's sign cannot reach a result
        // here: every chain these feed starts from +0, so it never holds
        // -0, and x + (+-0) is then the same bits either way.
        exec::ScratchLease ga(static_cast<size_t>(n));
        exec::ScratchLease gy(mv != nullptr ? static_cast<size_t>(n) : 0);
        float* ga_data = ga.data();
        float* gy_data = mv != nullptr ? gy.data() : ga_data;
        exec::ParallelFor(
            0, n, kElemGrain,
            [=](int64_t lo, int64_t hi) {
              const auto& ks = simd::Kernels();
              ks.leaky_relu_grad(hi - lo, ov + lo, gv + lo, slope,
                                 ga_data + lo);
              if (mv != nullptr) {
                ks.mul(hi - lo, ga_data + lo, mv + lo, gy_data + lo);
              }
            },
            "exec/elementwise");
        Tensor gi, gw, gb;
        if (NeedsGrad(x)) {
          // x feeds both the conv and the residual: its gradient is the
          // conv input gradient plus ga, the two terms the engine sums.
          gi = Tensor::FromVector(
              x.Shape(),
              ConvInputGrad(c, gy_data, weight.Data().data(),
                            [ga_data](float* dx, int64_t lo, int64_t hi) {
                              simd::Kernels().add(hi - lo, dx + lo,
                                                  ga_data + lo, dx + lo);
                            }));
        }
        ConvParamGrads(c, gy_data, x.Data().data(), weight, bias, &gw, &gb);
        std::vector<Tensor> grads = {gi, gw};
        if (bias.Defined()) grads.push_back(gb);
        return grads;
      });
  *self = result.Impl();
  return result;
}

}  // namespace sthsl

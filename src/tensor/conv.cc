// Direct (stride-1) 1-D and 2-D convolution kernels with autograd.
//
// Execution: forward and the input-gradient pass parallelize over the batch
// dimension (each sample's planes are owned by exactly one chunk, so any
// thread count reproduces the serial result bitwise). The weight- and
// bias-gradient passes reduce over the batch: they accumulate per-chunk
// partials — with chunk boundaries that depend only on the batch size, not
// the thread count — into a reusable scratch buffer leased from the exec
// layer, then combine the partials in ascending chunk order. The scratch
// arena replaces the per-call workspace allocations these passes needed.
//
// Inner loops run on the simd microkernels: forward and the input gradient
// are per-row axpy, the weight gradient is a canonical dot per output row
// (summed in ascending row order), and the bias gradient is a canonical
// reduce_sum — all bitwise-identical across ISA variants per the simd.h
// contract. The former `wv == 0.0f` skip branches are gone: they made
// timing data-dependent and would have broken the fixed accumulation order.

#include <algorithm>
#include <cstring>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace sthsl {
namespace {

// Target multiply-add count per parallel chunk (see docs/performance.md).
constexpr int64_t kConvGrainFlops = int64_t{1} << 17;

int64_t BatchGrain(int64_t flops_per_sample) {
  if (flops_per_sample < 1) flops_per_sample = 1;
  return std::max<int64_t>(1, kConvGrainFlops / flops_per_sample);
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad_h, int64_t pad_w) {
  if (DebugChecksEnabled()) {
    ValidateOpInput("conv2d", "input", input);
    ValidateOpInput("conv2d", "weight", weight);
    ValidateOpInput("conv2d", "bias", bias);
  }
  STHSL_CHECK_EQ(input.Dim(), 4) << "Conv2d input must be (N, Cin, H, W)";
  STHSL_CHECK_EQ(weight.Dim(), 4) << "Conv2d weight must be (Cout, Cin, KH, KW)";
  const int64_t batch = input.Size(0);
  const int64_t cin = input.Size(1);
  const int64_t height = input.Size(2);
  const int64_t width = input.Size(3);
  const int64_t cout = weight.Size(0);
  STHSL_CHECK_EQ(weight.Size(1), cin) << "Conv2d channel mismatch";
  const int64_t kh = weight.Size(2);
  const int64_t kw = weight.Size(3);
  const int64_t out_h = height + 2 * pad_h - kh + 1;
  const int64_t out_w = width + 2 * pad_w - kw + 1;
  STHSL_CHECK(out_h > 0 && out_w > 0) << "Conv2d kernel larger than input";
  if (bias.Defined()) {
    STHSL_CHECK_EQ(bias.Numel(), cout) << "Conv2d bias size mismatch";
  }

  const int64_t sample_flops = cout * cin * kh * kw * out_h * out_w * 2;
  std::vector<float> out(static_cast<size_t>(batch * cout * out_h * out_w),
                         0.0f);
  {
    const float* x = input.Data().data();
    const float* w = weight.Data().data();
    const float* bias_data = bias.Defined() ? bias.Data().data() : nullptr;
    float* out_data = out.data();
    exec::ParallelFor(
        0, batch, BatchGrain(sample_flops),
        [=](int64_t s0, int64_t s1) {
          const auto& ks = simd::Kernels();
          for (int64_t s = s0; s < s1; ++s) {
            for (int64_t co = 0; co < cout; ++co) {
              float* out_plane = out_data + (s * cout + co) * out_h * out_w;
              if (bias_data != nullptr) {
                const float b = bias_data[co];
                for (int64_t i = 0; i < out_h * out_w; ++i) out_plane[i] = b;
              }
              for (int64_t ci = 0; ci < cin; ++ci) {
                const float* in_plane = x + (s * cin + ci) * height * width;
                const float* w_plane = w + (co * cin + ci) * kh * kw;
                for (int64_t dy = 0; dy < kh; ++dy) {
                  for (int64_t dx = 0; dx < kw; ++dx) {
                    const float wv = w_plane[dy * kw + dx];
                    // Output rows for which input row oy - pad_h + dy is in
                    // range.
                    const int64_t oy_lo = std::max<int64_t>(0, pad_h - dy);
                    const int64_t oy_hi =
                        std::min<int64_t>(out_h, height + pad_h - dy);
                    const int64_t ox_lo = std::max<int64_t>(0, pad_w - dx);
                    const int64_t ox_hi =
                        std::min<int64_t>(out_w, width + pad_w - dx);
                    for (int64_t oy = oy_lo; oy < oy_hi; ++oy) {
                      const int64_t iy = oy - pad_h + dy;
                      const float* in_row =
                          in_plane + iy * width - pad_w + dx;
                      float* out_row = out_plane + oy * out_w;
                      ks.axpy(ox_hi - ox_lo, wv, in_row + ox_lo,
                              out_row + ox_lo);
                    }
                  }
                }
              }
            }
          }
        },
        "exec/conv2d_fwd");
  }

  Tensor in_captured = input;
  Tensor w_captured = weight;
  Tensor b_captured = bias;
  std::vector<Tensor> inputs = {input, weight};
  if (bias.Defined()) inputs.push_back(bias);

  return MakeResult(
      {batch, cout, out_h, out_w}, std::move(out), "conv2d", inputs,
      [in_captured, w_captured, b_captured, batch, cin, cout, height, width,
       kh, kw, out_h, out_w, pad_h, pad_w,
       sample_flops](const Tensor& g) -> std::vector<Tensor> {
        const float* gv = g.Data().data();
        const float* x = in_captured.Data().data();
        const float* w = w_captured.Data().data();

        Tensor gi;
        Tensor gw;
        Tensor gb;

        if (NeedsGrad(in_captured)) {
          std::vector<float> dx_buf(
              static_cast<size_t>(in_captured.Numel()), 0.0f);
          float* dx_data = dx_buf.data();
          exec::ParallelFor(
              0, batch, BatchGrain(sample_flops),
              [=](int64_t s0, int64_t s1) {
                const auto& ks = simd::Kernels();
                for (int64_t s = s0; s < s1; ++s) {
                  for (int64_t co = 0; co < cout; ++co) {
                    const float* g_plane =
                        gv + (s * cout + co) * out_h * out_w;
                    for (int64_t ci = 0; ci < cin; ++ci) {
                      float* dx_plane =
                          dx_data + (s * cin + ci) * height * width;
                      const float* w_plane = w + (co * cin + ci) * kh * kw;
                      for (int64_t dy = 0; dy < kh; ++dy) {
                        for (int64_t dxk = 0; dxk < kw; ++dxk) {
                          const float wv = w_plane[dy * kw + dxk];
                          const int64_t oy_lo =
                              std::max<int64_t>(0, pad_h - dy);
                          const int64_t oy_hi =
                              std::min<int64_t>(out_h, height + pad_h - dy);
                          const int64_t ox_lo =
                              std::max<int64_t>(0, pad_w - dxk);
                          const int64_t ox_hi =
                              std::min<int64_t>(out_w, width + pad_w - dxk);
                          for (int64_t oy = oy_lo; oy < oy_hi; ++oy) {
                            const int64_t iy = oy - pad_h + dy;
                            float* dx_row =
                                dx_plane + iy * width - pad_w + dxk;
                            const float* g_row = g_plane + oy * out_w;
                            ks.axpy(ox_hi - ox_lo, wv, g_row + ox_lo,
                                    dx_row + ox_lo);
                          }
                        }
                      }
                    }
                  }
                }
              },
              "exec/conv2d_bwd_x");
          gi = Tensor::FromVector(in_captured.Shape(), std::move(dx_buf));
        }

        const bool need_w = NeedsGrad(w_captured);
        const bool need_b = b_captured.Defined() && NeedsGrad(b_captured);
        if (need_w || need_b) {
          const int64_t dw_size = need_w ? cout * cin * kh * kw : 0;
          const int64_t db_size = need_b ? cout : 0;
          const int64_t stride = dw_size + db_size;
          const int64_t grain = BatchGrain(sample_flops);
          const int64_t chunks = exec::FixedChunkCount(batch, grain);
          // Per-chunk partial gradients, leased from the exec layer's
          // reusable scratch arena instead of allocated per call.
          exec::ScratchLease scratch(static_cast<size_t>(chunks * stride));
          float* partials = scratch.data();
          exec::ParallelForFixedChunks(
              0, batch, grain,
              [=](int64_t c, int64_t s0, int64_t s1) {
                const auto& ks = simd::Kernels();
                float* dw_part = partials + c * stride;
                float* db_part = dw_part + dw_size;
                std::memset(dw_part, 0,
                            static_cast<size_t>(stride) * sizeof(float));
                for (int64_t s = s0; s < s1; ++s) {
                  for (int64_t co = 0; co < cout; ++co) {
                    const float* g_plane =
                        gv + (s * cout + co) * out_h * out_w;
                    if (need_w) {
                      for (int64_t ci = 0; ci < cin; ++ci) {
                        const float* in_plane =
                            x + (s * cin + ci) * height * width;
                        float* dw_plane = dw_part + (co * cin + ci) * kh * kw;
                        for (int64_t dy = 0; dy < kh; ++dy) {
                          for (int64_t dxk = 0; dxk < kw; ++dxk) {
                            const int64_t oy_lo =
                                std::max<int64_t>(0, pad_h - dy);
                            const int64_t oy_hi = std::min<int64_t>(
                                out_h, height + pad_h - dy);
                            const int64_t ox_lo =
                                std::max<int64_t>(0, pad_w - dxk);
                            const int64_t ox_hi =
                                std::min<int64_t>(out_w, width + pad_w - dxk);
                            // Canonical dot per output row, rows summed in
                            // ascending oy order.
                            float acc = 0.0f;
                            for (int64_t oy = oy_lo; oy < oy_hi; ++oy) {
                              const int64_t iy = oy - pad_h + dy;
                              const float* in_row =
                                  in_plane + iy * width - pad_w + dxk;
                              const float* g_row = g_plane + oy * out_w;
                              acc += ks.dot(ox_hi - ox_lo, in_row + ox_lo,
                                            g_row + ox_lo);
                            }
                            dw_plane[dy * kw + dxk] += acc;
                          }
                        }
                      }
                    }
                    if (need_b) {
                      db_part[co] += ks.reduce_sum(out_h * out_w, g_plane);
                    }
                  }
                }
              },
              "exec/conv2d_bwd_w");
          // Combine partials in ascending chunk order: deterministic at any
          // thread count, and identical to the serial loop when the batch
          // fits one chunk.
          if (need_w) {
            std::vector<float> dw_buf(static_cast<size_t>(dw_size), 0.0f);
            for (int64_t c = 0; c < chunks; ++c) {
              const float* dw_part = partials + c * stride;
              for (int64_t t = 0; t < dw_size; ++t) dw_buf[t] += dw_part[t];
            }
            gw = Tensor::FromVector(w_captured.Shape(), std::move(dw_buf));
          }
          if (need_b) {
            std::vector<float> db_buf(static_cast<size_t>(db_size), 0.0f);
            for (int64_t c = 0; c < chunks; ++c) {
              const float* db_part = partials + c * stride + dw_size;
              for (int64_t t = 0; t < db_size; ++t) db_buf[t] += db_part[t];
            }
            gb = Tensor::FromVector(b_captured.Shape(), std::move(db_buf));
          }
        }

        std::vector<Tensor> grads = {gi, gw};
        if (b_captured.Defined()) grads.push_back(gb);
        return grads;
      });
}

Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad) {
  STHSL_CHECK_EQ(input.Dim(), 3) << "Conv1d input must be (N, Cin, L)";
  STHSL_CHECK_EQ(weight.Dim(), 3) << "Conv1d weight must be (Cout, Cin, K)";
  // Reuse the 2-D kernel by viewing length as width with height 1.
  Tensor input4 = Reshape(input, {input.Size(0), input.Size(1), 1,
                                  input.Size(2)});
  Tensor weight4 = Reshape(weight, {weight.Size(0), weight.Size(1), 1,
                                    weight.Size(2)});
  Tensor out = Conv2d(input4, weight4, bias, /*pad_h=*/0, /*pad_w=*/pad);
  return Reshape(out, {out.Size(0), out.Size(1), out.Size(3)});
}

}  // namespace sthsl

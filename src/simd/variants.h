#ifndef STHSL_SIMD_VARIANTS_H_
#define STHSL_SIMD_VARIANTS_H_

// Internal to src/simd: per-ISA variant factories consumed by dispatch.cc,
// and loop nests the variants share. Each factory returns nullptr when the
// variant is not compiled into this binary (wrong target architecture);
// CPU-support checks happen in the dispatcher.

#include <cstdint>

#include "simd/simd.h"

namespace sthsl::simd {

const MicrokernelSet* Avx2KernelsOrNull();

// The conv_weight_grad loop nest every variant shares, over its own
// canonical `dot` and `reduce_sum`. Each variant passes lambdas, so the
// instantiation is private to its translation unit (and its ISA flags) and
// the kernels inline. Each tap keeps its own accumulator in `acc` and sums
// its rows in ascending order, as the contract requires; walking rows in
// the outer loop makes consecutive dots independent, so their serial
// scalar tails overlap in the pipeline. No standard-library template is
// instantiated here: the AVX2 translation unit must not emit a shared
// instantiation another translation unit could link to.
template <typename Dot, typename ReduceSum>
void ConvWeightGradLoop(const ConvGeometry& g, const float* grad, float* dw,
                        float* db, float* acc, Dot dot, ReduceSum reduce_sum) {
  const int64_t plane = g.src_h * g.src_w;
  const int64_t out_plane = g.out_h * g.out_w;
  const int64_t taps = g.kh * g.kw;
  for (int64_t s = 0; s < g.samples; ++s) {
    const float* src = g.src + s * g.src_sample;
    for (int64_t o = 0; o < g.out_channels; ++o) {
      const float* g_plane = grad + s * g.out_sample + o * out_plane;
      if (dw != nullptr) {
        for (int64_t t = 0; t < g.in_channels * taps; ++t) acc[t] = 0.0f;
        for (int64_t y = 0; y < g.out_h; ++y) {
          const float* g_row = g_plane + y * g.out_w;
          for (int64_t c = 0; c < g.in_channels; ++c) {
            for (int64_t ty = 0; ty < g.kh; ++ty) {
              const int64_t iy = y + g.off_h + ty;
              if (iy < 0 || iy >= g.src_h) continue;
              const float* in_row = src + c * plane + iy * g.src_w;
              float* tap_acc = acc + c * taps + ty * g.kw;
              for (int64_t tx = 0; tx < g.kw; ++tx) {
                // Output columns [x_lo, x_hi) read input column x + d.
                const int64_t d = g.off_w + tx;
                const int64_t x_lo = d < 0 ? -d : 0;
                const int64_t x_hi =
                    g.src_w - d < g.out_w ? g.src_w - d : g.out_w;
                if (x_hi <= x_lo) continue;
                tap_acc[tx] +=
                    dot(x_hi - x_lo, in_row + x_lo + d, g_row + x_lo);
              }
            }
          }
        }
        float* dw_taps = dw + o * g.in_channels * taps;
        for (int64_t c = 0; c < g.in_channels; ++c) {
          for (int64_t tx = 0; tx < g.kw; ++tx) {
            // A tap wholly in the padding adds nothing, not even +0.
            const int64_t d = g.off_w + tx;
            if (g.src_w - d <= 0 || g.out_w + d <= 0) continue;
            for (int64_t ty = 0; ty < g.kh; ++ty) {
              const int64_t t = c * taps + ty * g.kw + tx;
              dw_taps[t] += acc[t];
            }
          }
        }
      }
      if (db != nullptr) db[o] += reduce_sum(out_plane, g_plane);
    }
  }
}

}  // namespace sthsl::simd

#endif  // STHSL_SIMD_VARIANTS_H_

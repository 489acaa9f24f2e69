// Portable scalar microkernels — the executable specification every SIMD
// variant must match bitwise (see the determinism contract in simd.h).
//
// Multiply-accumulate chains use std::fma so each element sees exactly one
// rounding per step, the same as the fused vector instructions in the AVX2
// set. Reductions accumulate into 8 explicit lanes and fold them
// through the canonical pairwise tree; the lane assignment (j mod 8) and the
// fold order are part of the contract, not an implementation detail.

#include <algorithm>
#include <cmath>
#include <limits>

#include "simd/simd.h"
#include "simd/variants.h"

namespace sthsl::simd {
namespace {

void GemmTilePortable(const float* a_panel, const float* b_panel, float* c,
                      int64_t ldc, int64_t mr, int64_t nr, int64_t kc) {
  for (int64_t i = 0; i < mr; ++i) {
    const float* arow = a_panel + i * kc;
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) {
      float acc = crow[j];
      for (int64_t p = 0; p < kc; ++p) {
        acc = std::fma(arow[p], b_panel[p * kGemmTileCols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

void AxpyPortable(int64_t n, float a, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

// The executable form of the ConvGeometry contract: each output row starts
// from the bias, then takes one axpy per in-plane tap in ascending
// (c, ty, tx) order, clamped to the columns whose source is in the plane.
void ConvPortable(const ConvGeometry& g) {
  const int64_t step = g.flip ? -1 : 1;
  const int64_t plane = g.src_h * g.src_w;
  for (int64_t s = 0; s < g.samples; ++s) {
    const float* src = g.src + s * g.src_sample;
    for (int64_t o = 0; o < g.out_channels; ++o) {
      const float init = g.bias != nullptr ? g.bias[o] : 0.0f;
      float* out_plane = g.out + s * g.out_sample + o * g.out_h * g.out_w;
      for (int64_t y = 0; y < g.out_h; ++y) {
        float* out_row = out_plane + y * g.out_w;
        std::fill(out_row, out_row + g.out_w, init);
        for (int64_t c = 0; c < g.in_channels; ++c) {
          const float* taps = g.taps + o * g.tap_out + c * g.tap_in;
          for (int64_t ty = 0; ty < g.kh; ++ty) {
            const int64_t sy = y + g.off_h + step * ty;
            if (sy < 0 || sy >= g.src_h) continue;
            const float* row = src + c * plane + sy * g.src_w;
            for (int64_t tx = 0; tx < g.kw; ++tx) {
              // Column x reads row[x + d]; [lo, hi) keeps the read in the
              // plane and is empty for a tap wholly in the padding.
              const int64_t d = g.off_w + step * tx;
              const int64_t lo = std::max<int64_t>(0, -d);
              const int64_t hi = std::min(g.out_w, g.src_w - d);
              const float wv = taps[ty * g.kw + tx];
              for (int64_t x = lo; x < hi; ++x) {
                out_row[x] = std::fma(wv, row[x + d], out_row[x]);
              }
            }
          }
        }
      }
    }
  }
}

// Canonical lane fold shared by the reductions below: the exact tree a
// 256-bit horizontal add performs (low/high 128-bit halves, then pairs).
inline float FoldLanes(const float lane[8], float tail) {
  const float b0 = lane[0] + lane[4];
  const float b1 = lane[1] + lane[5];
  const float b2 = lane[2] + lane[6];
  const float b3 = lane[3] + lane[7];
  const float c0 = b0 + b2;
  const float c1 = b1 + b3;
  return (c0 + c1) + tail;
}

float DotPortable(int64_t n, const float* x, const float* y) {
  float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    for (int64_t k = 0; k < 8; ++k) {
      lane[k] = std::fma(x[i + k], y[i + k], lane[k]);
    }
  }
  float tail = 0.0f;
  for (int64_t i = n8; i < n; ++i) tail = std::fma(x[i], y[i], tail);
  return FoldLanes(lane, tail);
}

float ReduceSumPortable(int64_t n, const float* x) {
  float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    for (int64_t k = 0; k < 8; ++k) lane[k] += x[i + k];
  }
  float tail = 0.0f;
  for (int64_t i = n8; i < n; ++i) tail += x[i];
  return FoldLanes(lane, tail);
}

void ConvWeightGradPortable(const ConvGeometry& g, const float* grad,
                            float* dw, float* db, float* acc) {
  ConvWeightGradLoop(
      g, grad, dw, db, acc,
      [](int64_t n, const float* x, const float* y) {
        return DotPortable(n, x, y);
      },
      [](int64_t n, const float* x) { return ReduceSumPortable(n, x); });
}

// The select (a > b) ? a : b mirrors vmaxps(a, b) exactly: on equal operands
// (including +0/-0) and on unordered comparisons it returns b.
inline float MaxSelect(float a, float b) { return a > b ? a : b; }

float ReduceMaxPortable(int64_t n, const float* x) {
  const float ninf = -std::numeric_limits<float>::infinity();
  float lane[8] = {ninf, ninf, ninf, ninf, ninf, ninf, ninf, ninf};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    for (int64_t k = 0; k < 8; ++k) lane[k] = MaxSelect(lane[k], x[i + k]);
  }
  float tail = ninf;
  for (int64_t i = n8; i < n; ++i) tail = MaxSelect(tail, x[i]);
  const float b0 = MaxSelect(lane[0], lane[4]);
  const float b1 = MaxSelect(lane[1], lane[5]);
  const float b2 = MaxSelect(lane[2], lane[6]);
  const float b3 = MaxSelect(lane[3], lane[7]);
  const float c0 = MaxSelect(b0, b2);
  const float c1 = MaxSelect(b1, b3);
  return MaxSelect(MaxSelect(c0, c1), tail);
}

void AddPortable(int64_t n, const float* x, const float* y, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
}

void MulPortable(int64_t n, const float* x, const float* y, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
}

void AddScalarPortable(int64_t n, const float* x, float s, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] + s;
}

void DivScalarPortable(int64_t n, const float* x, float s, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] / s;
}

void LeakyReluPortable(int64_t n, const float* x, float slope, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0f ? x[i] : slope * x[i];
  }
}

void LeakyReluGradPortable(int64_t n, const float* fx, const float* g,
                           float slope, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = g[i] * (fx[i] > 0.0f ? 1.0f : slope);
  }
}

void SgdStepPortable(int64_t n, float* x, const float* g, float lr,
                     float wd) {
  for (int64_t i = 0; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    x[i] = std::fma(-lr, grad, x[i]);
  }
}

void SgdMomentumStepPortable(int64_t n, float* x, float* v, const float* g,
                             float lr, float momentum, float wd) {
  for (int64_t i = 0; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    v[i] = std::fma(momentum, v[i], grad);
    x[i] = std::fma(-lr, v[i], x[i]);
  }
}

void AdamStepPortable(int64_t n, float* x, float* m, float* v, const float* g,
                      float lr, float beta1, float beta2, float eps, float wd,
                      float bc1, float bc2) {
  const float om1 = 1.0f - beta1;
  const float om2 = 1.0f - beta2;
  for (int64_t i = 0; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    m[i] = std::fma(beta1, m[i], om1 * grad);
    v[i] = std::fma(beta2, v[i], om2 * (grad * grad));
    const float m_hat = m[i] / bc1;
    const float v_hat = v[i] / bc2;
    x[i] = x[i] - (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

const MicrokernelSet& PortableKernels() {
  static const MicrokernelSet set = {
      "portable",
      GemmTilePortable,
      AxpyPortable,
      ConvPortable,
      ConvWeightGradPortable,
      DotPortable,
      ReduceSumPortable,
      ReduceMaxPortable,
      AddPortable,
      MulPortable,
      AddScalarPortable,
      DivScalarPortable,
      LeakyReluPortable,
      LeakyReluGradPortable,
      SgdStepPortable,
      SgdMomentumStepPortable,
      AdamStepPortable,
  };
  return set;
}

}  // namespace sthsl::simd

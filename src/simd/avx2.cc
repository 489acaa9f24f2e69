// AVX2+FMA microkernels. Compiled with -mavx2 -mfma -ffp-contract=off (see
// src/CMakeLists.txt); only ever executed after the dispatcher has confirmed
// the CPU supports both features.
//
// Bitwise equivalence with portable.cc rests on three facts: vfmadd performs
// the same single-rounding fma as std::fma; vector +,-,*,/,sqrt and the
// max/compare/blend selects are IEEE-754 lane operations identical to their
// scalar forms; and the horizontal folds below execute exactly the canonical
// 8-lane tree from the simd.h contract. Scalar tails use std::fma so the
// remainder elements see the same chain as in the portable kernels.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "simd/variants.h"

namespace sthsl::simd {
namespace {

// Full 6x16 register tile: 12 ymm accumulators, two B loads shared across
// all six rows per k step. Each element's chain is the same ascending-p fma
// sequence the portable kernel runs.
void GemmTile6x16(const float* a_panel, const float* b_panel, float* c,
                  int64_t ldc, int64_t kc) {
  __m256 acc[6][2];
  for (int i = 0; i < 6; ++i) {
    acc[i][0] = _mm256_loadu_ps(c + i * ldc);
    acc[i][1] = _mm256_loadu_ps(c + i * ldc + 8);
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b_panel + p * kGemmTileCols);
    const __m256 b1 = _mm256_loadu_ps(b_panel + p * kGemmTileCols + 8);
    for (int i = 0; i < 6; ++i) {
      const __m256 a = _mm256_broadcast_ss(a_panel + i * kc + p);
      acc[i][0] = _mm256_fmadd_ps(a, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a, b1, acc[i][1]);
    }
  }
  for (int i = 0; i < 6; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc[i][0]);
    _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
  }
}

void GemmTileAvx2(const float* a_panel, const float* b_panel, float* c,
                  int64_t ldc, int64_t mr, int64_t nr, int64_t kc) {
  if (mr == kGemmTileRows && nr == kGemmTileCols) {
    GemmTile6x16(a_panel, b_panel, c, ldc, kc);
    return;
  }
  // Edge tiles: vectorize full 8-wide column groups per row, finish the
  // column remainder with scalar fma.
  const int64_t nr8 = nr & ~int64_t{7};
  for (int64_t i = 0; i < mr; ++i) {
    const float* arow = a_panel + i * kc;
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr8; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (int64_t p = 0; p < kc; ++p) {
        const __m256 a = _mm256_broadcast_ss(arow + p);
        const __m256 b = _mm256_loadu_ps(b_panel + p * kGemmTileCols + j);
        acc = _mm256_fmadd_ps(a, b, acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (int64_t j = nr8; j < nr; ++j) {
      float acc = crow[j];
      for (int64_t p = 0; p < kc; ++p) {
        acc = std::fma(arow[p], b_panel[p * kGemmTileCols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

void AxpyAvx2(int64_t n, float a, const float* x, float* y) {
  const __m256 av = _mm256_set1_ps(a);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, xv, yv));
  }
  for (int64_t i = n8; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

// All-ones in lanes [lo, hi) of an 8-lane vector, zeros elsewhere.
inline __m256i LaneRange(int64_t lo, int64_t hi) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i at_or_above_lo = _mm256_cmpgt_epi32(
      lane, _mm256_set1_epi32(static_cast<int>(lo) - 1));
  const __m256i below_hi =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi)), lane);
  return _mm256_and_si256(at_or_above_lo, below_hi);
}

// Most output columns one conv register tile spans (four 8-lane vectors).
constexpr int64_t kConvTileCols = 32;

// One tap column of a conv tile: column x of the tile reads source column
// x + d, and kind[v] says which lanes of tile vector v read inside the
// plane: none, all of them, or the lanes set in `lanes[v]`.
struct TapColumn {
  enum Kind : int8_t { kNone, kAll, kSome };
  int64_t offset;  // x0 + d: vector v loads from row + offset + 8v
  Kind kind[4];
  __m256i lanes[4];
};

// Classifies tap column tx for the tile of output columns [x0, x0 + nx).
// Lanes past nx count as outside, so no load ever leaves the row.
TapColumn ClassifyTapColumn(const ConvGeometry& g, int64_t tx, int64_t x0,
                            int64_t nx) {
  TapColumn col;
  const int64_t d = g.off_w + (g.flip ? -tx : tx);
  col.offset = x0 + d;
  const int64_t lo = std::max(x0, -d);
  const int64_t hi = std::min(x0 + nx, g.src_w - d);
  for (int v = 0; v < 4; ++v) {
    const int64_t xv = x0 + 8 * v;
    const int64_t a = std::max(lo, xv);
    const int64_t b = std::min(hi, xv + 8);
    col.kind[v] = a >= b       ? TapColumn::kNone
                  : b - a == 8 ? TapColumn::kAll
                               : TapColumn::kSome;
    col.lanes[v] = LaneRange(a - xv, b - xv);
  }
  return col;
}

// A tile of R output rows by V 8-lane vectors (columns [x0, x0 + nx)) of
// output channel o, held in R*V <= 8 ymm accumulators across every tap.
// Tile rows are consecutive (sample, row) pairs, so a 1-D conv (one row per
// sample) tiles across samples. A row whose source row is outside the plane
// skips the tap; a vector straddling the plane's edge loads only its
// in-plane lanes (masked lanes never touch memory) and blends the fma into
// those lanes alone. Either way a padded tap leaves the accumulator bits
// untouched, exactly as the portable kernel skips it.
template <int R, int V>
void ConvTile(const ConvGeometry& g, const TapColumn* cols, int64_t o,
              int64_t t0, int64_t nrows, int64_t x0, int64_t nx) {
  const int64_t step = g.flip ? -1 : 1;
  const int64_t plane = g.src_h * g.src_w;
  const int64_t src_w = g.src_w;
  const int64_t kw = g.kw;
  const float* src_rows[R];
  int64_t ys[R];
  for (int r = 0; r < R; ++r) {
    const int64_t t = t0 + std::min<int64_t>(r, nrows - 1);
    const int64_t s = t / g.out_h;
    ys[r] = t - s * g.out_h;
    src_rows[r] = g.src + s * g.src_sample;
  }
  __m256 acc[R][V];
  const __m256 init = _mm256_set1_ps(g.bias != nullptr ? g.bias[o] : 0.0f);
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = init;
  }
  const float* taps = g.taps + o * g.tap_out;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t ty = 0; ty < g.kh; ++ty) {
      const float* rows[R];
      bool all_rows = true;
      bool any_row = false;
      for (int r = 0; r < R; ++r) {
        const int64_t sy = ys[r] + g.off_h + step * ty;
        const bool in_plane = r < nrows && sy >= 0 && sy < g.src_h;
        rows[r] = in_plane ? src_rows[r] + c * plane + sy * src_w : nullptr;
        all_rows = all_rows && in_plane;
        any_row = any_row || in_plane;
      }
      if (!any_row) continue;
      const float* tap_row = taps + c * g.tap_in + ty * kw;
      for (int64_t tx = 0; tx < kw; ++tx) {
        const TapColumn& col = cols[tx];
        const __m256 w = _mm256_set1_ps(tap_row[tx]);
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
          if (col.kind[v] == TapColumn::kNone) continue;
          const int64_t at = col.offset + 8 * v;
          if (col.kind[v] == TapColumn::kAll) {
#pragma GCC unroll 8
            for (int r = 0; r < R; ++r) {
              if (!all_rows && rows[r] == nullptr) continue;
              acc[r][v] = _mm256_fmadd_ps(w, _mm256_loadu_ps(rows[r] + at),
                                          acc[r][v]);
            }
          } else {
            const __m256i m = col.lanes[v];
#pragma GCC unroll 8
            for (int r = 0; r < R; ++r) {
              if (!all_rows && rows[r] == nullptr) continue;
              const __m256 fma = _mm256_fmadd_ps(
                  w, _mm256_maskload_ps(rows[r] + at, m), acc[r][v]);
              acc[r][v] =
                  _mm256_blendv_ps(acc[r][v], fma, _mm256_castsi256_ps(m));
            }
          }
        }
      }
    }
  }
  for (int r = 0; r < R && r < nrows; ++r) {
    const int64_t t = t0 + r;
    const int64_t s = t / g.out_h;
    float* out_row = g.out + s * g.out_sample +
                     (o * g.out_h + (t - s * g.out_h)) * g.out_w + x0;
    for (int v = 0; v < V; ++v) {
      const int64_t valid = std::min<int64_t>(8, nx - 8 * v);
      if (valid == 8) {
        _mm256_storeu_ps(out_row + 8 * v, acc[r][v]);
      } else {
        _mm256_maskstore_ps(out_row + 8 * v, LaneRange(0, valid), acc[r][v]);
      }
    }
  }
}

// Tiles every output channel's (sample, row) range, one column tile of up
// to kConvTileCols at a time: 8 rows of one vector, 4 of two, or 2 of three
// or four.
void ConvAvx2(const ConvGeometry& g) {
  const int64_t rows = g.samples * g.out_h;
  std::vector<TapColumn> cols(static_cast<size_t>(g.kw));
  for (int64_t x0 = 0; x0 < g.out_w; x0 += kConvTileCols) {
    const int64_t nx = std::min(kConvTileCols, g.out_w - x0);
    for (int64_t tx = 0; tx < g.kw; ++tx) {
      cols[static_cast<size_t>(tx)] = ClassifyTapColumn(g, tx, x0, nx);
    }
    const int vectors = static_cast<int>((nx + 7) / 8);
    const int64_t tile_rows = vectors == 1 ? 8 : vectors == 2 ? 4 : 2;
    for (int64_t o = 0; o < g.out_channels; ++o) {
      for (int64_t t0 = 0; t0 < rows; t0 += tile_rows) {
        const int64_t nrows = std::min(tile_rows, rows - t0);
        switch (vectors) {
          case 1:
            ConvTile<8, 1>(g, cols.data(), o, t0, nrows, x0, nx);
            break;
          case 2:
            ConvTile<4, 2>(g, cols.data(), o, t0, nrows, x0, nx);
            break;
          case 3:
            ConvTile<2, 3>(g, cols.data(), o, t0, nrows, x0, nx);
            break;
          default:
            ConvTile<2, 4>(g, cols.data(), o, t0, nrows, x0, nx);
            break;
        }
      }
    }
  }
}

// Canonical lane fold: b = lo + hi, c = [b0+b2, b1+b3], result = c0 + c1.
inline float FoldAdd(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 b = _mm_add_ps(lo, hi);
  const __m128 c = _mm_add_ps(b, _mm_movehl_ps(b, b));
  const __m128 s = _mm_add_ss(c, _mm_shuffle_ps(c, c, 0x1));
  return _mm_cvtss_f32(s);
}

float DotAvx2(int64_t n, const float* x, const float* y) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                          acc);
  }
  // The tail's serial fma chain, run over 7 fixed steps without branches:
  // the masked loads zero the lanes past n, and fma(0, 0, tail) == tail
  // because a chain that starts at +0 never holds -0.
  float tail = 0.0f;
  if (n8 < n) {
    const __m256i m = LaneRange(0, n - n8);
    alignas(32) float xt[8];
    alignas(32) float yt[8];
    _mm256_store_ps(xt, _mm256_maskload_ps(x + n8, m));
    _mm256_store_ps(yt, _mm256_maskload_ps(y + n8, m));
#pragma GCC unroll 7
    for (int i = 0; i < 7; ++i) tail = std::fma(xt[i], yt[i], tail);
  }
  return FoldAdd(acc) + tail;
}

float ReduceSumAvx2(int64_t n, const float* x) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
  }
  float tail = 0.0f;
  for (int64_t i = n8; i < n; ++i) tail += x[i];
  return FoldAdd(acc) + tail;
}

void ConvWeightGradAvx2(const ConvGeometry& g, const float* grad,
                        float* dw, float* db, float* acc) {
  ConvWeightGradLoop(
      g, grad, dw, db, acc,
      [](int64_t n, const float* x, const float* y) {
        return DotAvx2(n, x, y);
      },
      [](int64_t n, const float* x) { return ReduceSumAvx2(n, x); });
}

inline float MaxSelect(float a, float b) { return a > b ? a : b; }

float ReduceMaxAvx2(int64_t n, const float* x) {
  const float ninf = -std::numeric_limits<float>::infinity();
  // vmaxps(a, b) is exactly the select (a > b) ? a : b per lane.
  __m256 acc = _mm256_set1_ps(ninf);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
  }
  float tail = ninf;
  for (int64_t i = n8; i < n; ++i) tail = MaxSelect(tail, x[i]);
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 b = _mm_max_ps(lo, hi);
  const __m128 c = _mm_max_ps(b, _mm_movehl_ps(b, b));
  const __m128 s = _mm_max_ss(c, _mm_shuffle_ps(c, c, 0x1));
  return MaxSelect(_mm_cvtss_f32(s), tail);
}

void AddAvx2(int64_t n, const float* x, const float* y, float* out) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] + y[i];
}

void MulAvx2(int64_t n, const float* x, const float* y, float* out) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] * y[i];
}

void AddScalarAvx2(int64_t n, const float* x, float s, float* out) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] + s;
}

void DivScalarAvx2(int64_t n, const float* x, float s, float* out) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] / s;
}

void LeakyReluAvx2(int64_t n, const float* x, float slope, float* out) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sv = _mm256_set1_ps(slope);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 neg = _mm256_mul_ps(sv, xv);
    const __m256 gt = _mm256_cmp_ps(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_blendv_ps(neg, xv, gt));
  }
  for (int64_t i = n8; i < n; ++i) {
    out[i] = x[i] > 0.0f ? x[i] : slope * x[i];
  }
}

void LeakyReluGradAvx2(int64_t n, const float* fx, const float* g,
                       float slope, float* out) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sv = _mm256_set1_ps(slope);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(fx + i), zero, _CMP_GT_OQ);
    const __m256 d = _mm256_blendv_ps(sv, one, gt);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  for (int64_t i = n8; i < n; ++i) {
    out[i] = g[i] * (fx[i] > 0.0f ? 1.0f : slope);
  }
}

void SgdStepAvx2(int64_t n, float* x, const float* g, float lr, float wd) {
  const __m256 wdv = _mm256_set1_ps(wd);
  const __m256 nlr = _mm256_set1_ps(-lr);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 grad = _mm256_fmadd_ps(wdv, xv, _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(x + i, _mm256_fmadd_ps(nlr, grad, xv));
  }
  for (int64_t i = n8; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    x[i] = std::fma(-lr, grad, x[i]);
  }
}

void SgdMomentumStepAvx2(int64_t n, float* x, float* v, const float* g,
                         float lr, float momentum, float wd) {
  const __m256 wdv = _mm256_set1_ps(wd);
  const __m256 mo = _mm256_set1_ps(momentum);
  const __m256 nlr = _mm256_set1_ps(-lr);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 grad = _mm256_fmadd_ps(wdv, xv, _mm256_loadu_ps(g + i));
    const __m256 vv = _mm256_fmadd_ps(mo, _mm256_loadu_ps(v + i), grad);
    _mm256_storeu_ps(v + i, vv);
    _mm256_storeu_ps(x + i, _mm256_fmadd_ps(nlr, vv, xv));
  }
  for (int64_t i = n8; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    v[i] = std::fma(momentum, v[i], grad);
    x[i] = std::fma(-lr, v[i], x[i]);
  }
}

void AdamStepAvx2(int64_t n, float* x, float* m, float* v, const float* g,
                  float lr, float beta1, float beta2, float eps, float wd,
                  float bc1, float bc2) {
  const float om1 = 1.0f - beta1;
  const float om2 = 1.0f - beta2;
  const __m256 wdv = _mm256_set1_ps(wd);
  const __m256 b1v = _mm256_set1_ps(beta1);
  const __m256 b2v = _mm256_set1_ps(beta2);
  const __m256 om1v = _mm256_set1_ps(om1);
  const __m256 om2v = _mm256_set1_ps(om2);
  const __m256 bc1v = _mm256_set1_ps(bc1);
  const __m256 bc2v = _mm256_set1_ps(bc2);
  const __m256 lrv = _mm256_set1_ps(lr);
  const __m256 epsv = _mm256_set1_ps(eps);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 grad = _mm256_fmadd_ps(wdv, xv, _mm256_loadu_ps(g + i));
    const __m256 mv =
        _mm256_fmadd_ps(b1v, _mm256_loadu_ps(m + i), _mm256_mul_ps(om1v, grad));
    const __m256 vv =
        _mm256_fmadd_ps(b2v, _mm256_loadu_ps(v + i),
                        _mm256_mul_ps(om2v, _mm256_mul_ps(grad, grad)));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 m_hat = _mm256_div_ps(mv, bc1v);
    const __m256 v_hat = _mm256_div_ps(vv, bc2v);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
    _mm256_storeu_ps(x + i, _mm256_sub_ps(xv, step));
  }
  for (int64_t i = n8; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    m[i] = std::fma(beta1, m[i], om1 * grad);
    v[i] = std::fma(beta2, v[i], om2 * (grad * grad));
    const float m_hat = m[i] / bc1;
    const float v_hat = v[i] / bc2;
    x[i] = x[i] - (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

const MicrokernelSet* Avx2KernelsOrNull() {
  static const MicrokernelSet set = {
      "avx2",
      GemmTileAvx2,
      AxpyAvx2,
      ConvAvx2,
      ConvWeightGradAvx2,
      DotAvx2,
      ReduceSumAvx2,
      ReduceMaxAvx2,
      AddAvx2,
      MulAvx2,
      AddScalarAvx2,
      DivScalarAvx2,
      LeakyReluAvx2,
      LeakyReluGradAvx2,
      SgdStepAvx2,
      SgdMomentumStepAvx2,
      AdamStepAvx2,
  };
  return &set;
}

}  // namespace sthsl::simd

#else  // !x86-64

#include "simd/variants.h"

namespace sthsl::simd {
const MicrokernelSet* Avx2KernelsOrNull() { return nullptr; }
}  // namespace sthsl::simd

#endif

// Tests for the direct convolutions and the fused conv block
// (tensor/conv.cc):
//
//  - taps that lie wholly in the padding (a kernel half-width beyond the
//    input) are skipped: forward and all three gradients against a scalar
//    reference, 1-D and 2-D. The forward and input gradient follow the
//    kernel's fma order, so they are compared bitwise;
//  - padded taps are skipped, not fed as zeros: a -0 output stays -0;
//  - ConvBlock equals the unfused LeakyRelu(Add(Dropout(Conv(x)), x))
//    composition bitwise, output and x/weight/bias gradients, and leaves
//    the dropout stream where Dropout leaves it: over the model's spatial,
//    temporal and single-channel shapes and k = 5 rows of 7, 17 and 30
//    columns, with training on and off and p = 0, at 1 and 4 threads, with
//    every compiled kernel set.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

// Uniform values in [-2, 2) with exact +0 and -0 sprinkled in.
std::vector<float> Values(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 7 == 1   ? -0.0f
           : i % 7 == 4 ? 0.0f
                        : static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  return v;
}

Tensor Param(std::vector<int64_t> shape, uint64_t seed) {
  const int64_t n = NumelOf(shape);
  return Tensor::FromVector(std::move(shape), Values(n, seed),
                            /*requires_grad=*/true);
}

void ExpectBitwiseEq(const std::vector<float>& a, const std::vector<float>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a[i]), std::bit_cast<uint32_t>(b[i]))
        << what << " at " << i << ": " << a[i] << " vs " << b[i];
  }
}

std::vector<const simd::MicrokernelSet*> CompiledVariants() {
  std::vector<const simd::MicrokernelSet*> out = {&simd::PortableKernels()};
  if (const auto* ks = simd::KernelsByName("avx2")) out.push_back(ks);
  return out;
}

// Restores the thread count and the kernel set on scope exit.
class ConfigGuard {
 public:
  ConfigGuard() : threads_(exec::ThreadCount()) {}
  ~ConfigGuard() {
    exec::SetThreadCount(threads_);
    simd::SetKernelsForTesting(nullptr);
  }

 private:
  int threads_;
};

// ------------------------------------------------------- padded-only taps --

// x (N, C, H, W), w (O, C, KH, KW), bias (O), upstream gradient up of the
// output. Forward and input gradient run the kernel's fma chains (taps
// ascending, padded taps skipped); the parameter gradients sum in double.
struct ConvReference {
  std::vector<float> out, gx, gw, gb;
};

ConvReference ReferenceConv(const std::vector<float>& x,
                            const std::vector<float>& w,
                            const std::vector<float>& bias,
                            const std::vector<float>& up, int64_t n,
                            int64_t c, int64_t h, int64_t wd, int64_t o,
                            int64_t kh, int64_t kw, int64_t ph, int64_t pw) {
  const int64_t oh = h + 2 * ph - kh + 1;
  const int64_t ow = wd + 2 * pw - kw + 1;
  auto xi = [&](int64_t s, int64_t ci, int64_t y, int64_t xx) {
    return ((s * c + ci) * h + y) * wd + xx;
  };
  auto oi = [&](int64_t s, int64_t co, int64_t y, int64_t xx) {
    return ((s * o + co) * oh + y) * ow + xx;
  };
  auto wi = [&](int64_t co, int64_t ci, int64_t dy, int64_t dx) {
    return ((co * c + ci) * kh + dy) * kw + dx;
  };
  auto in_plane = [&](int64_t y, int64_t xx) {
    return y >= 0 && y < h && xx >= 0 && xx < wd;
  };
  ConvReference r;
  r.out.resize(static_cast<size_t>(n * o * oh * ow));
  r.gx.resize(x.size());
  std::vector<double> gw(w.size(), 0.0);
  std::vector<double> gb(bias.size(), 0.0);
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t co = 0; co < o; ++co) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xx = 0; xx < ow; ++xx) {
          float acc = bias[co];
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t dy = 0; dy < kh; ++dy) {
              for (int64_t dx = 0; dx < kw; ++dx) {
                const int64_t iy = y - ph + dy;
                const int64_t ix = xx - pw + dx;
                if (!in_plane(iy, ix)) continue;
                acc = std::fma(w[wi(co, ci, dy, dx)], x[xi(s, ci, iy, ix)],
                               acc);
                gw[wi(co, ci, dy, dx)] +=
                    static_cast<double>(x[xi(s, ci, iy, ix)]) *
                    up[oi(s, co, y, xx)];
              }
            }
          }
          r.out[oi(s, co, y, xx)] = acc;
          gb[co] += up[oi(s, co, y, xx)];
        }
      }
    }
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t iy = 0; iy < h; ++iy) {
        for (int64_t ix = 0; ix < wd; ++ix) {
          float acc = 0.0f;
          for (int64_t co = 0; co < o; ++co) {
            for (int64_t dy = 0; dy < kh; ++dy) {
              for (int64_t dx = 0; dx < kw; ++dx) {
                const int64_t y = iy + ph - dy;
                const int64_t xx = ix + pw - dx;
                if (y < 0 || y >= oh || xx < 0 || xx >= ow) continue;
                acc = std::fma(w[wi(co, ci, dy, dx)], up[oi(s, co, y, xx)],
                               acc);
              }
            }
          }
          r.gx[xi(s, ci, iy, ix)] = acc;
        }
      }
    }
  }
  r.gw.assign(gw.begin(), gw.end());
  r.gb.assign(gb.begin(), gb.end());
  return r;
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& want,
                const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-4f * (1.0f + std::fabs(want[i])))
        << what << " at " << i;
  }
}

// Runs Conv1d (x (N, C, W), so h = kh = 1 and ph = 0) or Conv2d and checks
// the output and all three gradients against the reference.
void CheckAgainstReference(bool one_d, int64_t n, int64_t c, int64_t h,
                           int64_t wd, int64_t o, int64_t kh, int64_t kw,
                           int64_t ph, int64_t pw) {
  const std::string tag = std::string(one_d ? "1-D" : "2-D") + " k=" +
                          std::to_string(kh) + "x" + std::to_string(kw) +
                          " w=" + std::to_string(wd);
  std::vector<int64_t> x_shape = {n, c, h, wd};
  std::vector<int64_t> w_shape = {o, c, kh, kw};
  if (one_d) {
    x_shape = {n, c, wd};
    w_shape = {o, c, kw};
  }
  Tensor x = Param(x_shape, 11);
  Tensor w = Param(w_shape, 12);
  Tensor b = Param({o}, 13);
  Tensor y = one_d ? Conv1d(x, w, b, pw) : Conv2d(x, w, b, ph, pw);
  std::vector<float> up = Values(y.Numel(), 14);
  Sum(Mul(y, Tensor::FromVector(y.Shape(), up))).Backward();
  // The engine accumulates every gradient from +0, so -0 arrives as +0.
  for (float& u : up) u = 0.0f + u;
  ConvReference ref =
      ReferenceConv(x.Data(), w.Data(), b.Data(), up, n, c, h, wd, o, kh, kw,
                    ph, pw);
  for (float& g : ref.gx) g = 0.0f + g;
  ExpectBitwiseEq(y.Data(), ref.out, "forward " + tag);
  ExpectBitwiseEq(x.Grad(), ref.gx, "input grad " + tag);
  ExpectNear(w.Grad(), ref.gw, "weight grad " + tag);
  ExpectNear(b.Grad(), ref.gb, "bias grad " + tag);
}

TEST(ConvPadding, TapsWhollyInThePaddingAreSkipped) {
  ConfigGuard guard;
  for (const auto* ks : CompiledVariants()) {
    simd::SetKernelsForTesting(ks);
    SCOPED_TRACE(ks->name);
    // A kernel of 9 over 3 columns: taps 0 and 8 never meet the input.
    CheckAgainstReference(/*one_d=*/false, 1, 1, 1, 3, 1, 1, 9, 0, 4);
    CheckAgainstReference(/*one_d=*/true, 2, 2, 1, 3, 2, 1, 9, 0, 4);
    CheckAgainstReference(/*one_d=*/false, 2, 2, 3, 4, 3, 7, 9, 3, 4);
    // Wider than one register tile, and a 31-tap kernel over 14 columns
    // (sthsl_cli train --kernel 31 on a 14-day window).
    CheckAgainstReference(/*one_d=*/true, 3, 2, 1, 14, 2, 1, 31, 0, 15);
    CheckAgainstReference(/*one_d=*/false, 1, 2, 2, 37, 2, 3, 5, 1, 2);
  }
}

// Inputs of -0, positive taps and a -0 bias: every in-plane tap adds
// 0.5 * -0 = -0 to a -0 accumulator, which stays -0. A padded tap fed as a
// zero would add +0 and turn it into +0.
TEST(ConvPadding, PaddedTapsKeepANegativeZero) {
  ConfigGuard guard;
  for (const auto* ks : CompiledVariants()) {
    simd::SetKernelsForTesting(ks);
    for (const std::vector<int64_t>& x_shape :
         {std::vector<int64_t>{2, 2, 5, 19}, std::vector<int64_t>{3, 2, 14}}) {
      const bool two_d = x_shape.size() == 4;
      std::vector<int64_t> w_shape = {3, 2, 5};
      if (two_d) w_shape = {3, 2, 3, 5};
      Tensor x = Tensor::Full(x_shape, -0.0f);
      Tensor w = Tensor::Full(w_shape, 0.5f);
      Tensor b = Tensor::Full({3}, -0.0f);
      Tensor y = two_d ? Conv2d(x, w, b, 1, 2) : Conv1d(x, w, b, 2);
      ExpectBitwiseEq(y.Data(), std::vector<float>(y.Numel(), -0.0f),
                      std::string(ks->name) + (two_d ? " 2-D" : " 1-D"));
    }
  }
}

// ------------------------------------------------------------- ConvBlock --

struct BlockRun {
  std::vector<float> out, gx, gw, gb;
  uint64_t next_draw;  // the dropout stream's next value
};

constexpr float kSlope = 0.1f;

BlockRun RunBlock(bool fused, const std::vector<int64_t>& x_shape, int64_t k,
                  bool training, float p) {
  const int64_t c = x_shape[1];
  const bool two_d = x_shape.size() == 4;
  std::vector<int64_t> w_shape = {c, c, k};
  if (two_d) w_shape = {c, c, k, k};
  Tensor x = Param(x_shape, 21);
  Tensor w = Param(w_shape, 22);
  Tensor b = Param({c}, 23);
  Rng dropout(24);
  const int64_t pad = (k - 1) / 2;
  Tensor y;
  if (fused) {
    y = ConvBlock(x, w, b, p, dropout, training, kSlope);
  } else {
    Tensor conv = two_d ? Conv2d(x, w, b, pad, pad) : Conv1d(x, w, b, pad);
    y = LeakyRelu(Add(Dropout(conv, p, dropout, training), x), kSlope);
  }
  const std::vector<float> up = Values(y.Numel(), 25);
  Sum(Mul(y, Tensor::FromVector(y.Shape(), up))).Backward();
  return {y.Data(), x.Grad(), w.Grad(), b.Grad(), dropout.NextU64()};
}

void ExpectSameRun(const BlockRun& got, const BlockRun& want,
                   const std::string& what) {
  ExpectBitwiseEq(got.out, want.out, "output " + what);
  ExpectBitwiseEq(got.gx, want.gx, "x grad " + what);
  ExpectBitwiseEq(got.gw, want.gw, "weight grad " + what);
  ExpectBitwiseEq(got.gb, want.gb, "bias grad " + what);
  EXPECT_EQ(got.next_draw, want.next_draw) << "dropout stream " << what;
}

TEST(ConvBlock, BitwiseEqualsUnfusedComposition) {
  ConfigGuard guard;
  struct Case {
    std::vector<int64_t> x_shape;
    int64_t k;
  };
  const std::vector<Case> cases = {
      {{3, 4, 16, 16}, 3},  // spatial view, Eq. 2
      {{256, 4, 14}, 3},    // temporal view, Eq. 3
      {{2000, 1, 14}, 3},   // global temporal stack, Eq. 5
      {{2, 2, 6, 7}, 5},    {{2, 2, 6, 17}, 5}, {{2, 2, 6, 30}, 5},
      {{40, 2, 30}, 5},
  };
  struct Mode {
    bool training;
    float p;
  };
  const std::vector<Mode> modes = {{true, 0.2f}, {false, 0.2f}, {true, 0.0f}};
  for (const Case& cs : cases) {
    for (const Mode& mode : modes) {
      std::string shape;
      for (int64_t e : cs.x_shape) shape += std::to_string(e) + " ";
      const std::string tag = "shape " + shape + "k=" +
                              std::to_string(cs.k) + " training=" +
                              std::to_string(mode.training) + " p=" +
                              std::to_string(mode.p);
      BlockRun baseline;
      bool first = true;
      for (const auto* ks : CompiledVariants()) {
        for (int threads : {1, 4}) {
          simd::SetKernelsForTesting(ks);
          exec::SetThreadCount(threads);
          const std::string at = tag + " " + ks->name + " threads=" +
                                 std::to_string(threads);
          const BlockRun fused =
              RunBlock(true, cs.x_shape, cs.k, mode.training, mode.p);
          ExpectSameRun(fused,
                        RunBlock(false, cs.x_shape, cs.k, mode.training,
                                 mode.p),
                        "vs unfused, " + at);
          if (first) {
            baseline = fused;
            first = false;
          } else {
            ExpectSameRun(fused, baseline, "vs portable 1 thread, " + at);
          }
        }
      }
    }
  }
}

TEST(ConvBlock, RecordsAsConvWithItsThreeInputs) {
  Tensor x = Param({2, 3, 5, 5}, 31);
  Tensor w = Param({3, 3, 3, 3}, 32);
  Tensor b = Param({3}, 33);
  Rng rng(34);
  Tensor y = ConvBlock(x, w, b, 0.2f, rng, /*training=*/true, kSlope);
  ASSERT_NE(y.GradFn(), nullptr);
  EXPECT_EQ(y.GradFn()->op_name, "conv2d");
  EXPECT_EQ(y.GradFn()->inputs.size(), 3u);
  EXPECT_EQ(y.Shape(), x.Shape());
}

}  // namespace
}  // namespace sthsl

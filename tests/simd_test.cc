// Tests for the runtime-dispatched SIMD microkernel layer (src/simd) and
// the tensor ops that call it:
//
//  - dispatch: portable always present, unknown names rejected, the selected
//    set matches the detected CPU, the test override works;
//  - parity: every compiled variant reproduces the portable reference
//    BITWISE on every kernel, across non-multiple-of-vector-width tails
//    (1, 3, 7, 17, 63) — the executable form of the simd.h contract;
//  - GEMM: the blocked driver matches a plain ascending-fma reference
//    bitwise, including K larger than the cache block;
//  - op table: every row of tensor/elementwise_ops.h records its name and
//    is costed as an elementwise op;
//  - vectorized ops: softmax and conv are bitwise stable across kernel sets
//    and thread counts.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/elementwise_ops.h"
#include "tensor/kernel_cost.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

// The issue's mandated tail sweep plus vector-width multiples.
const std::vector<int64_t>& TailSizes() {
  static const std::vector<int64_t> sizes = {1, 3, 7, 8, 16, 17, 63, 64, 200};
  return sizes;
}

std::vector<const simd::MicrokernelSet*> CompiledVariants() {
  std::vector<const simd::MicrokernelSet*> out;
  out.push_back(&simd::PortableKernels());
  if (const auto* ks = simd::KernelsByName("avx2")) out.push_back(ks);
  return out;
}

std::vector<float> RandomValues(int64_t n, uint64_t seed, float lo = -2.0f,
                                float hi = 2.0f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  // Exercise the sign-sensitive select paths.
  if (n > 0) v[0] = 0.0f;
  if (n > 1) v[1] = -0.0f;
  return v;
}

// Bitwise comparison: catches -0.0f vs +0.0f, which operator== cannot.
void ExpectBitwiseEq(const std::vector<float>& a, const std::vector<float>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what;
  }
}

void ExpectBitwiseEq(float a, float b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint32_t>(a), std::bit_cast<uint32_t>(b)) << what;
}

class ThreadCountGuard {
 public:
  ThreadCountGuard() : previous_(exec::ThreadCount()) {}
  ~ThreadCountGuard() { exec::SetThreadCount(previous_); }

 private:
  int previous_;
};

// Restores the default kernel set on scope exit.
class SimdOverrideGuard {
 public:
  ~SimdOverrideGuard() { simd::SetKernelsForTesting(nullptr); }
};

// ---------------------------------------------------------------- dispatch --

TEST(SimdDispatch, PortableAlwaysAvailable) {
  const auto* portable = simd::KernelsByName("portable");
  ASSERT_NE(portable, nullptr);
  EXPECT_STREQ(portable->name, "portable");
  EXPECT_EQ(portable, &simd::PortableKernels());
}

TEST(SimdDispatch, UnknownVariantIsNull) {
  EXPECT_EQ(simd::KernelsByName("sse9"), nullptr);
  EXPECT_EQ(simd::KernelsByName(""), nullptr);
}

TEST(SimdDispatch, SelectedSetMatchesCpuFeatures) {
  if (std::getenv("STHSL_SIMD") != nullptr) {
    GTEST_SKIP() << "STHSL_SIMD override active";
  }
  const simd::CpuFeatures feats = simd::DetectCpuFeatures();
  const char* selected = simd::Kernels().name;
  if (feats.avx2 && feats.fma && simd::KernelsByName("avx2") != nullptr) {
    EXPECT_STREQ(selected, "avx2");
  } else {
    EXPECT_STREQ(selected, "portable");
  }
}

TEST(SimdDispatch, FeatureStringNonEmpty) {
  const std::string feats = simd::CpuFeatureString();
  EXPECT_FALSE(feats.empty());
}

TEST(SimdDispatch, TestOverrideSwapsTheActiveSet) {
  SimdOverrideGuard guard;
  simd::SetKernelsForTesting(&simd::PortableKernels());
  EXPECT_STREQ(simd::Kernels().name, "portable");
  simd::SetKernelsForTesting(nullptr);
  EXPECT_NE(simd::Kernels().name, nullptr);
}

// ------------------------------------------------------------ kernel parity --

TEST(SimdParity, ElementwiseBitwiseAcrossVariantsAndTails) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t n : TailSizes()) {
      const std::vector<float> x = RandomValues(n, 100 + n);
      const std::vector<float> y =
          RandomValues(n, 200 + n, 0.5f, 2.0f);
      const std::string tag =
          std::string(ks->name) + " n=" + std::to_string(n);

      std::vector<float> got(x.size());
      std::vector<float> want(x.size());
      ref.add(n, x.data(), y.data(), want.data());
      ks->add(n, x.data(), y.data(), got.data());
      ExpectBitwiseEq(got, want, "add " + tag);
      ref.mul(n, x.data(), y.data(), want.data());
      ks->mul(n, x.data(), y.data(), got.data());
      ExpectBitwiseEq(got, want, "mul " + tag);

      ref.add_scalar(n, x.data(), 0.37f, want.data());
      ks->add_scalar(n, x.data(), 0.37f, got.data());
      ExpectBitwiseEq(got, want, "add_scalar " + tag);
      ref.div_scalar(n, x.data(), 3.0f, want.data());
      ks->div_scalar(n, x.data(), 3.0f, got.data());
      ExpectBitwiseEq(got, want, "div_scalar " + tag);

      ref.leaky_relu(n, x.data(), 0.01f, want.data());
      ks->leaky_relu(n, x.data(), 0.01f, got.data());
      ExpectBitwiseEq(got, want, "leaky_relu " + tag);
      ref.leaky_relu_grad(n, x.data(), y.data(), 0.1f, want.data());
      ks->leaky_relu_grad(n, x.data(), y.data(), 0.1f, got.data());
      ExpectBitwiseEq(got, want, "leaky_relu_grad " + tag);

      // Aliased in-place form (out == x) must match the out-of-place result.
      std::vector<float> inplace = x;
      ks->add(n, inplace.data(), y.data(), inplace.data());
      ref.add(n, x.data(), y.data(), want.data());
      ExpectBitwiseEq(inplace, want, "add aliased " + tag);
    }
  }
}

TEST(SimdParity, ReductionsBitwiseAcrossVariantsAndTails) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t n : TailSizes()) {
      const std::vector<float> x = RandomValues(n, 300 + n);
      const std::vector<float> y = RandomValues(n, 400 + n);
      const std::string tag =
          std::string(ks->name) + " n=" + std::to_string(n);
      ExpectBitwiseEq(ks->dot(n, x.data(), y.data()),
                      ref.dot(n, x.data(), y.data()), "dot " + tag);
      ExpectBitwiseEq(ks->reduce_sum(n, x.data()),
                      ref.reduce_sum(n, x.data()), "reduce_sum " + tag);
      ExpectBitwiseEq(ks->reduce_max(n, x.data()),
                      ref.reduce_max(n, x.data()), "reduce_max " + tag);
    }
  }
}

TEST(SimdParity, AxpyAndOptimizerStepsBitwiseAcrossVariantsAndTails) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t n : TailSizes()) {
      const std::vector<float> g = RandomValues(n, 500 + n);
      const std::vector<float> x0 = RandomValues(n, 600 + n);
      const std::string tag =
          std::string(ks->name) + " n=" + std::to_string(n);

      std::vector<float> ya = x0;
      std::vector<float> yb = x0;
      ks->axpy(n, 1.3f, g.data(), ya.data());
      ref.axpy(n, 1.3f, g.data(), yb.data());
      ExpectBitwiseEq(ya, yb, "axpy " + tag);

      std::vector<float> xa = x0;
      std::vector<float> xb = x0;
      ks->sgd_step(n, xa.data(), g.data(), 0.01f, 0.001f);
      ref.sgd_step(n, xb.data(), g.data(), 0.01f, 0.001f);
      ExpectBitwiseEq(xa, xb, "sgd_step " + tag);

      xa = x0;
      xb = x0;
      std::vector<float> va = RandomValues(n, 700 + n);
      std::vector<float> vb = va;
      ks->sgd_momentum_step(n, xa.data(), va.data(), g.data(), 0.01f, 0.9f,
                            0.001f);
      ref.sgd_momentum_step(n, xb.data(), vb.data(), g.data(), 0.01f, 0.9f,
                            0.001f);
      ExpectBitwiseEq(xa, xb, "sgd_momentum x " + tag);
      ExpectBitwiseEq(va, vb, "sgd_momentum v " + tag);

      xa = x0;
      xb = x0;
      std::vector<float> ma = RandomValues(n, 800 + n, -0.1f, 0.1f);
      std::vector<float> mb = ma;
      va = RandomValues(n, 900 + n, 0.0f, 0.1f);
      vb = va;
      ks->adam_step(n, xa.data(), ma.data(), va.data(), g.data(), 0.005f,
                    0.9f, 0.999f, 1e-8f, 0.001f, 0.271f, 0.0297f);
      ref.adam_step(n, xb.data(), mb.data(), vb.data(), g.data(), 0.005f,
                    0.9f, 0.999f, 1e-8f, 0.001f, 0.271f, 0.0297f);
      ExpectBitwiseEq(xa, xb, "adam x " + tag);
      ExpectBitwiseEq(ma, mb, "adam m " + tag);
      ExpectBitwiseEq(va, vb, "adam v " + tag);
    }
  }
}

TEST(SimdParity, GemmTileBitwiseAcrossVariantsAndEdges) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t mr = 1; mr <= simd::kGemmTileRows; ++mr) {
      for (int64_t nr : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{15},
                         simd::kGemmTileCols}) {
        for (int64_t kc : {int64_t{1}, int64_t{5}, int64_t{17}}) {
          const std::vector<float> a =
              RandomValues(mr * kc, 1000 + mr * 31 + nr * 7 + kc);
          std::vector<float> b = RandomValues(kc * simd::kGemmTileCols,
                                              2000 + mr + nr * 13 + kc);
          const int64_t ldc = nr + 3;  // exercise a strided C
          const std::vector<float> c0 =
              RandomValues(mr * ldc, 3000 + mr + nr + kc);
          std::vector<float> got = c0;
          std::vector<float> want = c0;
          ks->gemm_tile(a.data(), b.data(), got.data(), ldc, mr, nr, kc);
          ref.gemm_tile(a.data(), b.data(), want.data(), ldc, mr, nr, kc);
          ExpectBitwiseEq(got, want,
                          std::string("gemm_tile ") + ks->name + " mr=" +
                              std::to_string(mr) + " nr=" +
                              std::to_string(nr) + " kc=" +
                              std::to_string(kc));
        }
      }
    }
  }
}

// Every compiled conv and conv_weight_grad kernel against the portable one
// over widths around the 8-lane vectors and the 32-column tile, kernels
// wider than the plane (taps wholly in the padding), both tap directions,
// with and without a bias, and ±0 inputs and a -0 bias. Two samples of
// three rows exercise the (sample, row) tiling.
TEST(SimdParity, ConvBitwiseAcrossVariantsAndEdges) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t width : {1, 3, 7, 8, 9, 16, 17, 31, 32, 33, 70}) {
      for (int64_t k : {1, 3, 5, 9}) {
        for (bool flip : {false, true}) {
          const int64_t channels = 2, outs = 3, height = 3, samples = 2;
          const int64_t pad = (k - 1) / 2;
          const int64_t plane = height * width;
          // k = 5 runs -0 inputs under positive taps instead of random
          // values: the -0 bias must survive every padded tap (a zero fed
          // in for one would turn it into +0).
          const bool signed_zeros = k == 5;
          const std::vector<float> src =
              signed_zeros
                  ? std::vector<float>(samples * channels * plane, -0.0f)
                  : RandomValues(samples * channels * plane,
                                 4000 + width + k);
          const std::vector<float> taps =
              signed_zeros ? std::vector<float>(outs * channels * k * k, 0.5f)
                           : RandomValues(outs * channels * k * k,
                                          5000 + width * k);
          const std::vector<float> bias = {-0.0f, 0.5f, -1.25f};
          for (const float* b : {bias.data(), static_cast<const float*>(
                                                  nullptr)}) {
            const simd::ConvGeometry base = {
                .src = src.data(),
                .src_h = height,
                .src_w = width,
                .src_sample = channels * plane,
                .in_channels = channels,
                .taps = taps.data(),
                .tap_out = channels * k * k,
                .tap_in = k * k,
                .kh = k,
                .kw = k,
                .off_h = flip ? pad : -pad,
                .off_w = flip ? pad : -pad,
                .flip = flip,
                .bias = b,
                .out = nullptr,
                .out_channels = outs,
                .out_h = height,
                .out_w = width,
                .out_sample = outs * plane,
                .samples = samples};
            const std::string tag = std::string(ks->name) + " width=" +
                                    std::to_string(width) + " k=" +
                                    std::to_string(k) + " flip=" +
                                    std::to_string(flip) +
                                    (b != nullptr ? " biased" : "");
            std::vector<float> got(samples * outs * plane, 7.0f);
            std::vector<float> want(samples * outs * plane, 7.0f);
            simd::ConvGeometry g = base;
            g.out = got.data();
            ks->conv(g);
            g.out = want.data();
            ref.conv(g);
            ExpectBitwiseEq(got, want, "conv " + tag);
            if (flip) continue;
            // Weight and bias gradients of the forward geometry, with
            // `src` as the input and `got` as the output gradient.
            std::vector<float> acc(channels * k * k);
            std::vector<float> dw_got(outs * channels * k * k, 0.5f);
            std::vector<float> dw_want = dw_got;
            std::vector<float> db_got(outs, -0.25f);
            std::vector<float> db_want = db_got;
            ks->conv_weight_grad(g, got.data(), dw_got.data(), db_got.data(),
                                 acc.data());
            ref.conv_weight_grad(g, got.data(), dw_want.data(),
                                 db_want.data(), acc.data());
            ExpectBitwiseEq(dw_got, dw_want, "conv_weight_grad dw " + tag);
            ExpectBitwiseEq(db_got, db_want, "conv_weight_grad db " + tag);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ blocked GEMM --

// The blocked driver must equal the plain ascending-fma reference bitwise:
// per output element, c_ij = fma(a_ip, b_pj, c_ij) for p ascending from 0.
TEST(GemmBitwise, MatMulMatchesAscendingFmaReference) {
  for (const auto& dims : std::vector<std::vector<int64_t>>{
           {5, 17, 7}, {48, 64, 33}, {3, 300, 19}}) {  // k=300 spans K blocks
    const int64_t m = dims[0];
    const int64_t k = dims[1];
    const int64_t n = dims[2];
    Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
    Tensor a = Tensor::Rand({m, k}, rng, -1.0f, 1.0f);
    Tensor b = Tensor::Rand({k, n}, rng, -1.0f, 1.0f);
    Tensor c = MatMul(a, b);
    const auto& av = a.Data();
    const auto& bv = b.Data();
    const auto& cv = c.Data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          acc = std::fma(av[static_cast<size_t>(i * k + p)],
                         bv[static_cast<size_t>(p * n + j)], acc);
        }
        ASSERT_EQ(std::bit_cast<uint32_t>(cv[static_cast<size_t>(i * n + j)]),
                  std::bit_cast<uint32_t>(acc))
            << "m=" << m << " k=" << k << " n=" << n << " at (" << i << ","
            << j << ")";
      }
    }
  }
}

// Forward + backward of a MatMul-based objective (exercising the NN, NT and
// TN paths) must not change when the dispatched variant is swapped for the
// portable reference.
TEST(GemmBitwise, ForwardAndGradsIdenticalAcrossKernelSets) {
  SimdOverrideGuard guard;
  const auto run = [](const simd::MicrokernelSet* kernels) {
    simd::SetKernelsForTesting(kernels);
    Rng rng(77);
    Tensor a = Tensor::Randn({21, 37}, rng, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::Randn({37, 13}, rng, 1.0f, /*requires_grad=*/true);
    Tensor loss = Sum(Square(MatMul(a, b)));
    loss.Backward();
    std::vector<float> out = {loss.Item()};
    out.insert(out.end(), a.Grad().begin(), a.Grad().end());
    out.insert(out.end(), b.Grad().begin(), b.Grad().end());
    return out;
  };
  const auto portable = run(&simd::PortableKernels());
  const auto dispatched = run(nullptr);
  ExpectBitwiseEq(portable, dispatched, "matmul fwd+bwd across kernel sets");
}

// -------------------------------------------------------------- op table --

// One row of the elementwise op table as a callable: binary rows take
// (a, b), unary rows ignore b, scalar rows pass `s` as their operand.
struct ElementwiseRow {
  std::string name;
  std::function<Tensor(const Tensor&, const Tensor&)> op;
};

std::vector<ElementwiseRow> ElementwiseRows(float s) {
#define STHSL_TEST_CALL_BINARY(Fn) \
  [](const Tensor& a, const Tensor& b) { return Fn(a, b); }
#define STHSL_TEST_CALL_UNARY(Fn) \
  [](const Tensor& a, const Tensor&) { return Fn(a); }
#define STHSL_TEST_CALL_SCALAR(Fn) \
  [s](const Tensor& a, const Tensor&) { return Fn(a, s); }
#define STHSL_TEST_ROW(Fn, name, kind, ...) {name, STHSL_TEST_CALL_##kind(Fn)},
  return {STHSL_ELEMENTWISE_OPS(STHSL_TEST_ROW)};
#undef STHSL_TEST_ROW
#undef STHSL_TEST_CALL_SCALAR
#undef STHSL_TEST_CALL_UNARY
#undef STHSL_TEST_CALL_BINARY
}

TEST(OpTable, EveryRowRecordsItsNameAndElementwiseCost) {
  SimdOverrideGuard guard;
  Rng rng(21);
  const Tensor x =
      Tensor::Rand({3, 5}, rng, 0.5f, 1.5f, /*requires_grad=*/true);
  const Tensor y = Tensor::Rand({3, 5}, rng, 0.5f, 1.5f);
  for (const auto& row : ElementwiseRows(0.5f)) {
    const Tensor out = row.op(x, y);
    ASSERT_NE(out.GradFn(), nullptr) << row.name;
    EXPECT_EQ(out.GradFn()->op_name, row.name);
    EXPECT_EQ(ForwardOpFlops(row.name, {x, y}, {3, 5}), 15) << row.name;
    EXPECT_EQ(BackwardOpFlops(row.name, {x, y}, {3, 5}), 30) << row.name;
  }
}

// ----------------------------------------------------- vectorized op paths --

std::vector<float> SoftmaxForwardAndGrad(int threads, int64_t rows,
                                         int64_t cols) {
  ThreadCountGuard guard;
  exec::SetThreadCount(threads);
  Rng rng(static_cast<uint64_t>(50 + rows + cols));
  Tensor a = Tensor::Randn({rows, cols}, rng, 1.0f, /*requires_grad=*/true);
  Tensor weights = Tensor::Rand({rows, cols}, rng, 0.1f, 1.0f);
  Tensor loss = Sum(Mul(Softmax(a, -1), weights));
  loss.Backward();
  std::vector<float> out = {loss.Item()};
  out.insert(out.end(), a.Grad().begin(), a.Grad().end());
  return out;
}

TEST(SimdOps, SoftmaxBitwiseAcrossKernelSetsThreadsAndTails) {
  SimdOverrideGuard guard;
  for (int64_t cols : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{17},
                       int64_t{63}}) {
    simd::SetKernelsForTesting(&simd::PortableKernels());
    const auto portable = SoftmaxForwardAndGrad(1, 9, cols);
    simd::SetKernelsForTesting(nullptr);
    const auto dispatched = SoftmaxForwardAndGrad(1, 9, cols);
    ExpectBitwiseEq(portable, dispatched,
                    "softmax kernels cols=" + std::to_string(cols));
    EXPECT_EQ(dispatched, SoftmaxForwardAndGrad(8, 9, cols))
        << "softmax threads cols=" << cols;
  }
}

std::vector<float> ConvForwardAndGrad(const simd::MicrokernelSet* kernels) {
  simd::SetKernelsForTesting(kernels);
  Rng rng(60);
  Tensor input =
      Tensor::Randn({2, 3, 9, 7}, rng, 1.0f, /*requires_grad=*/true);
  Tensor weight = Tensor::Randn({4, 3, 3, 3}, rng, 1.0f,
                                /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({4}, rng, 1.0f, /*requires_grad=*/true);
  Tensor loss = Sum(Square(Conv2d(input, weight, bias, 1, 1)));
  loss.Backward();
  std::vector<float> out = {loss.Item()};
  out.insert(out.end(), input.Grad().begin(), input.Grad().end());
  out.insert(out.end(), weight.Grad().begin(), weight.Grad().end());
  out.insert(out.end(), bias.Grad().begin(), bias.Grad().end());
  return out;
}

TEST(SimdOps, ConvBitwiseAcrossKernelSets) {
  SimdOverrideGuard guard;
  const auto portable = ConvForwardAndGrad(&simd::PortableKernels());
  const auto dispatched = ConvForwardAndGrad(nullptr);
  ExpectBitwiseEq(portable, dispatched, "conv2d fwd+bwd across kernel sets");
}

}  // namespace
}  // namespace sthsl

// Parameterized property tests (TEST_P / INSTANTIATE_TEST_SUITE_P):
// autograd correctness and algebraic laws swept over an op registry and a
// grid of shapes, instead of hand-picked cases.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: gradient checks for unary ops across shapes and input ranges.
// ---------------------------------------------------------------------------

struct UnaryOpCase {
  std::string name;
  std::function<Tensor(const Tensor&)> op;
  float lo;  // input sampling range (kept away from non-smooth points)
  float hi;
};

class UnaryGradSweep
    : public ::testing::TestWithParam<std::tuple<UnaryOpCase, int>> {};

void CheckScalarGrad(const std::function<Tensor(const Tensor&)>& op,
                     Tensor x, float eps = 1e-2f, float tol = 3e-2f) {
  Tensor y = Sum(op(x));
  x.ZeroGrad();
  y.Backward();
  ASSERT_FALSE(x.Grad().empty());
  for (int64_t i = 0; i < x.Numel(); ++i) {
    const float saved = x.Data()[static_cast<size_t>(i)];
    float plus;
    float minus;
    {
      NoGradGuard no_grad;
      x.MutableData()[static_cast<size_t>(i)] = saved + eps;
      plus = Sum(op(x)).Item();
      x.MutableData()[static_cast<size_t>(i)] = saved - eps;
      minus = Sum(op(x)).Item();
      x.MutableData()[static_cast<size_t>(i)] = saved;
    }
    const float numeric = (plus - minus) / (2.0f * eps);
    const float analytic = x.Grad()[static_cast<size_t>(i)];
    EXPECT_NEAR(analytic, numeric, tol * std::max(1.0f, std::fabs(numeric)))
        << "element " << i;
  }
}

TEST_P(UnaryGradSweep, MatchesNumericGradient) {
  const auto& [op_case, shape_index] = GetParam();
  const std::vector<std::vector<int64_t>> shapes = {
      {3}, {2, 3}, {2, 2, 2}, {1, 4, 1, 2}};
  Rng rng(static_cast<uint64_t>(shape_index) * 7919 + 13);
  Tensor x = Tensor::Rand(shapes[static_cast<size_t>(shape_index)], rng,
                          op_case.lo, op_case.hi, /*requires_grad=*/true);
  CheckScalarGrad(op_case.op, x);
}

std::vector<UnaryOpCase> UnaryCases() {
  return {
      {"exp", [](const Tensor& t) { return Exp(t); }, -1.0f, 1.0f},
      {"log", [](const Tensor& t) { return Log(t); }, 0.5f, 2.0f},
      {"sqrt", [](const Tensor& t) { return Sqrt(t); }, 0.5f, 2.0f},
      {"sigmoid", [](const Tensor& t) { return Sigmoid(t); }, -2.0f, 2.0f},
      {"tanh", [](const Tensor& t) { return Tanh(t); }, -2.0f, 2.0f},
      {"square", [](const Tensor& t) { return Square(t); }, -2.0f, 2.0f},
      {"neg", [](const Tensor& t) { return Neg(t); }, -2.0f, 2.0f},
      {"abs_pos", [](const Tensor& t) { return Abs(t); }, 0.3f, 2.0f},
      {"leaky_pos", [](const Tensor& t) { return LeakyRelu(t, 0.2f); },
       0.3f, 2.0f},
      {"leaky_neg", [](const Tensor& t) { return LeakyRelu(t, 0.2f); },
       -2.0f, -0.3f},
      {"relu_pos", [](const Tensor& t) { return Relu(t); }, 0.3f, 2.0f},
      {"relu_neg", [](const Tensor& t) { return Relu(t); }, -2.0f, -0.3f},
      {"clamp_min_above", [](const Tensor& t) { return ClampMin(t, 0.5f); },
       0.8f, 2.0f},
      {"clamp_min_below", [](const Tensor& t) { return ClampMin(t, 0.5f); },
       -1.0f, 0.2f},
      {"pow_scalar_pos", [](const Tensor& t) { return PowScalar(t, 1.5f); },
       0.5f, 2.0f},
      {"scalar_affine",
       [](const Tensor& t) { return AddScalar(MulScalar(t, 2.5f), -1.0f); },
       -1.0f, 1.0f},
      {"softmax_rowsum",
       [](const Tensor& t) {
         Tensor flat = Reshape(t, {1, -1});
         Rng weight_rng(99);  // fresh each call: identical weights
         Tensor w = Tensor::Rand(flat.Shape(), weight_rng, -1.0f, 1.0f);
         return Mul(Softmax(flat, 1), w);
       },
       -1.0f, 1.0f},
  };
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOpsAllShapes, UnaryGradSweep,
    ::testing::Combine(::testing::ValuesIn(UnaryCases()),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<UnaryGradSweep::ParamType>& info) {
      return std::get<0>(info.param).name + "_shape" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 2: broadcasting algebra over shape pairs.
// ---------------------------------------------------------------------------

struct BroadcastCase {
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  std::vector<int64_t> expected;
};

class BroadcastSweep : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastSweep, ShapeRulesAndCommutativity) {
  const auto& c = GetParam();
  EXPECT_EQ(BroadcastShapes(c.a, c.b), c.expected);
  EXPECT_EQ(BroadcastShapes(c.b, c.a), c.expected);

  Rng rng(11);
  Tensor x = Tensor::Rand(c.a, rng, -1.0f, 1.0f);
  Tensor y = Tensor::Rand(c.b, rng, -1.0f, 1.0f);
  Tensor sum_xy = Add(x, y);
  Tensor sum_yx = Add(y, x);
  EXPECT_EQ(sum_xy.Shape(), c.expected);
  EXPECT_EQ(sum_xy.Data(), sum_yx.Data());  // addition commutes

  // Multiplication distributes over addition under broadcasting.
  Tensor z = Tensor::Rand(c.b, rng, -1.0f, 1.0f);
  Tensor lhs = Mul(x, Add(y, z));
  Tensor rhs = Add(Mul(x, y), Mul(x, z));
  for (int64_t i = 0; i < lhs.Numel(); ++i) {
    EXPECT_NEAR(lhs.At(i), rhs.At(i), 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapePairs, BroadcastSweep,
    ::testing::Values(BroadcastCase{{3}, {3}, {3}},
                      BroadcastCase{{2, 3}, {3}, {2, 3}},
                      BroadcastCase{{2, 3}, {1, 3}, {2, 3}},
                      BroadcastCase{{2, 1}, {1, 5}, {2, 5}},
                      BroadcastCase{{4, 1, 3}, {2, 1}, {4, 2, 3}},
                      BroadcastCase{{}, {2, 2}, {2, 2}},
                      BroadcastCase{{1}, {3, 1, 4}, {3, 1, 4}}));

// ---------------------------------------------------------------------------
// Sweep 3: reduction laws across dims and keepdim.
// ---------------------------------------------------------------------------

class ReductionSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ReductionSweep, SumDecomposesAndMeanScales) {
  const auto& [dim, keepdim] = GetParam();
  Rng rng(17);
  Tensor x = Tensor::Rand({3, 4, 5}, rng, -2.0f, 2.0f);

  Tensor partial = Sum(x, {dim}, keepdim);
  // Reducing the remaining dims must equal the full sum.
  std::vector<int64_t> rest;
  for (int64_t d = 0; d < partial.Dim(); ++d) rest.push_back(d);
  Tensor total = Sum(partial, rest, false);
  EXPECT_NEAR(total.Item(), Sum(x).Item(), 1e-3f);

  // Mean = Sum / extent along the reduced dim.
  Tensor mean = Mean(x, {dim}, keepdim);
  const float extent = static_cast<float>(x.Size(dim));
  for (int64_t i = 0; i < mean.Numel(); ++i) {
    EXPECT_NEAR(mean.At(i) * extent, partial.At(i), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(DimsAndKeepdim, ReductionSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Bool()));

// ---------------------------------------------------------------------------
// Sweep 4: matmul against a naive reference across shape triples.
// ---------------------------------------------------------------------------

class MatMulSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulSweep, MatchesNaiveReference) {
  const auto& [m, k, n] = GetParam();
  Rng rng(23);
  Tensor a = Tensor::Rand({m, k}, rng, -1.0f, 1.0f);
  Tensor b = Tensor::Rand({k, n}, rng, -1.0f, 1.0f);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float expected = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        expected += a.At({i, p}) * b.At({p, j});
      }
      EXPECT_NEAR(c.At({i, j}), expected, 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeTriples, MatMulSweep,
                         ::testing::Combine(::testing::Values(1, 3, 7),
                                            ::testing::Values(1, 4, 9),
                                            ::testing::Values(1, 2, 8)));

// ---------------------------------------------------------------------------
// Sweep 5: conv2d output extents across kernel/padding combinations.
// ---------------------------------------------------------------------------

class ConvShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvShapeSweep, OutputExtentFormulaHolds) {
  const auto& [kernel, pad] = GetParam();
  const int64_t height = 9;
  const int64_t width = 11;
  if (height + 2 * pad - kernel + 1 <= 0) GTEST_SKIP();
  Rng rng(29);
  Tensor input = Tensor::Rand({2, 3, height, width}, rng, -1.0f, 1.0f);
  Tensor weight = Tensor::Rand({4, 3, kernel, kernel}, rng, -1.0f, 1.0f);
  Tensor out = Conv2d(input, weight, Tensor(), pad, pad);
  EXPECT_EQ(out.Size(0), 2);
  EXPECT_EQ(out.Size(1), 4);
  EXPECT_EQ(out.Size(2), height + 2 * pad - kernel + 1);
  EXPECT_EQ(out.Size(3), width + 2 * pad - kernel + 1);
  for (float v : out.Data()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(KernelsAndPads, ConvShapeSweep,
                         ::testing::Combine(::testing::Values(1, 3, 5),
                                            ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace sthsl

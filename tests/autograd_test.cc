// Property tests of the autograd engine: analytic gradients of every op are
// validated against central finite differences, plus structural tests of
// accumulation, detachment and grad-mode switching.

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

// Checks d(scalar fn)/d(each input) against central finite differences.
// Inputs must be leaf tensors with requires_grad set.
void ExpectGradMatchesNumeric(
    const std::function<Tensor(const std::vector<Tensor>&)>& fn,
    std::vector<Tensor> inputs, float eps = 1e-2f, float tol = 2e-2f) {
  Tensor out = fn(inputs);
  ASSERT_EQ(out.Numel(), 1) << "gradcheck requires a scalar objective";
  for (auto& t : inputs) t.ZeroGrad();
  out.Backward();

  for (size_t which = 0; which < inputs.size(); ++which) {
    auto& t = inputs[which];
    ASSERT_FALSE(t.Grad().empty())
        << "no gradient flowed to input " << which;
    for (int64_t i = 0; i < t.Numel(); ++i) {
      const float saved = t.Data()[static_cast<size_t>(i)];
      float plus;
      float minus;
      {
        NoGradGuard no_grad;
        t.MutableData()[static_cast<size_t>(i)] = saved + eps;
        plus = fn(inputs).Item();
        t.MutableData()[static_cast<size_t>(i)] = saved - eps;
        minus = fn(inputs).Item();
        t.MutableData()[static_cast<size_t>(i)] = saved;
      }
      const float numeric = (plus - minus) / (2.0f * eps);
      const float analytic = t.Grad()[static_cast<size_t>(i)];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0f, std::fabs(numeric)))
          << "input " << which << " element " << i;
    }
  }
}

Tensor RandLeaf(std::vector<int64_t> shape, Rng& rng, float lo = -1.0f,
                float hi = 1.0f) {
  return Tensor::Rand(std::move(shape), rng, lo, hi, /*requires_grad=*/true);
}

TEST(Autograd, AddGrad) {
  Rng rng(10);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) { return Sum(in[0] + in[1]); },
      {RandLeaf({2, 3}, rng), RandLeaf({2, 3}, rng)});
}

TEST(Autograd, AddBroadcastGrad) {
  Rng rng(11);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(in[0] + in[1]));
      },
      {RandLeaf({2, 3}, rng), RandLeaf({3}, rng)});
}

TEST(Autograd, SubGrad) {
  Rng rng(12);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(in[0] - in[1]));
      },
      {RandLeaf({4}, rng), RandLeaf({1}, rng)});
}

TEST(Autograd, MulGrad) {
  Rng rng(13);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) { return Sum(in[0] * in[1]); },
      {RandLeaf({3, 2}, rng), RandLeaf({3, 2}, rng)});
}

TEST(Autograd, MulBroadcastColumnGrad) {
  Rng rng(14);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) { return Sum(in[0] * in[1]); },
      {RandLeaf({3, 4}, rng), RandLeaf({3, 1}, rng)});
}

TEST(Autograd, DivGrad) {
  Rng rng(15);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) { return Sum(in[0] / in[1]); },
      {RandLeaf({4}, rng), RandLeaf({4}, rng, 0.5f, 2.0f)});
}

TEST(Autograd, ExpLogSqrtGrad) {
  Rng rng(16);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Exp(in[0])) + Sum(Log(in[1])) + Sum(Sqrt(in[1]));
      },
      {RandLeaf({3}, rng), RandLeaf({3}, rng, 0.5f, 2.0f)});
}

TEST(Autograd, SigmoidTanhGrad) {
  Rng rng(17);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Sigmoid(in[0]) * Tanh(in[0]));
      },
      {RandLeaf({5}, rng)});
}

TEST(Autograd, LeakyReluGrad) {
  Rng rng(18);
  // Keep inputs away from the kink at zero for a clean numeric check.
  Tensor x = Tensor::FromVector({4}, {-1.5f, -0.5f, 0.5f, 1.5f},
                                /*requires_grad=*/true);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LeakyRelu(in[0], 0.2f)));
      },
      {x});
}

TEST(Autograd, PowScalarGrad) {
  Rng rng(19);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(PowScalar(in[0], 3.0f));
      },
      {RandLeaf({3}, rng, 0.5f, 1.5f)});
}

TEST(Autograd, MatMulGrad) {
  Rng rng(20);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(MatMul(in[0], in[1])));
      },
      {RandLeaf({3, 4}, rng), RandLeaf({4, 2}, rng)});
}

TEST(Autograd, BatchedMatMulGrad) {
  Rng rng(21);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(MatMul(in[0], in[1])));
      },
      {RandLeaf({2, 3, 4}, rng), RandLeaf({2, 4, 2}, rng)});
}

TEST(Autograd, BatchedTimesSharedMatMulGrad) {
  Rng rng(22);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(MatMul(in[0], in[1])));
      },
      {RandLeaf({2, 3, 4}, rng), RandLeaf({4, 2}, rng)});
}

TEST(Autograd, SumDimsGrad) {
  Rng rng(23);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Sum(in[0], {1})));
      },
      {RandLeaf({3, 4}, rng)});
}

TEST(Autograd, MeanGrad) {
  Rng rng(24);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Mean(in[0], {0}, true)));
      },
      {RandLeaf({3, 4}, rng)});
}

TEST(Autograd, ReshapePermuteGrad) {
  Rng rng(25);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        Tensor t = Permute(Reshape(in[0], {2, 6}), {1, 0});
        return Sum(Square(t));
      },
      {RandLeaf({3, 4}, rng)});
}

TEST(Autograd, NarrowCatGrad) {
  Rng rng(26);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        Tensor head = Narrow(in[0], 0, 0, 2);
        Tensor tail = Narrow(in[0], 0, 2, 2);
        return Sum(Square(Cat({tail, head}, 0)) * 2.0f);
      },
      {RandLeaf({4, 3}, rng)});
}

TEST(Autograd, IndexSelectGradWithRepeats) {
  Rng rng(27);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(IndexSelect(in[0], 0, {1, 1, 0})));
      },
      {RandLeaf({3, 2}, rng)});
}

TEST(Autograd, SoftmaxGrad) {
  Rng rng(28);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        Tensor probs = Softmax(in[0], 1);
        // Weighted sum to give softmax a non-trivial downstream gradient.
        Tensor w = Tensor::FromVector({1, 4}, {1.0f, -2.0f, 3.0f, 0.5f});
        return Sum(probs * w);
      },
      {RandLeaf({3, 4}, rng)});
}

TEST(Autograd, Conv2dGrad) {
  Rng rng(29);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Conv2d(in[0], in[1], in[2], 1, 1)));
      },
      {RandLeaf({2, 2, 3, 3}, rng), RandLeaf({2, 2, 3, 3}, rng),
       RandLeaf({2}, rng)});
}

TEST(Autograd, Conv2dNoPaddingGrad) {
  Rng rng(30);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Conv2d(in[0], in[1], Tensor(), 0, 0)));
      },
      {RandLeaf({1, 1, 4, 4}, rng), RandLeaf({1, 1, 2, 2}, rng)});
}

TEST(Autograd, Conv1dGrad) {
  Rng rng(31);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Conv1d(in[0], in[1], in[2], 1)));
      },
      {RandLeaf({2, 2, 5}, rng), RandLeaf({3, 2, 3}, rng),
       RandLeaf({3}, rng)});
}

TEST(Autograd, L2NormalizeGrad) {
  Rng rng(32);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        Tensor w = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0.5f, 2});
        return Sum(L2NormalizeRows(in[0]) * w);
      },
      {RandLeaf({2, 3}, rng, 0.3f, 1.0f)});
}

TEST(Autograd, CompositeLossGrad) {
  Rng rng(33);
  ExpectGradMatchesNumeric(
      [](const std::vector<Tensor>& in) {
        Tensor hidden = Tanh(MatMul(in[0], in[1]));
        Tensor out = MatMul(hidden, in[2]);
        Tensor target = Tensor::Ones(out.Shape());
        return MseLoss(out, target);
      },
      {RandLeaf({2, 3}, rng), RandLeaf({3, 4}, rng), RandLeaf({4, 1}, rng)});
}

// -- Structural behaviour -------------------------------------------------------

TEST(AutogradStructure, GradAccumulatesAcrossBackwardCalls) {
  Tensor x = Tensor::Ones({2}, /*requires_grad=*/true);
  Tensor y1 = Sum(x * 2.0f);
  y1.Backward();
  Tensor y2 = Sum(x * 3.0f);
  y2.Backward();
  EXPECT_FLOAT_EQ(x.Grad()[0], 5.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.Grad()[0], 0.0f);
}

TEST(AutogradStructure, DiamondGraphSumsPaths) {
  Tensor x = Tensor::Full({1}, 2.0f, /*requires_grad=*/true);
  Tensor a = x * 3.0f;
  Tensor b = x * 4.0f;
  Tensor y = Sum(a * b);  // y = 12 x^2, dy/dx = 24 x = 48
  y.Backward();
  EXPECT_FLOAT_EQ(x.Grad()[0], 48.0f);
}

TEST(AutogradStructure, ReusedTensorGetsBothContributions) {
  Tensor x = Tensor::Full({1}, 3.0f, /*requires_grad=*/true);
  Tensor y = Sum(x + x);  // dy/dx = 2
  y.Backward();
  EXPECT_FLOAT_EQ(x.Grad()[0], 2.0f);
}

TEST(AutogradStructure, DetachBlocksGradient) {
  Tensor x = Tensor::Full({1}, 2.0f, /*requires_grad=*/true);
  Tensor y = Sum(x.Detach() * x);  // only the non-detached path contributes
  y.Backward();
  EXPECT_FLOAT_EQ(x.Grad()[0], 2.0f);
}

TEST(AutogradStructure, NoGradGuardDisablesRecording) {
  Tensor x = Tensor::Ones({2}, /*requires_grad=*/true);
  {
    NoGradGuard guard;
    Tensor y = x * 2.0f;
    EXPECT_EQ(y.GradFn(), nullptr);
    EXPECT_FALSE(y.RequiresGrad());
  }
  Tensor z = x * 2.0f;
  EXPECT_NE(z.GradFn(), nullptr);
}

TEST(AutogradStructure, NoGradGuardNests) {
  EXPECT_TRUE(GradRecordingEnabled());
  {
    NoGradGuard g1;
    EXPECT_FALSE(GradRecordingEnabled());
    {
      NoGradGuard g2;
      EXPECT_FALSE(GradRecordingEnabled());
    }
    EXPECT_FALSE(GradRecordingEnabled());
  }
  EXPECT_TRUE(GradRecordingEnabled());
}

TEST(AutogradStructure, BackwardWithSeedGradient) {
  Tensor x = Tensor::Ones({3}, /*requires_grad=*/true);
  Tensor y = x * 2.0f;
  Tensor seed = Tensor::FromVector({3}, {1.0f, 10.0f, 100.0f});
  y.Backward(seed);
  EXPECT_FLOAT_EQ(x.Grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.Grad()[1], 20.0f);
  EXPECT_FLOAT_EQ(x.Grad()[2], 200.0f);
}

TEST(AutogradStructure, LongChainBackward) {
  // Deep graphs must not blow the stack (iterative topo sort).
  Tensor x = Tensor::Full({1}, 1.0f, /*requires_grad=*/true);
  Tensor y = x;
  for (int i = 0; i < 2000; ++i) y = y + 0.001f;
  Sum(y).Backward();
  EXPECT_FLOAT_EQ(x.Grad()[0], 1.0f);
}

TEST(AutogradStructure, FirstTouchNegativeZeroGradientAccumulatesToPlusZero) {
  Tensor x = Tensor::Ones({2}, /*requires_grad=*/true);
  Tensor y = MulScalar(x, -1.0f);
  // The local gradient 0 * -1 is -0; accumulating it into x's empty buffer
  // must give 0 + -0 = +0, as a zero-filled buffer plus -0 would.
  y.Backward(Tensor::FromVector({2}, {0.0f, 1.0f}));
  ASSERT_EQ(x.Grad().size(), 2u);
  EXPECT_EQ(std::bit_cast<uint32_t>(x.Grad()[0]), 0u);
  EXPECT_EQ(x.Grad()[1], -1.0f);
}

TEST(AutogradStructure, GradDoesNotFlowToNonRequiringInputs) {
  Tensor x = Tensor::Ones({2}, /*requires_grad=*/true);
  Tensor c = Tensor::Ones({2});  // constant
  Tensor y = Sum(x * c);
  y.Backward();
  EXPECT_TRUE(c.Grad().empty());
  EXPECT_FLOAT_EQ(x.Grad()[0], 1.0f);
}

}  // namespace
}  // namespace sthsl

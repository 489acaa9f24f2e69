// Tests for the analytic FLOP/byte kernel cost models (tensor/kernel_cost)
// and their wiring into the per-op profiler: hand-counted expectations for
// matmul, conv2d, softmax, elementwise and reduction ops, the backward byte
// model, and the optimizer step samples.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernel_cost.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "util/obs/metrics.h"
#include "util/obs/obs.h"
#include "util/rng.h"

namespace sthsl {
namespace {

/// Saves the trace-enabled flag, clears all profiler and registry state, and
/// restores both on destruction so tests never leak state into each other.
class ObsSandbox {
 public:
  explicit ObsSandbox(bool enabled) : previous_(obs::SetTraceEnabled(enabled)) {
    obs::ResetProfiler();
    obs::MetricsRegistry::Global().Reset();
  }
  ~ObsSandbox() {
    obs::ResetProfiler();
    obs::MetricsRegistry::Global().Reset();
    obs::SetTraceEnabled(previous_);
  }

  ObsSandbox(const ObsSandbox&) = delete;
  ObsSandbox& operator=(const ObsSandbox&) = delete;

 private:
  bool previous_;
};

const obs::OpProfile* FindOp(const std::vector<obs::OpProfile>& ops,
                             const std::string& name) {
  for (const auto& op : ops) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

TEST(KernelCostTest, MatMulFlopsHandCounted) {
  Rng rng(7);
  std::vector<Tensor> inputs = {Tensor::Randn({4, 8}, rng),
                                Tensor::Randn({8, 3}, rng)};
  const std::vector<int64_t> out_shape = {4, 3};
  // One multiply + one add per (m, k, n) cell: 2 * 4 * 8 * 3.
  EXPECT_EQ(ForwardOpFlops("matmul", inputs, out_shape), 192);
  // dA = dC * B^T and dB = A^T * dC each cost a forward's worth.
  EXPECT_EQ(BackwardOpFlops("matmul", inputs, out_shape), 384);
}

TEST(KernelCostTest, BatchedMatMulScalesWithBatch) {
  Rng rng(7);
  std::vector<Tensor> inputs = {Tensor::Randn({5, 4, 8}, rng),
                                Tensor::Randn({5, 8, 3}, rng)};
  const std::vector<int64_t> out_shape = {5, 4, 3};
  EXPECT_EQ(ForwardOpFlops("matmul", inputs, out_shape), 5 * 192);
}

TEST(KernelCostTest, Conv2dFlopsHandCounted) {
  Rng rng(7);
  // input (2, 3, 5, 5) * weight (4, 3, 3, 3), no padding -> out (2, 4, 3, 3).
  std::vector<Tensor> inputs = {Tensor::Randn({2, 3, 5, 5}, rng),
                                Tensor::Randn({4, 3, 3, 3}, rng),
                                Tensor::Randn({4}, rng)};
  const std::vector<int64_t> out_shape = {2, 4, 3, 3};
  // 2 * batch * weight_numel * oh * ow = 2 * 2 * 108 * 3 * 3.
  EXPECT_EQ(ForwardOpFlops("conv2d", inputs, out_shape), 3888);
  // Twice the forward, plus one bias-gradient add per output cell.
  EXPECT_EQ(BackwardOpFlops("conv2d", inputs, out_shape), 2 * 3888 + 72);
  // Without a bias input the extra adds disappear.
  inputs.pop_back();
  EXPECT_EQ(BackwardOpFlops("conv2d", inputs, out_shape), 2 * 3888);
}

TEST(KernelCostTest, Conv1dFlopsAreConv2dWithUnitHeight) {
  Rng rng(7);
  // input (2, 3, 9) * weight (4, 3, 3), pad 1 -> out (2, 4, 9): the same
  // count as the (2, 3, 1, 9) * (4, 3, 1, 3) 2-D view.
  const std::vector<Tensor> one_d = {Tensor::Randn({2, 3, 9}, rng),
                                     Tensor::Randn({4, 3, 3}, rng)};
  const std::vector<Tensor> two_d = {Tensor::Randn({2, 3, 1, 9}, rng),
                                     Tensor::Randn({4, 3, 1, 3}, rng)};
  EXPECT_EQ(ForwardOpFlops("conv2d", one_d, {2, 4, 9}), 2 * 2 * 36 * 9);
  EXPECT_EQ(ForwardOpFlops("conv2d", one_d, {2, 4, 9}),
            ForwardOpFlops("conv2d", two_d, {2, 4, 1, 9}));
  EXPECT_EQ(BackwardOpFlops("conv2d", one_d, {2, 4, 9}),
            BackwardOpFlops("conv2d", two_d, {2, 4, 1, 9}));
}

TEST(KernelCostTest, SoftmaxElementwiseAndReduction) {
  Rng rng(7);
  std::vector<Tensor> one = {Tensor::Randn({4, 5}, rng)};
  std::vector<Tensor> two = {Tensor::Randn({4, 5}, rng),
                             Tensor::Randn({4, 5}, rng)};
  const std::vector<int64_t> out_shape = {4, 5};
  EXPECT_EQ(ForwardOpFlops("softmax", one, out_shape), 5 * 20);
  EXPECT_EQ(BackwardOpFlops("softmax", one, out_shape), 4 * 20);
  EXPECT_EQ(ForwardOpFlops("add", two, out_shape), 20);
  EXPECT_EQ(BackwardOpFlops("add", two, out_shape), 40);
  EXPECT_EQ(ForwardOpFlops("sigmoid", one, out_shape), 20);
  EXPECT_EQ(BackwardOpFlops("sigmoid", one, out_shape), 40);
  // Reductions sum every input element and have free gradients (broadcast).
  const std::vector<int64_t> scalar_shape = {1};
  EXPECT_EQ(ForwardOpFlops("sum_all", one, scalar_shape), 20);
  EXPECT_EQ(BackwardOpFlops("sum_all", one, scalar_shape), 0);
}

TEST(KernelCostTest, UnmodeledOpsReturnZeroNotAGuess) {
  Rng rng(7);
  std::vector<Tensor> inputs = {Tensor::Randn({4, 5}, rng)};
  EXPECT_EQ(ForwardOpFlops("reshape", inputs, {20}), 0);
  EXPECT_EQ(ForwardOpFlops("permute", inputs, {5, 4}), 0);
  EXPECT_EQ(ForwardOpFlops("no_such_op", inputs, {4, 5}), 0);
  EXPECT_EQ(BackwardOpFlops("no_such_op", inputs, {4, 5}), 0);
}

TEST(KernelCostTest, BackwardBytesModel) {
  Rng rng(7);
  std::vector<Tensor> inputs = {Tensor::Randn({4, 8}, rng),
                                Tensor::Randn({8, 3}, rng)};
  // Reads the output gradient (12 floats), reads both inputs and writes one
  // gradient per input (2 * (32 + 24) floats): 4 * (12 + 2 * 56) bytes.
  EXPECT_EQ(BackwardOpBytes(inputs, {4, 3}), 4 * (12 + 2 * 56));
}

TEST(KernelCostProfilerTest, MatMulTrainStepRecordsModeledCosts) {
  ObsSandbox sandbox(/*enabled=*/true);
  Rng rng(11);
  Tensor a = Tensor::Randn({4, 8}, rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({8, 3}, rng, 1.0f, /*requires_grad=*/true);
  Sum(MatMul(a, b)).Backward();

  const std::vector<obs::OpProfile> ops = obs::OpProfiles();
  const obs::OpProfile* matmul = FindOp(ops, "matmul");
  ASSERT_NE(matmul, nullptr);
  EXPECT_EQ(matmul->forward_calls, 1);
  EXPECT_EQ(matmul->forward_flops, 192);
  EXPECT_EQ(matmul->backward_calls, 1);
  EXPECT_EQ(matmul->backward_flops, 384);
  // Forward bytes: output + inputs; backward bytes: grad-out + 2x inputs.
  EXPECT_EQ(matmul->bytes_touched, 4 * (12 + 32 + 24));
  EXPECT_EQ(matmul->backward_bytes, 4 * (12 + 2 * 56));

  const obs::OpProfile* sum = FindOp(ops, "sum_all");
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->forward_flops, 12);
}

TEST(KernelCostProfilerTest, SoftmaxBackwardAttributed) {
  ObsSandbox sandbox(/*enabled=*/true);
  Rng rng(11);
  Tensor x = Tensor::Randn({4, 5}, rng, 1.0f, /*requires_grad=*/true);
  Sum(Softmax(x, 1)).Backward();
  const std::vector<obs::OpProfile> ops = obs::OpProfiles();
  const obs::OpProfile* softmax = FindOp(ops, "softmax");
  ASSERT_NE(softmax, nullptr);
  EXPECT_EQ(softmax->forward_flops, 5 * 20);
  EXPECT_EQ(softmax->backward_flops, 4 * 20);
}

// A grad-free elementwise chain is evaluated op by op, so each op's
// forward row carries its own calls and modelled FLOPs (one per element),
// and no combined row takes the chain's time.
TEST(KernelCostProfilerTest, GradFreeElementwiseOpsAreTimedAsThemselves) {
  ObsSandbox sandbox(/*enabled=*/true);
  Rng rng(11);
  const Tensor a = Tensor::Randn({6, 7}, rng);
  const Tensor b = Tensor::Randn({6, 7}, rng);
  {
    NoGradGuard no_grad;
    const Tensor out = Sigmoid(AddScalar(Mul(a, b), 0.5f));
    EXPECT_EQ(out.Numel(), 42);
  }
  const std::vector<obs::OpProfile> ops = obs::OpProfiles();
  for (const char* name : {"mul", "add_scalar", "sigmoid"}) {
    const obs::OpProfile* op = FindOp(ops, name);
    ASSERT_NE(op, nullptr) << name;
    EXPECT_EQ(op->forward_calls, 1) << name;
    EXPECT_EQ(op->forward_flops, 42) << name;
    EXPECT_EQ(op->backward_calls, 0) << name;
  }
  EXPECT_EQ(ops.size(), 3u);
}

TEST(KernelCostProfilerTest, DisabledTraceRecordsNothing) {
  ObsSandbox sandbox(/*enabled=*/false);
  Rng rng(11);
  Tensor a = Tensor::Randn({4, 8}, rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({8, 3}, rng, 1.0f, /*requires_grad=*/true);
  Sum(MatMul(a, b)).Backward();
  EXPECT_TRUE(obs::OpProfiles().empty());
}

TEST(KernelCostProfilerTest, OptimizerStepsRecordAnalyticCosts) {
  ObsSandbox sandbox(/*enabled=*/true);
  constexpr int64_t kNumel = 64;
  Tensor sgd_param = Tensor::Ones({kNumel}, /*requires_grad=*/true);
  Tensor adam_param = Tensor::Ones({kNumel}, /*requires_grad=*/true);
  sgd_param.MutableGrad().assign(kNumel, 0.5f);
  adam_param.MutableGrad().assign(kNumel, 0.5f);

  Sgd sgd({sgd_param}, /*lr=*/0.1f, /*momentum=*/0.9f);
  sgd.Step();
  Adam adam({adam_param}, /*lr=*/0.01f, 0.9f, 0.999f, 1e-8f, 0.0f);
  adam.Step();

  const std::vector<obs::OpProfile> ops = obs::OpProfiles();
  const obs::OpProfile* sgd_op = FindOp(ops, "sgd_step");
  ASSERT_NE(sgd_op, nullptr);
  EXPECT_EQ(sgd_op->forward_flops, 6 * kNumel);  // momentum path
  EXPECT_EQ(sgd_op->bytes_touched, 5 * 4 * kNumel);
  const obs::OpProfile* adam_op = FindOp(ops, "adam_step");
  ASSERT_NE(adam_op, nullptr);
  EXPECT_EQ(adam_op->forward_flops, 16 * kNumel);
  EXPECT_EQ(adam_op->bytes_touched, 7 * 4 * kNumel);
}

}  // namespace
}  // namespace sthsl

#include "tensor/kernel_cost.h"

#include "tensor/elementwise_ops.h"

namespace sthsl {
namespace {

int64_t Product(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return n;
}

bool IsElementwise(const std::string& name) {
#define STHSL_IS_ELEMENTWISE_NAME(Fn, op_name, ...) || name == op_name
  return false STHSL_ELEMENTWISE_OPS(STHSL_IS_ELEMENTWISE_NAME);
#undef STHSL_IS_ELEMENTWISE_NAME
}

bool IsReduction(const std::string& name) {
  return name == "sum_all" || name == "sum_dims";
}

// batch·m·k·n of a MatMul call, from the lhs and the output shape: the lhs
// carries (m, k) in its trailing dims, the output carries n and the batch.
int64_t MatMulCells(const std::vector<Tensor>& inputs,
                    const std::vector<int64_t>& out_shape) {
  if (inputs.empty() || !inputs[0].Defined() || inputs[0].Dim() < 2 ||
      out_shape.size() < 2) {
    return 0;
  }
  const int64_t m = inputs[0].Size(-2);
  const int64_t k = inputs[0].Size(-1);
  const int64_t n = out_shape[out_shape.size() - 1];
  const int64_t batch = out_shape.size() == 3 ? out_shape[0] : 1;
  return batch * m * k * n;
}

// batch·cout·cin·kh·kw·oh·ow of a conv call, from the weight (Cout, Cin,
// [KH,] KW) and the output (N, Cout, [OH,] OW); a 1-D conv has kh = oh = 1.
int64_t ConvCells(const std::vector<Tensor>& inputs,
                  const std::vector<int64_t>& out_shape) {
  if (inputs.size() < 2 || !inputs[1].Defined() || out_shape.size() < 3 ||
      inputs[1].Dim() != static_cast<int64_t>(out_shape.size())) {
    return 0;
  }
  int64_t cells = out_shape[0] * inputs[1].Numel();
  for (size_t d = 2; d < out_shape.size(); ++d) cells *= out_shape[d];
  return cells;
}

int64_t SumInputNumels(const std::vector<Tensor>& inputs) {
  int64_t n = 0;
  for (const auto& input : inputs) {
    if (input.Defined()) n += input.Numel();
  }
  return n;
}

}  // namespace

int64_t ForwardOpFlops(const std::string& op_name,
                       const std::vector<Tensor>& inputs,
                       const std::vector<int64_t>& out_shape) {
  const int64_t out_numel = Product(out_shape);
  if (op_name == "matmul") return 2 * MatMulCells(inputs, out_shape);
  if (op_name == "conv2d") return 2 * ConvCells(inputs, out_shape);
  if (op_name == "softmax") return 5 * out_numel;
  if (IsElementwise(op_name)) {
    return out_numel;
  }
  if (IsReduction(op_name)) return SumInputNumels(inputs);
  return 0;
}

int64_t BackwardOpFlops(const std::string& op_name,
                        const std::vector<Tensor>& inputs,
                        const std::vector<int64_t>& out_shape) {
  const int64_t out_numel = Product(out_shape);
  if (op_name == "matmul") return 4 * MatMulCells(inputs, out_shape);
  if (op_name == "conv2d") {
    int64_t flops = 4 * ConvCells(inputs, out_shape);
    // Bias gradient: one add per output cell into the per-channel sums.
    if (inputs.size() > 2 && inputs[2].Defined()) flops += out_numel;
    return flops;
  }
  if (op_name == "softmax") return 4 * out_numel;
  if (IsElementwise(op_name)) {
    return 2 * out_numel;
  }
  return 0;
}

int64_t BackwardOpBytes(const std::vector<Tensor>& inputs,
                        const std::vector<int64_t>& out_shape) {
  return 4 * (Product(out_shape) + 2 * SumInputNumels(inputs));
}

}  // namespace sthsl

#include "tensor/kernel_cost.h"

namespace sthsl {
namespace {

int64_t Product(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return n;
}

bool IsBinaryElementwise(const std::string& name) {
  return name == "add" || name == "sub" || name == "mul" || name == "div";
}

bool IsUnaryElementwise(const std::string& name) {
  return name == "add_scalar" || name == "mul_scalar" || name == "neg" ||
         name == "exp" || name == "log" || name == "sqrt" || name == "abs" ||
         name == "pow_scalar" || name == "square" || name == "sigmoid" ||
         name == "tanh" || name == "relu" || name == "leaky_relu" ||
         name == "clamp_min";
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

// batch·cout·cin·kh·kw·oh·ow of a Conv2d call, from the weight (Cout, Cin,
// KH, KW) and the output (N, Cout, OH, OW).
int64_t ConvCells(const std::vector<Tensor>& inputs,
                  const std::vector<int64_t>& out_shape) {
  if (inputs.size() < 2 || !inputs[1].Defined() || inputs[1].Dim() != 4 ||
      out_shape.size() != 4) {
    return 0;
  }
  const Tensor& weight = inputs[1];
  const int64_t batch = out_shape[0];
  const int64_t oh = out_shape[2];
  const int64_t ow = out_shape[3];
  return batch * weight.Numel() * oh * ow;
}

// nnz·n of a SpMM call: inputs are {values (nnz,), b (·, n)} and the model
// counts only the stored entries — never the dense-equivalent m·k·n.
int64_t SpmmCells(const std::vector<Tensor>& inputs,
                  const std::vector<int64_t>& out_shape) {
  if (inputs.empty() || !inputs[0].Defined() || out_shape.size() != 2) {
    return 0;
  }
  return inputs[0].Numel() * out_shape[1];
}

// Step count K of a "fused_elemwise<K>" chain op, or 0 for other names.
int64_t FusedChainSteps(const std::string& name) {
  constexpr const char kPrefix[] = "fused_elemwise";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.compare(0, kPrefixLen, kPrefix) != 0 || name.size() == kPrefixLen) {
    return 0;
  }
  int64_t k = 0;
  for (size_t i = kPrefixLen; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    k = k * 10 + (name[i] - '0');
  }
  return k;
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
  if (op_name == "spmm") return 2 * SpmmCells(inputs, out_shape);
  if (op_name == "softmax") return 5 * out_numel;
  if (IsBinaryElementwise(op_name) || IsUnaryElementwise(op_name)) {
    return out_numel;
  }
  if (const int64_t k = FusedChainSteps(op_name)) return k * out_numel;
  if (IsReduction(op_name)) return SumInputNumels(inputs);
  return 0;
}

int64_t BackwardOpFlops(const std::string& op_name,
                        const std::vector<Tensor>& inputs,
                        const std::vector<int64_t>& out_shape) {
  const int64_t out_numel = Product(out_shape);
  if (op_name == "matmul") return 4 * MatMulCells(inputs, out_shape);
  if (op_name == "spmm") return 4 * SpmmCells(inputs, out_shape);
  if (op_name == "gather") return out_numel;
  if (op_name == "conv2d") {
    int64_t flops = 4 * ConvCells(inputs, out_shape);
    // Bias gradient: one add per output cell into the per-channel sums.
    if (inputs.size() > 2 && inputs[2].Defined()) flops += out_numel;
    return flops;
  }
  if (op_name == "softmax") return 4 * out_numel;
  if (IsBinaryElementwise(op_name) || IsUnaryElementwise(op_name)) {
    return 2 * out_numel;
  }
  return 0;
}

int64_t BackwardOpBytes(const std::vector<Tensor>& inputs,
                        const std::vector<int64_t>& out_shape) {
  return 4 * (Product(out_shape) + 2 * SumInputNumels(inputs));
}

}  // namespace sthsl

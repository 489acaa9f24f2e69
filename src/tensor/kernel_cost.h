#ifndef STHSL_TENSOR_KERNEL_COST_H_
#define STHSL_TENSOR_KERNEL_COST_H_

// Analytic FLOP and byte-traffic models for the tensor kernels, keyed by the
// autograd op name passed to MakeResult. The models are exact counts of the
// floating-point operations the serial reference loops perform (one
// transcendental call counts as one operation), so they are reproducible on
// any machine and independent of thread count — the observability layer
// divides them by measured wall time to get achieved GFLOP/s and by the byte
// model to get arithmetic intensity (see docs/performance.md, "Roofline
// methodology").
//
// Per-op forward models:
//   matmul        2·batch·m·k·n           (multiply + add per cell)
//   conv2d        batch·cout·cin·kh·kw·oh·ow·2   (bias fill is a write;
//                                          1-D convs record here with
//                                          kh = oh = 1, and ConvBlock's
//                                          epilogue is not counted)
//   softmax       5·numel                 (max-cmp, sub, exp, add, div)
//   every row of tensor/elementwise_ops.h          1·numel(out)
//   sum_all / sum_dims                    numel(input) adds
//   reshape/permute/narrow/cat/index_select        0 (pure data movement)
// Backward models (assume every input needs its gradient):
//   matmul        4·batch·m·k·n           (dA = dC·Bᵀ plus dB = Aᵀ·dC)
//   conv2d        2·fwd  (+ batch·cout·oh·ow bias-grad adds when biased)
//   softmax       4·numel                 (dot: mul+add; scale: sub+mul)
//   binary elementwise rows   2·numel(out)   (one product per input grad)
//   unary elementwise rows    2·numel        (gv · df)
//   reductions / movement ops             0
// Unmodeled op names return 0, never a guess.

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace sthsl {

/// Modeled floating-point operations of one forward call of `op_name` with
/// the given inputs producing `out_shape`. Zero for unmodeled ops.
int64_t ForwardOpFlops(const std::string& op_name,
                       const std::vector<Tensor>& inputs,
                       const std::vector<int64_t>& out_shape);

/// Modeled floating-point operations of one backward call of `op_name`
/// (gradient of an output shaped `out_shape` w.r.t. every input).
int64_t BackwardOpFlops(const std::string& op_name,
                        const std::vector<Tensor>& inputs,
                        const std::vector<int64_t>& out_shape);

/// Modeled bytes moved by one backward call: reads the output gradient,
/// reads every input, writes one gradient per input —
/// 4 · (numel(out) + 2 · Σ numel(input)).
int64_t BackwardOpBytes(const std::vector<Tensor>& inputs,
                        const std::vector<int64_t>& out_shape);

}  // namespace sthsl

#endif  // STHSL_TENSOR_KERNEL_COST_H_

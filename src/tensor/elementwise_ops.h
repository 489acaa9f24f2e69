#ifndef STHSL_TENSOR_ELEMENTWISE_OPS_H_
#define STHSL_TENSOR_ELEMENTWISE_OPS_H_

// The elementwise op table: every elementwise op is defined once, here, and
// the eager ops (ops.cc), the fused chain steps (fusion.{h,cc}) and the cost
// model's op names (kernel_cost.cc) are generated from it. Adding an op is
// one row plus its declaration in tensor/ops.h.
//
// X(Fn, name, kind, fwd, d0, d1, reads_fx, kernel, checks)
//   Fn        the public function in tensor/ops.h; also FusedOp::k<Fn>
//   name      the op name recorded in graphs, traces and the cost model
//   kind      BINARY  Fn(a, b), broadcasting; formulas over x and y
//             UNARY   Fn(a); formulas over x
//             SCALAR  Fn(a, s); formulas over x and the scalar operand s
//   fwd       the forward value
//   d0, d1    BINARY: dx and dy, over (x, y)
//             UNARY/SCALAR: df in d0, over x and fx = f(x); d1 is -
//   reads_fx  (fx?) UNARY/SCALAR: df reads fx, so eager backward keeps a
//             copy of the output; - for BINARY
//   kernel    the simd::Kernels() member (ks.<member>) a fused step calls,
//             or nullptr to apply fwd with scalar code; BINARY rows must
//             name a kernel
//   checks    STHSL_DEBUG_CHECKS validates the inputs before the op runs
//
// Every formula is written once and evaluated identically on both paths:
// the simd kernels are lane-exact IEEE operations equal to the scalar
// formula (see simd/simd.h), and transcendentals stay scalar libm calls, so
// a fused chain equals the eager op sequence bitwise.

#include <algorithm>  // std::max in the formulas
#include <cmath>
#include <cstdint>

// clang-format off
#define STHSL_ELEMENTWISE_OPS(X)                                               \
  /*Fn         name          kind    fwd */                                    \
  /*d0                           d1            fx?    kernel         checks */ \
  X(Add,       "add",        BINARY, x + y,                                    \
    1.0f,                        1.0f,         -,     ks.add,        false)    \
  X(Sub,       "sub",        BINARY, x - y,                                    \
    1.0f,                        -1.0f,        -,     ks.sub,        false)    \
  X(Mul,       "mul",        BINARY, x * y,                                    \
    y,                           x,            -,     ks.mul,        false)    \
  X(Div,       "div",        BINARY, x / y,                                    \
    1.0f / y,                    -x / (y * y), -,     ks.div,        true)     \
  X(AddScalar, "add_scalar", SCALAR, x + s,                                    \
    1.0f,                        -,            false, ks.add_scalar, false)    \
  X(MulScalar, "mul_scalar", SCALAR, x * s,                                    \
    s,                           -,            false, ks.mul_scalar, false)    \
  X(Neg,       "neg",        UNARY,  -x,                                       \
    -1.0f,                       -,            false, nullptr,       false)    \
  X(Exp,       "exp",        UNARY,  std::exp(x),                              \
    fx,                          -,            true,  nullptr,       false)    \
  X(Log,       "log",        UNARY,  std::log(std::max(x, 1e-12f)),            \
    1.0f / std::max(x, 1e-12f),  -,            false, nullptr,       true)     \
  X(Sqrt,      "sqrt",       UNARY,  std::sqrt(x),                             \
    0.5f / std::max(fx, 1e-12f), -,            true,  nullptr,       true)     \
  X(Abs,       "abs",        UNARY,  std::fabs(x),                             \
    x >= 0.0f ? 1.0f : -1.0f,    -,            false, nullptr,       false)    \
  X(PowScalar, "pow_scalar", SCALAR, std::pow(x, s),                           \
    s * std::pow(x, s - 1.0f),   -,            false, nullptr,       false)    \
  X(Square,    "square",     UNARY,  x * x,                                    \
    2.0f * x,                    -,            false, nullptr,       false)    \
  X(Sigmoid,   "sigmoid",    UNARY,  1.0f / (1.0f + std::exp(-x)),             \
    fx * (1.0f - fx),            -,            true,  nullptr,       false)    \
  X(Tanh,      "tanh",       UNARY,  std::tanh(x),                             \
    1.0f - fx * fx,              -,            true,  nullptr,       false)    \
  X(Relu,      "relu",       UNARY,  x > 0.0f ? x : 0.0f,                      \
    x > 0.0f ? 1.0f : 0.0f,      -,            false, ks.relu,       false)    \
  X(LeakyRelu, "leaky_relu", SCALAR, x > 0.0f ? x : s * x,                     \
    x > 0.0f ? 1.0f : s,         -,            false, ks.leaky_relu, false)    \
  X(ClampMin,  "clamp_min",  SCALAR, x > s ? x : s,                            \
    x > s ? 1.0f : 0.0f,         -,            false, ks.clamp_min,  false)
// clang-format on

namespace sthsl {

/// Minimum elements per parallel chunk for the elementwise, fused-chain,
/// broadcast and gather kernels; smaller tensors run inline on the caller
/// (see docs/performance.md, "Grain thresholds").
inline constexpr int64_t kElemGrain = 16384;

}  // namespace sthsl

#endif  // STHSL_TENSOR_ELEMENTWISE_OPS_H_

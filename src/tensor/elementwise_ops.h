#ifndef STHSL_TENSOR_ELEMENTWISE_OPS_H_
#define STHSL_TENSOR_ELEMENTWISE_OPS_H_

// The elementwise op table: every elementwise op is defined once, here, and
// the eager ops (ops.cc) and the cost model's op names (kernel_cost.cc) are
// generated from it. Adding an op is one row plus its declaration in
// tensor/ops.h.
//
// X(Fn, name, kind, fwd, d0, d1, reads_fx, checks)
//   Fn        the public function in tensor/ops.h
//   name      the op name recorded in graphs, traces and the cost model
//   kind      BINARY  Fn(a, b), broadcasting; formulas over x and y
//             UNARY   Fn(a); formulas over x
//             SCALAR  Fn(a, s); formulas over x and the scalar operand s
//   fwd       the forward value
//   d0, d1    BINARY: dx and dy, over (x, y)
//             UNARY/SCALAR: df in d0, over x and fx = f(x); d1 is -
//   reads_fx  (fx?) UNARY/SCALAR: df reads fx, so eager backward keeps a
//             copy of the output; - for BINARY
//   checks    STHSL_DEBUG_CHECKS validates the inputs before the op runs
//
// Each op has one evaluation path: ops.cc runs the row's formulas as
// scalar loops over the data, which the compiler may vectorize (the lane
// ops are IEEE basic operations, so every ISA gets the same bits), and
// transcendentals stay scalar libm calls.

#include <algorithm>  // std::max in the formulas
#include <cmath>
#include <cstdint>

// clang-format off
#define STHSL_ELEMENTWISE_OPS(X)                                               \
  /*Fn         name          kind    fwd */                                    \
  /*d0                           d1            fx?    checks */                \
  X(Add,       "add",        BINARY, x + y,                                    \
    1.0f,                        1.0f,         -,     false)                   \
  X(Sub,       "sub",        BINARY, x - y,                                    \
    1.0f,                        -1.0f,        -,     false)                   \
  X(Mul,       "mul",        BINARY, x * y,                                    \
    y,                           x,            -,     false)                   \
  X(Div,       "div",        BINARY, x / y,                                    \
    1.0f / y,                    -x / (y * y), -,     true)                    \
  X(AddScalar, "add_scalar", SCALAR, x + s,                                    \
    1.0f,                        -,            false, false)                   \
  X(MulScalar, "mul_scalar", SCALAR, x * s,                                    \
    s,                           -,            false, false)                   \
  X(Neg,       "neg",        UNARY,  -x,                                       \
    -1.0f,                       -,            false, false)                   \
  X(Exp,       "exp",        UNARY,  std::exp(x),                              \
    fx,                          -,            true,  false)                   \
  X(Log,       "log",        UNARY,  std::log(std::max(x, 1e-12f)),            \
    1.0f / std::max(x, 1e-12f),  -,            false, true)                    \
  X(Sqrt,      "sqrt",       UNARY,  std::sqrt(x),                             \
    0.5f / std::max(fx, 1e-12f), -,            true,  true)                    \
  X(Abs,       "abs",        UNARY,  std::fabs(x),                             \
    x >= 0.0f ? 1.0f : -1.0f,    -,            false, false)                   \
  X(PowScalar, "pow_scalar", SCALAR, std::pow(x, s),                           \
    s * std::pow(x, s - 1.0f),   -,            false, false)                   \
  X(Square,    "square",     UNARY,  x * x,                                    \
    2.0f * x,                    -,            false, false)                   \
  X(Sigmoid,   "sigmoid",    UNARY,  1.0f / (1.0f + std::exp(-x)),             \
    fx * (1.0f - fx),            -,            true,  false)                   \
  X(Tanh,      "tanh",       UNARY,  std::tanh(x),                             \
    1.0f - fx * fx,              -,            true,  false)                   \
  X(Relu,      "relu",       UNARY,  x > 0.0f ? x : 0.0f,                      \
    x > 0.0f ? 1.0f : 0.0f,      -,            false, false)                   \
  X(LeakyRelu, "leaky_relu", SCALAR, x > 0.0f ? x : s * x,                     \
    x > 0.0f ? 1.0f : s,         -,            false, false)                   \
  X(ClampMin,  "clamp_min",  SCALAR, x > s ? x : s,                            \
    x > s ? 1.0f : 0.0f,         -,            false, false)
// clang-format on

namespace sthsl {

/// Minimum elements per parallel chunk for the elementwise, broadcast and
/// gather kernels; smaller tensors run inline on the caller
/// (see docs/performance.md, "Grain thresholds").
inline constexpr int64_t kElemGrain = 16384;

}  // namespace sthsl

#endif  // STHSL_TENSOR_ELEMENTWISE_OPS_H_

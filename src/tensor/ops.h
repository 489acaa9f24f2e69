#ifndef STHSL_TENSOR_OPS_H_
#define STHSL_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {

// ---------------------------------------------------------------------------
// Elementwise binary operations (NumPy-style broadcasting on both arguments).
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }
inline Tensor operator+(const Tensor& a, float s) { return AddScalar(a, s); }
inline Tensor operator+(float s, const Tensor& a) { return AddScalar(a, s); }
inline Tensor operator-(const Tensor& a, float s) { return AddScalar(a, -s); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }
inline Tensor operator/(const Tensor& a, float s) {
  return MulScalar(a, 1.0f / s);
}

// ---------------------------------------------------------------------------
// Elementwise unary operations.
// ---------------------------------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural logarithm; input is clamped at 1e-12 for numerical safety.
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
/// Elementwise power with a scalar exponent.
Tensor PowScalar(const Tensor& a, float exponent);
Tensor Square(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.01f);
/// max(a, floor) elementwise; gradient passes where a > floor.
Tensor ClampMin(const Tensor& a, float floor);

inline Tensor operator-(const Tensor& a) { return Neg(a); }
inline Tensor operator-(float s, const Tensor& a) {
  return AddScalar(Neg(a), s);
}

/// Inverted dropout: zeroes entries with probability `p` and scales the rest
/// by 1/(1-p). Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// Matrix product. Supports (m,k)x(k,n), batched (b,m,k)x(b,k,n) and
/// broadcast (b,m,k)x(k,n).
Tensor MatMul(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum of all elements (scalar result).
Tensor Sum(const Tensor& a);
/// Sum over the given dims. `keepdim` keeps reduced dims with size 1.
Tensor Sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim = false);
/// Mean of all elements (scalar result).
Tensor Mean(const Tensor& a);
Tensor Mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim = false);
/// Detached maximum along `dim` (no gradient; used e.g. for softmax shift).
Tensor MaxValues(const Tensor& a, int64_t dim, bool keepdim = true);

// ---------------------------------------------------------------------------
// Shape manipulation.
// ---------------------------------------------------------------------------

/// Reinterprets the element order with a new shape. At most one dim may be -1
/// (inferred).
Tensor Reshape(const Tensor& a, std::vector<int64_t> shape);
/// Reorders axes; materializes a contiguous copy.
Tensor Permute(const Tensor& a, std::vector<int64_t> dims);
Tensor Transpose(const Tensor& a, int64_t dim0, int64_t dim1);
Tensor Unsqueeze(const Tensor& a, int64_t dim);
Tensor Squeeze(const Tensor& a, int64_t dim);
/// Contiguous slab `[start, start+length)` along `dim`.
Tensor Narrow(const Tensor& a, int64_t dim, int64_t start, int64_t length);
/// Concatenation along `dim`.
Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim);
/// Stacks equally-shaped tensors along a new leading `dim`.
Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim);
/// Selects rows (general dim) by index; indices may repeat.
Tensor IndexSelect(const Tensor& a, int64_t dim,
                   const std::vector<int64_t>& indices);
/// Materialized broadcast of `a` to `shape`.
Tensor BroadcastTo(const Tensor& a, std::vector<int64_t> shape);

// ---------------------------------------------------------------------------
// Neural-network primitives.
// ---------------------------------------------------------------------------

/// Softmax along `dim` (numerically stabilized).
Tensor Softmax(const Tensor& a, int64_t dim);

/// 2-D convolution, stride 1. input (N, Cin, H, W); weight (Cout, Cin, KH,
/// KW); optional bias (Cout). Zero padding of `pad_h`/`pad_w` on each side.
Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad_h, int64_t pad_w);

/// 1-D convolution, stride 1. input (N, Cin, L); weight (Cout, Cin, K);
/// optional bias (Cout). Zero padding of `pad` on each side.
Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad);

/// ST-HSL's convolution block (Eq. 2-3 and 5) as one op:
///   LeakyRelu(Add(Dropout(Conv(x), p, rng, training), x), slope)
/// for a 1-D (N, C, L) or 2-D (N, C, H, W) input with a cout == cin weight
/// of odd extents and same padding. Draws the dropout mask from `rng`
/// exactly as Dropout does, and its output and gradients equal the unfused
/// composition's bitwise. Keeps only the output and the mask for backward,
/// and records as "conv2d" with inputs (x, weight, bias). Requires
/// slope >= 0.
Tensor ConvBlock(const Tensor& x, const Tensor& weight, const Tensor& bias,
                 float p, Rng& rng, bool training, float slope);

// ---------------------------------------------------------------------------
// Losses and similarity helpers.
// ---------------------------------------------------------------------------

/// Mean squared error (scalar).
Tensor MseLoss(const Tensor& pred, const Tensor& target);
/// Sum of squared errors, the paper's Eq. 10 first term (scalar).
Tensor SquaredErrorSum(const Tensor& pred, const Tensor& target);
/// L2-normalizes along the last dimension (rows become unit vectors).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-8f);

}  // namespace sthsl

#endif  // STHSL_TENSOR_OPS_H_

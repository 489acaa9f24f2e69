#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "tensor/elementwise_ops.h"
#include "util/check.h"

namespace sthsl {
namespace {

// Fixed chunk size for the global-sum reduction. This is a *determinism*
// constant, not a tuning knob: Sum(all) partials are per-chunk, so changing
// it changes the (documented) floating-point association.
constexpr int64_t kSumAllGrain = 32768;

// Strides of `shape` left-padded to `rank` dims, with 0 for broadcast dims.
std::vector<int64_t> BroadcastStrides(const std::vector<int64_t>& shape,
                                      const std::vector<int64_t>& out_shape) {
  const size_t rank = out_shape.size();
  const auto strides = StridesOf(shape);
  std::vector<int64_t> padded(rank, 0);
  const size_t offset = rank - shape.size();
  for (size_t i = 0; i < shape.size(); ++i) {
    padded[offset + i] = (shape[i] == 1 && out_shape[offset + i] != 1)
                             ? 0
                             : strides[i];
  }
  return padded;
}

// A row-major walk over an output shape for N operands, operand k reading
// output coordinate c at sum over d of c[d] * stride[k][d]. Extent-1 dims
// are dropped and adjacent dims that every operand walks contiguously are
// merged, so rows (the last remaining dim) are as long as possible.
template <size_t N>
class StridedWalk {
 public:
  StridedWalk(const std::vector<int64_t>& shape,
              const std::array<std::vector<int64_t>, N>& strides) {
    for (size_t d = 0; d < shape.size(); ++d) {
      const int64_t e = shape[d];
      if (e == 1) continue;
      bool merge = !extent_.empty();
      for (size_t k = 0; k < N && merge; ++k) {
        merge = stride_[k].back() == strides[k][d] * e;
      }
      if (merge) {
        extent_.back() *= e;
        for (size_t k = 0; k < N; ++k) stride_[k].back() = strides[k][d];
      } else {
        extent_.push_back(e);
        for (size_t k = 0; k < N; ++k) stride_[k].push_back(strides[k][d]);
      }
    }
    if (extent_.empty()) {  // rank 0 or all extents 1: a single element
      extent_.push_back(1);
      for (size_t k = 0; k < N; ++k) stride_[k].push_back(0);
    }
  }

  /// Operand k's stride along a row.
  int64_t RowStride(size_t k) const { return stride_[k].back(); }

  /// Covers output elements [lo, hi) with spans that each lie within one
  /// row, calling visit(i, offsets, len) for span [i, i + len); offsets[k]
  /// is operand k's offset of element i. The row odometer is seeded with
  /// one div/mod pass and then advanced by additions only.
  template <typename Visit>
  void ForSpans(int64_t lo, int64_t hi, Visit&& visit) const {
    if (lo >= hi) return;
    const size_t outer = extent_.size() - 1;
    const int64_t row_len = extent_.back();
    std::vector<int64_t> coord(outer);
    std::array<int64_t, N> off{};
    int64_t rem = lo / row_len;
    for (size_t d = outer; d-- > 0;) {
      coord[d] = rem % extent_[d];
      rem /= extent_[d];
      for (size_t k = 0; k < N; ++k) off[k] += coord[d] * stride_[k][d];
    }
    int64_t j = lo % row_len;
    for (int64_t i = lo; i < hi; j = 0) {
      const int64_t len = std::min(row_len - j, hi - i);
      std::array<int64_t, N> at;
      for (size_t k = 0; k < N; ++k) at[k] = off[k] + j * RowStride(k);
      visit(i, at, len);
      i += len;
      for (size_t d = outer; d-- > 0;) {
        for (size_t k = 0; k < N; ++k) off[k] += stride_[k][d];
        if (++coord[d] < extent_[d]) break;
        for (size_t k = 0; k < N; ++k) off[k] -= stride_[k][d] * extent_[d];
        coord[d] = 0;
      }
    }
  }

 private:
  std::vector<int64_t> extent_;
  std::array<std::vector<int64_t>, N> stride_;
};

// Calls f(j, x_j, y_j) for j in [0, len), where x_j = a[j * sa] and
// y_j = b[j * sb]. The contiguous and single-value cases get their own
// loops so the compiler can vectorize them; every case visits the same
// (x, y) pairs.
template <typename F>
inline void ForSpanPairs(int64_t len, const float* a, int64_t sa,
                         const float* b, int64_t sb, F f) {
  if (sa == 1 && sb == 0) {
    const float y = b[0];
    for (int64_t j = 0; j < len; ++j) f(j, a[j], y);
  } else if (sa == 0 && sb == 1) {
    const float x = a[0];
    for (int64_t j = 0; j < len; ++j) f(j, x, b[j]);
  } else if (sa == 1 && sb == 1) {
    for (int64_t j = 0; j < len; ++j) f(j, a[j], b[j]);
  } else {
    for (int64_t j = 0; j < len; ++j) f(j, a[j * sa], b[j * sb]);
  }
}

// Sums `grad` (shaped like `out_shape`) down to `target_shape` (the inverse
// of broadcasting). Runs under NoGradGuard during backward.
Tensor ReduceGradTo(const Tensor& grad, const std::vector<int64_t>& target) {
  if (grad.Shape() == target) return grad;
  const auto& gshape = grad.Shape();
  const size_t rank = gshape.size();
  const size_t offset = rank - target.size();
  std::vector<int64_t> dims;
  for (size_t i = 0; i < rank; ++i) {
    if (i < offset) {
      dims.push_back(static_cast<int64_t>(i));
    } else if (target[i - offset] == 1 && gshape[i] != 1) {
      dims.push_back(static_cast<int64_t>(i));
    }
  }
  Tensor reduced = dims.empty() ? grad : Sum(grad, dims, /*keepdim=*/true);
  return Reshape(reduced, target);
}

// Generic broadcasting binary op. `fwd` computes the output value; `dx`/`dy`
// compute the local partial derivatives given (x, y). With `checks`,
// STHSL_DEBUG_CHECKS validates both inputs first.
template <typename Fwd, typename Dx, typename Dy>
Tensor BroadcastBinary(const char* name, bool checks, const Tensor& a,
                       const Tensor& b, Fwd fwd, Dx dx, Dy dy) {
  if (checks && DebugChecksEnabled()) {
    ValidateOpInput(name, "a", a);
    ValidateOpInput(name, "b", b);
  }
  const auto out_shape = BroadcastShapes(a.Shape(), b.Shape());
  const int64_t n = NumelOf(out_shape);
  std::vector<float> out(static_cast<size_t>(n));
  const auto& av = a.Data();
  const auto& bv = b.Data();

  // Same shapes merge into one contiguous row; broadcasts walk a zero
  // stride along each broadcast dim.
  const StridedWalk<2> walk(out_shape, {BroadcastStrides(a.Shape(), out_shape),
                                        BroadcastStrides(b.Shape(), out_shape)});
  exec::ParallelFor(
      0, n, kElemGrain,
      [&](int64_t lo, int64_t hi) {
        walk.ForSpans(lo, hi, [&](int64_t i, const std::array<int64_t, 2>& at,
                                  int64_t len) {
          float* o = out.data() + i;
          ForSpanPairs(len, av.data() + at[0], walk.RowStride(0),
                       bv.data() + at[1], walk.RowStride(1),
                       [&](int64_t j, float x, float y) { o[j] = fwd(x, y); });
        });
      },
      "exec/elementwise");

  Tensor a_captured = a;
  Tensor b_captured = b;
  return MakeResult(
      out_shape, std::move(out), name, {a, b},
      [a_captured, b_captured, dx, dy](const Tensor& g) -> std::vector<Tensor> {
        const auto out_shape =
            BroadcastShapes(a_captured.Shape(), b_captured.Shape());
        const int64_t n = NumelOf(out_shape);
        const auto& gv = g.Data();
        const auto& av = a_captured.Data();
        const auto& bv = b_captured.Data();
        Tensor ga;
        Tensor gb;
        const bool need_a = NeedsGrad(a_captured);
        const bool need_b = NeedsGrad(b_captured);

        std::vector<float> ga_full;
        std::vector<float> gb_full;
        if (need_a) ga_full.resize(static_cast<size_t>(n));
        if (need_b) gb_full.resize(static_cast<size_t>(n));

        const StridedWalk<2> walk(
            out_shape, {BroadcastStrides(a_captured.Shape(), out_shape),
                        BroadcastStrides(b_captured.Shape(), out_shape)});
        exec::ParallelFor(
            0, n, kElemGrain,
            [&](int64_t lo, int64_t hi) {
              walk.ForSpans(lo, hi, [&](int64_t i,
                                        const std::array<int64_t, 2>& at,
                                        int64_t len) {
                const float* g_span = gv.data() + i;
                float* ga_span = need_a ? ga_full.data() + i : nullptr;
                float* gb_span = need_b ? gb_full.data() + i : nullptr;
                ForSpanPairs(len, av.data() + at[0], walk.RowStride(0),
                             bv.data() + at[1], walk.RowStride(1),
                             [&](int64_t j, float x, float y) {
                               if (need_a) ga_span[j] = g_span[j] * dx(x, y);
                               if (need_b) gb_span[j] = g_span[j] * dy(x, y);
                             });
              });
            },
            "exec/elementwise");
        if (need_a) {
          ga = ReduceGradTo(Tensor::FromVector(out_shape, std::move(ga_full)),
                            a_captured.Shape());
        }
        if (need_b) {
          gb = ReduceGradTo(Tensor::FromVector(out_shape, std::move(gb_full)),
                            b_captured.Shape());
        }
        return {ga, gb};
      });
}

// Generic elementwise unary op with local derivative `df(x, fx)`. Only ops
// whose derivative reads f(x) (kDfReadsFx) keep a detached copy of the
// outputs for backward; the others pass fx = 0 to `df`, which ignores it.
// With `checks`, STHSL_DEBUG_CHECKS validates the input first.
template <bool kDfReadsFx, typename Fwd, typename Df>
Tensor UnaryOp(const char* name, bool checks, const Tensor& a, Fwd fwd,
               Df df) {
  if (checks && DebugChecksEnabled()) ValidateOpInput(name, "a", a);
  const int64_t n = a.Numel();
  std::vector<float> out(static_cast<size_t>(n));
  const auto& av = a.Data();
  exec::ParallelFor(
      0, n, kElemGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) out[i] = fwd(av[i]);
      },
      "exec/elementwise");

  Tensor a_captured = a;
  Tensor fx;
  if (kDfReadsFx && GradRecordingEnabled() && NeedsGrad(a)) {
    fx = Tensor::FromVector(a.Shape(), out);
  }
  return MakeResult(
      a.Shape(), std::move(out), name, {a},
      [a_captured, fx, df](const Tensor& g) -> std::vector<Tensor> {
        const int64_t n = a_captured.Numel();
        const auto& gv = g.Data();
        const auto& av = a_captured.Data();
        const float* fv = kDfReadsFx ? fx.Data().data() : nullptr;
        std::vector<float> ga(static_cast<size_t>(n));
        exec::ParallelFor(
            0, n, kElemGrain,
            [&](int64_t lo, int64_t hi) {
              for (int64_t i = lo; i < hi; ++i) {
                ga[i] = gv[i] * df(av[i], kDfReadsFx ? fv[i] : 0.0f);
              }
            },
            "exec/elementwise");
        return {Tensor::FromVector(a_captured.Shape(), std::move(ga))};
      });
}

}  // namespace

// -- Elementwise (generated from tensor/elementwise_ops.h) --------------------

#define STHSL_DEFINE_BINARY(Fn, name, fwd, dx, dy, reads_fx, checks)         \
  Tensor Fn(const Tensor& a, const Tensor& b) {                               \
    return BroadcastBinary(                                                   \
        name, checks, a, b, [](float x, float y) { return fwd; },             \
        [](float x, float y) { return dx; },                                  \
        [](float x, float y) { return dy; });                                 \
  }
#define STHSL_DEFINE_UNARY(Fn, name, fwd, df, unused, reads_fx, checks)      \
  Tensor Fn(const Tensor& a) {                                                \
    return UnaryOp<reads_fx>(                                                 \
        name, checks, a, [](float x) { return fwd; },                         \
        [](float x, float fx) { return df; });                                \
  }
#define STHSL_DEFINE_SCALAR(Fn, name, fwd, df, unused, reads_fx, checks)     \
  Tensor Fn(const Tensor& a, float s) {                                       \
    return UnaryOp<reads_fx>(                                                 \
        name, checks, a, [=](float x) { return fwd; },                        \
        [=](float x, float fx) { return df; });                               \
  }
#define STHSL_DEFINE_ELEMENTWISE(Fn, name, kind, fwd, d0, d1, reads_fx,      \
                                 checks)                                      \
  STHSL_DEFINE_##kind(Fn, name, fwd, d0, d1, reads_fx, checks)
STHSL_ELEMENTWISE_OPS(STHSL_DEFINE_ELEMENTWISE)
#undef STHSL_DEFINE_ELEMENTWISE
#undef STHSL_DEFINE_SCALAR
#undef STHSL_DEFINE_UNARY
#undef STHSL_DEFINE_BINARY

Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training) {
  STHSL_CHECK(p >= 0.0f && p < 1.0f) << "invalid dropout probability " << p;
  if (!training || p == 0.0f) return a;
  const int64_t n = a.Numel();
  const float scale = 1.0f / (1.0f - p);
  std::vector<float> mask(static_cast<size_t>(n));
  rng.DropoutMask(p, scale, mask.data(), n);
  Tensor mask_tensor = Tensor::FromVector(a.Shape(), std::move(mask));
  return Mul(a, mask_tensor);
}

// -- Reductions -----------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  const float* av = a.Data().data();
  // Per-chunk double partials combined in ascending chunk order: the result
  // depends on kSumAllGrain but not on the thread count, and tensors that
  // fit a single chunk reduce exactly like the plain serial loop.
  const double acc = exec::ParallelReduceDouble(
      0, a.Numel(), kSumAllGrain,
      [av](int64_t lo, int64_t hi) {
        double part = 0.0;
        for (int64_t i = lo; i < hi; ++i) part += av[i];
        return part;
      },
      "exec/sum_all");
  Tensor a_captured = a;
  return MakeResult(
      {}, {static_cast<float>(acc)}, "sum_all", {a},
      [a_captured](const Tensor& g) -> std::vector<Tensor> {
        return {Tensor::Full(a_captured.Shape(), g.Item())};
      });
}

Tensor Sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  std::vector<bool> reduce(static_cast<size_t>(rank), false);
  for (int64_t d : dims) {
    if (d < 0) d += rank;
    STHSL_CHECK(d >= 0 && d < rank) << "Sum dim out of range";
    reduce[static_cast<size_t>(d)] = true;
  }

  std::vector<int64_t> keep_shape(shape);
  for (size_t i = 0; i < keep_shape.size(); ++i) {
    if (reduce[i]) keep_shape[i] = 1;
  }
  std::vector<int64_t> out_shape;
  for (size_t i = 0; i < keep_shape.size(); ++i) {
    if (!reduce[i]) {
      out_shape.push_back(shape[i]);
    } else if (keepdim) {
      out_shape.push_back(1);
    }
  }

  const auto in_strides = StridesOf(shape);
  const auto keep_strides = StridesOf(keep_shape);
  const int64_t out_n = NumelOf(keep_shape);
  std::vector<float> out(static_cast<size_t>(out_n), 0.0f);
  const float* av = a.Data().data();

  // Gather formulation: each output element owns its accumulator and sums
  // its reduced coordinates in ascending input order — the exact addition
  // sequence of a serial scatter pass — so chunking the *output* range
  // keeps the result bitwise-identical at any thread count.
  std::vector<int64_t> red_stride;
  std::vector<int64_t> red_extent;
  int64_t red_count = 1;
  for (int64_t d = 0; d < rank; ++d) {
    if (reduce[static_cast<size_t>(d)]) {
      red_stride.push_back(in_strides[static_cast<size_t>(d)]);
      red_extent.push_back(shape[static_cast<size_t>(d)]);
      red_count *= shape[static_cast<size_t>(d)];
    }
  }
  const size_t red_rank = red_stride.size();

  exec::ParallelFor(
      0, out_n,
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, red_count)),
      [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> coord(red_rank, 0);
        for (int64_t oi = lo; oi < hi; ++oi) {
          // Base input offset of this output element: reduced dims have
          // keep extent 1, so they decompose to coordinate 0 here.
          int64_t rem = oi;
          int64_t base = 0;
          for (int64_t d = 0; d < rank; ++d) {
            const int64_t c = rem / keep_strides[static_cast<size_t>(d)];
            rem -= c * keep_strides[static_cast<size_t>(d)];
            base += c * in_strides[static_cast<size_t>(d)];
          }
          float acc = 0.0f;
          std::fill(coord.begin(), coord.end(), 0);
          int64_t off = 0;
          for (int64_t r = 0; r < red_count; ++r) {
            acc += av[base + off];
            for (size_t d = red_rank; d-- > 0;) {
              off += red_stride[d];
              if (++coord[d] < red_extent[d]) break;
              off -= red_stride[d] * red_extent[d];
              coord[d] = 0;
            }
          }
          out[static_cast<size_t>(oi)] = acc;
        }
      },
      "exec/sum_dims");

  Tensor a_captured = a;
  return MakeResult(
      out_shape, std::move(out), "sum_dims", {a},
      [a_captured, keep_shape](const Tensor& g) -> std::vector<Tensor> {
        Tensor reshaped = Reshape(g, keep_shape);
        return {BroadcastTo(reshaped, a_captured.Shape())};
      });
}

Tensor Mean(const Tensor& a) {
  const int64_t n = a.Numel();
  STHSL_CHECK_GT(n, 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(n));
}

Tensor Mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  int64_t count = 1;
  for (int64_t d : dims) {
    if (d < 0) d += rank;
    count *= shape[static_cast<size_t>(d)];
  }
  STHSL_CHECK_GT(count, 0);
  return MulScalar(Sum(a, std::move(dims), keepdim),
                   1.0f / static_cast<float>(count));
}

Tensor MaxValues(const Tensor& a, int64_t dim, bool keepdim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "MaxValues dim out of range";

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }
  const int64_t extent = shape[static_cast<size_t>(dim)];
  STHSL_CHECK_GT(extent, 0);

  std::vector<float> out(static_cast<size_t>(outer * inner));
  const auto& av = a.Data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      float best = av[static_cast<size_t>(o * extent * inner + i)];
      for (int64_t e = 1; e < extent; ++e) {
        best = std::max(
            best, av[static_cast<size_t>((o * extent + e) * inner + i)]);
      }
      out[static_cast<size_t>(o * inner + i)] = best;
    }
  }
  std::vector<int64_t> out_shape(shape);
  if (keepdim) {
    out_shape[static_cast<size_t>(dim)] = 1;
  } else {
    out_shape.erase(out_shape.begin() + dim);
  }
  return Tensor::FromVector(std::move(out_shape), std::move(out));
}

// -- Shape ----------------------------------------------------------------------

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  int64_t inferred_dim = -1;
  int64_t known = 1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      STHSL_CHECK_EQ(inferred_dim, -1) << "at most one -1 dim in Reshape";
      inferred_dim = static_cast<int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (inferred_dim >= 0) {
    STHSL_CHECK(known != 0 && a.Numel() % known == 0)
        << "cannot infer Reshape dim";
    shape[static_cast<size_t>(inferred_dim)] = a.Numel() / known;
  }
  STHSL_CHECK_EQ(NumelOf(shape), a.Numel()) << "Reshape numel mismatch";

  Tensor a_captured = a;
  std::vector<float> data = a.Data();
  return MakeResult(
      std::move(shape), std::move(data), "reshape", {a},
      [a_captured](const Tensor& g) -> std::vector<Tensor> {
        return {Reshape(g, a_captured.Shape())};
      });
}

Tensor Permute(const Tensor& a, std::vector<int64_t> dims) {
  const auto& shape = a.Shape();
  const size_t rank = shape.size();
  STHSL_CHECK_EQ(dims.size(), rank) << "Permute rank mismatch";
  std::vector<bool> seen(rank, false);
  std::vector<int64_t> out_shape(rank);
  for (size_t i = 0; i < rank; ++i) {
    int64_t d = dims[i];
    if (d < 0) d += static_cast<int64_t>(rank);
    STHSL_CHECK(d >= 0 && d < static_cast<int64_t>(rank) &&
                !seen[static_cast<size_t>(d)])
        << "invalid Permute dims";
    seen[static_cast<size_t>(d)] = true;
    dims[i] = d;
    out_shape[i] = shape[static_cast<size_t>(d)];
  }

  // A strided copy: output dim i reads the source with the stride of
  // source dim dims[i]; rows whose source is contiguous are one memcpy.
  const auto in_strides = StridesOf(shape);
  std::vector<int64_t> src_strides(rank);
  for (size_t i = 0; i < rank; ++i) {
    src_strides[i] = in_strides[static_cast<size_t>(dims[i])];
  }
  const StridedWalk<1> walk(out_shape, {src_strides});
  const int64_t n = a.Numel();
  std::vector<float> out(static_cast<size_t>(n));
  const float* src = a.Data().data();
  float* dst = out.data();
  const int64_t row_stride = walk.RowStride(0);
  exec::ParallelFor(
      0, n, kElemGrain,
      [&](int64_t lo, int64_t hi) {
        walk.ForSpans(lo, hi, [&](int64_t i, const std::array<int64_t, 1>& at,
                                  int64_t len) {
          const float* from = src + at[0];
          if (row_stride == 1) {
            std::memcpy(dst + i, from, static_cast<size_t>(len) * sizeof(float));
          } else {
            for (int64_t j = 0; j < len; ++j) dst[i + j] = from[j * row_stride];
          }
        });
      },
      "exec/permute");

  std::vector<int64_t> inverse(rank);
  for (size_t i = 0; i < rank; ++i) {
    inverse[static_cast<size_t>(dims[i])] = static_cast<int64_t>(i);
  }
  return MakeResult(
      std::move(out_shape), std::move(out), "permute", {a},
      [inverse](const Tensor& g) -> std::vector<Tensor> {
        return {Permute(g, inverse)};
      });
}

Tensor Transpose(const Tensor& a, int64_t dim0, int64_t dim1) {
  const int64_t rank = a.Dim();
  if (dim0 < 0) dim0 += rank;
  if (dim1 < 0) dim1 += rank;
  std::vector<int64_t> dims(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) dims[static_cast<size_t>(i)] = i;
  std::swap(dims[static_cast<size_t>(dim0)], dims[static_cast<size_t>(dim1)]);
  return Permute(a, std::move(dims));
}

Tensor Unsqueeze(const Tensor& a, int64_t dim) {
  auto shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank + 1;
  STHSL_CHECK(dim >= 0 && dim <= rank) << "Unsqueeze dim out of range";
  shape.insert(shape.begin() + dim, 1);
  return Reshape(a, std::move(shape));
}

Tensor Squeeze(const Tensor& a, int64_t dim) {
  auto shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Squeeze dim out of range";
  STHSL_CHECK_EQ(shape[static_cast<size_t>(dim)], 1)
      << "Squeeze on non-unit dim";
  shape.erase(shape.begin() + dim);
  return Reshape(a, std::move(shape));
}

Tensor Narrow(const Tensor& a, int64_t dim, int64_t start, int64_t length) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Narrow dim out of range";
  const int64_t extent = shape[static_cast<size_t>(dim)];
  STHSL_CHECK(start >= 0 && length >= 0 && start + length <= extent)
      << "Narrow range [" << start << ", " << start + length
      << ") out of bounds for extent " << extent;

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }

  std::vector<int64_t> out_shape(shape);
  out_shape[static_cast<size_t>(dim)] = length;
  std::vector<float> out(static_cast<size_t>(outer * length * inner));
  const auto& av = a.Data();
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = av.data() + (o * extent + start) * inner;
    float* dst = out.data() + o * length * inner;
    std::copy(src, src + length * inner, dst);
  }

  Tensor a_captured = a;
  return MakeResult(
      std::move(out_shape), std::move(out), "narrow", {a},
      [a_captured, dim, start, length, outer, inner,
       extent](const Tensor& g) -> std::vector<Tensor> {
        std::vector<float> ga(
            static_cast<size_t>(a_captured.Numel()), 0.0f);
        const auto& gv = g.Data();
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = gv.data() + o * length * inner;
          float* dst = ga.data() + (o * extent + start) * inner;
          std::copy(src, src + length * inner, dst);
        }
        return {Tensor::FromVector(a_captured.Shape(), std::move(ga))};
      });
}

Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim) {
  STHSL_CHECK(!tensors.empty()) << "Cat of zero tensors";
  const auto& first_shape = tensors[0].Shape();
  const int64_t rank = static_cast<int64_t>(first_shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Cat dim out of range";

  int64_t total = 0;
  for (const auto& t : tensors) {
    STHSL_CHECK_EQ(t.Dim(), rank) << "Cat rank mismatch";
    for (int64_t d = 0; d < rank; ++d) {
      if (d != dim) {
        STHSL_CHECK_EQ(t.Size(d), first_shape[static_cast<size_t>(d)])
            << "Cat non-cat dim mismatch at dim " << d;
      }
    }
    total += t.Size(dim);
  }

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) {
    outer *= first_shape[static_cast<size_t>(d)];
  }
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= first_shape[static_cast<size_t>(d)];
  }

  std::vector<int64_t> out_shape(first_shape);
  out_shape[static_cast<size_t>(dim)] = total;
  std::vector<float> out(static_cast<size_t>(outer * total * inner));
  int64_t cursor = 0;
  for (const auto& t : tensors) {
    const int64_t extent = t.Size(dim);
    const auto& tv = t.Data();
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = tv.data() + o * extent * inner;
      float* dst = out.data() + (o * total + cursor) * inner;
      std::copy(src, src + extent * inner, dst);
    }
    cursor += extent;
  }

  std::vector<int64_t> extents;
  extents.reserve(tensors.size());
  for (const auto& t : tensors) extents.push_back(t.Size(dim));

  return MakeResult(
      std::move(out_shape), std::move(out), "cat", tensors,
      [dim, extents](const Tensor& g) -> std::vector<Tensor> {
        std::vector<Tensor> grads;
        grads.reserve(extents.size());
        int64_t cursor = 0;
        for (int64_t extent : extents) {
          grads.push_back(Narrow(g, dim, cursor, extent));
          cursor += extent;
        }
        return grads;
      });
}

Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim) {
  STHSL_CHECK(!tensors.empty()) << "Stack of zero tensors";
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  for (const auto& t : tensors) expanded.push_back(Unsqueeze(t, dim));
  return Cat(expanded, dim);
}

Tensor IndexSelect(const Tensor& a, int64_t dim,
                   const std::vector<int64_t>& indices) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "IndexSelect dim out of range";
  const int64_t extent = shape[static_cast<size_t>(dim)];

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }

  const int64_t count = static_cast<int64_t>(indices.size());
  std::vector<int64_t> out_shape(shape);
  out_shape[static_cast<size_t>(dim)] = count;
  std::vector<float> out(static_cast<size_t>(outer * count * inner));
  const auto& av = a.Data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t j = 0; j < count; ++j) {
      const int64_t idx = indices[static_cast<size_t>(j)];
      STHSL_CHECK(idx >= 0 && idx < extent)
          << "IndexSelect index out of range: " << idx;
      const float* src = av.data() + (o * extent + idx) * inner;
      float* dst = out.data() + (o * count + j) * inner;
      std::copy(src, src + inner, dst);
    }
  }

  Tensor a_captured = a;
  std::vector<int64_t> idx_copy = indices;
  return MakeResult(
      std::move(out_shape), std::move(out), "index_select", {a},
      [a_captured, dim, idx_copy, outer, inner,
       extent](const Tensor& g) -> std::vector<Tensor> {
        std::vector<float> ga(static_cast<size_t>(a_captured.Numel()), 0.0f);
        const auto& gv = g.Data();
        const int64_t count = static_cast<int64_t>(idx_copy.size());
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t j = 0; j < count; ++j) {
            const int64_t idx = idx_copy[static_cast<size_t>(j)];
            const float* src = gv.data() + (o * count + j) * inner;
            float* dst = ga.data() + (o * extent + idx) * inner;
            for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
          }
        }
        return {Tensor::FromVector(a_captured.Shape(), std::move(ga))};
      });
}

Tensor BroadcastTo(const Tensor& a, std::vector<int64_t> shape) {
  if (a.Shape() == shape) return a;
  // Multiplying by ones of the target shape routes through the broadcasting
  // machinery (including gradient reduction on the way back).
  return Mul(a, Tensor::Ones(shape));
}

// -- Softmax --------------------------------------------------------------------

Tensor Softmax(const Tensor& a, int64_t dim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Softmax dim out of range";

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }
  const int64_t extent = shape[static_cast<size_t>(dim)];

  std::vector<float> out(static_cast<size_t>(a.Numel()));
  const auto& av = a.Data();
  // Each (outer, inner) lane is independent; parallel chunks own disjoint
  // lanes, so any thread count reproduces the serial result bitwise.
  const int64_t lane_grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, extent));
  exec::ParallelFor(
      0, outer * inner, lane_grain,
      [&](int64_t lo, int64_t hi) {
        if (inner == 1) {
          // Contiguous lanes (the common last-dim case): canonical reduce_max
          // / reduce_sum and a vectorized normalize. exp stays scalar libm
          // per the simd.h transcendental rule.
          const auto& ks = simd::Kernels();
          for (int64_t o = lo; o < hi; ++o) {
            const float* row = av.data() + o * extent;
            float* out_row = out.data() + o * extent;
            const float max_val = ks.reduce_max(extent, row);
            for (int64_t e = 0; e < extent; ++e) {
              out_row[e] = std::exp(row[e] - max_val);
            }
            const float denom = ks.reduce_sum(extent, out_row);
            ks.div_scalar(extent, out_row, denom, out_row);
          }
          return;
        }
        for (int64_t l = lo; l < hi; ++l) {
          const int64_t o = l / inner;
          const int64_t i = l % inner;
          float max_val = -std::numeric_limits<float>::infinity();
          for (int64_t e = 0; e < extent; ++e) {
            max_val = std::max(
                max_val,
                av[static_cast<size_t>((o * extent + e) * inner + i)]);
          }
          float denom = 0.0f;
          for (int64_t e = 0; e < extent; ++e) {
            const size_t idx =
                static_cast<size_t>((o * extent + e) * inner + i);
            out[idx] = std::exp(av[idx] - max_val);
            denom += out[idx];
          }
          for (int64_t e = 0; e < extent; ++e) {
            out[static_cast<size_t>((o * extent + e) * inner + i)] /= denom;
          }
        }
      },
      "exec/softmax");

  Tensor y = Tensor::FromVector(shape, out);  // detached copy for backward
  return MakeResult(
      shape, std::move(out), "softmax", {a},
      [y, outer, inner, extent,
       lane_grain](const Tensor& g) -> std::vector<Tensor> {
        const auto& yv = y.Data();
        const auto& gv = g.Data();
        std::vector<float> ga(yv.size());
        exec::ParallelFor(
            0, outer * inner, lane_grain,
            [&](int64_t lo, int64_t hi) {
              if (inner == 1) {
                // dx = y * (g - dot): canonical dot, then two vector strips
                // (g - dot written as g + (-dot), exact for all operands).
                const auto& ks = simd::Kernels();
                for (int64_t o = lo; o < hi; ++o) {
                  const float* g_row = gv.data() + o * extent;
                  const float* y_row = yv.data() + o * extent;
                  float* ga_row = ga.data() + o * extent;
                  const float dot = ks.dot(extent, g_row, y_row);
                  ks.add_scalar(extent, g_row, -dot, ga_row);
                  ks.mul(extent, y_row, ga_row, ga_row);
                }
                return;
              }
              for (int64_t l = lo; l < hi; ++l) {
                const int64_t o = l / inner;
                const int64_t i = l % inner;
                float dot = 0.0f;
                for (int64_t e = 0; e < extent; ++e) {
                  const size_t idx =
                      static_cast<size_t>((o * extent + e) * inner + i);
                  dot += gv[idx] * yv[idx];
                }
                for (int64_t e = 0; e < extent; ++e) {
                  const size_t idx =
                      static_cast<size_t>((o * extent + e) * inner + i);
                  ga[idx] = yv[idx] * (gv[idx] - dot);
                }
              }
            },
            "exec/softmax");
        return {Tensor::FromVector(y.Shape(), std::move(ga))};
      });
}

// -- Losses ---------------------------------------------------------------------

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  return Mean(Square(Sub(pred, target)));
}

Tensor SquaredErrorSum(const Tensor& pred, const Tensor& target) {
  return Sum(Square(Sub(pred, target)));
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  Tensor norm = Sqrt(Sum(Square(a), {-1}, /*keepdim=*/true));
  return Div(a, AddScalar(norm, eps));
}

}  // namespace sthsl
